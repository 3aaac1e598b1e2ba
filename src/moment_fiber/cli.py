"""Batch front-end: parse inputs, run analyses, emit reports.

Subcommands:

* ``moment-fiber analyze INPUT``: full structural report for a weight
  matrix, with certificates; INPUT is a path (JSON or CSV), inline JSON,
  or ``-`` for stdin.
* ``moment-fiber kac SPEC...``: grading data for one Kac diagram, twisted
  or not, or a labeling scan.  SPEC is ``TYPE [twist=T] [labels=L |
  all-ones]`` or ``TYPE [twist=T] scan [--delta-ge N]
  [--check-order-not-div A,B]``, the parts after TYPE in any order.  Each
  part may appear at most once, and a list is comma-separated integers
  with no empty field.
* ``moment-fiber selftest``: the suites of ``moment_fiber.selftest``.

Exit codes: 0 success (also when the reader closes the output pipe
early), 1 selftest mismatch, 2 input parse error (a repeated kac spec part
or an empty list field too), 3 capability refusal.
Every number in an ``analyze`` report is a JSON integer: each
certificate is an integer vector.
Set MOMENT_FIBER_COLOR=0|1 to force colored text output off or on.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Any, Iterator, NoReturn, Optional, Sequence

from . import __version__, polytope, theta, torus
from .errors import CapabilityError, InputError, is_int, record
# run_selftest for _dispatch; _random_weight_matrix only for perfbench,
# which reads both here until ROADMAP item 1 points it at selftest.
from .selftest import _random_weight_matrix, run_selftest

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_PARSE = 2
EXIT_CAPABILITY = 3

FORMATS = ("json", "text")


# json.dumps(obj, sort_keys=True) builds an encoder per call; this one
# holds no state between calls, so it is shared.
_ENCODER = json.JSONEncoder(sort_keys=True)


def _dumps(obj: Any) -> str:
    """The CLI's one JSON style: one compact line, keys sorted, so the C
    encoder runs; the text of ``json.dumps(obj, sort_keys=True)``, by one
    shared encoder.  Pipe it through ``python -m json.tool`` to indent
    it."""
    return _ENCODER.encode(obj)


def _cert_dict(cert: polytope.HullCertificate) -> dict:
    if isinstance(cert, polytope.Inside):
        return {"kind": "inside", "coefficients": list(cert.coefficients)}
    return {"kind": "outside", "functional": list(cert.functional)}


# The JSON name of each type that json.loads returns.
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null", dict: "object"}


def _kind(value: Any) -> str:
    """The JSON name of ``value``'s type, else the Python name."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


@record
class AnalysisReport:
    """JSON-ready analysis result, schema 2: each fact is written once.  A
    property holds its ``value`` and one of a ``certificate``, a ``reason``
    or a ``justification``, the dotted name of the field that holds the
    fact.  Round-trips exactly through JSON."""

    input: dict
    rank: int
    fiber_dimension: int
    splits: dict
    properties: dict
    components: dict
    cartan_subspace: Optional[list]
    nonvisible_witness: Optional[dict]
    schema: int = 2

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        """InputError for anything but a dict, named by its JSON type, a
        missing field (a schema-1 report has no ``schema``), another
        schema, a ``components`` that is not an object, named by its JSON
        type, or a ``rank``, ``components.count`` or ``fiber_dimension``
        that is not an int (a bool neither), named by its field and JSON
        type."""
        if not isinstance(data, dict):
            raise InputError(f"report is a JSON {_kind(data)}, not an object")
        missing = [name for name in cls._fields if name not in data]
        if missing:
            raise InputError(f"report lacks the field(s) {', '.join(missing)}")
        if not is_int(data["schema"]) or data["schema"] != cls.schema:
            raise InputError(f"report schema {data['schema']!r} is not {cls.schema}")
        comps = data["components"]
        if not isinstance(comps, dict):
            raise InputError(
                f"report components is a JSON {_kind(comps)}, not an object"
            )
        count = comps.get("count")
        for name, value in [("rank", data["rank"]), ("components.count", count),
                            ("fiber_dimension", data["fiber_dimension"])]:
            if not is_int(value):
                raise InputError(f"report {name} is a JSON {_kind(value)}, not an integer")
        return cls(**{name: data[name] for name in cls._fields})

    def to_json(self) -> str:
        # The fields already hold only JSON types, so the report's own
        # field dict is dumped as is: no deep copy.
        return _dumps(vars(self))

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        """The report of a JSON text, read by ``_read_json``; InputError
        also for a number that is not an integer, NaN and Infinity too,
        named by its token."""
        return cls.from_dict(
            _read_json(text, parse_float=_not_int, parse_constant=_not_int)
        )


def _not_int(token: str) -> NoReturn:
    raise InputError(f"report number {_cut(token)} is not an integer")


def analyze(
    w: torus.WeightMatrix, max_components: Optional[int] = None
) -> AnalysisReport:
    """Run every structural decision procedure on one weight matrix.

    One ``torus.Analysis`` feeds the rank, splits, components, visibility,
    Cartan vectors and witness; the stability simplex is the only other
    procedure run.  A ``max_components`` that is neither None nor an int
    >= 0 raises InputError before the simplex runs.  The non-visible
    reason names the witness relation's support, 1-based, in index order.
    """
    a = torus.Analysis.of(w)
    comps = a.components(max_components)
    rank, i_d, i_f = a.rank, a.dependent, a.free
    stable, stable_cert = torus.is_stable(w)
    vis = a.visibility

    properties = {
        "locally_free": {"value": rank == w.r, "justification": "rank"},
        "stable": {"value": stable, "certificate": _cert_dict(stable_cert)},
        "irreducible": {"value": not i_f, "justification": "splits.free"},
        "normal": {"value": not i_f, "justification": "splits.free"},
    }
    if isinstance(vis, torus.VisibleDecomposition):
        # The blocks certify it and give the Cartan vectors.
        cartan, witness_dict = [list(v) for v in a.cartan_vectors], None
        blocks = [
            {"indices": sorted(b.indices), "relation": list(b.relation)}
            for b in vis.blocks
        ]
        cert = {"fixed": sorted(vis.fixed), "blocks": blocks}
        properties["visible"] = {"value": True, "certificate": cert}
        properties["polar"] = {"value": True, "justification": "cartan_subspace"}
    else:
        cartan, witness_dict = None, {
            "x": list(vis.pair.x),
            "phi": list(vis.pair.phi),
            "relation": list(vis.relation),
        }
        reason = (
            f"circuit {[i for i, c in enumerate(vis.relation, 1) if c]} has a"
            " mixed-sign relation, so 0 is not interior to its hull"
        )
        properties["visible"] = {"value": False, "reason": reason}
        properties["polar"] = {
            "value": None,
            "reason": "polarity is certified here only through visibility",
        }

    return AnalysisReport(
        input={"weights": list(map(list, w.matrix.entries))},
        rank=rank,
        fiber_dimension=a.fiber_dimension,
        splits={"dependent": sorted(i_d), "free": sorted(i_f)},
        properties=properties,
        components={
            "count": 1 << len(i_f),
            "list": None if comps is None else [sorted(c) for c in comps],
        },
        cartan_subspace=cartan,
        nonvisible_witness=witness_dict,
    )


# -- input parsing -------------------------------------------------------------


# What the command line reads as an integer: no spaces, underscores or
# non-ASCII digits, which int() would accept and JSON input refuses.
_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def _read_int(text: str, what: str = "", expected: str = "an integer") -> int:
    """``int(text)`` for an optional sign and ASCII digits; else an
    InputError that starts with ``what``.  An integer past the digit
    limit is named by its digit count and the limit, never echoed; other
    text gets ``what needs <expected>, got 'text'``, the text cut to its
    first 40 characters and its length.  The one integer reader of the
    command line."""
    if _INT_TEXT.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # only the length limit rejects it
            raise InputError(
                f"{what}{': ' if what else ''}an integer of"
                f" {len(text.lstrip('+-'))} digits exceeds the limit of"
                f" {sys.get_int_max_str_digits()} digits"
            ) from None
    needs = f"needs {expected}, got {_cut(text)}"
    raise InputError(f"{what} {needs}" if what else needs)


def _cut(text: str) -> str:
    """``text`` quoted for an error message: its first 40 characters, then
    its length if it is longer."""
    return repr(text[:40]) + (f"... ({len(text)} characters)" if len(text) > 40 else "")


def _read_json(text: str, **hooks: Any) -> Any:
    """``json.loads(text, **hooks)`` with each integer read by
    ``_read_int``: the CLI's one JSON reader, of weight matrices and
    reports.  Malformed text, nesting too deep to parse and an integer
    past the digit limit are each an InputError."""
    try:
        return json.loads(text, parse_int=_read_int, **hooks)
    except RecursionError:
        raise InputError("JSON input is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise InputError(str(exc)) from None


def _parse_weights_json(text: str) -> torus.WeightMatrix:
    data = _read_json(text)
    if isinstance(data, list):
        rows = data
    elif isinstance(data, dict) and "weights" in data:
        rows = data["weights"]
    else:
        raise InputError('JSON input needs {"weights": [[...], ...]}')
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("weights must be a list of integer rows")
    return torus.WeightMatrix.from_rows(rows)


def _parse_weights_csv(text: str) -> torus.WeightMatrix:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # An empty field, between two commas or at either end, is read
        # as '' and rejected by _read_int.
        fields = [tok for part in stripped.split(",") for tok in part.split() or [""]]
        rows.append(
            [
                _read_int(tok, f"line {lineno}, field {colno}")
                for colno, tok in enumerate(fields, start=1)
            ]
        )
    if not rows:
        raise InputError("empty CSV input")
    return torus.WeightMatrix.from_rows(rows)


def _load_matrix(spec: str) -> torus.WeightMatrix:
    """The weight matrix named by ``spec``: inline JSON, ``-`` for stdin,
    or a path.  One leading byte-order mark (U+FEFF) of a file or stdin is
    dropped.  The text is JSON when it then opens with a bracket or the
    path ends in ``.json``, and CSV otherwise.  Every fault of the input, a
    file that cannot be opened or decoded as UTF-8 and malformed JSON
    too, is an InputError; one that cannot be opened is named by its
    path, cut by ``_cut``, and the error's ``strerror``."""
    stripped = spec.strip()
    try:
        if stripped.startswith(("{", "[")):
            text = stripped
        elif stripped == "-":
            text = sys.stdin.read()
        else:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {_cut(spec)}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or a NUL in the path
        raise InputError(str(exc)) from None
    text = text.removeprefix("\ufeff")  # a byte-order mark some editors write
    if spec.endswith(".json") or text.lstrip().startswith(("{", "[")):
        return _parse_weights_json(text)
    return _parse_weights_csv(text)


# -- kac subcommand -------------------------------------------------------------


_KAC_NODE_ORDER_DOC = """\
Kac label order (affine node alpha_0 always last):
  untwisted : Bourbaki alpha_1 .. alpha_n, then alpha_0
  twisted   : alpha_1 .. alpha_l as numbered in Kac's Tables Aff 2 and
              Aff 3, then alpha_0
"""


def _read_ints(text: str, what: str) -> list[int]:
    return [
        _read_int(v, what, "comma-separated integers") for v in text.split(",")
    ]


_KAC_SCAN_OPTIONS = ("--delta-ge", "--check-order-not-div")


def _kac_parts(words: Sequence[str]) -> dict[str, str]:
    """One pass over the words of a kac spec: ``{part: text}``, where the
    head word is the ``type`` part, ``twist=`` and ``labels=`` carry the
    text after ``=``, a scan option the word after it, and the flags
    ``scan`` and ``all-ones`` the empty text.  Each part appears at most
    once, and no part goes unread by the command it selects."""
    if not words:
        raise InputError("kac needs a diagram spec, e.g. 'A2 twist=1 labels=1,1,1'")
    head = words[0]
    if head in ("scan", "all-ones", *_KAC_SCAN_OPTIONS) or "=" in head:
        raise InputError(f"the spec must start with the diagram type, not {head!r}")
    parts = {"type": head}
    it = iter(words[1:])
    for word in it:
        part, eq, text = word.partition("=")
        if (eq and part in ("twist", "labels")) or word in ("scan", "all-ones"):
            pass
        elif word in _KAC_SCAN_OPTIONS:
            text = next(it, None)
            if text is None:
                raise InputError(f"{word} needs a value")
        else:
            raise InputError(f"unrecognized kac token {word!r}")
        if part in parts:
            raise InputError(f"{part} is given more than once")
        parts[part] = text
    if "scan" in parts and ("labels" in parts or "all-ones" in parts):
        raise InputError("scan runs over every labeling; drop labels= and all-ones")
    if "labels" in parts and "all-ones" in parts:
        raise InputError("labels= and all-ones both set the labels; keep one")
    for part in parts:
        if part in _KAC_SCAN_OPTIONS and "scan" not in parts:
            raise InputError(f"{part} applies only to scan")
    return parts


def cmd_kac(tokens: Sequence[str]) -> dict:
    """The kac output for a spec given as one or more strings of words."""
    parts = _kac_parts([word for tok in tokens for word in tok.split()])
    head = parts["type"]
    family = head[0].upper()
    rank = _read_int(head[1:], f"the rank of {head[0]!r}")
    twist = _read_int(parts.get("twist", "1"), "twist=")
    out: dict[str, Any] = {"type": f"{family}{rank}", "twist": twist}
    if "scan" in parts:
        min_delta = _read_int(parts.get("--delta-ge", "2"), "--delta-ge")
        option = "--check-order-not-div"
        not_div = _read_ints(parts[option], option) if option in parts else []
        if any(q <= 0 for q in not_div):
            raise InputError(f"{option} needs positive divisors, got {parts[option]!r}")
        hits = theta.levi_order_scan(family, rank, min_delta, twist)
        out["scan"] = {
            "min_delta": min_delta,
            "hits": [
                {
                    "labels": list(h.diagram.labels),
                    "order": h.order,
                    "delta": h.delta,
                }
                for h in hits
            ],
            "order_not_divisible_by": not_div,
            "violations": [
                {"labels": list(h.diagram.labels), "order": h.order}
                for h in hits if any(h.order % q == 0 for q in not_div)
            ],
        }
        return out
    if "labels" in parts:
        labels = _read_ints(parts["labels"], "labels=")
        d = theta.KacDiagram.of(family, rank, labels, twist=twist)
    else:
        d = theta.KacDiagram.all_ones(family, rank, twist)
    gd = theta.graded_dims(d)
    out.update(
        labels=list(d.labels), order=gd.order, delta=gd.delta, dims=list(gd.dims)
    )
    return out


# -- rendering ------------------------------------------------------------------


def _want_color(stream) -> bool:
    env = os.environ.get("MOMENT_FIBER_COLOR")
    if env == "1":
        return True
    if env == "0":
        return False
    return bool(getattr(stream, "isatty", lambda: False)())


# The text of a property value and its ANSI color code.
_MARKS = {True: ("yes", "32"), False: ("no", "31"), None: ("?", "33")}


def _mark(flag: Optional[bool], color: bool) -> str:
    sym, code = _MARKS[flag]
    return f"\x1b[{code}m{sym}\x1b[0m" if color else sym


def _render_report_text(rep: AnalysisReport, stream) -> None:
    color = _want_color(stream)
    p = rep.properties
    print(f"weights: {rep.input['weights']}", file=stream)
    print(
        f"rank {rep.rank}, fiber dimension {rep.fiber_dimension},"
        f" I_d={rep.splits['dependent']}, I_f={rep.splits['free']}",
        file=stream,
    )
    for key in ("locally_free", "stable", "visible", "polar", "irreducible",
                "normal"):
        line = f"  {key:13s} {_mark(p[key]['value'], color)}"
        if "reason" in p[key]:
            line += f"  ({p[key]['reason']})"
        print(line, file=stream)
    comp = rep.components
    if comp["list"] is not None:
        print(f"components ({comp['count']}): {comp['list']}", file=stream)
    else:
        print(f"components: {comp['count']} (list capped)", file=stream)
    if rep.cartan_subspace is not None:
        print(f"cartan subspace vectors: {rep.cartan_subspace}", file=stream)
    if rep.nonvisible_witness is not None:
        print(f"closed-pair witness: {rep.nonvisible_witness}", file=stream)


def _kac_text(out: dict) -> Iterator[str]:
    """The text lines of a kac output: ``key: value`` per field, and for a
    scan one line per hit and per violation, or ``none``."""
    yield from (f"{key}: {val}" for key, val in out.items() if key != "scan")
    scan = out.get("scan")
    if scan is None:
        return
    yield f"min_delta: {scan['min_delta']}"
    for h in scan["hits"]:
        yield f"hit: labels {h['labels']} order {h['order']} delta {h['delta']}"
    if not scan["hits"]:
        yield "hits: none"
    yield f"order_not_divisible_by: {scan['order_not_divisible_by']}"
    for v in scan["violations"]:
        yield f"violation: labels {v['labels']} order {v['order']}"
    if not scan["violations"]:
        yield "violations: none"


# -- entry points ----------------------------------------------------------------


def _option_int(low: Optional[int] = None):
    """argparse type: an integer read by ``_read_int``, and >= ``low`` when
    a bound is given; anything else exits 2 with a message that shows at
    most 40 characters of the text."""

    def parse(text: str) -> int:
        try:
            value = _read_int(text)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {_cut(text)}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="moment-fiber",
        description="Exact structural analysis of torus moment-map null"
        " fibers, plus a Kac-diagram grading calculator.",
        epilog=_KAC_NODE_ORDER_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a weight matrix")
    pa.add_argument("input", help="path, inline JSON, or - for stdin")
    pa.add_argument("--format", choices=FORMATS, action="append")
    pa.add_argument("--max-components", type=_option_int(0), default=4096,
                    help="cap on the enumerated component list; the count"
                    " is always reported")

    pk = sub.add_parser("kac", help="Kac diagram gradings and scans")
    pk.add_argument("spec", nargs=argparse.REMAINDER,
                    help="e.g. E6 twist=1 labels=1,1,1,0,1,1,1")
    pk.add_argument("--format", choices=FORMATS, action="append")

    ps = sub.add_parser("selftest", help="randomized oracle equivalence run")
    ps.add_argument("--seed", type=_option_int(), default=0)
    ps.add_argument("--count", type=_option_int(1), default=100)
    ps.add_argument("--max-n", type=_option_int(1), default=8)
    ps.add_argument("--max-r", type=_option_int(1), default=5)
    ps.add_argument("--max-entry", type=_option_int(0), default=5)
    ps.add_argument("--jobs", type=_option_int(1), default=1)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        status = _dispatch(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader stopped early (``| head``); quiet the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return status


def _one_format(parser: argparse.ArgumentParser, formats: list[str]) -> str:
    """The ``--format`` given at most once, "text" if none; else exit 2."""
    if len(formats) > 1:
        parser.error("argument --format: given more than once")
    fmt = formats[0] if formats else "text"
    if fmt not in FORMATS:
        parser.error(
            f"argument --format: needs one of {', '.join(FORMATS)}, got {fmt!r}"
        )
    return fmt


def _read_request(parser: argparse.ArgumentParser, args) -> tuple[str, Any]:
    """The ``--format`` and what ``analyze`` or ``kac`` reads: the weight
    matrix, or the kac output computed from the spec; InputError for a
    malformed one."""
    if args.command == "analyze":
        return _one_format(parser, args.format or []), _load_matrix(args.input)
    # REMAINDER swallows trailing options: split the spec into words once
    # and pull --format back out.
    formats, words = args.format or [], []
    it = iter([word for tok in args.spec for word in tok.split()])
    for word in it:
        if word == "--format":
            formats.append(next(it, ""))
        else:
            words.append(word)
    return _one_format(parser, formats), cmd_kac(words)


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            ok, lines = run_selftest(
                args.seed, args.count, args.max_n, args.max_r, args.max_entry, args.jobs
            )
            print(*lines, sep="\n")
            return EXIT_OK if ok else EXIT_SELFTEST_FAIL
        try:  # only a fault of the input is a parse error
            fmt, request = _read_request(parser, args)
        except InputError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        if args.command == "analyze":
            rep = analyze(request, max_components=args.max_components)
            if fmt == "json":
                print(rep.to_json())
            else:
                _render_report_text(rep, sys.stdout)
        elif fmt == "json":
            print(_dumps(request))
        else:
            print(*_kac_text(request), sep="\n")
        return EXIT_OK
    except CapabilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
