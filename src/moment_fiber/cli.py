"""Batch front-end: parse inputs, run analyses, emit reports.

Subcommands:

* ``moment-fiber analyze INPUT``: full structural report for a weight
  matrix, with certificates; INPUT is a path (JSON or CSV), inline JSON,
  or ``-`` for stdin.
* ``moment-fiber kac SPEC...``: grading data for one Kac diagram, twisted
  or not, or a labeling scan (``scan --delta-ge N
  [--check-order-not-div A,B]``).
* ``moment-fiber selftest``: randomized oracle-vs-fast-path suites.

Exit codes: 0 success (also when the reader closes the output pipe
early), 1 selftest mismatch, 2 input parse error, 3 capability refusal.
All rationals are emitted as exact "p/q" strings; ``--float-hint`` adds
decimal approximations alongside, never replacing.
Set MOMENT_FIBER_COLOR=0|1 to force colored text output off or on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import __version__, oracle, polytope, theta, torus
from .errors import CapabilityError, InputError

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_PARSE = 2
EXIT_CAPABILITY = 3

FORMATS = ("json", "text")


def _dumps(obj: Any) -> str:
    """The CLI's one JSON style: one compact line, keys sorted, so the C
    encoder runs.  Pipe it through ``python -m json.tool`` to indent it."""
    return json.dumps(obj, sort_keys=True)


def _frac_str(x: Fraction) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _cert_dict(cert: polytope.HullCertificate, float_hint: bool) -> dict:
    if isinstance(cert, polytope.Inside):
        out: dict[str, Any] = {
            "kind": "inside",
            "coefficients": [_frac_str(c) for c in cert.coefficients],
        }
        if float_hint:
            out["coefficients_hint"] = [float(c) for c in cert.coefficients]
        return out
    return {"kind": "outside", "functional": list(cert.functional)}


@dataclass(frozen=True)
class AnalysisReport:
    """JSON-ready analysis result; every flag carries its certificate or
    the rank data justifying it.  Round-trips exactly through JSON."""

    input: dict
    rank: int
    fiber_dimension: int
    splits: dict
    properties: dict
    components: dict
    cartan_subspace: Optional[list]
    nonvisible_witness: Optional[dict]
    reduction_support: list

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})

    def to_json(self) -> str:
        # The fields already hold only JSON types, so the report's own
        # field dict is dumped as is: no deep copy.
        return _dumps(vars(self))

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls.from_dict(json.loads(text))


def analyze(
    w: torus.WeightMatrix,
    max_components: Optional[int] = None,
    float_hint: bool = False,
) -> AnalysisReport:
    """Run every structural decision procedure on one weight matrix.

    One ``torus.Analysis`` (the fundamental circuits of the weights, then
    one check of the decomposition or witness they give) feeds the rank,
    splits, components, visibility, Cartan vectors and witness; the
    stability simplex is the only other procedure run.
    """
    a = torus.Analysis.of(w)
    rank, i_d, i_f = a.rank, a.dependent, a.free
    stable, stable_cert = torus.is_stable(w)
    dec = a.decomposition
    visible = a.witness is None
    cartan = [list(v) for v in a.cartan_vectors] if visible else None
    comps = a.components(max_components)

    properties: dict[str, dict] = {}
    properties["locally_free"] = {
        "value": rank == w.r,
        "justification": {
            "rank": rank,
            "torus_rank": w.r,
            "action_kernel_dim": w.r - rank,
        },
    }
    properties["stable"] = {
        "value": stable,
        "certificate": _cert_dict(stable_cert, float_hint),
    }
    if visible:
        blocks = [
            {
                "indices": sorted(b.indices),
                "relation": [_frac_str(c) for c in b.relation],
                **(
                    {"relation_hint": [float(c) for c in b.relation]}
                    if float_hint
                    else {}
                ),
            }
            for b in dec.blocks
        ]
        properties["visible"] = {
            "value": True,
            "certificate": {"fixed": sorted(dec.fixed), "blocks": blocks},
        }
        properties["polar"] = {
            "value": True,
            "certificate": {
                "cartan_vectors": cartan,
                "expected_count": w.n - rank,
            },
        }
    else:
        properties["visible"] = {"value": False, "reason": dec.reason}
        properties["polar"] = {
            "value": None,
            "note": "polarity is certified here only through visibility",
        }
    properties["irreducible"] = {
        "value": not i_f,
        "justification": {"free_indices": sorted(i_f)},
    }
    properties["normal"] = {
        "value": not i_f,
        "justification": {
            "equivalent_to_irreducible": True,
            "free_indices": sorted(i_f),
        },
    }

    wit = a.witness
    witness_dict = None if visible else {
        "x": [_frac_str(v) for v in wit.pair.x],
        "phi": [_frac_str(v) for v in wit.pair.phi],
        "relation": list(wit.relation),
    }

    return AnalysisReport(
        input={"weights": [list(r) for r in w.matrix.entries]},
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
        reduction_support=sorted(i_d),
    )


# -- input parsing -------------------------------------------------------------


def _too_many_digits(digits: str) -> str:
    return (
        f"an integer of {len(digits)} digits exceeds the limit of"
        f" {sys.get_int_max_str_digits()} digits"
    )


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # only the length limit rejects a JSON integer
        raise InputError(_too_many_digits(text.lstrip("-"))) from None


def _parse_weights_json(text: str) -> torus.WeightMatrix:
    try:
        data = json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise InputError("JSON input is nested too deeply") from None
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
        row = []
        for colno, tok in enumerate(stripped.replace(",", " ").split(), start=1):
            try:
                row.append(int(tok))
            except ValueError:
                digits = tok[1:] if tok[:1] in "+-" else tok
                if digits.isdecimal():  # only the length limit rejects it
                    raise InputError(
                        f"line {lineno}, field {colno}:"
                        f" {_too_many_digits(digits)}"
                    ) from None
                raise InputError(
                    f"line {lineno}, field {colno}: {tok!r} is not an integer"
                ) from None
        rows.append(row)
    if not rows:
        raise InputError("empty CSV input")
    return torus.WeightMatrix.from_rows(rows)


def _load_matrix(spec: str) -> torus.WeightMatrix:
    """The weight matrix named by ``spec``: inline JSON, ``-`` for stdin,
    or a path.  The text is JSON when it opens with a bracket or the path
    ends in ``.json``, and CSV otherwise."""
    stripped = spec.strip()
    if stripped.startswith(("{", "[")):
        text = stripped
    elif stripped == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {spec}: {exc}") from None
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


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{what} needs an integer, got {text!r}") from None


def _diagram_from_tokens(tokens: Sequence[str]) -> tuple[str, int, int, list[int] | None, dict]:
    """Parse 'E6 twist=1 labels=..' token streams; returns scan options too."""
    if not tokens:
        raise InputError("kac needs a diagram spec, e.g. 'A2 twist=1 labels=1,1,1'")
    head = tokens[0].strip()
    if len(head) < 2 or head[0].upper() not in "ABCDEFG":
        raise InputError(f"cannot parse type {head!r} (expected e.g. E6, A2)")
    family = head[0].upper()
    try:
        rank = int(head[1:])
    except ValueError:
        raise InputError(f"cannot parse rank in {head!r}") from None
    twist = 1
    labels: list[int] | None = None
    opts: dict[str, Any] = {"scan": False, "delta_ge": 2, "not_div": []}
    it = iter(tokens[1:])
    for tok in it:
        if tok.startswith("twist="):
            twist = _parse_int(tok.split("=", 1)[1], "twist=")
        elif tok.startswith("labels="):
            try:
                labels = [int(v) for v in tok.split("=", 1)[1].split(",") if v != ""]
            except ValueError:
                raise InputError(f"bad labels in {tok!r}") from None
        elif tok == "all-ones":
            labels = "all-ones"  # type: ignore[assignment]
        elif tok == "scan":
            opts["scan"] = True
        elif tok in ("--delta-ge", "--check-order-not-div"):
            value = next(it, None)
            if value is None:
                raise InputError(f"{tok} needs a value")
            if tok == "--delta-ge":
                opts["delta_ge"] = _parse_int(value, tok)
            else:
                opts["not_div"] = [
                    _parse_int(v, tok) for v in value.split(",") if v
                ]
                if any(q <= 0 for q in opts["not_div"]):
                    raise InputError(f"{tok} needs positive divisors, got {value!r}")
        else:
            raise InputError(f"unrecognized kac token {tok!r}")
    return family, rank, twist, labels, opts


def _worker_count(jobs: int) -> int:
    """A requested worker count clamped to 1..os.cpu_count()."""
    return max(1, min(jobs, os.cpu_count() or 1))


def cmd_kac(tokens: Sequence[str]) -> dict:
    flat: list[str] = []
    for tok in tokens:
        flat.extend(tok.split())
    family, rank, twist, labels, opts = _diagram_from_tokens(flat)
    if opts["scan"]:
        hits = theta.levi_order_scan(family, rank, opts["delta_ge"], twist)
        violations = [
            h for h in hits
            if any(h.order % q == 0 for q in opts["not_div"])
        ]
        return {
            "type": f"{family}{rank}",
            "twist": twist,
            "scan": {
                "min_delta": opts["delta_ge"],
                "hits": [
                    {
                        "labels": list(h.diagram.labels),
                        "order": h.order,
                        "delta": h.delta,
                    }
                    for h in hits
                ],
                "order_not_divisible_by": opts["not_div"],
                "violations": [
                    {"labels": list(h.diagram.labels), "order": h.order}
                    for h in violations
                ],
            },
        }
    if labels == "all-ones" or labels is None:
        d = theta.KacDiagram.all_ones(family, rank, twist)
    else:
        d = theta.KacDiagram.of(family, rank, labels, twist=twist)
    gd = theta.graded_dims(d)
    return {
        "type": f"{family}{rank}",
        "twist": twist,
        "labels": list(d.labels),
        "order": gd.order,
        "delta": gd.delta,
        "dims": list(gd.dims),
    }


# -- selftest -------------------------------------------------------------------


def _random_weight_matrix(
    rng: random.Random, max_n: int, max_r: int, max_entry: int
) -> torus.WeightMatrix:
    n = rng.randint(1, max_n)
    r = rng.randint(1, max_r)
    rows = [
        [rng.randint(-max_entry, max_entry) for _ in range(r)] for _ in range(n)
    ]
    if rng.random() < 0.15:  # force a zero row: degenerate strata matter
        rows[rng.randrange(n)] = [0] * r
    if n >= 2 and rng.random() < 0.15:  # force a duplicate row
        rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
    return torus.WeightMatrix.from_rows(rows)


def _selftest_chunk(args: tuple[int, int, int, int, int]) -> list[str]:
    """One shard of the randomized suites; returns failure descriptions."""
    seed, count, max_n, max_r, max_entry = args
    rng = random.Random(seed)
    failures: list[str] = []

    def fail(kind: str, w: torus.WeightMatrix) -> None:
        failures.append(
            f"{kind}: seed={seed} weights={[list(r) for r in w.matrix.entries]}"
        )

    for _ in range(count):
        w = _random_weight_matrix(rng, max_n, max_r, max_entry)
        a = torus.Analysis.of(w)  # one elimination feeds every suite
        if w.n <= 12:
            comps = a.components()
            brute = oracle.brute_components(w)
            if set(comps) != set(brute):
                fail("component mismatch", w)
            if len(comps) != len(brute):
                fail("component count", w)
        dec = a.decomposition
        visible = isinstance(dec, torus.VisibleDecomposition)
        if w.n <= 7:
            v_brute = oracle.brute_visible(w)
            if visible != isinstance(v_brute, torus.VisibleDecomposition):
                fail("visibility verdict mismatch", w)
            elif visible and oracle.check_decomposition(w, dec) is not None:
                fail("decomposition verification", w)
        if w.n <= 6 and a.rank == w.r:
            for mask in range(1 << w.n):
                subset = {i + 1 for i in range(w.n) if mask >> i & 1}
                p = torus._smooth_witness(w, subset)
                if any(v != 0 for v in torus.moment_eval(w, p)):
                    fail("smooth witness off fiber", w)
                elif torus.stabilizer_dim(w, p) != 0:
                    fail("smooth witness stabilizer", w)
                elif oracle.tangent_dim(w, p) != a.fiber_dimension:
                    fail("smooth witness tangent dimension", w)
        if (a.witness is None) != visible:
            fail("nonvisible witness presence", w)

        d = rng.randint(1, 4)
        pts = [
            tuple(rng.randint(-4, 4) for _ in range(d))
            for _ in range(rng.randint(1, 6))
        ]
        q = polytope.HullQuery.of(pts)
        hull = polytope.zero_in_hull(q)
        if not polytope.verify_certificate(q, hull, relative_interior=False):
            failures.append(f"hull certificate: seed={seed} points={pts}")
        elif isinstance(hull, polytope.Inside) != oracle.brute_zero_in_hull(pts):
            failures.append(f"hull verdict: seed={seed} points={pts}")
    return failures


def run_selftest(
    seed: int = 0,
    count: int = 100,
    max_n: int = 8,
    max_r: int = 5,
    max_entry: int = 5,
    jobs: int = 1,
) -> tuple[bool, list[str]]:
    """Oracle-vs-fast-path randomized suites; returns (ok, messages)."""
    if min(count, jobs, max_n, max_r) < 1 or max_entry < 0:
        raise InputError(
            "selftest needs count, jobs, max_n and max_r >= 1 and max_entry >= 0"
        )
    # The shards depend on --jobs and --count only, so every host checks
    # the same matrices; the host's CPU count bounds only the processes.
    shards = min(jobs, count)
    per, extra = divmod(count, shards)
    args = [
        (seed + 1000 * i, per + (i < extra), max_n, max_r, max_entry)
        for i in range(shards)
    ]
    processes = _worker_count(shards)
    if processes == 1:
        results = [_selftest_chunk(a) for a in args]
    else:
        import multiprocessing  # only here: it costs about 1 MB to import
        with multiprocessing.Pool(processes=processes) as pool:
            results = pool.map(_selftest_chunk, args)
    failures = [msg for chunk in results for msg in chunk]
    lines = [
        f"selftest: {count} matrices"
        f" (seed={seed}, n<={max_n}, r<={max_r}, |entry|<={max_entry})",
    ]
    if failures:
        lines.append(f"FAIL: {len(failures)} mismatches")
        lines.extend(failures[:20])
    else:
        lines.append("PASS: fast paths agree with brute-force oracles")
    return not failures, lines


# -- rendering ------------------------------------------------------------------


def _want_color(stream) -> bool:
    env = os.environ.get("MOMENT_FIBER_COLOR")
    if env == "1":
        return True
    if env == "0":
        return False
    return bool(getattr(stream, "isatty", lambda: False)())


def _mark(flag: Optional[bool], color: bool) -> str:
    if flag is None:
        sym = "?"
        code = "33"
    elif flag:
        sym = "yes"
        code = "32"
    else:
        sym = "no"
        code = "31"
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
    print(f"reduction support: {rep.reduction_support}", file=stream)


# -- entry points ----------------------------------------------------------------


def _at_least(low: int):
    """argparse type: an integer >= low; anything else exits 2."""

    def parse(text: str) -> int:
        value = int(text)  # ValueError: argparse's "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # the type name in that message
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
    pa.add_argument("--format", choices=FORMATS, default="text")
    pa.add_argument("--max-components", type=_at_least(0), default=4096,
                    help="cap on the enumerated component list; the count"
                    " is always reported")
    pa.add_argument("--float-hint", action="store_true",
                    help="add decimal approximations next to exact"
                    " rationals (never replacing them)")

    pk = sub.add_parser("kac", help="Kac diagram gradings and scans")
    pk.add_argument("spec", nargs=argparse.REMAINDER,
                    help="e.g. E6 twist=1 labels=1,1,1,0,1,1,1")
    pk.add_argument("--format", choices=FORMATS, default="text")

    ps = sub.add_parser("selftest", help="randomized oracle equivalence run")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--count", type=_at_least(1), default=100)
    ps.add_argument("--max-n", type=_at_least(1), default=8)
    ps.add_argument("--max-r", type=_at_least(1), default=5)
    ps.add_argument("--max-entry", type=_at_least(0), default=5)
    ps.add_argument("--jobs", type=_at_least(1), default=1)
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


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            try:
                w = _load_matrix(args.input)
            except ValueError as exc:  # InputError, JSON and decoding errors
                print(f"parse error: {exc}", file=sys.stderr)
                return EXIT_PARSE
            rep = analyze(
                w,
                max_components=args.max_components,
                float_hint=args.float_hint,
            )
            if args.format == "json":
                print(rep.to_json())
            else:
                _render_report_text(rep, sys.stdout)
            return EXIT_OK
        if args.command == "kac":
            # REMAINDER swallows trailing options; pull ours back out.
            flat: list[str] = []
            for tok in args.spec:
                flat.extend(tok.split())
            spec: list[str] = []
            it = iter(flat)
            try:
                for tok in it:
                    if tok == "--format":
                        args.format = next(it, "")
                        if args.format not in FORMATS:
                            parser.error(
                                "argument --format: needs one of"
                                f" {', '.join(FORMATS)}, got {args.format!r}"
                            )
                    else:
                        spec.append(tok)
                out = cmd_kac(spec)
            except InputError as exc:
                print(f"parse error: {exc}", file=sys.stderr)
                return EXIT_PARSE
            if args.format == "json":
                print(_dumps(out))
            else:
                for key, val in out.items():
                    print(f"{key}: {val}")
            return EXIT_OK
        ok, lines = run_selftest(
            seed=args.seed,
            count=args.count,
            max_n=args.max_n,
            max_r=args.max_r,
            max_entry=args.max_entry,
            jobs=args.jobs,
        )
        for line in lines:
            print(line)
        return EXIT_OK if ok else EXIT_SELFTEST_FAIL
    except CapabilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
