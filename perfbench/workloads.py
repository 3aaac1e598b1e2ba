"""The benchmark's workloads: seeded inputs, the timed operation, and the
output checks that run after timing.

Every function takes ``mf``, a namespace holding the imported library
modules (``cli``, ``exactlin``, ``oracle``, ``polytope``, ``theta``,
``torus``, ``errors``), so the benchmark can re-import the library while it
times its set-up and still hand one consistent set of modules to the ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

DEFAULT_SEED = 20260810

# The degenerate shapes that open the tier-1 corpus (tests/conftest.py).
# They are copied rather than imported so that a change to the test suite
# cannot change the benchmark's inputs; test_perfbench.py checks that the
# default-seed corpus still equals build_corpus(500).
SPECIAL_ROWS = [
    [[0]],
    [[1]],
    [[1], [0]],
    [[1], [-1]],
    [[1], [1]],
    [[1], [1], [-2]],
    [[1, 0], [0, 1]],
    [[1, 0], [-1, 0], [0, 1]],
    [[2, 4]],
    [[1, 0], [-1, 0]],
    [[0], [0], [3]],
]
CORPUS_SIZE = 500
CORPUS_SHAPE = (10, 6, 5)  # max n, max r, max |entry| of the tier-1 corpus

# Generic matrices per rung.  (20,8)..(22,8) are left out because one
# matrix there takes 13-19 s; every rung from n = 23 up is refused by the
# witness scan's size cap and counts as a failed op.  The witness scan at
# (18,7) costs anywhere from 0.2 to 1.3 s depending on the matrix, so four
# matrices per rung, not two, keep one seed's luck from setting the time.
LADDER_RUNGS = [
    (8, 4), (10, 4), (12, 5), (14, 6), (16, 6), (18, 7), (24, 8), (40, 12),
    (80, 20),
]
LADDER_PER_RUNG = 4
LADDER_MAX_ENTRY = 5

SELFTEST_COUNT = 200
SELFTEST_CALLS = 3  # per pass, each on its own seed, so one seed's luck averages out

KAC_SCANS = [
    "E7 twist=1 scan --delta-ge 2 --check-order-not-div 9,14",
    "E8 twist=1 scan --delta-ge 2 --check-order-not-div 9,14",
]

ANALYZE_MAX_COMPONENTS = 4096  # the CLI's default for `analyze`
BRUTE_VISIBLE_MAX_N = 7
BRUTE_COMPONENTS_MAX_N = 12


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[Any, int], list]
    op: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], Optional[str]]
    # Text that two runs of the op on one input must both produce.
    fingerprint: Callable[[Any], str]
    # Whether op_p50_ms/op_p95_ms are taken over single ops (True) or over
    # whole passes (False).  Ladder ops differ in size by design, so a
    # percentile over them would pick a rung by chance.  Selftest ops are
    # too few per pass for a percentile, and kac_scan runs one op per pass.
    op_latency: bool


# -- inputs -------------------------------------------------------------------


def corpus_inputs(mf, seed: int) -> list:
    """The 11 special shapes, then random matrices drawn by the CLI's own
    generator; the default seed gives the tier-1 corpus bit for bit."""
    rng = random.Random(seed)
    corpus = [mf.torus.WeightMatrix.from_rows(rows) for rows in SPECIAL_ROWS]
    while len(corpus) < CORPUS_SIZE:
        corpus.append(mf.cli._random_weight_matrix(rng, *CORPUS_SHAPE))
    return corpus


def ladder_inputs(mf, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for n, r in LADDER_RUNGS:
        for _ in range(LADDER_PER_RUNG):
            rows = [
                [rng.randint(-LADDER_MAX_ENTRY, LADDER_MAX_ENTRY) for _ in range(r)]
                for _ in range(n)
            ]
            out.append(mf.torus.WeightMatrix.from_rows(rows))
    return out


def selftest_inputs(mf, seed: int) -> list:
    return [seed * SELFTEST_CALLS + k for k in range(SELFTEST_CALLS)]


def kac_inputs(mf, seed: int) -> list:
    """One op is the E7 scan followed by the E8 scan.  The scans have no
    random input, so the seed does not change them."""
    return [tuple(KAC_SCANS)]


# -- ops ----------------------------------------------------------------------


def analyze_op(mf, w):
    rep = mf.cli.analyze(w, max_components=ANALYZE_MAX_COMPONENTS)
    return rep, rep.to_json()


def selftest_op(mf, seed: int):
    return mf.cli.run_selftest(seed, count=SELFTEST_COUNT, jobs=1)


def kac_op(mf, specs):
    return [mf.cli.cmd_kac([spec]) for spec in specs]


# -- checks: each returns None when the output is right, else the reason ------


def check_analysis(mf, w, out) -> Optional[str]:
    rep, text = out
    torus, polytope, oracle = mf.torus, mf.polytope, mf.oracle
    try:
        back = mf.cli.AnalysisReport.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"report does not parse back: {exc!r}"
    if back != rep:
        return "report does not round-trip through JSON"
    weights = [list(row) for row in w.matrix.entries]
    if back.input != {"weights": weights}:
        return "report input differs from the matrix analyzed"

    props = back.properties
    cert = props["stable"]["certificate"]
    if cert["kind"] == "inside":
        hull_cert = polytope.Inside(
            tuple(Fraction(c) for c in cert["coefficients"])
        )
    else:
        hull_cert = polytope.Outside(tuple(cert["functional"]))
    if props["stable"]["value"] != isinstance(hull_cert, polytope.Inside):
        return "stable verdict disagrees with its certificate kind"
    query = polytope.HullQuery.of(weights)
    if not polytope.verify_certificate(query, hull_cert, relative_interior=True):
        return "stable certificate does not verify"

    visible = props["visible"]["value"]
    if visible:
        vc = props["visible"]["certificate"]
        dec = torus.VisibleDecomposition(
            fixed=frozenset(vc["fixed"]),
            blocks=tuple(
                torus.Block(
                    indices=frozenset(b["indices"]),
                    relation=tuple(Fraction(c) for c in b["relation"]),
                )
                for b in vc["blocks"]
            ),
        )
        reason = oracle.check_decomposition(w, dec)
        if reason is not None:
            return f"visible decomposition fails the oracle: {reason}"
    else:
        reason = _check_witness(mf, w, back.nonvisible_witness)
        if reason is not None:
            return reason

    free = back.splits["free"]
    comps = back.components
    if comps["count"] != 1 << len(free):
        return "component count is not 2^#I_f"
    if comps["list"] is not None and len(comps["list"]) != comps["count"]:
        return "component list length differs from the count"
    if w.n <= BRUTE_VISIBLE_MAX_N:
        brute = oracle.brute_visible(w)
        if visible != isinstance(brute, torus.VisibleDecomposition):
            return "visibility verdict disagrees with the brute-force oracle"
    if w.n <= BRUTE_COMPONENTS_MAX_N:
        got = {frozenset(c) for c in comps["list"] or ()}
        if got != set(oracle.brute_components(w)):
            return "components disagree with the brute-force oracle"
    return None


def _check_witness(mf, w, wit) -> Optional[str]:
    if wit is None:
        return "non-visible report carries no witness"
    rel = wit["relation"]
    if len(rel) != w.n or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in rel
    ):
        return "witness relation is not an integer vector of length n"
    if not (any(c > 0 for c in rel) and any(c < 0 for c in rel)):
        return "witness relation does not have mixed signs"
    for j in range(w.r):
        if sum(c * row[j] for c, row in zip(rel, w.matrix.entries)) != 0:
            return "witness relation is not a weight dependency"
    pair = mf.torus.PairPoint.of(
        [Fraction(v) for v in wit["x"]], [Fraction(v) for v in wit["phi"]]
    )
    if any(v != 0 for v in mf.torus.moment_eval(w, pair)):
        return "witness pair is off the zero fiber"
    return None


def check_selftest(mf, seed, out) -> Optional[str]:
    ok, lines = out
    return None if ok else "selftest reported mismatches: " + "; ".join(lines)


def check_kac(mf, specs, out) -> Optional[str]:
    if len(out) != len(specs):
        return "scan results missing"
    for spec, result in zip(specs, out):
        scan = result["scan"]
        family, rank = result["type"][0], int(result["type"][1:])
        if not scan["hits"]:
            return f"{spec}: no hits"
        if scan["violations"]:
            return f"{spec}: order divisibility violations {scan['violations']}"
        for hit in scan["hits"]:
            d = mf.theta.KacDiagram.of(family, rank, hit["labels"])
            if hit["order"] != mf.theta.kac_order(d):
                return f"{spec}: order of {hit['labels']} is not kac_order"
            if hit["delta"] < scan["min_delta"]:
                return f"{spec}: hit {hit['labels']} below the delta bound"
    return None


WORKLOADS = {
    w.name: w
    for w in [
        Workload("corpus", corpus_inputs, analyze_op, check_analysis,
                 lambda out: out[1], op_latency=True),
        Workload("ladder", ladder_inputs, analyze_op, check_analysis,
                 lambda out: out[1], op_latency=False),
        Workload("selftest", selftest_inputs, selftest_op, check_selftest,
                 repr, op_latency=False),
        Workload("kac_scan", kac_inputs, kac_op, check_kac, repr,
                 op_latency=False),
    ]
}
