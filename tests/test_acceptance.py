"""Acceptance gate: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Every check is exact (no numerical tolerance); the
stated wall-clock budgets are asserted.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from moment_fiber import cli, exactlin, oracle, polytope, theta, torus
from moment_fiber.errors import CapabilityError, InputError
from moment_fiber.polytope import HullQuery, Inside
from moment_fiber.torus import VisibleDecomposition

QUERY_SEED = 987654321
SWEEP_MAX_M0 = 10
SWEEP_MAX_K = 3


@contextmanager
def criterion(num: int, desc: str, limit_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {desc}")
        raise
    elapsed = time.monotonic() - t0
    assert elapsed < limit_s, (
        f"criterion {num} overran its {limit_s}s budget ({elapsed:.1f}s)"
    )
    print(f"criterion {num:2d}: PASS ({elapsed:5.1f}s < {limit_s:3.0f}s) - {desc}")


def test_criterion_01_component_formula_equivalence(corpus):
    with criterion(1, "components match brute force and count 2^#I_f", 60):
        assert len(corpus) >= 500
        for w in corpus:
            a = torus.Analysis.of(w)
            got = a.components()
            brute = oracle.brute_components(w)
            assert set(got) == set(brute), w.matrix.entries
            assert len(got) == len(brute) == 1 << len(a.free), w.matrix.entries


def test_criterion_02_irreducibility_consistency(corpus):
    with criterion(2, "irreducible iff no deletion drops rank iff normal", 60):
        for w in corpus:
            rows = w.matrix.entries
            full_rank = exactlin.rank_rows(rows)
            no_drop = all(
                exactlin.rank_rows(rows[:i] + rows[i + 1:]) == full_rank
                for i in range(w.n)
            )
            a = torus.Analysis.of(w)
            irreducible = a.components(max_components=1) is not None
            normal = not a.free  # the paper's criterion: I_f is empty
            assert irreducible == no_drop == normal, w.matrix.entries
            assert a.fiber_dimension == 2 * w.n - full_rank, w.matrix.entries


def test_criterion_03_smooth_witnesses(corpus):
    with criterion(3, "smooth witnesses on every stratum of every matrix", 120):
        checked = 0
        for w in corpus:
            if w.n > 8:
                continue
            try:
                eff = torus.reduce_to_effective(w)
            except CapabilityError:
                continue  # trivial action: no positive-rank effective form
            a = torus.Analysis.of(eff)
            for mask in range(1 << eff.n):
                subset = {i + 1 for i in range(eff.n) if mask >> i & 1}
                p = a.smooth_witness(subset)
                assert all(v == 0 for v in torus.moment_eval(eff, p))
                assert a.stabilizer_dim(p) == 0
                assert oracle.tangent_dim(eff, p) == a.fiber_dimension
                checked += 1
        assert checked > 10_000


def test_criterion_04_visibility_oracle_equivalence(corpus):
    with criterion(4, "visibility decisions match exhaustive search", 120):
        small = [w for w in corpus if w.n <= 7]
        assert len(small) >= 300
        for w in small:
            a = torus.Analysis.of(w)
            fast = a.visibility
            fast_ok = isinstance(fast, VisibleDecomposition)
            assert fast_ok == (oracle.brute_visible(w) is not None), (
                w.matrix.entries
            )
            if fast_ok:
                assert oracle.check_decomposition(w, fast) is None, (
                    w.matrix.entries
                )
                assert fast.fixed == a.free, w.matrix.entries


def criterion_05_queries():
    """Criterion 5's 1,000 seeded hull queries, as point lists."""
    rng = random.Random(QUERY_SEED)
    for _ in range(1000):
        d = rng.randint(1, 5)
        m = rng.randint(1, 8)
        yield [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(m)]


def test_criterion_05_certificate_exclusivity():
    with criterion(5, "hull certificates verify exactly, one branch only", 30):
        for pts in criterion_05_queries():
            q = HullQuery.of(pts)
            for relative, decide, brute in (
                (False, polytope.zero_in_hull, oracle.brute_zero_in_hull),
                (
                    True,
                    polytope.zero_in_relative_interior,
                    oracle.brute_zero_in_relative_interior,
                ),
            ):
                cert = decide(q)
                inside = isinstance(cert, Inside)
                # The returned branch verifies by exact arithmetic...
                assert polytope.verify_certificate(q, cert, relative), (
                    pts,
                    cert,
                )
                # ...and it is the true branch, so by the exact pairing
                # identity no certificate for the other branch can exist.
                assert inside == brute(pts), (pts, cert)


def test_criterion_05_hull_combinations_are_primitive_integers():
    # Every hull Inside is nonnegative ints with gcd 1, and its convex
    # form c / sum(c) verifies too.  A rule that dropped the sign, the
    # nonzero or the length check would pass one of the bad variants.
    inside = 0
    for pts in criterion_05_queries():
        q = HullQuery.of(pts)
        cert = polytope.zero_in_hull(q)
        if not isinstance(cert, Inside):
            continue
        inside += 1
        c = cert.coefficients
        assert all(type(v) is int and v >= 0 for v in c), pts
        assert math.gcd(*c) == 1, pts
        convex = Inside(tuple(Fraction(v, sum(c)) for v in c))
        assert polytope.verify_certificate(q, convex, False), pts
        zero, negative = (0,) * len(c), tuple(-v for v in c)
        for bad in (zero, negative, c + (0,), c[:-1]):
            for mode in (False, True):
                assert not polytope.verify_certificate(q, Inside(bad), mode), (
                    pts,
                    bad,
                )
    assert inside > 100


def test_criterion_06_stability_irreducibility_triple(corpus):
    with criterion(6, "stable iff I_f empty iff irreducible, visible case", 60):
        seen = 0
        for w in corpus:
            a = torus.Analysis.of(w)
            if not isinstance(a.visibility, VisibleDecomposition):
                continue
            seen += 1
            stable, cert = torus.is_stable(w)
            irr = a.components(max_components=1) is not None
            assert stable == (len(a.free) == 0) == irr, w.matrix.entries
            assert polytope.verify_certificate(
                HullQuery.of(list(w.matrix.entries)), cert, True
            )
        assert seen >= 20


def test_criterion_07_nonvisible_witnesses(corpus):
    with criterion(7, "closed-pair witnesses exactly on non-visible input", 120):
        nonvisible = 0
        for w in corpus:
            wit = torus.Analysis.of(w).visibility
            if isinstance(wit, VisibleDecomposition):
                continue
            # Not visible: the one verdict is the witness.
            assert isinstance(wit, torus.ClosedPairWitness), w.matrix.entries
            nonvisible += 1
            p = wit.pair
            assert all(v == 0 for v in torus.moment_eval(w, p))
            # x is nilpotent: 0 is outside the hull of its weights.
            q = HullQuery.of([w.weight(i) for i in sorted(torus.support(p.x))])
            cert = polytope.zero_in_hull(q)
            assert isinstance(cert, polytope.Outside), w.matrix.entries
            assert polytope.verify_certificate(q, cert, False)
            # The relation is an exact weight dependency with mixed signs,
            # and the associated monomial is 1 (hence nonzero) at the pair.
            assert any(c > 0 for c in wit.relation)
            assert any(c < 0 for c in wit.relation)
            for j in range(w.r):
                assert (
                    sum(
                        c * w.matrix.entries[i][j]
                        for i, c in enumerate(wit.relation)
                    )
                    == 0
                )
            value = Fraction(1)
            for i, c in enumerate(wit.relation):
                if c > 0:
                    value *= p.x[i] ** c
                elif c < 0:
                    value *= p.phi[i] ** (-c)
            assert value == 1
            # The pair itself has a closed orbit.
            assert isinstance(torus.pair_closed_orbit(w, p), Inside)
        assert nonvisible >= 20


def test_criterion_08_kac_order_table():
    with criterion(8, "rank-one table orders are 9, 14, 24, 20, 15", 30):
        diagrams = [
            theta.KacDiagram.of("E", 6, (1, 1, 1, 0, 1, 1, 1)),
            theta.KacDiagram.of("E", 7, (1, 1, 1, 0, 1, 1, 1, 1)),
            theta.KacDiagram.of("E", 8, (1, 1, 1, 0, 1, 1, 1, 1, 1)),
            theta.KacDiagram.of("E", 8, (1, 1, 1, 0, 1, 0, 1, 1, 1)),
            theta.KacDiagram.of("E", 8, (1, 0, 0, 1, 0, 1, 0, 1, 1)),
        ]
        assert [theta.kac_order(d) for d in diagrams] == [9, 14, 24, 20, 15]


def test_criterion_09_dimension_filter():
    with criterion(9, "degree-1 gain is 1 on tables; all-ones is (n, n+1)", 30):
        rank_one = [
            theta.KacDiagram.of("E", 6, (1, 1, 1, 0, 1, 1, 1)),
            theta.KacDiagram.of("E", 7, (1, 1, 1, 0, 1, 1, 1, 1)),
            theta.KacDiagram.of("E", 8, (1, 1, 1, 0, 1, 1, 1, 1, 1)),
            theta.KacDiagram.of("E", 8, (1, 1, 1, 0, 1, 0, 1, 1, 1)),
            theta.KacDiagram.of("E", 8, (1, 0, 0, 1, 0, 1, 0, 1, 1)),
            theta.KacDiagram.of("G", 2, (0, 1, 1)),
            theta.KacDiagram.of("F", 4, (1, 1, 0, 1, 1)),
        ]
        for d in rank_one:
            assert theta.graded_dims(d).delta == 1, d
        supported = (
            [("A", n) for n in range(1, 9)]
            + [("B", n) for n in range(2, 9)]
            + [("C", n) for n in range(2, 9)]
            + [("D", n) for n in range(4, 9)]
            + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
        )
        for family, rank in supported:
            gd = theta.graded_dims(theta.KacDiagram.all_ones(family, rank))
            assert gd.dims[0] == rank and gd.dims[1] == rank + 1, (family, rank)


def test_criterion_10_high_delta_scan():
    with criterion(10, "no high-gain E7/E8 order is a multiple of 9 or 14", 60):
        for family, rank in (("E", 7), ("E", 8)):
            hits = theta.levi_order_scan(family, rank, min_delta=2)
            assert hits, (family, rank)
            for h in hits:
                assert h.order % 9 != 0 and h.order % 14 != 0, h


def _symmetric_k_vectors(inp_case: int, m0: int, eta: tuple[int, int]):
    """All duality-symmetric k with entries 1..SWEEP_MAX_K, odd skew
    eigenspaces included (the constructor rejects those)."""
    probe = theta.VinbergClassicalInput(
        case=inp_case, k=(2,) * m0, eta=eta
    )
    orbits: list[list[int]] = []
    seen: set[int] = set()
    for j in range(m0):
        if j in seen:
            continue
        orb = sorted({j, probe.conj(j)})
        seen.update(orb)
        orbits.append(orb)
    for values in itertools.product(
        range(1, SWEEP_MAX_K + 1), repeat=len(orbits)
    ):
        k = [0] * m0
        for orb, v in zip(orbits, values):
            for j in orb:
                k[j] = v
        yield tuple(k)


def test_criterion_11_classical_formulas():
    with criterion(11, "closed formulas match the block model; rank-one"
                       " stable patterns match the classical table", 60):
        # Formula equivalence, inner case: all k-vectors, entries 0..3.
        for m0 in range(1, SWEEP_MAX_M0 + 1):
            for k in itertools.product(range(SWEEP_MAX_K + 1), repeat=m0):
                inp = theta.VinbergClassicalInput(case=1, k=k)
                assert theta.vinberg_delta(inp) == oracle.vinberg_delta_blocks(
                    inp
                )
            if m0 >= 7:
                break  # 4^m0 explodes; coverage beyond 7 adds nothing new
        for m0 in range(7, SWEEP_MAX_M0 + 1):
            rng = random.Random(m0)
            for _ in range(2000):
                k = tuple(
                    rng.randint(0, SWEEP_MAX_K) for _ in range(m0)
                )
                inp = theta.VinbergClassicalInput(case=1, k=k)
                assert theta.vinberg_delta(inp) == oracle.vinberg_delta_blocks(
                    inp
                )

        # Formula equivalence and table patterns, cases 2..4.
        for case in (2, 3, 4):
            for m0 in range(2, SWEEP_MAX_M0 + 1):
                for eta1 in (1, -1):
                    etam1 = 1 if (eta1 == 1) == (m0 % 2 == 0) else -1
                    eta = (eta1, etam1)
                    solutions = set()
                    probe = theta.VinbergClassicalInput(
                        case=case, k=(2,) * m0, eta=eta
                    )
                    type_one = all(
                        e * h == 1 for e, h in zip(probe.eps, eta)
                    )
                    for k in _symmetric_k_vectors(case, m0, eta):
                        try:
                            inp = theta.VinbergClassicalInput(
                                case=case, k=k, eta=eta
                            )
                        except InputError as exc:
                            # No such block exists: an odd real eigenspace
                            # with a skew form, never of type one.
                            assert "skew" in str(exc) and not type_one, exc
                            continue
                        delta = theta.vinberg_delta(inp)
                        assert delta == oracle.vinberg_delta_blocks(inp), inp
                        if not type_one:
                            continue
                        if min(k) == 1:
                            assert delta <= 1, inp
                        real = {j for j in range(m0) if inp.conj(j) == j}
                        stable_shape = all(
                            (k[j] == 1)
                            if j not in real
                            else (k[j] in (1, 2))
                            for j in range(m0)
                        )
                        if delta == 1 and min(k) == 1 and stable_shape:
                            solutions.add(k)
                    if not type_one:
                        continue
                    expected = _expected_table_patterns(case, m0)
                    assert solutions == expected, (case, m0, eta, solutions)


def _expected_table_patterns(case: int, m0: int) -> set[tuple[int, ...]]:
    """The classical stable rank-one eigenvalue patterns."""
    ones = (1,) * m0
    out: set[tuple[int, ...]] = set()
    if case == 2:
        out.add(ones)  # orthogonal, odd dimension absorbed below
        bump0 = list(ones)
        bump0[0] = 2
        out.add(tuple(bump0))
        half = list(ones)
        half[m0 // 2] = 2
        out.add(tuple(half))
        if m0 >= 4:
            both = list(ones)
            both[0] = both[m0 // 2] = 2
            out.add(tuple(both))
    elif case == 3:
        out.add(ones)
    else:
        out.add(ones)
        bump0 = list(ones)
        bump0[0] = 2
        out.add(tuple(bump0))
    return out


def test_report_round_trip_schema(corpus):
    # The machine-readable report parses back to an identical object.
    for w in corpus[:25]:
        rep = cli.analyze(w, max_components=64)
        assert cli.AnalysisReport.from_json(rep.to_json()) == rep
