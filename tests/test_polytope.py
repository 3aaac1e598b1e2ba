"""Hull membership certificates: spec examples, duality, oracle parity."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_fiber import exactlin, oracle, polytope, torus
from moment_fiber.errors import InputError
from moment_fiber.polytope import HullQuery, Inside, Outside

queries = st.integers(1, 4).flatmap(
    lambda d: st.lists(
        st.tuples(*([st.integers(-4, 4)] * d)), min_size=1, max_size=7
    )
)


class TestZeroInHull:
    # The spec's hull examples: on these points 0 is in the relative
    # interior exactly when it is in the hull, and the relative-interior
    # query, the library's one hull query, gives the same certificates.
    def test_symmetric_pair(self):
        cert = polytope.zero_in_relative_interior(HullQuery.of([(1,), (-1,)]))
        assert cert == Inside((1, 1))

    def test_all_positive(self):
        cert = polytope.zero_in_relative_interior(HullQuery.of([(1,), (2,)]))
        assert isinstance(cert, Outside)
        assert all(
            sum(f * x for f, x in zip(cert.functional, p)) > 0
            for p in [(1,), (2,)]
        )

    def test_three_points_summing_to_zero(self):
        cert = polytope.zero_in_relative_interior(
            HullQuery.of([(1, 0), (0, 1), (-1, -1)])
        )
        assert cert == Inside((1, 1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            HullQuery.of([(1, 0), (1,)])

    def test_empty_query(self):
        with pytest.raises(InputError):
            HullQuery.of([])

    @pytest.mark.parametrize(
        "pts",
        [[(Fraction(1, 2),), (-1,)], [(1,), (-1.7,)], [(True, 0)], [(2.0,)]],
    )
    def test_non_integer_point_rejected(self, pts):
        with pytest.raises(InputError):
            HullQuery.of(pts)


class TestZeroInRelativeInterior:
    def test_symmetric_pair(self):
        cert = polytope.zero_in_relative_interior(HullQuery.of([(1,), (-1,)]))
        assert cert == Inside((Fraction(1), Fraction(1)))

    def test_zero_point_with_positive_point(self):
        cert = polytope.zero_in_relative_interior(
            HullQuery.of([(0, 0), (1, 0)])
        )
        assert isinstance(cert, Outside)
        pairings = [
            sum(f * x for f, x in zip(cert.functional, p))
            for p in [(0, 0), (1, 0)]
        ]
        assert all(v >= 0 for v in pairings) and any(v > 0 for v in pairings)

    def test_explicit_relation(self):
        cert = polytope.zero_in_relative_interior(
            HullQuery.of([(1,), (1,), (-2,)])
        )
        assert isinstance(cert, Inside)
        assert len(set(cert.coefficients)) == 1  # proportional to (1, 1, 1)

    def test_singleton_zero(self):
        cert = polytope.zero_in_relative_interior(HullQuery.of([(0, 0)]))
        assert isinstance(cert, Inside)
        assert cert.coefficients[0] > 0


class TestPrimitive:
    def test_gcd_reduction(self):
        assert polytope.primitive([2, -4]) == (1, -2)
        assert polytope.primitive([0, 0]) == (0, 0)
        # All zeros, no entries, gcd 1 (returned early), gcd > 1 and
        # negative entries: always a tuple, and primitive(v) * gcd == v.
        cases = [[0, 0, 0], [], (), [3, -5], (1,), [-1, 0], [6, -9, 12],
                 (-4, -8), [0, -7, 0], [-2]]
        for ints in cases:
            got = polytope.primitive(ints)
            g = math.gcd(*ints)
            assert type(got) is tuple, ints
            assert [v * g for v in got] == list(ints), ints  # g = 0: all zeros
            assert math.gcd(*got) == (1 if g else 0), ints

    def test_signs_preserved_on_query(self):
        pts = [(1, 3), (2, -1)]
        phi = [2, 4]
        reduced = polytope.primitive(phi)
        for p in pts:
            before = sum(f * x for f, x in zip(phi, p))
            after = sum(f * x for f, x in zip(reduced, p))
            assert (before > 0) == (after > 0)
            assert (before == 0) == (after == 0)


@given(queries)
@settings(max_examples=120, deadline=None)
def test_certificates_verify_and_exclude(hull_by_peeling, pts):
    q = HullQuery.of(pts)
    hull = hull_by_peeling(pts)
    relint = polytope.zero_in_relative_interior(q)
    assert polytope.verify_certificate(q, hull, relative_interior=False)
    assert polytope.verify_certificate(q, relint, relative_interior=True)
    # Branch consistency: interior membership implies hull membership,
    # and a separated hull cannot have an interior point.
    if isinstance(relint, Inside):
        assert isinstance(hull, Inside)
    if isinstance(hull, Outside):
        assert isinstance(relint, Outside)
        # The strict functional also certifies the weak branch.
        assert polytope.verify_certificate(q, hull, relative_interior=True)


@given(queries)
@settings(max_examples=60, deadline=None)
def test_oracle_agreement(pts):
    q = HullQuery.of(pts)
    assert isinstance(
        polytope.zero_in_relative_interior(q), Inside
    ) == oracle.brute_zero_in_relative_interior(pts)


big_queries = st.integers(1, 5).flatmap(
    lambda d: st.lists(
        st.tuples(*([st.integers(-(10**6), 10**6)] * d)), min_size=1, max_size=8
    )
)


@given(big_queries)
@settings(max_examples=80, deadline=None)
def test_large_entries_verify_and_match_oracle(pts):
    # Large entries make the integer tableau grow, so every exact division
    # in the pivot step is exercised.
    q = HullQuery.of(pts)
    relint = polytope.zero_in_relative_interior(q)
    assert polytope.verify_certificate(q, relint, relative_interior=True)
    assert isinstance(relint, Inside) == oracle.brute_zero_in_relative_interior(
        pts
    )


class TestVerifyCertificate:
    def test_outside_of_wrong_length_rejected(self):
        q = HullQuery.of([(1, -5), (2, 3)])
        for functional in [(1,), (1, 0, 9)]:
            for relint in (False, True):
                assert not polytope.verify_certificate(
                    q, Outside(functional), relative_interior=relint
                )
        assert polytope.verify_certificate(q, Outside((1, 0)), False)

    def test_int_and_fraction_coefficients(self):
        # One rule for both modes: c >= 0, not all 0 (all > 0 for the
        # relative interior), sum c_i p_i = 0; c need not sum to 1.
        q = HullQuery.of([(1,), (1,), (-2,)])
        for mode in (False, True):
            assert polytope.verify_certificate(q, Inside((1, 3, 2)), mode)
            sixths = Inside((Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
            assert polytope.verify_certificate(q, sixths, mode)
            for bad in [(0, 0, 0), (-1, -3, -2), (1, 3, 1), (1, 3)]:
                assert not polytope.verify_certificate(q, Inside(bad), mode)
        assert polytope.verify_certificate(q, Inside((2, 0, 1)), False)
        assert not polytope.verify_certificate(q, Inside((2, 0, 1)), True)


def reference_verify(q, cert, relative_interior):
    """``verify_certificate`` by Fraction sums: the reference for the
    integer version."""
    if isinstance(cert, Inside):
        coeffs = [Fraction(c) for c in cert.coefficients]
        if len(coeffs) != len(q.points):
            return False
        for i in range(q.dim):
            if sum((c * p[i] for c, p in zip(coeffs, q.points)), Fraction(0)):
                return False
        if relative_interior:
            return all(c > 0 for c in coeffs)
        return all(c >= 0 for c in coeffs) and any(c != 0 for c in coeffs)
    if len(cert.functional) != q.dim:
        return False
    pairings = [
        sum(a * b for a, b in zip(cert.functional, p)) for p in q.points
    ]
    if relative_interior:
        return all(v >= 0 for v in pairings) and any(v > 0 for v in pairings)
    return all(v > 0 for v in pairings)


def _tamper(coeffs, how, k, delta, scale):
    """One mutation of a coefficient or functional vector; k picks the
    position, delta and scale are nonzero rationals."""
    v = list(coeffs)
    k %= len(v)
    if how == "perturb":
        v[k] += delta
    elif how == "zero":
        v[k] = 0
    elif how == "negate":
        v[k] = -v[k]
    elif how == "drop":
        del v[k]
    elif how == "append":
        v.append(delta)
    elif how == "scale":  # a positive multiple: rational entries
        v = [c * abs(scale) for c in v]
    elif how == "convex":  # divided by the sum: the old hull form
        total = sum(v) or 1
        v = [Fraction(c, total) for c in v]
    return tuple(v)


MUTATIONS = st.sampled_from(
    ["none", "perturb", "zero", "negate", "drop", "append", "scale", "convex"]
)
NONZERO = st.fractions(-3, 3, max_denominator=5).filter(bool)


@given(queries, st.booleans(), MUTATIONS, st.integers(0, 10), NONZERO, NONZERO)
@settings(max_examples=400, deadline=None)
def test_integer_verification_matches_fraction_reference(
    hull_by_peeling, pts, relint, how, k, delta, scale
):
    q = HullQuery.of(pts)
    if relint:
        cert = polytope.zero_in_relative_interior(q)
    else:
        cert = hull_by_peeling(pts)
    assert polytope.verify_certificate(q, cert, relint)
    if isinstance(cert, Inside):
        tampered = Inside(_tamper(cert.coefficients, how, k, delta, scale))
    else:
        functional = _tamper(cert.functional, how, k, delta, scale)
        tampered = Outside(tuple(int(v) for v in functional))
    for c in (cert, tampered):
        for mode in (False, True):
            assert polytope.verify_certificate(q, c, mode) == reference_verify(
                q, c, mode
            ), (pts, c, mode)


@given(
    queries,
    st.booleans(),
    st.lists(st.fractions(-2, 2, max_denominator=4), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_arbitrary_coefficients_match_fraction_reference(pts, relint, coeffs):
    q = HullQuery.of(pts)
    for c in (Inside(tuple(coeffs)), Outside(tuple(int(v) for v in coeffs))):
        assert polytope.verify_certificate(q, c, relint) == reference_verify(
            q, c, relint
        ), (pts, c, relint)


def _full_tableau_phase_one(columns, rhs):
    """The full-tableau phase-one simplex that ``_phase_one`` revises: the
    test-only reference for its (x, d, y).

    It pivots the whole tableau [structural | artificial | rhs] plus the
    objective row by ``exactlin.pivot`` and prices by Dantzig's rule, by
    Bland's right after a degenerate pivot, as ``_phase_one`` does.
    """
    nrows = len(rhs)
    ncols = len(columns)
    flip = [-1 if b < 0 else 1 for b in rhs]
    tab = [
        [columns[j][i] * flip[i] for j in range(ncols)]
        + [1 if k == i else 0 for k in range(nrows)]
        + [rhs[i] * flip[i]]
        for i in range(nrows)
    ]
    tab.append(
        [-sum(row[j] for row in tab) for j in range(ncols)]
        + [0] * nrows
        + [-sum(row[-1] for row in tab)]
    )
    basis = [ncols + i for i in range(nrows)]
    d = 1
    bland = False
    while True:
        costs = tab[-1][:-1]
        if bland:
            enter = next((j for j, c in enumerate(costs) if c < 0), -1)
        else:
            least = min(costs)
            enter = costs.index(least) if least < 0 else -1
        if enter < 0:
            break
        leave = -1
        for i in range(nrows):
            a = tab[i][enter]
            if a > 0 and leave >= 0:
                cmp = tab[i][-1] * tab[leave][enter] - tab[leave][-1] * a
                if cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                    leave = i
            elif a > 0:
                leave = i
        bland = tab[leave][-1] == 0
        d = exactlin.pivot(tab, leave, enter, d)
        basis[leave] = enter
    obj = tab[-1]
    if obj[-1] == 0:
        x = [0] * ncols
        for i, b in enumerate(basis):
            if b < ncols:
                x[b] = tab[i][-1]
        return x, d, None
    return None, d, [(d - obj[ncols + i]) * flip[i] for i in range(nrows)]


def _solution(result):
    """(x / d, y) of a phase-one result (x, d, y).  The revised loop stops
    once the objective is 0, so its d may differ from the full tableau's,
    but the ratios x / d and the Farkas dual y may not."""
    x, d, y = result
    assert d > 0
    return (None if x is None else [Fraction(v, d) for v in x]), y


def _check_phase_one(columns, rhs):
    """Run ``_phase_one`` and check its answer exactly: A x = b with x >= 0,
    or a Farkas dual y with y.A <= 0 and y.b > 0; and the same (x, y) as
    the full tableau."""
    x, y = _solution(polytope._phase_one(columns, rhs))
    assert (x, y) == _solution(_full_tableau_phase_one(columns, rhs))
    if x is not None:
        assert y is None and all(v >= 0 for v in x)
        for i, b in enumerate(rhs):
            assert sum(v * col[i] for v, col in zip(x, columns)) == b
    else:
        assert all(sum(map(int.__mul__, y, col)) <= 0 for col in columns)
        assert sum(map(int.__mul__, y, rhs)) > 0
    return x is not None


class TestDegeneratePhaseOne:
    """Inputs whose pivots tie or leave the objective unchanged, where
    Dantzig's rule alone could cycle and Bland's rule takes over."""

    @pytest.mark.parametrize(
        "columns, rhs, feasible",
        [
            ([(1, 0), (0, 1)], [0, 0], True),  # every rhs 0
            ([(1, -1), (-1, 1)], [0, 0], True),
            ([(1, 1, 0), (1, 1, 0), (0, 0, 0)], [0, 0, 0], True),  # zero row
            ([(1, 2), (1, 2), (1, 2)], [2, 4], True),  # repeated columns
            ([(0, 0), (0, 0)], [0, 0], True),  # zero columns
            ([(0, 0), (1, 0)], [0, 1], False),
            ([(1, 0), (1, 0), (0, 0)], [1, 1], False),
            ([(1, -1, 0), (-1, 1, 0), (2, -2, 0)], [0, 0, 1], False),
            ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 0)], [1, 1, 0], True),
        ],
    )
    def test_terminates_with_an_exact_answer(self, columns, rhs, feasible):
        assert _check_phase_one(columns, rhs) == feasible

    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.tuples(
                st.lists(
                    st.sampled_from([(0,) * m, (1,) + (0,) * (m - 1)])
                    | st.tuples(*([st.integers(-2, 2)] * m)),
                    min_size=1,
                    max_size=7,
                ),
                st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=m, max_size=m),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_degenerate_systems(self, system):
        columns, rhs = system
        # Repeat a column so that ratio and cost ties are common.
        _check_phase_one(columns + columns[:1], rhs)


def _recording_pivot(log, columns, rhs):
    """``exactlin.pivot`` that logs, per pivot of ``_phase_one`` on
    (columns, rhs), the entering column, the reduced costs of every column
    and whether the pivot is degenerate.

    The costs are priced here from the revised tableau [d B^-1 | d x_B |
    slot] and the input; the entering column is the one whose column
    d B^-1 A_j and reduced cost fill the slot, the first such j.
    """
    inner = polytope.pivot
    nrows = len(rhs)
    flipped = [
        [v if b >= 0 else -v for v, b in zip(col, rhs)] for col in columns
    ]
    flipped += [[int(i == k) for i in range(nrows)] for k in range(nrows)]

    def rec(tab, leave, slot, d):
        # Structural columns cost 0 and artificial ones 1, so the reduced
        # cost of an artificial column is its objective entry.
        costs = [
            sum((c - d) * v for c, v in zip(tab[-1], col))
            for col in flipped[: len(columns)]
        ] + tab[-1][:nrows]
        entering = [row[slot] for row in tab]
        enter = next(
            j
            for j, col in enumerate(flipped)
            if [sum(map(int.__mul__, row[:nrows], col)) for row in tab[:-1]]
            + [costs[j]]
            == entering
        )
        log.append((enter, costs, tab[leave][nrows] == 0))
        return inner(tab, leave, slot, d)

    return rec


def test_corpus_pricing_and_bland_fallback(corpus, monkeypatch):
    # Every pivot on the corpus's stability queries enters by Dantzig's
    # rule, or by Bland's right after a degenerate pivot; the matrices on
    # which the fallback fires still get a verified certificate.
    fired = 0
    for w in corpus:
        log = []
        pts = list(w.matrix.entries)
        rhs = [-sum(coords) for coords in zip(*pts)]
        monkeypatch.setattr(polytope, "pivot", _recording_pivot(log, pts, rhs))
        stable, cert = torus.is_stable(w)
        monkeypatch.undo()
        degenerate = False
        for enter, costs, degenerate_now in log:
            if degenerate:
                assert enter == next(j for j, c in enumerate(costs) if c < 0)
            else:
                assert enter == costs.index(min(costs)) and costs[enter] < 0
            degenerate = degenerate_now
        if not any(entry[2] for entry in log):
            continue
        fired += 1
        query = HullQuery.of(pts)
        assert polytope.verify_certificate(query, cert, True)
        assert stable == isinstance(cert, Inside)
    assert fired >= 30


def test_full_tableau_parity(corpus):
    # The revised tableau returns the full tableau's (x, y): every corpus
    # stability query in both hull forms, and generic (40, 12) and (80, 20)
    # relative-interior problems.
    systems = []
    for w in corpus:
        pts = list(w.matrix.entries)
        systems.append((pts, [-sum(coords) for coords in zip(*pts)]))
        systems.append(([p + (1,) for p in pts], [0] * w.r + [1]))
    rng = random.Random(25)
    for n, r in [(40, 12)] * 4 + [(80, 20)] * 2:
        pts = [tuple(rng.randint(-5, 5) for _ in range(r)) for _ in range(n)]
        systems.append((pts, [-sum(coords) for coords in zip(*pts)]))
    for columns, rhs in systems:
        assert _solution(polytope._phase_one(columns, rhs)) == _solution(
            _full_tableau_phase_one(columns, rhs)
        ), (columns, rhs)


def test_corpus_stable_verdicts_match_oracle(corpus):
    small = [w for w in corpus if w.n <= 7]
    assert len(small) >= 300
    for w in small:
        pts = list(w.matrix.entries)
        stable, cert = torus.is_stable(w)
        assert stable == oracle.brute_zero_in_relative_interior(pts), pts
        assert polytope.verify_certificate(HullQuery.of(pts), cert, True)
