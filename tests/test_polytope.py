"""Hull membership certificates: spec examples, duality, oracle parity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_fiber import oracle, polytope
from moment_fiber.errors import InputError
from moment_fiber.polytope import HullQuery, Inside, Outside

queries = st.integers(1, 4).flatmap(
    lambda d: st.lists(
        st.tuples(*([st.integers(-4, 4)] * d)), min_size=1, max_size=7
    )
)


class TestZeroInHull:
    def test_symmetric_pair(self):
        cert = polytope.zero_in_hull(HullQuery.of([(1,), (-1,)]))
        assert cert == Inside((Fraction(1, 2), Fraction(1, 2)))

    def test_all_positive(self):
        cert = polytope.zero_in_hull(HullQuery.of([(1,), (2,)]))
        assert isinstance(cert, Outside)
        assert all(
            sum(f * x for f, x in zip(cert.functional, p)) > 0
            for p in [(1,), (2,)]
        )

    def test_three_points_summing_to_zero(self):
        cert = polytope.zero_in_hull(
            HullQuery.of([(1, 0), (0, 1), (-1, -1)])
        )
        assert cert == Inside((Fraction(1, 3),) * 3)

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


class TestIntegralSubgroup:
    def test_clears_denominators(self):
        assert polytope.integral_subgroup(
            [Fraction(1, 2), Fraction(1, 3)]
        ) == (3, 2)

    def test_already_integral(self):
        assert polytope.integral_subgroup([Fraction(1)]) == (1,)

    def test_gcd_reduction(self):
        assert polytope.integral_subgroup([2, -4]) == (1, -2)

    def test_signs_preserved_on_query(self):
        pts = [(1, 3), (2, -1)]
        phi = [Fraction(2), Fraction(4)]
        reduced = polytope.integral_subgroup(phi)
        for p in pts:
            before = sum(f * x for f, x in zip(phi, p))
            after = sum(f * x for f, x in zip(reduced, p))
            assert (before > 0) == (after > 0)
            assert (before == 0) == (after == 0)


@given(queries)
@settings(max_examples=120, deadline=None)
def test_certificates_verify_and_exclude(pts):
    q = HullQuery.of(pts)
    hull = polytope.zero_in_hull(q)
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
        polytope.zero_in_hull(q), Inside
    ) == oracle.brute_zero_in_hull(pts)
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
    hull = polytope.zero_in_hull(q)
    relint = polytope.zero_in_relative_interior(q)
    assert polytope.verify_certificate(q, hull, relative_interior=False)
    assert polytope.verify_certificate(q, relint, relative_interior=True)
    assert isinstance(hull, Inside) == oracle.brute_zero_in_hull(pts)
    assert isinstance(relint, Inside) == oracle.brute_zero_in_relative_interior(
        pts
    )


def test_monotonicity_under_extra_points():
    rng = random.Random(11)
    grown = 0
    for _ in range(150):
        d = rng.randint(1, 3)
        pts = [
            tuple(rng.randint(-3, 3) for _ in range(d))
            for _ in range(rng.randint(1, 5))
        ]
        if isinstance(polytope.zero_in_hull(HullQuery.of(pts)), Inside):
            extra = pts + [
                tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(rng.randint(1, 3))
            ]
            assert isinstance(
                polytope.zero_in_hull(HullQuery.of(extra)), Inside
            )
            grown += 1
    assert grown > 10  # the scenario actually occurred
