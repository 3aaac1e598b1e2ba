"""Exact linear algebra: spec examples, invariants, kernel parity."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moment_fiber import exactlin, oracle
from moment_fiber.errors import InputError
from moment_fiber.torus import WeightMatrix

matrices = st.integers(1, 6).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=1,
        max_size=8,
    )
)

huge_matrices = st.integers(1, 6).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-(10**12), 10**12), min_size=cols, max_size=cols),
        min_size=1,
        max_size=7,
    )
)


def ncols(rows):
    return len(rows[0])


class TestRank:
    def test_identity(self):
        assert exactlin.rank_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_proportional_rows(self):
        assert exactlin.rank_rows([[1], [1], [-2]]) == 1

    def test_against_independent_eliminator(self):
        rng = random.Random(4)
        for _ in range(200):
            rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(5)]
            assert exactlin.rank_rows(rows) == oracle._rank_crossmul(rows)

    def test_zero_rows_matrix(self):
        assert exactlin.rank_rows([]) == 0

    def test_huge_entries_fall_back_exactly(self):
        big = 10**40
        rows = [[big, 2 * big], [3 * big, 6 * big], [0, big]]
        assert exactlin.rank_rows(rows) == 2

    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_rank_plus_nullity(self, rows):
        cols = ncols(rows)
        kernel = exactlin.kernel_basis(rows, cols)
        assert exactlin.rank_rows(rows) + len(kernel) == cols

    @given(matrices, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_row_permutation_and_scaling_invariance(self, rows, rnd):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        scaled = []
        for row in shuffled:
            c = rnd.choice([1, -1, 2, 3])
            scaled.append([x * c for x in row])
        assert exactlin.rank_rows(scaled) == exactlin.rank_rows(rows)

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_single_row_deletion_drop(self, rows):
        full = exactlin.rank_rows(rows)
        for i in range(len(rows)):
            sub = rows[:i] + rows[i + 1:]
            assert exactlin.rank_rows(sub) <= full
            assert full - exactlin.rank_rows(sub) in (0, 1)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert exactlin.kernel_basis([[1, 0], [0, 1]], 2) == []

    def test_single_relation_row(self):
        row = [1, 1, -2]
        basis = exactlin.kernel_basis([row], 3)
        assert len(basis) == 2
        for v in basis:
            assert sum(Fraction(c) * x for c, x in zip(row, v)) == 0

    def test_transpose_of_opposite_pair(self):
        ts = list(zip(*[[1], [-1]]))
        assert exactlin.kernel_basis(ts, 2) == [(Fraction(1), Fraction(1))]

    def test_zero_rows_kernel_is_identity(self):
        basis = exactlin.kernel_basis([], 2)
        assert basis == [
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        ]

    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_kernel_vectors_annihilate(self, rows):
        for v in exactlin.kernel_basis(rows, ncols(rows)):
            for row in rows:
                assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0

    @given(huge_matrices)
    @settings(max_examples=100, deadline=None)
    def test_entries_are_int(self, rows):
        for v in exactlin.kernel_basis(rows, ncols(rows)):
            assert all(type(c) is int for c in v)

    def test_negative_denominator_scaled_by_its_absolute_value(self):
        # echelon's d is -1 and -6 here; each circuit is |d| at its free
        # column, so it stays positive at its largest index.
        assert exactlin.echelon([[-1, 1]])[2] == -1
        assert exactlin.kernel_basis([[-1, 1]], 2) == [(1, 1)]
        rows = [[2, 0, 1], [0, -3, 1]]
        assert exactlin.echelon(rows)[2] == -6
        assert exactlin.kernel_basis(rows, 3) == [(-3, 2, 6)]


def fraction_rref(rows, cols):
    """The reduced row-echelon form over Q by plain Fraction Gauss-Jordan:
    its nonzero rows and their pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(cols):
        k = len(pivots)
        piv = next((i for i in range(k, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][c] for x in m[k]]
        for i, row in enumerate(m):
            if i != k and row[c]:
                m[i] = [x - row[c] * y for x, y in zip(row, m[k])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def with_dependent_rows(rows, data):
    """``rows`` with a combination of two of its rows and a zero row
    inserted where ``data`` draws: rank-deficient, with a zero row."""
    out = [list(r) for r in rows]
    i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
    a, b = (data.draw(st.integers(-3, 3)) for _ in range(2))
    combo = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    out.insert(data.draw(st.integers(0, len(out))), combo)
    out.insert(data.draw(st.integers(0, len(out))), [0] * ncols(rows))
    return out


class TestEchelon:
    """``echelon``'s contract, which the circuits and the witness solve
    rely on: a row-echelon form in integers whose pivots are the reduced
    form's, and columns that ``back_substitute`` turns, over d, into the
    columns of the reduced row-echelon form over Q."""

    @given(st.one_of(matrices, huge_matrices), st.data())
    @settings(max_examples=150, deadline=None)
    def test_contract(self, rows, data):
        for m in (rows, with_dependent_rows(rows, data)):
            a, pivots, d = exactlin.echelon(m)
            assert type(d) is int and d != 0
            assert all(type(x) is int for row in a for x in row)
            assert len(a) == len(pivots)
            for k, p in enumerate(pivots):
                assert a[k][p] and not any(a[k][:p])
            rref, rref_pivots = fraction_rref(m, ncols(m))
            assert pivots == rref_pivots
            for f in range(ncols(m)):
                col = exactlin.back_substitute(a, pivots, d, f)
                assert all(type(x) is int for x in col)
                assert [Fraction(x, d) for x in col] == [row[f] for row in rref]


class TestIntMatrix:
    """``WeightMatrix.__post_init__`` checks every ``IntMatrix`` it holds."""

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            WeightMatrix.from_rows([[1, 2], [3]])

    def test_non_integer_rejected(self):
        with pytest.raises(InputError):
            WeightMatrix.from_rows([[1.5]])

    @pytest.mark.parametrize("entry", [1.5, Fraction(1, 2), True])
    def test_from_rows_rejects_non_integer(self, entry):
        with pytest.raises(InputError):
            WeightMatrix.from_rows([[entry], [-1]])

    def test_shape_checked_before_size(self):
        # An empty first row makes r = 0, but the ragged shape is the fault.
        with pytest.raises(InputError, match="matrix is not rectangular"):
            WeightMatrix.from_rows([[], [1]])
        with pytest.raises(InputError, match="n >= 1 rows and r >= 1"):
            WeightMatrix.from_rows([[]])


class TestAgainstOracle:
    """The fast elimination against the oracle's row insertion.

    The ranks agree, and the integer kernel basis, each vector made
    primitive, equals entry for entry the primitive relations among the
    columns that the oracle's tagged insertion reads off.  Both are
    positive at their largest index, so this is the same check as the
    equality of the echelon-normalized bases, 1 at each free column.
    """

    @given(huge_matrices)
    @settings(max_examples=150, deadline=None)
    def test_rank_matches_oracle(self, rows):
        assert exactlin.rank_rows(rows) == oracle._rank_crossmul(rows)

    @given(huge_matrices)
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_oracle(self, rows):
        columns = [[row[j] for row in rows] for j in range(ncols(rows))]
        expected = oracle._dependencies(columns)
        primitive = []
        for v in exactlin.kernel_basis(rows, ncols(rows)):
            assert v[max(i for i, c in enumerate(v) if c)] > 0
            g = math.gcd(*v)
            primitive.append([c // g for c in v])
        assert primitive == expected


class TestOracleDependencies:
    """The oracle's relation reader, checked in integers."""

    @given(huge_matrices)
    @settings(max_examples=150, deadline=None)
    def test_relations_annihilate_and_are_echelon_normalized(self, rows):
        relations = oracle._dependencies(rows)
        assert len(relations) == len(rows) - oracle._rank_crossmul(rows)
        owns = [max(i for i, c in enumerate(rel) if c) for rel in relations]
        assert owns == sorted(set(owns))
        for own, rel in zip(owns, relations):
            assert all(type(c) is int for c in rel)
            assert rel[own] > 0 and math.gcd(*rel) == 1
            assert all(rel[j] == 0 for j in owns if j != own)
            for j in range(len(rows[0])):
                assert sum(c * row[j] for c, row in zip(rel, rows)) == 0

    @given(huge_matrices, st.data())
    @settings(max_examples=150, deadline=None)
    def test_cone_support_reproduces_a_nonnegative_combination(self, rows, data):
        coeffs = data.draw(
            st.lists(st.integers(0, 9), min_size=len(rows), max_size=len(rows))
        )
        target = [sum(c * row[j] for c, row in zip(coeffs, rows))
                  for j in range(len(rows[0]))]
        assume(any(target))
        assert oracle._cone_support(target, rows) is not None
        if oracle._rank_crossmul(rows) == len(rows):
            # Independent rows: the combination is unique.
            assert oracle._cone_support(target, rows) == {
                j for j, c in enumerate(coeffs) if c
            }
            assert oracle._cone_support([-t for t in target], rows) is None
