"""Exact linear algebra: spec examples, invariants, kernel parity."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_fiber import exactlin, oracle
from moment_fiber.errors import InputError

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


def mat(rows, cols=None):
    return exactlin.IntMatrix.from_rows(rows, cols)


class TestRank:
    def test_identity(self):
        assert exactlin.rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_proportional_rows(self):
        assert exactlin.rank(mat([[1], [1], [-2]])) == 1

    def test_against_independent_eliminator(self):
        rng = random.Random(4)
        for _ in range(200):
            rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(5)]
            assert exactlin.rank(mat(rows)) == oracle._rank_crossmul(rows)

    def test_zero_rows_matrix(self):
        assert exactlin.rank(mat([], cols=4)) == 0

    def test_huge_entries_fall_back_exactly(self):
        big = 10**40
        rows = [[big, 2 * big], [3 * big, 6 * big], [0, big]]
        assert exactlin.rank_rows(rows) == 2

    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_rank_plus_nullity(self, rows):
        m = mat(rows)
        assert exactlin.rank(m) + len(exactlin.kernel_basis(m)) == m.cols

    @given(matrices, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_row_permutation_and_scaling_invariance(self, rows, rnd):
        m = mat(rows)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        scaled = []
        for row in shuffled:
            c = rnd.choice([1, -1, 2, 3])
            scaled.append([x * c for x in row])
        assert exactlin.rank(mat(scaled)) == exactlin.rank(m)

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_single_row_deletion_drop(self, rows):
        m = mat(rows)
        full = exactlin.rank(m)
        for i in range(1, m.rows + 1):
            keep = [j for j in range(1, m.rows + 1) if j != i]
            sub = exactlin.row_select(m, keep)
            assert exactlin.rank(sub) <= full
            assert full - exactlin.rank(sub) in (0, 1)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert exactlin.kernel_basis(mat([[1, 0], [0, 1]])) == []

    def test_single_relation_row(self):
        m = mat([[1, 1, -2]])
        basis = exactlin.kernel_basis(m)
        assert len(basis) == 2
        for v in basis:
            assert sum(Fraction(c) * x for c, x in zip(m.entries[0], v)) == 0

    def test_transpose_of_opposite_pair(self):
        ts = exactlin.transpose(mat([[1], [-1]]))
        assert exactlin.kernel_basis(ts) == [(Fraction(1), Fraction(1))]

    def test_zero_rows_kernel_is_identity(self):
        basis = exactlin.kernel_basis(mat([], cols=2))
        assert basis == [
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        ]

    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_kernel_vectors_annihilate(self, rows):
        m = mat(rows)
        for v in exactlin.kernel_basis(m):
            for row in m.entries:
                assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


class TestRowSelect:
    def test_all_rows(self):
        m = mat([[1, 2], [3, 4]])
        assert exactlin.row_select(m, [1, 2]) == m

    def test_single_row(self):
        assert exactlin.row_select(mat([[1], [0]]), {2}).entries == ((0,),)

    def test_order_preserved(self):
        m = mat([[1, 0], [-1, 0], [0, 1]])
        sel = exactlin.row_select(m, {3, 1})
        assert sel.entries == ((1, 0), (0, 1))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            exactlin.row_select(mat([[1]]), [2])

    def test_empty_selection(self):
        sel = exactlin.row_select(mat([[1, 2]]), [])
        assert sel.rows == 0 and sel.cols == 2


class TestIntMatrix:
    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            mat([[1, 2], [3]])

    def test_non_integer_rejected(self):
        with pytest.raises(InputError):
            exactlin.IntMatrix(((1.5,),), 1)  # type: ignore[arg-type]

    @pytest.mark.parametrize("entry", [1.5, Fraction(1, 2), True])
    def test_from_rows_rejects_non_integer(self, entry):
        with pytest.raises(InputError):
            exactlin.IntMatrix.from_rows([[entry], [-1]])


class TestAgainstOracle:
    """The fast elimination against the oracle's row insertion.

    The ranks agree, and the kernel basis equals, entry for entry, the
    relations among the columns that the oracle's tagged insertion reads
    off (both are the echelon-normalized basis, 1 at each free column).
    """

    @given(huge_matrices)
    @settings(max_examples=150, deadline=None)
    def test_rank_matches_oracle(self, rows):
        assert exactlin.rank(mat(rows)) == oracle._rank_crossmul(rows)

    @given(huge_matrices)
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_oracle(self, rows):
        m = mat(rows)
        columns = [[row[j] for row in rows] for j in range(m.cols)]
        expected = [tuple(v) for v in oracle._dependencies(columns)]
        assert exactlin.kernel_basis(m) == expected


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
            assert rel[own] == 1
            assert all(rel[j] == 0 for j in owns if j != own)
            scale = math.lcm(*(c.denominator for c in rel))
            ints = [int(c * scale) for c in rel]
            for j in range(len(rows[0])):
                assert sum(c * row[j] for c, row in zip(ints, rows)) == 0

    @given(huge_matrices, st.data())
    @settings(max_examples=150, deadline=None)
    def test_express_reproduces_a_combination(self, rows, data):
        coeffs = data.draw(
            st.lists(st.integers(-9, 9), min_size=len(rows), max_size=len(rows))
        )
        target = [sum(c * row[j] for c, row in zip(coeffs, rows))
                  for j in range(len(rows[0]))]
        sol = oracle._express(target, rows)
        assert sol is not None
        for j, t in enumerate(target):
            assert sum(c * row[j] for c, row in zip(sol, rows)) == t
