"""The brute-force oracle routes themselves: examples and reproducibility."""

from __future__ import annotations

import ast
import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from moment_fiber import exactlin, oracle, selftest, torus
from moment_fiber.errors import CapabilityError, InputError
from moment_fiber.torus import PairPoint, VisibleDecomposition, WeightMatrix


def wm(rows):
    return WeightMatrix.from_rows(rows)


def test_oracle_imports_no_fast_path():
    # The oracles stay independent of the elimination and simplex they check.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{a.name}".lstrip(".") for a in node.names)
    parts = {p for name in imported for p in name.split(".")}
    assert imported, "no imports found"
    assert not parts & {"exactlin", "polytope"}, sorted(imported)


class TestBruteComponents:
    def test_free_index(self):
        assert oracle.brute_components(wm([[1], [0]])) == [
            frozenset({2}),
            frozenset({1, 2}),
        ]

    def test_opposite_pair(self):
        assert oracle.brute_components(wm([[1], [-1]])) == [frozenset({1, 2})]

    def test_identity(self):
        got = oracle.brute_components(wm([[1, 0], [0, 1]]))
        assert got == [
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
        ]

    def test_size_cap(self):
        with pytest.raises(CapabilityError):
            oracle.brute_components(wm([[1]] * 17))

    def test_matches_rank_condition(self, corpus):
        # The subsets I with rank S - rank S_I = n - #I, each rank taken
        # afresh by the fast elimination, in the oracle's output order.
        checked = 0
        for w in corpus:
            if w.n > 8:
                continue
            rows = w.matrix.entries
            total = exactlin.rank_rows(rows)
            expected = [
                frozenset(subset)
                for size in range(w.n + 1)
                for subset in itertools.combinations(range(1, w.n + 1), size)
                if total - exactlin.rank_rows([rows[i - 1] for i in subset])
                == w.n - size
            ]
            assert oracle.brute_components(w) == expected, rows
            checked += 1
        assert checked >= 300

    def test_pruned_walk_matches_every_subset(self):
        # The walk drops a branch once its nullity cannot reach
        # n - rank S; filtering all 2^n subsets, each ranked afresh by the
        # oracle's own insertion, must give the same list.
        rng = random.Random(18)
        for _ in range(300):
            n, r = rng.randint(1, 7), rng.randint(1, 4)
            rows = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
            if rng.random() < 0.3:
                rows[rng.randrange(n)] = [0] * r
            total = oracle._rank_crossmul(rows)
            expected = [
                frozenset(subset)
                for size in range(n + 1)
                for subset in itertools.combinations(range(1, n + 1), size)
                if total - oracle._rank_crossmul([rows[i - 1] for i in subset])
                == n - size
            ]
            assert oracle.brute_components(wm(rows)) == expected, rows


class TestBruteVisible:
    def test_block_plus_free(self):
        got = oracle.brute_visible(wm([[1, 0], [-1, 0], [0, 1]]))
        assert isinstance(got, VisibleDecomposition)
        assert got.fixed == frozenset({3})
        assert [b.indices for b in got.blocks] == [frozenset({1, 2})]

    def test_triple_not_visible(self):
        assert oracle.brute_visible(wm([[1], [1], [-2]])) is None

    def test_pinned_outputs(self):
        # TRIPLE has no valid partition; BLOCK_PLUS_FREE's block relation
        # is its reduced tag over the last member's, here 1 * s1 + 1 * s2.
        assert oracle.brute_visible(wm([[1], [1], [-2]])) is None
        assert oracle.brute_visible(
            wm([[1, 0], [-1, 0], [0, 1]])
        ) == VisibleDecomposition(
            fixed=frozenset({3}),
            blocks=(
                torus.Block(frozenset({1, 2}), (Fraction(1), Fraction(1))),
            ),
        )
        got = oracle.brute_visible(wm([[2, 0], [0, 1], [-1, 0], [0, -3]]))
        assert got == VisibleDecomposition(
            fixed=frozenset(),
            blocks=(
                torus.Block(frozenset({1, 3}), (1, 2)),
                torus.Block(frozenset({2, 4}), (Fraction(3), Fraction(1))),
            ),
        )

    def test_zero_weight_is_own_block(self):
        got = oracle.brute_visible(wm([[0]]))
        assert isinstance(got, VisibleDecomposition)
        assert got.fixed == frozenset()
        assert got.blocks[0].indices == frozenset({1})
        assert got.blocks[0].relation == (Fraction(1),)

    def test_size_cap(self):
        with pytest.raises(CapabilityError):
            oracle.brute_visible(wm([[1]] * 9))

    def test_check_decomposition_rejects_bad_relation(self):
        w = wm([[1], [-1]])
        dec = torus.Analysis.of(w).visibility
        assert oracle.check_decomposition(w, dec) is None
        tampered = VisibleDecomposition(
            fixed=dec.fixed,
            blocks=(
                torus.Block(
                    indices=dec.blocks[0].indices,
                    relation=(Fraction(1), Fraction(2)),
                ),
            ),
        )
        assert oracle.check_decomposition(w, tampered) is not None

    @pytest.mark.parametrize(
        "fixed, bad",
        [({1.5}, 1.5), ({3.0}, 3.0), ({"a"}, "a"), ({1, "a"}, "a"), ({True}, True)],
    )
    def test_check_decomposition_rejects_non_integer_index(self, fixed, bad):
        # Every index is checked before a part is sorted or masked, by the
        # rule of WeightMatrix.weight: an int, and not a bool.
        w = wm([[1], [-1], [0]])
        block = torus.Block(frozenset({1, 2}), (Fraction(1), Fraction(1)))
        dec = VisibleDecomposition(fixed=frozenset(fixed), blocks=(block,))
        assert oracle.check_decomposition(w, dec) == f"index {bad!r} is not an integer"


def _set_partitions(items):
    """Every partition of the list ``items`` into nonempty parts."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for parts in _set_partitions(rest):
        yield [[first], *parts]
        for k in range(len(parts)):
            yield [*parts[:k], [first, *parts[k]], *parts[k + 1:]]


def _det(m):
    """Leibniz determinant of a small square integer matrix."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _visible_partitions(rows):
    """Every (I_0, blocks) over all set partitions of the row indices: I_0
    independent, each block a circuit with a one-signed relation, and the
    ranks of the parts summing to rank S; ranks by _rank_crossmul, a
    circuit's relation by cofactors on columns where it has full rank."""
    rank = oracle._rank_crossmul

    def one_signed_circuit(block):
        sub = [rows[i] for i in block]
        k = len(sub)
        if rank(sub) != k - 1 or any(
            rank(sub[:i] + sub[i + 1:]) != k - 1 for i in range(k)
        ):
            return False
        cols = next(
            c for c in itertools.combinations(range(len(rows[0])), k - 1)
            if rank([[row[j] for j in c] for row in sub]) == k - 1
        )
        minor = [[row[j] for j in cols] for row in sub]
        rel = [(-1) ** i * _det(minor[:i] + minor[i + 1:]) for i in range(k)]
        return min(rel) > 0 or max(rel) < 0

    total = rank(rows)
    found = []
    for parts in _set_partitions(list(range(len(rows)))):
        for fixed in [[], *parts]:
            blocks = [b for b in parts if b is not fixed]
            if (
                rank([rows[i] for i in fixed]) == len(fixed)
                and all(map(one_signed_circuit, blocks))
                and sum(rank([rows[i] for i in part]) for part in parts) == total
            ):
                found.append(
                    (frozenset(i + 1 for i in fixed),
                     {frozenset(i + 1 for i in b) for b in blocks})
                )
    return found


class TestPrunedPartitionSearch:
    def test_matches_every_set_partition(self):
        # The search counts blocks at a leaf and prunes by count and
        # block size; filtering every set partition, ranked afresh, must
        # give the same verdict, and a visible answer must be one of the
        # partitions found.
        rng = random.Random(31)
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            n, r = rng.randint(1, 5), rng.randint(1, 3)
            rows = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
            if n >= 2 and rng.random() < 0.3:
                rows[rng.randrange(n)] = [-x for x in rows[rng.randrange(n)]]
            expected = _visible_partitions(rows)
            got = oracle.brute_visible(wm(rows))
            visible = got is not None
            assert visible == bool(expected), rows
            if visible:
                parts = (got.fixed, {b.indices for b in got.blocks})
                assert parts in expected, rows
            verdicts[visible] += 1
        assert min(verdicts.values()) >= 40, verdicts

    def test_results_are_pinned(self):
        # The search prunes a branch once its parts' spans are not in
        # direct sum; that is exact, so it returns what the unpruned
        # search returned: the repr of all 536 results over the n <= 7
        # matrices of three seeded 200-case streams has this digest.  Each
        # case of these streams is a matrix, then a hull query's dimension
        # and points, which are drawn here and discarded.
        digest = hashlib.sha256()
        count = 0
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            for _ in range(200):
                w = selftest._random_weight_matrix(rng, 8, 5, 5)
                d = rng.randint(1, 4)
                for _ in range(rng.randint(1, 6) * d):
                    rng.randint(-4, 4)
                if w.n <= 7:
                    digest.update(repr(oracle.brute_visible(w)).encode())
                    count += 1
        assert count == 536
        assert digest.hexdigest() == (
            "4912c2f4691b8996808ea1d9d73b2830c47578035655eb91cdece59e9a91081b"
        )

    @pytest.mark.parametrize(
        "rows, expected, masks",
        [
            ([[1], [-1], [1]], None, [2, 3, 4, 5]),
            (
                [[1], [-1], [0]],
                VisibleDecomposition(
                    fixed=frozenset(),
                    blocks=(
                        torus.Block(frozenset({1, 2}), (1, 1)),
                        torus.Block(frozenset({3}), (1,)),
                    ),
                ),
                [2, 3, 4, 3, 4],
            ),
        ],
        ids=["not-visible", "visible"],
    )
    def test_direct_sum_prune_cuts_a_branch(
        self, rows, expected, masks, monkeypatch
    ):
        # With row 1 in I_0, the block {2, 3} (mask 6) is a circuit or
        # not, but rows 1..3 have rank 1, not 1 + (2 - 1): the spans are
        # not in direct sum, so no circuit of mask 6 is read.  Neither is
        # one of mask 1, a single nonzero row of rank 1, not 0.  The
        # answer is the one the unpruned search gave.
        real = oracle._subset_circuits
        read = []

        def counting(entries):
            basis, circuit, relation = real(entries)

            def counted(mask):
                read.append(mask)
                return circuit(mask)

            return basis, counted, relation

        monkeypatch.setattr(oracle, "_subset_circuits", counting)
        assert oracle.brute_visible(wm(rows)) == expected
        assert read == masks

    def test_visible_blocks_number_n_minus_rank(self, corpus):
        checked = 0
        for w in corpus:
            if w.n > 7:
                continue
            got = oracle.brute_visible(w)
            if got is not None:
                rank = oracle._rank_crossmul(w.matrix.entries)
                assert len(got.blocks) == w.n - rank, w.matrix.entries
                checked += 1
        assert checked >= 50


def test_annihilating_checks_in_integers():
    # One sum per column: a relation that leaves a column nonzero raises,
    # and one that annihilates every column is returned as it is.
    with pytest.raises(ArithmeticError):
        oracle._annihilating([1, 1], [[1], [1]])
    relation = [1, -1]
    assert oracle._annihilating(relation, [[1], [1]]) is relation
    assert relation == [1, -1]


class TestKernelVector:
    def test_corank_one_relation(self):
        # The circuit reader on all k rows of corank one: their one kernel
        # vector, up to scale, when it has no zero entry, else None.
        # Zero entries come from rows outside the span of the others.
        rng = random.Random(5)
        circuits = partial = 0
        while circuits < 200 or partial < 50:
            k, r = rng.randint(1, 6), rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(k)]
            if k >= 3 and rng.random() < 0.3:
                rows[rng.randrange(k - 1)] = list(rows[rng.randrange(k - 1)])
            if exactlin.rank_rows(rows) != k - 1:
                continue
            (u,) = list(exactlin.circuits(list(zip(*rows)), k))
            assert u[max(i for i, c in enumerate(u) if c)] > 0, rows
            v = oracle._subset_circuits(rows)[1]((1 << k) - 1)
            if 0 in u:
                assert v is None, rows
                partial += 1
                continue
            assert all(type(c) is int for c in v), rows
            assert [c * u[-1] for c in v] == [c * v[-1] for c in u], rows
            for j in range(r):
                assert sum(c * row[j] for c, row in zip(v, rows)) == 0
            circuits += 1


class TestBruteMixedCircuit:
    def test_triple(self):
        assert oracle.brute_mixed_circuit(wm([[1], [1], [-2]])) == (-1, 1, 0)

    def test_smallest_circuit_first(self):
        assert oracle.brute_mixed_circuit(wm([[1], [-1], [-2]])) == (0, -2, 1)

    def test_same_size_circuits_by_bitmask(self):
        # {2, 3} (mask 0b0110) comes before {1, 4} (mask 0b1001), although
        # its least member is larger.
        w = wm([[1, 0], [0, 1], [0, 2], [3, 0]])
        assert oracle.brute_mixed_circuit(w) == (0, -2, 1, 0)

    def test_visible_has_none(self):
        assert oracle.brute_mixed_circuit(wm([[1, 0], [-1, 0], [0, 1]])) is None
        assert oracle.brute_mixed_circuit(wm([[0]])) is None

    def test_size_cap(self):
        with pytest.raises(CapabilityError):
            oracle.brute_mixed_circuit(wm([[1]] * 17))


class TestBruteRelativeInterior:
    def test_examples(self):
        assert oracle.brute_zero_in_relative_interior([(1,), (-1,)])
        assert oracle.brute_zero_in_relative_interior([(0, 0), (0, 0)])
        assert not oracle.brute_zero_in_relative_interior([(1,), (0,)])
        assert not oracle.brute_zero_in_relative_interior([(1, 0), (0, 1)])

    def test_empty_point_set_rejected(self):
        with pytest.raises(InputError):
            oracle.brute_zero_in_relative_interior([])

    @pytest.mark.parametrize(
        "points", [[(1,), (-1, 2)], [(1, 2), ()], [(0, 0), (0,)]]
    )
    def test_ragged_point_set_rejected(self, points):
        with pytest.raises(InputError, match="mismatched dimensions"):
            oracle.brute_zero_in_relative_interior(points)

    @pytest.mark.parametrize(
        "points", [[(0.5,), (-1,)], [("a",), (1,)], [(True,), (-1,)]]
    )
    def test_non_integer_point_rejected(self, points):
        # As HullQuery.of does; these used to end in a TypeError or be
        # read as integers.
        with pytest.raises(InputError, match="not integral"):
            oracle.brute_zero_in_relative_interior(points)


class TestTangentDim:
    def test_smooth_point(self):
        w = wm([[1], [-1]])
        assert oracle.tangent_dim(w, PairPoint.of((1, 0), (0, 1))) == 3

    def test_origin(self):
        w = wm([[1], [-1]])
        assert oracle.tangent_dim(w, PairPoint.of((0, 0), (0, 0))) == 4

    def test_interior_smooth_point(self):
        w = wm([[1], [-1]])
        assert oracle.tangent_dim(w, PairPoint.of((1, 1), (1, 1))) == 3

    def test_off_fiber_rejected(self):
        with pytest.raises(InputError):
            oracle.tangent_dim(wm([[1], [0]]), PairPoint.of((1, 0), (1, 0)))

    def test_memo_is_keyed_on_the_whole_jacobian(self):
        # A and B share n and the column count but not the rank; then two
        # supports on A.  Each answer is the direct rank of its own columns.
        a = wm([[1, 0], [0, 1], [-1, -1]])
        b = wm([[1, 0], [-1, 0], [2, 0]])
        smooth = PairPoint.of((1, 0, 0), (0, 1, 1))
        single = PairPoint.of((1, 0, 0), (0, 0, 0))
        oracle._rank_columns.cache_clear()
        got = []
        for w, p in [(a, smooth), (b, smooth), (a, smooth), (a, single)]:
            cols = [
                [s * f.numerator for s in row]
                for row, f in zip(w.matrix.entries * 2, p.phi + p.x)
                if f
            ]
            got.append(oracle.tangent_dim(w, p))
            assert got[-1] == 2 * w.n - oracle._rank_crossmul(cols)
        assert got == [4, 5, 4, 5]


class TestRandomFiberPoint:
    def test_support_and_fiber(self):
        w = wm([[1], [-1]])
        p = oracle.random_fiber_point(w, {1, 2}, seed=7)
        assert all(v != 0 for v in p.x)
        assert torus.moment_eval(w, p) == (Fraction(0),)
        assert p.x[0] * p.phi[0] == p.x[1] * p.phi[1]

    def test_empty_support(self):
        w = wm([[1], [-1]])
        p = oracle.random_fiber_point(w, set(), seed=3)
        assert p.x == (Fraction(0), Fraction(0))

    def test_identity_forces_dual_zero(self):
        w = wm([[1, 0], [0, 1]])
        p = oracle.random_fiber_point(w, {1}, seed=11)
        assert p.phi[0] == 0

    def test_reproducible(self):
        w = wm([[2, 1], [1, 1], [-3, -2]])
        a = oracle.random_fiber_point(w, {1, 2, 3}, seed=42)
        b = oracle.random_fiber_point(w, {1, 2, 3}, seed=42)
        assert a == b
