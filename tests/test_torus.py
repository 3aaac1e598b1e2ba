"""Weight-matrix decision procedures: spec examples and invariants."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moment_fiber import cli, exactlin, oracle, polytope, torus
from moment_fiber.errors import CapabilityError, InputError
from moment_fiber.polytope import Inside, Outside
from moment_fiber.torus import (
    ClosedPairWitness,
    NotClosed,
    PairPoint,
    VisibleDecomposition,
    WeightMatrix,
)


def wm(rows):
    return WeightMatrix.from_rows(rows)


OPPOSITE = wm([[1], [-1]])  # one stable block
LINE_AND_FIXED = wm([[1], [0]])  # a free index and a zero weight
TRIPLE = wm([[1], [1], [-2]])  # stable but not visible
IDENTITY2 = wm([[1, 0], [0, 1]])
BLOCK_PLUS_FREE = wm([[1, 0], [-1, 0], [0, 1]])


class TestMomentEval:
    def test_opposite_weights_cancel(self):
        p = PairPoint.of((1, 1), (1, 1))
        assert torus.moment_eval(OPPOSITE, p) == (Fraction(0),)

    def test_zero_x(self):
        p = PairPoint.of((0, 0), (5, -7))
        assert torus.moment_eval(LINE_AND_FIXED, p) == (Fraction(0),)

    def test_only_first_contributes(self):
        p = PairPoint.of((1, 1), (1, 1))
        assert torus.moment_eval(LINE_AND_FIXED, p) == (Fraction(1),)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            torus.moment_eval(OPPOSITE, PairPoint.of((1,), (1,)))

    @pytest.mark.parametrize(
        "x, phi",
        [
            ((1, 1), (1,)),  # supported everywhere it reaches: the rank path
            ((1,), (1, 1)),
            ((0, 0), (0,)),  # a zero coordinate: the path that ranks rows
            ((0,), (0, 0)),
        ],
    )
    @pytest.mark.parametrize(
        "fn",
        [torus.moment_eval, lambda w, p: torus.Analysis.of(w).stabilizer_dim(p)],
        ids=["moment_eval", "stabilizer_dim"],
    )
    def test_short_x_or_phi_rejected(self, fn, x, phi):
        with pytest.raises(InputError) as exc:
            fn(OPPOSITE, PairPoint.of(x, phi))
        assert str(exc.value) == "pair point length does not match n=2"

    @pytest.mark.parametrize(
        "call, args",
        [
            (PairPoint.of, ([None], [1])),
            (PairPoint.of, ([0.5, 1], [1, 0])),
            (PairPoint.of, ([1, 0], [True, 0])),
            (PairPoint.of, (["1/2"], [1])),
        ],
        ids=["none", "float", "bool", "str"],
    )
    def test_coordinate_not_int_or_fraction_rejected(self, call, args):
        # The rule of WeightMatrix: ints and Fractions only, bool excluded.
        with pytest.raises(InputError, match="not an int or a Fraction"):
            call(*args)

    @pytest.mark.parametrize(
        "read", [tuple, list, iter, lambda v: (c for c in v)],
        ids=["tuple", "list", "iterator", "generator"],
    )
    def test_pair_point_reads_any_iterable_once(self, read):
        # Each argument is read into a tuple once, so an iterator is not
        # used up by the coordinate check; coordinates keep their type.
        p = PairPoint.of(read([1, 0]), read([0, Fraction(1, 2)]))
        assert p == PairPoint((1, 0), (0, Fraction(1, 2)))
        assert [type(v) for v in p.x + p.phi] == [int, int, int, Fraction]


def modality(w, subset):
    # #I - rank S_I, the parameters of orbits inside the stratum, read
    # off the orbit dimension.
    subset = set(subset)
    return len(subset) - torus.stratum_orbit_dim(w, subset)


class TestStrataNumbers:
    def test_orbit_dim(self):
        assert torus.stratum_orbit_dim(OPPOSITE, {1, 2}) == 1
        assert torus.stratum_orbit_dim(OPPOSITE, set()) == 0
        assert torus.stratum_orbit_dim(IDENTITY2, {1, 2}) == 2

    def test_modality(self):
        assert modality(TRIPLE, {1, 2, 3}) == 2
        assert modality(TRIPLE, {1}) == 0
        assert modality(TRIPLE, set()) == 0

    def test_global_modality(self):
        cases = ((OPPOSITE, 1), (IDENTITY2, 0), (LINE_AND_FIXED, 1))
        for w, expected in cases:
            assert modality(w, range(1, w.n + 1)) == expected

    def test_modality_is_kernel_dimension(self, small_corpus):
        for w in small_corpus[:60]:
            for subset in ({1}, set(range(1, w.n + 1))):
                sub = [w.weight(i) for i in sorted(subset)]
                assert modality(w, subset) == len(
                    exactlin.kernel_basis(list(zip(*sub)), len(sub))
                )

    @pytest.mark.parametrize(
        "subset",
        [{0}, {4}, {1, 4}, {-1}, {1.0}, {True}, {2.5}, {1, "a"}, [[1]], [{1}]],
    )
    @pytest.mark.parametrize(
        "fn",
        [
            torus.stratum_orbit_dim,
            torus.smooth_witness,
            pytest.param(
                lambda w, s: oracle.random_fiber_point(w, s, seed=0),
                id="random_fiber_point",
            ),
            pytest.param(lambda w, s: [w.weight(i) for i in s], id="weight"),
        ],
    )
    def test_out_of_range_index_rejected(self, fn, subset):
        with pytest.raises(InputError):
            fn(BLOCK_PLUS_FREE, subset)


def splits(w):
    a = torus.Analysis.of(w)
    return a.dependent, a.free


class TestSplitIndices:
    def test_examples(self):
        assert splits(LINE_AND_FIXED) == (frozenset({2}), frozenset({1}))
        assert splits(OPPOSITE) == (frozenset({1, 2}), frozenset())
        assert splits(IDENTITY2) == (frozenset(), frozenset({1, 2}))

    def test_dependent_part_is_union_of_relation_supports(self, small_corpus):
        for w in small_corpus:
            i_d = torus.Analysis.of(w).dependent
            basis = exactlin.kernel_basis(list(zip(*w.matrix.entries)), w.n)
            supports = set()
            for v in basis:
                supports |= {i + 1 for i, c in enumerate(v) if c != 0}
            assert i_d == frozenset(supports)


class TestComponents:
    def test_free_index_doubles(self):
        a = torus.Analysis.of(LINE_AND_FIXED)
        assert a.components() == (frozenset({2}), frozenset({1, 2}))
        assert a.fiber_dimension == 3
        assert a.free == frozenset({1})  # neither irreducible nor normal

    def test_opposite_pair_irreducible(self):
        a = torus.Analysis.of(OPPOSITE)
        assert a.components() == (frozenset({1, 2}),)
        assert a.fiber_dimension == 3
        assert not a.free  # irreducible and normal

    def test_equal_weights_irreducible_but_unstable(self):
        w = wm([[1], [1]])
        a = torus.Analysis.of(w)
        assert a.components() == (frozenset({1, 2}),)
        assert not a.free
        assert not torus.is_stable(w)[0]

    def test_cap_keeps_count(self):
        a = torus.Analysis.of(IDENTITY2)
        assert a.components(max_components=3) is None
        assert len(a.components(max_components=4)) == 4

    @pytest.mark.parametrize("cap", ["4", True, 2.5, 4.0, -1])
    def test_non_integer_cap_rejected(self, cap):
        # The cap is None or an int >= 0: a str, bool, float or negative
        # int is an input fault.
        with pytest.raises(InputError, match="max_components"):
            torus.Analysis.of(IDENTITY2).components(max_components=cap)

    def test_matches_brute_force(self, small_corpus):
        for w in small_corpus:
            got = torus.Analysis.of(w).components()
            expected = oracle.brute_components(w)
            assert set(got) == set(expected)
            assert len(got) == len(expected)
            assert got == tuple(expected)  # the order too: size, then members


class TestLocallyFreeAndKernel:
    def test_is_locally_free(self):
        # Locally free: the rank of all of S, the full stratum's orbit
        # dimension, is r.
        def locally_free(w):
            return torus.stratum_orbit_dim(w, range(1, w.n + 1)) == w.r

        assert locally_free(OPPOSITE)
        assert not locally_free(wm([[1, 0], [-1, 0]]))
        assert locally_free(IDENTITY2)

    def test_kernel_of_action(self):
        k = exactlin.kernel_basis([[1, 0], [-1, 0]], 2)
        assert len(k) == 1
        assert k[0][0] == 0 and k[0][1] != 0
        assert exactlin.kernel_basis(IDENTITY2.matrix.entries, 2) == []
        k2 = exactlin.kernel_basis([[2, 4]], 2)
        assert len(k2) == 1
        assert 2 * k2[0][0] + 4 * k2[0][1] == 0

    def test_reduce_to_effective(self):
        w = wm([[1, 0], [-1, 0]])
        eff = torus.reduce_to_effective(w)
        assert eff.r == 1
        assert torus.stratum_orbit_dim(eff, range(1, eff.n + 1)) == eff.r
        assert eff.matrix.entries == ((1,), (-1,))
        with pytest.raises(CapabilityError):
            torus.reduce_to_effective(wm([[0, 0]]))

    def test_reduction_preserves_all_subset_ranks(self, small_corpus):
        for w in small_corpus[:50]:
            if all(x == 0 for row in w.matrix.entries for x in row):
                continue
            eff = torus.reduce_to_effective(w)
            for mask in range(1 << min(w.n, 6)):
                subset = {i + 1 for i in range(w.n) if mask >> i & 1}
                assert torus.stratum_orbit_dim(
                    w, subset
                ) == torus.stratum_orbit_dim(eff, subset)


class TestStability:
    def test_examples(self):
        ok, cert = torus.is_stable(OPPOSITE)
        assert ok and cert == Inside((Fraction(1), Fraction(1)))
        ok, cert = torus.is_stable(wm([[1], [1]]))
        assert not ok and isinstance(cert, Outside)
        ok, cert = torus.is_stable(TRIPLE)
        assert ok and len(set(cert.coefficients)) == 1


class TestVisibility:
    def test_block_plus_free(self):
        dec = torus.Analysis.of(BLOCK_PLUS_FREE).visibility
        assert isinstance(dec, VisibleDecomposition)
        assert dec.fixed == frozenset({3})
        assert len(dec.blocks) == 1
        b = dec.blocks[0]
        assert b.indices == frozenset({1, 2})
        assert b.relation == (Fraction(1), Fraction(1))

    def test_triple_not_visible(self):
        vis = torus.Analysis.of(TRIPLE).visibility
        assert isinstance(vis, ClosedPairWitness)

    def test_opposite_pair(self):
        dec = torus.Analysis.of(OPPOSITE).visibility
        assert isinstance(dec, VisibleDecomposition)
        assert dec.fixed == frozenset()
        assert [b.indices for b in dec.blocks] == [frozenset({1, 2})]

    def test_verdicts_match_brute_force(self, small_corpus):
        for w in small_corpus:
            if w.n > 7:
                continue
            fast = torus.Analysis.of(w).visibility
            brute = oracle.brute_visible(w)
            assert isinstance(fast, VisibleDecomposition) == (brute is not None)
            if isinstance(fast, VisibleDecomposition):
                assert fast.fixed == brute.fixed
                assert {b.indices for b in fast.blocks} == {
                    b.indices for b in brute.blocks
                }
                assert oracle.check_decomposition(w, fast) is None


    @pytest.mark.parametrize(
        "rows, fixed, blocks, message",
        [
            # A corrupted relation on a block of size 2 and of size 3.
            ([[1, 0], [-1, 0], [0, 1]], {3}, [({1, 2}, (1, 2))], "vanish"),
            ([[1, 0], [0, 1], [-1, -1]], set(), [({1, 2, 3}, (1, 1, 2))], "vanish"),
            # Two blocks merged into one: the relation still vanishes.
            (
                [[1, 0], [-1, 0], [0, 1], [0, -1]],
                set(),
                [({1, 2, 3, 4}, (1, 1, 1, 1))],
                "dependent",
            ),
            # A block member moved into I_0, which becomes dependent.
            ([[1], [-1], [0]], {3}, [({1, 2}, (1, 1))], "dependent"),
            ([[1, 0], [-1, 0], [0, 1]], {1, 2, 3}, [], "dependent"),
            ([[1, 0], [-1, 0], [0, 1]], {2, 3}, [({1}, (1,))], "vanish"),
            # Non-positive coefficients on relations that still vanish.
            ([[1], [-1]], set(), [({1, 2}, (-1, -1))], "positive"),
            ([[1], [-1], [0]], set(), [({1, 2}, (1, 1)), ({3}, (0,))], "positive"),
            # A relation of the wrong length, and parts that overlap or
            # miss an index.
            ([[1], [-1]], set(), [({1, 2}, (1,))], "positive"),
            ([[1], [-1], [0]], {3}, [({1, 2}, (1, 1)), ({3}, (1,))], "partition"),
            ([[1, 0], [-1, 0], [0, 1]], set(), [({1, 2}, (1, 1))], "partition"),
            # Each part is sound, but I_0 and the block share a span.
            ([[1], [1], [-1]], {1}, [({2, 3}, (1, 1))], "dependent"),
            # An empty block: no hull query, still an ArithmeticError.
            ([[1], [-1]], set(), [({1, 2}, (1, 1)), (set(), ())], "positive"),
        ],
    )
    def test_tampered_decomposition_is_rejected(
        self, rows, fixed, blocks, message
    ):
        w = wm(rows)
        dec = VisibleDecomposition(
            fixed=frozenset(fixed),
            blocks=tuple(
                torus.Block(frozenset(i), tuple(Fraction(c) for c in rel))
                for i, rel in blocks
            ),
        )
        with pytest.raises(ArithmeticError, match=message):
            torus._verify_decomposition(w, dec)
        assert oracle.check_decomposition(w, dec) is not None

    def test_scaled_relation_coefficients_are_rejected(self, corpus):
        # Doubling any one coefficient of a block with two or more nonzero
        # rows breaks its relation; the check and the oracle both say so.
        checked = 0
        for w in corpus:
            dec = torus.Analysis.of(w).visibility
            if not isinstance(dec, VisibleDecomposition):
                continue
            torus._verify_decomposition(w, dec)
            for k, b in enumerate(dec.blocks):
                for j in range(len(b.relation) if len(b.indices) > 1 else 0):
                    rel = list(b.relation)
                    rel[j] *= 2
                    blocks = list(dec.blocks)
                    blocks[k] = torus.Block(b.indices, tuple(rel))
                    bad = VisibleDecomposition(dec.fixed, tuple(blocks))
                    with pytest.raises(ArithmeticError, match="vanish"):
                        torus._verify_decomposition(w, bad)
                    assert oracle.check_decomposition(w, bad) is not None
                    checked += 1
        assert checked >= 20

    def test_two_eliminations_per_analysis(self, corpus, monkeypatch):
        # The circuits, then one rank for a decomposition or one solve for
        # a witness, each one forward pass: every other fact is read off
        # the circuits.
        calls = []
        real = exactlin.echelon
        monkeypatch.setattr(
            exactlin, "echelon", lambda *a: calls.append(1) or real(*a)
        )
        for w in corpus:
            before = len(calls)
            torus.Analysis.of(w)
            assert len(calls) - before == 2, w.matrix.entries


# Pieces of a block-diagonal weight matrix: a coloop, a zero row, an
# opposite pair, a positive triple, two positive circuits meeting in one
# row (the overlap case) and a positive circuit in rank 2.
PIECES = [
    [[1]], [[0]], [[1], [-1]], [[1], [1], [-2]], [[1], [-1], [-1]],
    [[1, 0], [0, 1], [-1, -2]],
]
random_pieces = st.integers(1, 3).flatmap(
    lambda r: st.lists(
        st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=1, max_size=6
    )
)


@st.composite
def lazy_read_matrices(draw):
    """A direct sum of pieces, then a duplicate row or none, rows shuffled:
    visible and non-visible input, with zero rows, duplicate rows and
    coloops, and the overlap case."""
    pieces = draw(st.lists(
        st.one_of(st.sampled_from(PIECES), random_pieces), min_size=1, max_size=4
    ))
    width = sum(len(p[0]) for p in pieces)
    rows, off = [], 0
    for piece in pieces:
        for row in piece:
            rows.append([0] * off + list(row) + [0] * (width - off - len(row)))
        off += len(piece[0])
    if draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    return wm(draw(st.permutations(rows)))


def eager_analysis(w):
    """(rank, dependent, visibility) read off every circuit of tS."""
    vectors = exactlin.kernel_basis(list(zip(*w.matrix.entries)), w.n)
    supports = [[i for i, c in enumerate(v, 1) if c] for v in vectors]
    dependent = frozenset().union(*supports)
    mixed = torus._mixed_circuit(vectors)
    if mixed is None:
        blocks = tuple(
            torus.Block(frozenset(s), polytope.primitive([v[i - 1] for i in s]))
            for s, v in sorted(zip(supports, vectors))
        )
        free = frozenset(range(1, w.n + 1)) - dependent
        vis = VisibleDecomposition(free, blocks)
    else:
        vis = ClosedPairWitness(polytope.primitive(mixed))
    return w.n - len(vectors), dependent, vis


class TestLazyCircuitRead:
    """``Analysis.of`` stops reading circuits once the verdict is decided
    and every basis row is covered; it still equals the eager read."""

    @given(lazy_read_matrices())
    @example(wm([[0], [1]]))  # a zero row
    @example(wm([[1, 0], [1, 0], [0, 1]]))  # a duplicate row and a coloop
    @example(wm([[1, 0], [-1, 0], [0, 1], [0, -2]]))  # visible, two blocks
    @example(wm([[1], [-1], [-1]]))  # the overlap case
    @example(wm([[1, 0], [1, 1], [-2, 0], [0, 0]]))  # mixed, with a coloop
    @settings(max_examples=300, deadline=None)
    def test_equals_the_eager_read(self, w):
        a = torus.Analysis.of(w)
        assert (a.rank, a.dependent, a.visibility) == eager_analysis(w)

    def test_generic_matrix_reads_few_circuits(self, monkeypatch):
        # A generic (80, 20) matrix is not visible, and its first circuit
        # already covers all 20 basis rows.
        calls = []
        real = exactlin.back_substitute
        monkeypatch.setattr(
            exactlin, "back_substitute", lambda *a: calls.append(a[3]) or real(*a)
        )
        rng = random.Random(80)
        w = wm([[rng.randint(-5, 5) for _ in range(20)] for _ in range(80)])
        a = torus.Analysis.of(w)
        assert isinstance(a.visibility, ClosedPairWitness)
        assert (a.rank, a.dependent) == (20, frozenset(range(1, 81)))
        assert 0 < len(calls) < w.n - a.rank


class TestCartanSubspace:
    def test_opposite(self):
        assert torus.Analysis.of(OPPOSITE).cartan_vectors == [(1, 1)]

    def test_block_plus_free(self):
        assert torus.Analysis.of(BLOCK_PLUS_FREE).cartan_vectors == [(1, 1, 0)]

    def test_identity_rank_zero(self):
        assert torus.Analysis.of(IDENTITY2).cartan_vectors == []

    def test_not_visible_has_none(self):
        assert torus.Analysis.of(TRIPLE).cartan_vectors is None

    def test_count_and_tangent_confinement(self, small_corpus):
        rng = random.Random(8)
        for w in small_corpus[:80]:
            dec = torus.Analysis.of(w).visibility
            if not isinstance(dec, VisibleDecomposition):
                continue
            vectors = torus.Analysis.of(w).cartan_vectors
            rank = torus.stratum_orbit_dim(w, range(1, w.n + 1))
            assert len(vectors) == w.n - rank
            if not vectors:
                continue
            # Tangent spaces along the subspace stay inside the generic one.
            ones = [sum(col) for col in zip(*vectors)]
            generic = _tangent_rows(w, ones)
            for _ in range(3):
                coeffs = [rng.randint(-3, 3) for _ in vectors]
                x = [
                    sum(c * v[i] for c, v in zip(coeffs, vectors))
                    for i in range(w.n)
                ]
                stacked = generic + _tangent_rows(w, x)
                assert exactlin.rank_rows(stacked) == exactlin.rank_rows(
                    generic
                )


def _doubled_weights(w, p):
    """{s_i : x_i != 0} then {-s_i : phi_i != 0}, in index order."""
    return [w.weight(i) for i in sorted(torus.support(p.x))] + [
        tuple(-v for v in w.weight(i)) for i in sorted(torus.support(p.phi))
    ]


def _tangent_rows(w, x):
    return [
        [x[i] * w.matrix.entries[i][j] for i in range(w.n)]
        for j in range(w.r)
    ]


class TestPairClosedOrbit:
    def test_both_semisimple(self):
        res = torus.pair_closed_orbit(OPPOSITE, PairPoint.of((1, 1), (1, 1)))
        assert isinstance(res, Inside)

    def test_nilpotent_x_not_closed(self):
        res = torus.pair_closed_orbit(OPPOSITE, PairPoint.of((1, 0), (0, 0)))
        assert isinstance(res, NotClosed)
        assert res.limit.x == (Fraction(0), Fraction(0))

    def test_origin_closed(self):
        res = torus.pair_closed_orbit(OPPOSITE, PairPoint.of((0, 0), (0, 0)))
        assert res == Inside(())

    def test_off_fiber_rejected(self):
        with pytest.raises(InputError):
            torus.pair_closed_orbit(
                LINE_AND_FIXED, PairPoint.of((1, 0), (1, 0))
            )

    def test_free_support_not_closed(self):
        # x supported on a free index: the reduction forgets it.
        res = torus.pair_closed_orbit(
            LINE_AND_FIXED, PairPoint.of((1, 0), (0, 1))
        )
        assert isinstance(res, NotClosed)

    def test_nilpotent_x_closed_when_not_visible(self):
        # Non-visible, supports avoid I_f, x nilpotent: the doubled points
        # 1, -1, 2 still hold 0 in their relative interior.
        p = PairPoint.of((1, 0, 0), (0, 1, 1))
        res = torus.pair_closed_orbit(TRIPLE, p)
        assert isinstance(res, Inside)
        coeffs = res.coefficients
        assert all(c > 0 for c in coeffs)
        assert [c / coeffs[0] for c in coeffs] == [1, 3, 1]
        q = polytope.HullQuery.of([(1,), (-1,), (2,)])
        assert polytope.verify_certificate(q, res, True)

    def test_destabilizer_certifies(self, small_corpus):
        rng = random.Random(17)
        for w in small_corpus[:60]:
            mask = rng.randrange(1, 1 << w.n)
            subset = {i + 1 for i in range(w.n) if mask >> i & 1}
            p = oracle.random_fiber_point(w, subset, rng.randrange(10**6))
            res = torus.pair_closed_orbit(w, p)
            if isinstance(res, NotClosed):
                lam = res.cocharacter
                exps = [
                    sum(
                        w.matrix.entries[i][j] * lam[j] for j in range(w.r)
                    )
                    for i in range(w.n)
                ]
                strict = False
                for i in range(w.n):
                    if p.x[i] != 0:
                        assert exps[i] >= 0
                        strict |= exps[i] > 0
                    if p.phi[i] != 0:
                        assert exps[i] <= 0
                        strict |= exps[i] < 0
                assert strict
                assert res.limit == PairPoint(
                    tuple(0 if e else v for v, e in zip(p.x, exps)),
                    tuple(0 if e else v for v, e in zip(p.phi, exps)),
                )
            elif isinstance(res, Inside):
                q = polytope.HullQuery.of(_doubled_weights(w, p))
                cert = polytope.zero_in_relative_interior(q)
                assert isinstance(cert, Inside)

    def test_verdict_matches_brute_relative_interior(self, corpus):
        # Hilbert-Mumford against the subset-enumeration oracle.  The first
        # point per matrix has x = 0, so phi-only points are covered; the
        # size filter keeps the oracle's enumeration to a few seconds.
        rng = random.Random(23)
        cases = 0
        for w in corpus:
            if w.n > 8 or w.r > 4:
                continue
            for k in range(8):
                mask = rng.randrange(1, 1 << w.n) if k else 0
                subset = {i + 1 for i in range(w.n) if mask >> i & 1}
                p = oracle.random_fiber_point(w, subset, rng.randrange(10**6))
                pts = _doubled_weights(w, p)
                res = torus.pair_closed_orbit(w, p)
                cases += 1
                if not pts:  # the origin
                    assert res == Inside(())
                    continue
                closed = oracle.brute_zero_in_relative_interior(pts)
                assert isinstance(res, Inside) == closed, (w, p)
                if closed:
                    assert polytope.verify_certificate(
                        polytope.HullQuery.of(pts), res, True
                    )
                else:
                    # Pairings >= 0 on supp x, <= 0 on supp phi, one strict.
                    lam = res.cocharacter
                    exps = [sum(s * c for s, c in zip(wt, lam)) for wt in pts]
                    assert all(e >= 0 for e in exps)
                    assert any(e > 0 for e in exps)
        assert cases >= 2000

    def test_block_destabilizer(self, monkeypatch):
        # Blocks {1,2} and {3,4}; supp(x) = {1,3,4} contains {3,4}.  Only
        # (1, 0) separates the doubled points, and its flow kills x_1; the
        # hull query needs no circuit of the weights.
        w = wm([[1, 0], [-1, 0], [0, 1], [0, -1]])
        def forbidden(*args):
            raise AssertionError("closedness needs no circuits")

        monkeypatch.setattr(torus.Analysis, "of", forbidden)
        monkeypatch.setattr(exactlin, "kernel_basis", forbidden)
        res = torus.pair_closed_orbit(w, PairPoint.of((1, 0, 1, 1), (0,) * 4))
        assert isinstance(res, NotClosed)
        assert res.cocharacter == (1, 0)
        assert res.limit == PairPoint.of((0, 0, 1, 1), (0,) * 4)

    def test_rejected_certificate_raises(self, monkeypatch):
        # The hull query checks its own destabilizer: with every
        # certificate rejected, a point that is not closed raises.
        w = wm([[1, 0], [-1, 0], [0, 1], [0, -1]])
        monkeypatch.setattr(
            polytope, "verify_certificate", lambda *a, **k: False
        )
        with pytest.raises(ArithmeticError):
            torus.pair_closed_orbit(w, PairPoint.of((1, 0, 1, 1), (0,) * 4))

    def test_free_part_of_a_support_is_outside_its_blocks(self, small_corpus):
        # For a visible matrix and a support avoiding I_f, the rows' own
        # free part is the support minus the blocks it contains.  Few
        # random matrices are visible with several blocks, so three such
        # matrices are added by hand.
        several_blocks = [
            wm([[1, 0], [-1, 0], [0, 1], [0, -1]]),
            wm([[1, 1], [-1, -1], [1, -1], [-2, 2], [0, 0]]),
            wm([[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 0],
                [0, 0, -1, 0], [0, 0, 0, 1]]),
        ]
        for w in small_corpus + several_blocks:
            dec = torus.Analysis.of(w).visibility
            if w.n > 8 or isinstance(dec, ClosedPairWitness):
                continue
            dependent = sorted(set(range(1, w.n + 1)) - dec.fixed)
            for mask in range(1, 1 << len(dependent)):
                supp = frozenset(
                    i for b, i in enumerate(dependent) if mask >> b & 1
                )
                members = sorted(supp)
                sub = WeightMatrix.from_rows(w.weight(i) for i in members)
                free = {members[i - 1] for i in torus.Analysis.of(sub).free}
                inside = [b.indices for b in dec.blocks if b.indices <= supp]
                assert free == supp.difference(*inside), (w, supp)


def x_is_nilpotent(w, p):
    # The simplex's own answer: 0 outside the hull of the weights on
    # supp x, with a functional that verifies.
    q = polytope.HullQuery.of([w.weight(i) for i in sorted(torus.support(p.x))])
    cert = polytope.zero_in_hull(q)
    return isinstance(cert, Outside) and polytope.verify_certificate(q, cert, False)


class TestNonvisibleWitness:
    def test_triple(self):
        wit = torus.Analysis.of(TRIPLE).visibility
        assert isinstance(wit, ClosedPairWitness)
        p = wit.pair
        assert torus.moment_eval(TRIPLE, p) == (Fraction(0),)
        assert x_is_nilpotent(TRIPLE, p)
        # The relation is a genuine mixed-sign dependency.
        assert any(c > 0 for c in wit.relation)
        assert any(c < 0 for c in wit.relation)
        value = Fraction(1)
        for i, c in enumerate(wit.relation):
            if c > 0:
                value *= p.x[i] ** c
            elif c < 0:
                value *= p.phi[i] ** (-c)
        assert value == 1

    def test_visible_returns_none(self):
        # No witness: the verdict is the decomposition.
        for w in (OPPOSITE, IDENTITY2):
            vis = torus.Analysis.of(w).visibility
            assert isinstance(vis, VisibleDecomposition)

    def test_mixed_fundamental_circuit(self):
        # C(2, {1}) relates rows 1 and 2 with opposite signs.
        wit = torus.Analysis.of(TRIPLE).visibility
        assert wit.relation == (-1, 1, 0)
        assert wit.pair == PairPoint.of((0, 1, 0), (1, 0, 0))

    def test_two_positive_circuits_sharing_a_basis_row(self):
        # C(2) = (1, 1, 0) and C(3) = (2, 0, 1) are positive and meet in
        # row 1; eliminating it leaves the mixed circuit {2, 3}.
        wit = torus.Analysis.of(wm([[1], [-1], [-2]])).visibility
        assert wit.relation == (0, -2, 1)
        assert wit.pair == PairPoint.of((0, 0, 1), (0, 1, 0))

    def test_disjoint_positive_circuits_are_the_blocks(self):
        w = wm([
            [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -2, 0], [0, 0, 0], [0, 0, 1],
        ])
        dec = torus.Analysis.of(w).visibility
        assert dec.fixed == frozenset({6})
        assert [(b.indices, b.relation) for b in dec.blocks] == [
            (frozenset({1, 2}), (Fraction(1), Fraction(1))),
            (frozenset({3, 4}), (Fraction(2), Fraction(1))),
            (frozenset({5}), (Fraction(1),)),
        ]

    def test_presence_matches_the_circuit_scan(self, corpus):
        for w in corpus:
            if w.n > 12:
                continue
            vis = torus.Analysis.of(w).visibility
            visible = isinstance(vis, VisibleDecomposition)
            assert visible == (oracle.brute_mixed_circuit(w) is None), (
                w.matrix.entries
            )

    def test_every_witness_is_a_mixed_circuit(self, corpus):
        for w in corpus:
            wit = torus.Analysis.of(w).visibility
            if not isinstance(wit, ClosedPairWitness):
                continue
            supp = sorted(torus.support(wit.relation))
            assert exactlin.rank_rows(
                [w.weight(i) for i in supp]
            ) == len(supp) - 1, w.matrix.entries
            assert any(c > 0 for c in wit.relation)
            assert any(c < 0 for c in wit.relation)
            assert all(v == 0 for v in torus.moment_eval(w, wit.pair))

    def test_constructed_witness_matches_the_searched_route(self, corpus):
        # The hull searches stay the reference for the built certificates.
        checked = 0
        for w in corpus:
            wit = torus.Analysis.of(w).visibility
            if not isinstance(wit, ClosedPairWitness):
                continue
            assert isinstance(torus.pair_closed_orbit(w, wit.pair), Inside), (
                w.matrix.entries
            )
            assert x_is_nilpotent(w, wit.pair), w.matrix.entries
            checked += 1
        assert checked > 100

    def test_analyze_runs_one_simplex_per_matrix(self, corpus, monkeypatch):
        calls = []
        real = polytope._phase_one
        monkeypatch.setattr(
            polytope,
            "_phase_one",
            lambda cols, rhs: calls.append(1) or real(cols, rhs),
        )
        for w in corpus:
            before = len(calls)
            cli.analyze(w)
            assert len(calls) - before == 1, w.matrix.entries

    @pytest.mark.parametrize(
        "rows, relation, message",
        [
            # One sign of TRIPLE's relation (-1, 1, 0) flipped.
            ([[1], [1], [-2]], (1, 1, 0), "dependency"),
            # Signs agree, but no dependency.
            ([[1], [1], [-2]], (-1, 2, 0), "dependency"),
            # Positive relations: P is dependent, S_P t = 1 inconsistent.
            ([[1], [2], [-1]], (1, 1, 3), "inconsistent"),
            ([[1], [2], [1]], (1, 1, -3), "inconsistent"),
            # No positive part.
            ([[1], [-1]], (-1, -1), "x-part is zero"),
        ],
        # Pinned, so that deleting a case renames none of the others.
        ids=[
            "rows0-relation0-x0-phi0-dependency",
            "rows1-relation1-x1-phi1-dependency",
            "rows6-relation6-x6-phi6-inconsistent",
            "rows7-relation7-x7-phi7-inconsistent",
            "rows8-relation8-x8-phi8-x-part is zero",
        ],
    )
    def test_tampered_witness_is_rejected(self, rows, relation, message):
        witness = torus.ClosedPairWitness(relation)
        with pytest.raises(ArithmeticError, match=message):
            torus._verify_nonvisible_witness(wm(rows), witness)

    @pytest.mark.parametrize(
        "rejected, message",
        [(False, "witness x-part is not nilpotent")],
        ids=["nilpotency"],
    )
    def test_failed_certificate_check_is_reported(
        self, rejected, message, monkeypatch
    ):
        # A genuine mixed circuit's nilpotency certificate always verifies,
        # so a checker that rejects the hull check stands in for a wrong
        # witness.
        real = polytope.verify_certificate

        def checker(q, cert, relative_interior):
            return relative_interior != rejected and real(q, cert, relative_interior)

        monkeypatch.setattr(polytope, "verify_certificate", checker)
        with pytest.raises(ArithmeticError) as exc:
            torus.Analysis.of(TRIPLE)
        assert str(exc.value) == message

    def test_one_certificate_check_per_witness(self, corpus, monkeypatch):
        # The relation check already proves closedness (|r| on the doubled
        # weights sums to sum r_i s_i), so a non-visible analysis verifies
        # one certificate: the nilpotency functional, a hull check.
        calls = []
        real = polytope.verify_certificate

        def counting(q, cert, relative_interior):
            calls.append(relative_interior)
            return real(q, cert, relative_interior)

        monkeypatch.setattr(polytope, "verify_certificate", counting)
        nonvisible = 0
        for w in corpus:
            calls.clear()
            if isinstance(torus.Analysis.of(w).visibility, ClosedPairWitness):
                assert calls == [False], w.matrix.entries
                nonvisible += 1
        assert nonvisible > 100

    @pytest.mark.parametrize("n, r", [(40, 12), (80, 20)])
    def test_large_generic_matrices_are_analyzed(self, n, r):
        rng = random.Random(n)
        w = wm([[rng.randint(-5, 5) for _ in range(r)] for _ in range(n)])
        rep = cli.analyze(w)
        assert rep.properties["visible"]["value"] is False
        rel = rep.nonvisible_witness["relation"]
        for j in range(r):
            assert sum(c * row[j] for c, row in zip(rel, w.matrix.entries)) == 0


class TestReductionSupport:
    def test_examples(self):
        assert torus.Analysis.of(LINE_AND_FIXED).dependent == frozenset({2})
        assert torus.Analysis.of(OPPOSITE).dependent == frozenset({1, 2})
        assert torus.Analysis.of(IDENTITY2).dependent == frozenset()

    def test_restriction_has_no_free_part(self, small_corpus):
        for w in small_corpus:
            i_d = torus.Analysis.of(w).dependent
            if not i_d:
                continue
            sub = torus.WeightMatrix.from_rows(w.weight(i) for i in sorted(i_d))
            assert torus.Analysis.of(sub).free == frozenset()
            # The two reductions have equal expected dimension.
            assert 2 * sub.n - 2 * torus.stratum_orbit_dim(
                sub, range(1, sub.n + 1)
            ) == 2 * len(i_d) + 2 * len(
                torus.Analysis.of(w).free
            ) - 2 * torus.stratum_orbit_dim(w, range(1, w.n + 1))


class TestSmoothWitness:
    def test_single_index(self):
        a = torus.Analysis.of(OPPOSITE)
        p = a.smooth_witness({1})
        assert p == PairPoint.of((1, 0), (0, 1))
        assert p == torus.smooth_witness(OPPOSITE, {1})
        assert a.stabilizer_dim(p) == 0

    def test_full_support(self):
        p = torus.smooth_witness(OPPOSITE, {1, 2})
        assert p == PairPoint.of((1, 1), (0, 0))

    def test_empty_set(self):
        w = wm([[1]])
        p = torus.smooth_witness(w, set())
        assert p == PairPoint.of((0,), (1,))

    def test_requires_locally_free(self):
        with pytest.raises(CapabilityError):
            torus.smooth_witness(wm([[1, 0], [-1, 0]]), {1})

    def test_all_subsets_certify(self, small_corpus):
        for w in small_corpus[:60]:
            if w.n > 6:
                continue
            if all(x == 0 for row in w.matrix.entries for x in row):
                continue
            eff = torus.reduce_to_effective(w)
            a = torus.Analysis.of(eff)
            for mask in range(1 << eff.n):
                subset = {i + 1 for i in range(eff.n) if mask >> i & 1}
                p = a.smooth_witness(subset)
                assert all(
                    v == 0 for v in torus.moment_eval(eff, p)
                )
                assert a.stabilizer_dim(p) == 0
                assert oracle.tangent_dim(eff, p) == a.fiber_dimension


def stabilizer_dim(w, p):
    return torus.Analysis.of(w).stabilizer_dim(p)


class TestStabilizerDim:
    def test_examples(self):
        assert stabilizer_dim(OPPOSITE, PairPoint.of((1, 0), (0, 1))) == 0
        assert stabilizer_dim(OPPOSITE, PairPoint.of((0, 0), (0, 0))) == 1
        w = wm([[1, 0], [-1, 0]])
        assert stabilizer_dim(w, PairPoint.of((1, 1), (0, 0))) == 1

    def test_origin_has_full_stabilizer(self):
        w = wm([[1, 2], [3, 4]])
        assert stabilizer_dim(w, PairPoint.of((0, 0), (0, 0))) == w.r

    def test_partial_support_ranks_its_rows(self):
        # Only row 1 is in the support: rank 1 of r = 2 leaves 1, where
        # the whole matrix has rank 2.
        w = wm([[1, 0], [0, 1]])
        assert stabilizer_dim(w, PairPoint.of((1, 0), (0, 0))) == 1
        assert stabilizer_dim(w, PairPoint.of((0, 1), (1, 0))) == 0
        w = wm([[1, 0], [2, 0], [0, 1]])
        assert stabilizer_dim(w, PairPoint.of((1, 1, 0), (0, 0, 0))) == 1

    def test_full_support_matches_a_fresh_rank(self, small_corpus):
        for w in small_corpus[:60]:
            a = torus.Analysis.of(w)
            p = PairPoint.of((1,) * w.n, (0,) * w.n)
            assert a.stabilizer_dim(p) == w.r - exactlin.rank_rows(
                w.matrix.entries
            )

    def test_length_mismatch_rejected(self):
        a = torus.Analysis.of(OPPOSITE)
        with pytest.raises(InputError):
            a.stabilizer_dim(PairPoint.of((1,), (0,)))
        with pytest.raises(InputError):
            a.stabilizer_dim(PairPoint.of((1, 0), (0, 1, 0)))


class TestModalityInvariants:
    def test_monotone_and_global_max(self, small_corpus):
        rng = random.Random(5)
        for w in small_corpus[:60]:
            full = modality(w, range(1, w.n + 1))
            assert full == w.n - exactlin.rank_rows(w.matrix.entries)
            best = 0
            for mask in range(1 << w.n):  # exhaustive, n <= 10 in corpus
                subset = {i + 1 for i in range(w.n) if mask >> i & 1}
                m = modality(w, subset)
                best = max(best, m)
                bigger = subset | {
                    rng.randint(1, w.n) for _ in range(2)
                }
                assert modality(w, bigger) >= m
            assert best == full


class TestStabilityIrreducibilityTriple:
    def test_on_visible_matrices(self, small_corpus):
        seen = 0
        for w in small_corpus:
            a = torus.Analysis.of(w)
            if not isinstance(a.visibility, VisibleDecomposition):
                continue
            seen += 1
            stable = torus.is_stable(w)[0]
            irr = len(a.components()) == 1
            assert stable == (not a.free) == irr
        assert seen >= 10


def test_reimported_package_is_collected():
    # A module-level typing.Union alias of the package's own classes would
    # stay in typing's cache and keep every earlier copy of the package
    # alive after a re-import.
    code = """
import gc, importlib, sys, weakref
refs = []
for _ in range(3):
    for k in [k for k in sys.modules if k.split('.')[0] == 'moment_fiber']:
        del sys.modules[k]
    torus = importlib.import_module('moment_fiber.torus')
    refs.append(weakref.ref(torus.NotClosed))
    refs.append(weakref.ref(importlib.import_module('moment_fiber.polytope')))
del torus
gc.collect()
print(sum(r() is not None for r in refs))
"""
    src = os.path.dirname(os.path.dirname(torus.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    ).stdout
    assert out.split() == ["2"]  # only the copy still in sys.modules


def test_every_public_name_resolves():
    import moment_fiber

    assert len(set(moment_fiber.__all__)) == len(moment_fiber.__all__)
    for name in moment_fiber.__all__:
        assert getattr(moment_fiber, name, None) is not None, name
