"""Root systems, Kac gradings, scans, and the classical-case formulas."""

from __future__ import annotations

import itertools

import pytest

from moment_fiber import oracle, theta
from moment_fiber.errors import InputError
from moment_fiber.theta import (
    KacDiagram,
    VinbergClassicalInput,
    build_root_system,
    graded_dims,
    kac_order,
    levi_order_scan,
    rank1_dim_filter,
    vinberg_delta,
)

SUPPORTED = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}

# The five rank-one diagrams with non-normal fibers, and the two untwisted
# normal exceptions; labels in internal node order (alpha_1..alpha_n, affine).
NONNORMAL_DIAGRAMS = {
    ("E", 6): [(1, 1, 1, 0, 1, 1, 1)],
    ("E", 7): [(1, 1, 1, 0, 1, 1, 1, 1)],
    ("E", 8): [
        (1, 1, 1, 0, 1, 1, 1, 1, 1),
        (1, 1, 1, 0, 1, 0, 1, 1, 1),
        (1, 0, 0, 1, 0, 1, 0, 1, 1),
    ],
}
NONNORMAL_ORDERS = {9, 14, 24, 20, 15}
NORMAL_UNTWISTED = {("G", 2): (0, 1, 1), ("F", 4): (1, 1, 0, 1, 1)}

TWISTED = sorted(key for key in theta._MARKS if key[2] > 1)

# Degrees 0 and 1 of E6^(2) with labels (1,0,1,1,1), as the classification
# tables list them.
E6_TWISTED_TABLE_DIMS = (6, 7)


def twisted_cartan(family, rank, twist):
    """The affine Cartan matrix a_ij = <alpha_i^vee, alpha_j> of Kac's
    Tables Aff 2 and Aff 3, rows and columns in label order (alpha_1..
    alpha_l, alpha_0)."""
    size = len(theta._MARKS[family, rank, twist])
    l = size - 1
    a = [[2 * (i == j) for j in range(size)] for i in range(size)]

    def bond(i, j, a_ij=-1, a_ji=-1):  # Kac's node numbers, 0 = alpha_0
        i, j = (i - 1) % size, (j - 1) % size
        a[i][j], a[j][i] = a_ij, a_ji

    if (family, rank) == ("A", 2):  # A_2^(2)
        bond(0, 1, -4, -1)
    elif family == "A" and rank % 2 == 0:  # A_2l^(2): a chain 0 - 1 - .. - l
        bond(0, 1, -2, -1)
        for i in range(1, l - 1):
            bond(i, i + 1)
        bond(l - 1, l, -2, -1)
    elif family == "A":  # A_(2l-1)^(2): 0 and 1 both joined to 2
        bond(0, 2)
        for i in range(1, l - 1):
            bond(i, i + 1)
        bond(l - 1, l, -2, -1)
    elif twist == 2 and family == "D":  # D_(l+1)^(2): a chain 0 - 1 - .. - l
        bond(0, 1, -2, -1)
        for i in range(1, l - 1):
            bond(i, i + 1)
        bond(l, l - 1, -2, -1)
    elif family == "E":  # E6^(2): a chain 0 - 1 - 2 - 3 - 4
        bond(0, 1)
        bond(1, 2)
        bond(2, 3, -2, -1)
        bond(3, 4)
    else:  # D4^(3): a chain 0 - 1 - 2
        bond(0, 1)
        bond(1, 2, -3, -1)
    return a


class TestRootSystems:
    def test_counts(self):
        assert len(build_root_system("A", 2).roots) == 6
        assert len(build_root_system("E", 8).roots) == 240
        assert len(build_root_system("G", 2).roots) == 12

    @pytest.mark.parametrize("family,rank", SUPPORTED)
    def test_all_supported_types(self, family, rank):
        rs = build_root_system(family, rank)
        assert len(rs.roots) == ROOT_COUNTS[family](rank)
        # Marks equal the computed highest root plus affine mark 1.
        assert rs.affine_marks == rs.highest_root + (1,)
        # Roots come in opposite pairs.
        roots = set(rs.roots)
        assert all(tuple(-x for x in r) in roots for r in roots)

    def test_one_marks_row_per_supported_diagram(self):
        untwisted = sorted(key[:2] for key in theta._MARKS if key[2] == 1)
        assert untwisted == sorted(SUPPORTED)
        assert len(TWISTED) == 23

    def test_invalid_types(self):
        with pytest.raises(InputError):
            build_root_system("H", 4)
        with pytest.raises(InputError):
            build_root_system("E", 9)
        with pytest.raises(InputError):
            build_root_system("D", 3)


class TestKacOrder:
    def test_rank_one_table_orders(self):
        orders = set()
        for (family, rank), labelings in NONNORMAL_DIAGRAMS.items():
            for labels in labelings:
                orders.add(kac_order(KacDiagram.of(family, rank, labels)))
        assert orders == NONNORMAL_ORDERS

    def test_all_ones_is_coxeter_number(self):
        for family, rank in SUPPORTED:
            d = KacDiagram.all_ones(family, rank)
            assert kac_order(d) == build_root_system(family, rank).coxeter_number
        assert kac_order(KacDiagram.all_ones("A", 2)) == 3

    def test_twisted_orders(self):
        assert kac_order(KacDiagram.all_ones("A", 2, twist=2)) == 6
        assert kac_order(KacDiagram.all_ones("A", 5, twist=2)) == 10
        assert kac_order(KacDiagram.all_ones("D", 4, twist=2)) == 8
        assert kac_order(KacDiagram.all_ones("E", 6, twist=2)) == 18
        assert kac_order(KacDiagram.all_ones("D", 4, twist=3)) == 12

    def test_label_validation(self):
        with pytest.raises(InputError):
            KacDiagram.of("A", 2, (1, 1))  # missing affine label
        with pytest.raises(InputError):
            KacDiagram.of("A", 2, (0, 0, 0))
        with pytest.raises(InputError):
            KacDiagram.of("A", 2, (2, 0, 1))
        with pytest.raises(InputError):
            KacDiagram.of("B", 3, (1, 1, 1), twist=2)  # no such diagram


class TestGradedDims:
    def test_a2_all_ones(self):
        gd = graded_dims(KacDiagram.all_ones("A", 2))
        assert (gd.order, gd.dims) == (3, (2, 3, 3))

    def test_all_ones_every_type(self):
        for family, rank in SUPPORTED:
            gd = graded_dims(KacDiagram.all_ones(family, rank))
            assert gd.dims[0] == rank
            assert gd.dims[1] == rank + 1

    def test_dimension_check_can_fail(self, monkeypatch):
        # Losing one Cartan vector keeps the dims symmetric, so only the
        # comparison with dim X_N from its closed formula can see it.
        full = theta._eigenvectors
        monkeypatch.setattr(theta, "_eigenvectors", lambda *key: full(*key)[1:])
        for d in [
            KacDiagram.all_ones("E", 6),
            KacDiagram.of("E", 6, (1, 0, 1, 1, 1), twist=2),
        ]:
            with pytest.raises(ArithmeticError, match="sum to dim"):
                graded_dims(d)

    def test_rank_one_tables_gain_one_dimension(self):
        for (family, rank), labelings in NONNORMAL_DIAGRAMS.items():
            for labels in labelings:
                assert graded_dims(KacDiagram.of(family, rank, labels)).delta == 1
        for (family, rank), labels in NORMAL_UNTWISTED.items():
            assert graded_dims(KacDiagram.of(family, rank, labels)).delta == 1

    def test_symmetry_and_total(self):
        for family, rank in (("B", 3), ("D", 5), ("F", 4)):
            rs = build_root_system(family, rank)
            for labels in itertools.product((0, 1), repeat=rank + 1):
                if not any(labels):
                    continue
                gd = graded_dims(KacDiagram.of(family, rank, labels))
                assert sum(gd.dims) == len(rs.roots) + rank
                for j in range(gd.order):
                    assert gd.dims[j] == gd.dims[-j % gd.order]

    def test_zero_part_matches_zero_labelled_subdiagram(self):
        for family, rank in (("A", 3), ("C", 3), ("G", 2), ("E", 6)):
            for labels in itertools.product((0, 1), repeat=rank + 1):
                if not any(labels):
                    continue
                d = KacDiagram.of(family, rank, labels)
                zero_nodes = sum(1 for v in labels if v == 0)
                assert theta.zero_part_semisimple_rank(d) == zero_nodes

    def test_order_one_grading(self):
        # A single label on a mark-1 node gives the trivial grading.
        d = KacDiagram.of("A", 2, (0, 0, 1))
        gd = graded_dims(d)
        assert gd.order == 1 and gd.dims == (8,)
        assert gd.delta == 0

    def test_twisted_all_ones(self):
        gd = graded_dims(KacDiagram.all_ones("A", 5, twist=2))
        assert gd.order == 10
        assert gd.dims == (3, 4) * 5

    def test_twisted_general_labels(self):
        # The 0-labelled nodes alpha_2, alpha_4 of D5^(2) are not joined:
        # degree 0 is A1 x A1 plus a two-dimensional centre.
        d = KacDiagram.of("D", 5, (1, 0, 1, 0, 1), twist=2)
        gd = graded_dims(d)
        assert (gd.order, gd.dims) == (6, (8, 9, 6, 7, 6, 9))
        assert theta.zero_part_semisimple_rank(d) == 2

    def test_twisted_table_record(self):
        d = KacDiagram.of("E", 6, (1, 0, 1, 1, 1), twist=2)
        gd = graded_dims(d)
        assert gd.order == 12 and gd.delta == 1
        assert gd.dims[:2] == E6_TWISTED_TABLE_DIMS
        assert gd.dims == (6, 7, 7, 6, 6, 7, 6, 7, 6, 6, 7, 7)


class TestTwistedGradings:
    """Every labeling of every twisted diagram against two oracles: the
    0-labelled subdiagram of Kac's twisted affine Cartan matrix, and the
    inner grading of X_N that sigma^k gives."""

    @pytest.mark.parametrize("family,rank,twist", TWISTED)
    def test_marks_are_the_null_vector(self, family, rank, twist):
        a = twisted_cartan(family, rank, twist)
        marks = theta._MARKS[family, rank, twist]
        assert all(sum(x * m for x, m in zip(row, marks)) == 0 for row in a)

    @pytest.mark.parametrize("family,rank,twist", TWISTED)
    def test_degree_zero_is_the_zero_labelled_subdiagram(
        self, family, rank, twist
    ):
        a = twisted_cartan(family, rank, twist)
        for labels in theta._all_labelings(len(a)):
            zero = [i for i, v in enumerate(labels) if v == 0]
            # string closure reads <alpha_j, alpha_i^vee>: the transpose
            sub = [[a[j][i] for j in zero] for i in zero]
            roots = 2 * len(theta._positive_roots(sub))
            centre = len(labels) - len(zero) - 1
            d = KacDiagram(family, rank, twist, labels)
            assert graded_dims(d).dims[0] == roots + len(zero) + centre, labels
            assert theta.zero_part_semisimple_rank(d) == len(zero), labels

    @pytest.mark.parametrize("family,rank,twist", TWISTED)
    def test_coarsening_is_the_inner_grading(self, family, rank, twist):
        # sigma^k is inner: summed by residue mod m/k, the degrees are
        # those of the grading of X_N where a root sum(k_i alpha_i) has
        # degree sum(k_i s_P(i)) and the Cartan sits in degree 0.
        nodes = theta._folded_nodes(family, rank, twist)
        position = {i: p for p, orbit in enumerate(nodes) if orbit for i in orbit}
        positive = theta._positive_roots(theta._cartan_matrix(family, rank))
        for labels in theta._all_labelings(len(nodes)):
            gd = graded_dims(KacDiagram(family, rank, twist, labels))
            q = gd.order // twist
            expected = [rank] + [0] * (q - 1)
            for root in positive:
                deg = sum(k * labels[position[i]] for i, k in enumerate(root))
                expected[deg % q] += 1
                expected[-deg % q] += 1
            assert [sum(gd.dims[r::q]) for r in range(q)] == expected, labels

    @pytest.mark.parametrize("family,rank,twist", TWISTED)
    def test_all_ones_total_and_symmetry(self, family, rank, twist):
        gd = graded_dims(KacDiagram.all_ones(family, rank, twist))
        l = len(theta._MARKS[family, rank, twist]) - 1
        assert gd.dims[:2] == (l, l + 1)
        positive = theta._positive_roots(theta._cartan_matrix(family, rank))
        assert sum(gd.dims) == 2 * len(positive) + rank
        assert all(gd.dims[j] == gd.dims[-j % gd.order] for j in range(gd.order))


class TestScans:
    def test_rank1_filter_contains_known_diagrams(self):
        got = {d.labels for d in rank1_dim_filter("E", 6)}
        assert (1,) * 7 in got
        assert NONNORMAL_DIAGRAMS[("E", 6)][0] in got
        assert len(got) < 2**7

        got_a2 = {d.labels for d in rank1_dim_filter("A", 2)}
        assert (1, 1, 1) in got_a2

        got_g2 = {d.labels for d in rank1_dim_filter("G", 2)}
        assert NORMAL_UNTWISTED[("G", 2)] in got_g2

    def test_high_delta_orders_avoid_rank_one_multiples(self):
        for family, rank in (("E", 7), ("E", 8)):
            hits = levi_order_scan(family, rank, min_delta=2)
            assert hits
            for h in hits:
                assert h.order % 9 != 0
                assert h.order % 14 != 0

    def test_scan_consistency_with_filter(self):
        ones = [
            h.diagram.labels
            for h in levi_order_scan("E", 7, min_delta=1)
            if h.delta == 1
        ]
        assert sorted(ones) == sorted(
            d.labels for d in rank1_dim_filter("E", 7)
        )

    def test_twisted_scan(self):
        # Labels (alpha_1, alpha_2, alpha_0) of A4^(2), marks (2, 1, 2).
        hits = levi_order_scan("A", 4, min_delta=1, twist=2)
        assert [(h.diagram.labels, h.order, h.delta) for h in hits] == [
            ((0, 1, 0), 2, 4),
            ((0, 1, 1), 6, 1),
            ((1, 1, 1), 10, 1),
        ]
        got = [d.labels for d in rank1_dim_filter("A", 4, twist=2)]
        assert got == [(0, 1, 1), (1, 1, 1)]


class TestVinberg:
    def test_inner_all_equal(self):
        for m0 in (2, 3, 5, 8):
            inp = VinbergClassicalInput(case=1, m0=m0, k=(1,) * m0)
            assert vinberg_delta(inp) == 1

    def test_inner_with_jump(self):
        inp = VinbergClassicalInput(case=1, m0=3, k=(2, 1, 1))
        assert vinberg_delta(inp) == 0

    def test_orthogonal_doubled_zero(self):
        inp = VinbergClassicalInput(case=2, m0=4, k=(2, 1, 1, 1), eta=(1, 1))
        assert vinberg_delta(inp) == 1

    def test_matches_block_model(self):
        inp = VinbergClassicalInput(case=3, m0=4, k=(1, 1, 1, 1), eta=(-1, -1))
        assert vinberg_delta(inp) == oracle.vinberg_delta_blocks(inp) == 1

    def test_cyclic_invariance_inner(self):
        k = (3, 1, 2, 2, 1)
        base = vinberg_delta(VinbergClassicalInput(case=1, m0=5, k=k))
        for shift in range(1, 5):
            rolled = tuple(k[(j + shift) % 5] for j in range(5))
            assert (
                vinberg_delta(VinbergClassicalInput(case=1, m0=5, k=rolled))
                == base
            )

    def test_symmetry_validation(self):
        with pytest.raises(InputError):
            VinbergClassicalInput(case=2, m0=4, k=(1, 2, 1, 1), eta=(1, 1))

    def test_eta_consistency_validation(self):
        with pytest.raises(InputError):
            VinbergClassicalInput(case=2, m0=4, k=(1, 1, 1, 1), eta=(1, -1))
        with pytest.raises(InputError):
            VinbergClassicalInput(case=4, m0=3, k=(1, 1, 1), eta=(1, 1))

    def test_delta_bounded_by_minimum_at_type_one_signs(self):
        # Cases 2..4 with eps*eta = +1 on both real eigenvalues: the gain
        # is at most min(k); sweep symmetric vectors up to m0 = 12.
        for case, eta1, parity in ((2, 1, 0), (3, -1, 0), (4, 1, 1)):
            for m0 in range(2, 13):
                if m0 % 2 != parity:
                    continue
                eta = (eta1, 1 if (eta1 == 1) == (m0 % 2 == 0) else -1)
                inp0 = VinbergClassicalInput(case=case, m0=m0, k=(1,) * m0, eta=eta)
                eps = inp0.eps
                if eps[0] * eta[0] != 1 or eps[1] * eta[1] != 1:
                    continue
                orbits, seen = [], set()
                for j in range(m0):
                    if j not in seen:
                        orb = sorted({j, inp0.conj(j)})
                        seen.update(orb)
                        orbits.append(orb)
                for values in itertools.product((1, 2, 3), repeat=len(orbits)):
                    k = [0] * m0
                    for orb, v in zip(orbits, values):
                        for j in orb:
                            k[j] = v
                    inp = VinbergClassicalInput(
                        case=case, m0=m0, k=tuple(k), eta=eta
                    )
                    assert vinberg_delta(inp) <= min(k)
