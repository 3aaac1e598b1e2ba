"""Root systems, Kac gradings, scans, and the classical-case formulas."""

from __future__ import annotations

import itertools
from operator import mul

import pytest

from moment_fiber import exactlin, oracle, theta
from moment_fiber.errors import InputError
from moment_fiber.theta import (
    GradedDims,
    KacDiagram,
    VinbergClassicalInput,
    graded_dims,
    kac_order,
    levi_order_scan,
    vinberg_delta,
)


def rank_one(family, rank, twist=1):
    """The labelings whose grading gains exactly one dimension from
    degree 0 to degree 1: a rank-one table."""
    hits = levi_order_scan(family, rank, 1, twist)
    return [h.diagram for h in hits if h.delta == 1]


def degree_zero_rank(d):
    """Rank of the span of the restricted roots of degree 0."""
    vectors = theta._eigenvectors(d.family, d.rank, d.twist)[0]
    degrees = theta._grading(d)[1]
    return exactlin.rank_rows([c for deg, (_, c) in zip(degrees, vectors) if deg == 0])


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


def labelings(size):
    """Every {0,1}-labeling of ``size`` nodes with a nonzero label, in
    increasing mask (label i at bit i): the order of a scan's hits."""
    return [tuple(m >> i & 1 for i in range(size)) for m in range(1, 1 << size)]


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


def per_root_eigenvectors(family, rank, twist):
    """The eigenvectors (j, restricted root) of the diagram automorphism
    mu, one root at a time: the root's mu-orbit, then its j (its place in
    the sorted orbit, or the fixed roots' j), then its restricted root as
    a sum over each node's orbit, 0 at E_0; the Cartan's vectors first."""
    nodes = theta._folded_nodes(family, rank, twist)
    orbits = [p for p in nodes if p is not None]
    back = list(range(rank))  # mu^-1 on the simple roots
    for p in orbits:
        for i, a in enumerate(p):
            back[a] = p[i - 1]
    zero = (0,) * len(nodes)
    out = [(j, zero) for p in orbits for j in range(0, twist, twist // len(p))]
    cartan = theta._cartan_matrix(family, rank)
    fixed_j = int(any(cartan[a][b] for p in orbits for a in p for b in p if a != b))
    for root in theta._roots(family, rank):
        orbit = [root]
        while len(orbit) < twist:
            orbit.append(tuple(orbit[-1][a] for a in back))
        j = fixed_j if orbit.count(root) == twist else sorted(orbit).index(root)
        restricted = tuple(0 if p is None else sum(root[i] for i in p) for p in nodes)
        out.append((j, restricted))
    return tuple(out)


class TestRootSystems:
    def test_counts(self):
        assert len(theta._roots("A", 2)) == 6
        assert len(theta._roots("E", 8)) == 240
        assert len(theta._roots("G", 2)) == 12

    @pytest.mark.parametrize("family,rank", SUPPORTED)
    def test_all_supported_types(self, family, rank):
        roots = theta._roots(family, rank)
        assert len(roots) == ROOT_COUNTS[family](rank)
        # Marks equal the computed highest root plus affine mark 1.
        highest = max(roots, key=lambda r: (sum(r), r))
        assert theta._MARKS[family, rank, 1] == highest + (1,)
        # Roots come in opposite pairs.
        roots = set(roots)
        assert all(tuple(-x for x in r) in roots for r in roots)
        # s_i permutes the positive roots other than alpha_i (Humphreys,
        # Lemma 10.2B): s_i(beta) = beta - <beta, alpha_i^vee> alpha_i.
        cartan = theta._cartan_matrix(family, rank)
        positive = {r for r in roots if sum(r) > 0}
        for i, column in enumerate(zip(*cartan)):
            rest = positive - {tuple(int(j == i) for j in range(rank))}
            images = set()
            for beta in rest:
                image = list(beta)
                image[i] -= sum(map(mul, beta, column))
                images.add(tuple(image))
            assert images == rest, i

    def test_one_marks_row_per_supported_diagram(self):
        untwisted = sorted(key[:2] for key in theta._MARKS if key[2] == 1)
        assert untwisted == sorted(SUPPORTED)
        assert len(TWISTED) == 23

    def test_invalid_types(self):
        with pytest.raises(InputError):
            KacDiagram.all_ones("H", 4)
        with pytest.raises(InputError):
            KacDiagram.all_ones("E", 9)
        with pytest.raises(InputError):
            KacDiagram.all_ones("D", 3)


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
            assert kac_order(d) == sum(theta._MARKS[family, rank, 1])
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

    @pytest.mark.parametrize("label", [1.7, True, "1"])
    def test_labels_must_be_ints(self, label):
        # Each used to pass as the label 1.
        with pytest.raises(InputError, match="integers 0 or 1"):
            KacDiagram.of("A", 2, [label, 1, 1])
        with pytest.raises(InputError, match="integers 0 or 1"):
            KacDiagram("A", 2, 1, (label, 1, 1))


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
        # A lost root leaves one eigenvector fewer than dim X_N from its
        # closed formula, caught before any grading is built.
        full = theta._roots
        monkeypatch.setattr(theta, "_roots", lambda *key: full(*key)[1:])
        self.assert_dimension_check_fires()

    def test_wrong_algebra_dim_is_caught(self, monkeypatch):
        monkeypatch.setitem(theta._ALGEBRA_DIM, "E", lambda n: 79)
        self.assert_dimension_check_fires()

    @staticmethod
    def assert_dimension_check_fires():
        # The check runs once per diagram, in the cached _eigenvectors,
        # which keeps no result of a call that raised.
        theta._eigenvectors.cache_clear()
        for d in [
            KacDiagram.all_ones("E", 6),
            KacDiagram.of("E", 6, (1, 0, 1, 1, 1), twist=2),
        ]:
            with pytest.raises(ArithmeticError, match="sum to dim"):
                graded_dims(d)
            with pytest.raises(ArithmeticError, match="sum to dim"):
                levi_order_scan(d.family, d.rank, min_delta=-10**6, twist=d.twist)

    @pytest.mark.parametrize(
        "key,position",
        [(("E", 6, 1), 1), (("E", 6, 2), 1), (("E", 6, 2), 4)],
        ids=["untwisted", "twisted", "twisted-affine-node"],
    )
    def test_marks_check_can_fail(self, monkeypatch, key, position):
        # One embedded mark raised by one: a finite node's disagrees with
        # the folded highest weight, and E_0's is no longer 1.  The check
        # raises inside the cached _eigenvectors, which keeps no result.
        marks = list(theta._MARKS[key])
        marks[position] += 1
        monkeypatch.setitem(theta._MARKS, key, tuple(marks))
        theta._eigenvectors.cache_clear()
        family, rank, twist = key
        with pytest.raises(ArithmeticError, match="embedded marks .* disagree"):
            graded_dims(KacDiagram.all_ones(family, rank, twist))
        with pytest.raises(ArithmeticError, match="embedded marks .* disagree"):
            levi_order_scan(family, rank, min_delta=-10**6, twist=twist)

    @pytest.mark.parametrize("key", sorted(theta._MARKS), ids=str)
    def test_eigenvectors_match_the_per_root_fold(self, key):
        # The column-wise build against the root-at-a-time formula, on
        # every diagram, twisted or not.
        assert theta._eigenvectors(*key)[0] == per_root_eigenvectors(*key)

    def test_symmetry_check_can_fail(self, monkeypatch):
        # One restricted root doubled, the count kept: all-ones A2 would
        # have dims (2, 4, 2), which no grading has.
        vectors = list(theta._eigenvectors("A", 2, 1)[0])
        j, c = vectors[-1]
        vectors[-1] = (j, tuple(2 * x for x in c))
        packed = theta._columns(vectors, theta._MARKS["A", 2, 1], 1)
        monkeypatch.setattr(
            theta, "_eigenvectors", lambda *key: (tuple(vectors), *packed)
        )
        with pytest.raises(ArithmeticError, match="not symmetric"):
            graded_dims(KacDiagram.all_ones("A", 2))
        with pytest.raises(ArithmeticError, match="not symmetric"):
            levi_order_scan("A", 2, min_delta=-10**6)

    def test_every_diagram_fits_byte_lanes(self):
        for key, marks in theta._MARKS.items():
            vectors, _, columns = theta._eigenvectors(*key)
            assert len(columns) == len(marks)
            assert key[2] * sum(marks) <= 255, key
            for j, c in vectors:
                assert sum(abs(c[p] + j * a) for p, a in enumerate(marks)) <= 127

    def test_lane_overflow_is_caught(self, monkeypatch):
        # 127 is the largest lane sum that packs: the lanes of all columns
        # summed hold 127 + 128 and -127 + 128, with no carry between them.
        vectors = [(0, (100, 27)), (0, (-100, -27))]
        empty, columns = theta._columns(vectors, (1, 1), 1)
        assert (empty + sum(columns)).to_bytes(2, "little") == bytes([255, 1])
        with pytest.raises(ArithmeticError, match="byte lanes"):
            theta._columns([(0, (100, 28))], (1, 1), 1)
        with pytest.raises(ArithmeticError, match="top order 256 "):
            theta._columns([(0, (1, 1))], (64, 64), 2)
        # A root whose lane sum passes 127 is caught once per diagram
        # type, before any labeling is graded; the check raises inside
        # the cached _eigenvectors, which keeps no result.
        full = theta._roots
        monkeypatch.setattr(
            theta, "_roots", lambda *key: full(*key)[:-1] + ((0, -128),)
        )
        theta._eigenvectors.cache_clear()
        with pytest.raises(ArithmeticError, match="lane sum 128 "):
            graded_dims(KacDiagram.all_ones("A", 2))
        with pytest.raises(ArithmeticError, match="lane sum 128 "):
            levi_order_scan("A", 2, min_delta=-10**6)

    def test_rank_one_tables_gain_one_dimension(self):
        for (family, rank), labelings in NONNORMAL_DIAGRAMS.items():
            for labels in labelings:
                assert graded_dims(KacDiagram.of(family, rank, labels)).delta == 1
        for (family, rank), labels in NORMAL_UNTWISTED.items():
            assert graded_dims(KacDiagram.of(family, rank, labels)).delta == 1

    def test_symmetry_and_total(self):
        for family, rank in (("B", 3), ("D", 5), ("F", 4)):
            roots = theta._roots(family, rank)
            for labels in itertools.product((0, 1), repeat=rank + 1):
                if not any(labels):
                    continue
                gd = graded_dims(KacDiagram.of(family, rank, labels))
                assert sum(gd.dims) == len(roots) + rank
                for j in range(gd.order):
                    assert gd.dims[j] == gd.dims[-j % gd.order]

    def test_zero_part_matches_zero_labelled_subdiagram(self):
        for family, rank in (("A", 3), ("C", 3), ("G", 2), ("E", 6)):
            for labels in itertools.product((0, 1), repeat=rank + 1):
                if not any(labels):
                    continue
                d = KacDiagram.of(family, rank, labels)
                zero_nodes = sum(1 for v in labels if v == 0)
                assert degree_zero_rank(d) == zero_nodes

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
        assert degree_zero_rank(d) == 2

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
        for labels in labelings(len(a)):
            zero = [i for i, v in enumerate(labels) if v == 0]
            # the closure reads <alpha_j, alpha_i^vee>: the transpose
            sub = [[a[j][i] for j in zero] for i in zero]
            roots = 2 * len(theta._positive_roots(sub))
            centre = len(labels) - len(zero) - 1
            d = KacDiagram(family, rank, twist, labels)
            assert graded_dims(d).dims[0] == roots + len(zero) + centre, labels
            assert degree_zero_rank(d) == len(zero), labels

    @pytest.mark.parametrize("family,rank,twist", TWISTED)
    def test_coarsening_is_the_inner_grading(self, family, rank, twist):
        # sigma^k is inner: summed by residue mod m/k, the degrees are
        # those of the grading of X_N where a root sum(k_i alpha_i) has
        # degree sum(k_i s_P(i)) and the Cartan sits in degree 0.
        nodes = theta._folded_nodes(family, rank, twist)
        position = {i: p for p, orbit in enumerate(nodes) if orbit for i in orbit}
        positive = theta._positive_roots(theta._cartan_matrix(family, rank))
        for labels in labelings(len(nodes)):
            gd = graded_dims(KacDiagram(family, rank, twist, labels))
            q = gd.order // twist
            expected = [rank] + [0] * (q - 1)
            for root in positive:
                deg = sum(k * labels[position[i]] for i, k in enumerate(root))
                expected[deg % q] += 1
                expected[-deg % q] += 1
            assert [sum(gd.dims[r::q]) for r in range(q)] == expected, labels

    @pytest.mark.parametrize("family,rank,twist", TWISTED)
    def test_scan_is_the_grading_of_every_labeling(self, family, rank, twist):
        hits = levi_order_scan(family, rank, min_delta=-10**6, twist=twist)
        expected = []
        for labels in labelings(len(theta._MARKS[family, rank, twist])):
            gd = graded_dims(KacDiagram(family, rank, twist, labels))
            expected.append((labels, gd.order, gd.delta))
        assert [(h.diagram.labels, h.order, h.delta) for h in hits] == expected

    @pytest.mark.parametrize("family,rank,twist", TWISTED)
    def test_all_ones_total_and_symmetry(self, family, rank, twist):
        gd = graded_dims(KacDiagram.all_ones(family, rank, twist))
        l = len(theta._MARKS[family, rank, twist]) - 1
        assert gd.dims[:2] == (l, l + 1)
        positive = theta._positive_roots(theta._cartan_matrix(family, rank))
        assert sum(gd.dims) == 2 * len(positive) + rank
        assert all(gd.dims[j] == gd.dims[-j % gd.order] for j in range(gd.order))


class TestScans:
    @pytest.mark.parametrize("min_delta", ["2", True, 2.5, 2.0, None])
    def test_non_integer_min_delta_rejected(self, min_delta):
        with pytest.raises(InputError, match="min_delta"):
            levi_order_scan("A", 2, min_delta)

    @pytest.mark.parametrize("family,rank", SUPPORTED)
    def test_untwisted_scan_is_the_root_grading(self, family, rank):
        # A route through neither _eigenvectors nor the scan: each root
        # sum(k_i alpha_i) in degree sum(k_i s_i) mod m, the Cartan in 0.
        marks, roots = theta._MARKS[family, rank, 1], theta._roots(family, rank)
        hits = levi_order_scan(family, rank, min_delta=-10**6)
        expected = []
        for labels in labelings(rank + 1):
            m = sum(map(mul, marks, labels))
            dims = [0] * m
            dims[0] = rank
            for root in roots:
                dims[sum(map(mul, root, labels[:-1])) % m] += 1
            gd = GradedDims(order=m, dims=tuple(dims))
            assert graded_dims(KacDiagram.of(family, rank, labels)) == gd, labels
            expected.append((labels, m, gd.delta))
        assert [(h.diagram.labels, h.order, h.delta) for h in hits] == expected

    def test_rank1_filter_contains_known_diagrams(self):
        got = {d.labels for d in rank_one("E", 6)}
        assert (1,) * 7 in got
        assert NONNORMAL_DIAGRAMS[("E", 6)][0] in got
        assert len(got) < 2**7

        got_a2 = {d.labels for d in rank_one("A", 2)}
        assert (1, 1, 1) in got_a2

        got_g2 = {d.labels for d in rank_one("G", 2)}
        assert NORMAL_UNTWISTED[("G", 2)] in got_g2

    def test_high_delta_orders_avoid_rank_one_multiples(self):
        for family, rank in (("E", 7), ("E", 8)):
            hits = levi_order_scan(family, rank, min_delta=2)
            assert hits
            for h in hits:
                assert h.order % 9 != 0
                assert h.order % 14 != 0

    def test_scan_consistency_with_filter(self):
        # min_delta keeps exactly the labelings of the full scan whose
        # dimension gain reaches it, in the same order.
        every = levi_order_scan("E", 7, min_delta=-10**6)
        for min_delta in (1, 2):
            hits = levi_order_scan("E", 7, min_delta=min_delta)
            assert hits == [h for h in every if h.delta >= min_delta]

    def test_twisted_scan(self):
        # Labels (alpha_1, alpha_2, alpha_0) of A4^(2), marks (2, 1, 2).
        hits = levi_order_scan("A", 4, min_delta=1, twist=2)
        assert [(h.diagram.labels, h.order, h.delta) for h in hits] == [
            ((0, 1, 0), 2, 4),
            ((0, 1, 1), 6, 1),
            ((1, 1, 1), 10, 1),
        ]
        got = [d.labels for d in rank_one("A", 4, twist=2)]
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

    def test_trivial_grading_has_delta_zero(self):
        # m0 = 1: g_1 = g_0 = sl_N, so delta is 0, as graded_dims says for
        # A2 with labels (0, 0, 1), the order-1 grading of sl_3.
        for n in range(5):
            inp = VinbergClassicalInput(case=1, m0=1, k=(n,))
            assert vinberg_delta(inp) == oracle.vinberg_delta_blocks(inp) == 0
        gd = graded_dims(KacDiagram.of("A", 2, (0, 0, 1)))
        assert (gd.order, gd.dims, gd.delta) == (1, (8,), 0)

    def test_outer_order_two_grading_has_no_trace(self):
        # Case 4 with m0 = 1 is an order-2 outer grading of sl_N, and
        # g_1 lacks gl_N's trace: so_N or sp_N in degree 0.
        pins = [
            ("A", 2, (1, 0), (3, 5), (3,), (1, -1)),
            ("A", 5, (0, 0, 1, 0), (15, 20), (6,), (1, -1)),
            ("A", 5, (0, 0, 0, 1), (21, 14), (6,), (-1, 1)),
        ]
        for family, rank, labels, dims, k, eta in pins:
            gd = graded_dims(KacDiagram.of(family, rank, labels, twist=2))
            assert (gd.order, gd.dims) == (2, dims)
            inp = VinbergClassicalInput(case=4, m0=1, k=k, eta=eta)
            assert vinberg_delta(inp) == oracle.vinberg_delta_blocks(inp) == gd.delta
        # X -> -J X^T J^-1 with J symmetric (any N) or skew (N even).
        shapes = [(n, (1, -1), n - 1) for n in range(1, 7)]
        shapes += [(n, (-1, 1), -n - 1) for n in (2, 4, 6)]
        for n, eta, delta in shapes:
            inp = VinbergClassicalInput(case=4, m0=1, k=(n,), eta=eta)
            assert vinberg_delta(inp) == oracle.vinberg_delta_blocks(inp) == delta

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(case=5, m0=1, k=(1,)), "case must be 1..4"),
            (dict(case=1, m0=0, k=()), "exactly m0 entries"),
            (dict(case=1, m0=2, k=(1,)), "exactly m0 entries"),
            (dict(case=1, m0=2, k=(1, -1)), "nonnegative"),
            (dict(case=2, m0=2, k=(1, 1)), "need the eta signs"),
            (dict(case=2, m0=2, k=(1, 1), eta=(1, 0)), "must be \\+1 or -1"),
            (dict(case=3, m0=2, k=(1, 1), eta=(2, 1)), "must be \\+1 or -1"),
            # Case 1 has no eta: signs that would shift its eigenvalues,
            # and ones that are no signs at all.
            (dict(case=1, m0=3, k=(1, 1, 1), eta=(-1, 1)), "takes no eta"),
            (dict(case=1, m0=3, k=(1, 1, 1), eta=("x",)), "takes no eta"),
        ],
    )
    def test_block_data_validation(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            VinbergClassicalInput(**kwargs)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: VinbergClassicalInput(1, 2, (1.5, 0.5)),
            lambda: VinbergClassicalInput(1, 2.0, (1, 1)),
            lambda: VinbergClassicalInput(2, 2, (1, 1), (1,)),
            lambda: VinbergClassicalInput(2, 2, (1, 1), (1, 1, 1)),
            lambda: VinbergClassicalInput(2, 2, (1, 1), (1.0, 1)),
            lambda: VinbergClassicalInput(True, 1, (1,)),
            lambda: KacDiagram.of("E", 6.0, [1] * 7),
            lambda: KacDiagram.of("A", 2, [1, 1, 1], twist=True),
            lambda: KacDiagram.all_ones("E", 6.0),
        ],
        ids=[
            "float-k", "float-m0", "short-eta", "long-eta", "float-eta",
            "bool-case", "float-rank", "bool-twist", "all-ones-float-rank",
        ],
    )
    def test_non_int_input_rejected(self, make):
        # Each used to be accepted, or to fail later in a TypeError or an
        # unpacking ValueError: a float or a bool hashes and compares like
        # an int, so only the type rule catches it.
        with pytest.raises(InputError):
            make()

    @pytest.mark.parametrize(
        "case, m0, k, eta, conj, minus_one, real",
        [
            # s = 0: eigenvalues exp(2 pi i j / m0); +1 at 0, -1 at m0 / 2.
            (2, 4, (1, 1, 1, 1), (1, 1), [0, 3, 2, 1], 2, {0, 2}),
            (4, 3, (1, 1, 1), (1, -1), [0, 2, 1], 1, {0}),
            # s = 1: exp(pi i (2j + 1) / m0); -1 at (m0 - 1) / 2 for odd m0.
            (4, 3, (1, 2, 1), (-1, 1), [2, 1, 0], 1, {1}),
            (3, 4, (1, 2, 2, 1), (-1, -1), [3, 2, 1, 0], 1, set()),
            (2, 1, (3,), (-1, 1), [0], 0, {0}),
        ],
    )
    def test_shifted_eigenvalues(self, case, m0, k, eta, conj, minus_one, real):
        inp = VinbergClassicalInput(case, m0, k, eta)
        assert [inp.conj(j) for j in range(m0)] == conj
        assert inp.minus_one_index() == minus_one
        assert {j for j in range(m0) if inp.conj(j) == j} == real

    def test_symmetry_validation(self):
        with pytest.raises(InputError):
            VinbergClassicalInput(case=2, m0=4, k=(1, 2, 1, 1), eta=(1, 1))

    @pytest.mark.parametrize(
        "case, m0, k, eta",
        [
            (3, 1, (3,), (1, -1)),  # an odd symplectic +1 block
            (4, 1, (3,), (-1, 1)),  # X -> -J X^T J^-1 with J skew on C^3
            (4, 2, (2, 1), (1, 1)),  # a skew -1 block of size 1
        ],
    )
    def test_odd_skew_real_block_rejected(self, case, m0, k, eta):
        with pytest.raises(InputError, match="is odd, but its form is skew"):
            VinbergClassicalInput(case, m0, k, eta)

    @pytest.mark.parametrize(
        "case, m0, k, eta, delta",
        [
            # A2^(2)'s only order-4 labeling, (0, 1), has delta -1:
            # graded dims (3, 2, 1, 2).
            (4, 2, (1, 2), (1, 1), -1),
            (4, 1, (3,), (1, -1), 2),
            (4, 1, (6,), (-1, 1), -7),
        ],
    )
    def test_even_skew_real_block_accepted(self, case, m0, k, eta, delta):
        inp = VinbergClassicalInput(case, m0, k, eta)
        assert vinberg_delta(inp) == oracle.vinberg_delta_blocks(inp) == delta

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
