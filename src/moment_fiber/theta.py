"""Root systems, Kac-diagram gradings, and classical-case dimension counts.

A Kac diagram is an affine (possibly twisted) Dynkin diagram X_N^(k) with
one {0,1} label per node.  It determines a cyclic grading of the simple
Lie algebra X_N; this module computes the grading order, the graded
dimension vector, the scans over all labelings used by the rank-one
classification, and the closed dimension-difference formulas for the four
classical families of gradings.

Every grading, twisted or not, comes from one routine (Kac,
*Infinite-Dimensional Lie Algebras*, 8.3 and Thm 8.6): X_N splits into
eigenvectors of the diagram automorphism mu of order k, each with its
root restricted to the mu-fixed Cartan, and the labels give each
eigenvector its degree.  For k = 1, mu is the identity and the
eigenvectors are the root vectors and the Cartan.

Cartan matrices and marks are embedded static data: one table, ``_MARKS``,
holds the marks of all 55 supported diagrams (32 untwisted, 23 twisted),
so validating a diagram or computing its order needs no root system.
All roots are generated from the Cartan matrix by string closure, and the
embedded marks are cross-checked against the computed highest root
(``build_root_system``) and, by every grading, against the highest weight
of the exp(2 pi i / k) eigenspace.

Node order for labels: the finite nodes alpha_1..alpha_l first, the
affine node alpha_0 last.  Untwisted diagrams use Bourbaki's numbering,
twisted ones that of Kac's Tables Aff 2 and Aff 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Optional

from . import exactlin
from .errors import InputError

Root = tuple[int, ...]

# Marks of every supported affine diagram X_N^(k), in node order
# (alpha_1..alpha_l, affine node last); l + 1 is the node count.  The
# untwisted marks are the highest root's coefficients, then 1; the
# twisted ones are read from Kac's Tables Aff 2 and Aff 3.
_MARKS: dict[tuple[str, int, int], tuple[int, ...]] = {
    ("E", 6, 1): (1, 2, 2, 3, 2, 1, 1),
    ("E", 7, 1): (2, 2, 3, 4, 3, 2, 1, 1),
    ("E", 8, 1): (2, 3, 4, 6, 5, 4, 3, 2, 1),
    ("F", 4, 1): (2, 3, 4, 2, 1),
    ("G", 2, 1): (3, 2, 1),
    ("A", 2, 2): (1, 2),
    ("E", 6, 2): (2, 3, 2, 1, 1),
    ("D", 4, 3): (2, 1, 1),
}
for _n in range(1, 9):
    _MARKS["A", _n, 1] = (1,) * (_n + 1)
for _n in range(2, 9):
    _MARKS["B", _n, 1] = (1,) + (2,) * (_n - 1) + (1,)
    _MARKS["C", _n, 1] = (2,) * (_n - 1) + (1, 1)
    _MARKS["A", 2 * _n, 2] = (2,) * (_n - 1) + (1, 2)  # A_2n^(2)
    _MARKS["D", _n + 1, 2] = (1,) * (_n + 1)  # D_(n+1)^(2): folded B_n
for _n in range(3, 9):  # A_(2n-1)^(2): folded C_n
    _MARKS["A", 2 * _n - 1, 2] = (1,) + (2,) * (_n - 2) + (1, 1)
for _n in range(4, 9):
    _MARKS["D", _n, 1] = (1,) + (2,) * (_n - 3) + (1, 1, 1)

# dim X_N from the closed formulas, for every rank (twisted diagrams fold
# A_2n, A_(2n-1) and D_(n+1) past the untwisted ranks).
_ALGEBRA_DIM = {
    "A": lambda n: n * (n + 2),
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
    "F": lambda n: 52,
    "G": lambda n: 14,
}

def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """C[i][j] = <alpha_i, alpha_j^vee>, 0-indexed Bourbaki numbering."""
    n = rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    if family in ("A", "B", "C"):
        for i in range(n - 2):
            bond(i, i + 1)
        if n >= 2:
            if family == "A":
                bond(n - 2, n - 1)
            elif family == "B":  # alpha_n short
                bond(n - 2, n - 1, -2, -1)
            else:  # C: alpha_n long
                bond(n - 2, n - 1, -1, -2)
    elif family == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif family == "E":
        bond(0, 2)
        bond(1, 3)
        for i in range(2, n - 1):
            bond(i, i + 1)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # alpha_3, alpha_4 short
        bond(2, 3)
    elif family == "G":
        bond(0, 1, -1, -3)  # alpha_1 short
    else:  # pragma: no cover
        raise InputError(f"unknown family {family!r}")
    return c


@dataclass(frozen=True)
class RootSystem:
    """All roots of a finite simple type, as coefficient vectors over the
    simple-root basis, plus the marks of the associated affine diagram."""

    family: str
    rank: int
    roots: tuple[Root, ...]
    finite_marks: tuple[int, ...]
    highest_root: Root

    @property
    def affine_marks(self) -> tuple[int, ...]:
        """Marks in node order (alpha_1..alpha_n, affine node)."""
        return self.finite_marks + (1,)

    @property
    def coxeter_number(self) -> int:
        return sum(self.affine_marks)


def _positive_roots(cartan: list[list[int]]) -> set[Root]:
    """Positive roots of a finite-type Cartan matrix, by string closure."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    positive: set[Root] = set(simple)
    frontier = list(simple)
    while frontier:
        new: list[Root] = []
        for alpha in frontier:
            for i in range(n):
                # alpha + alpha_i is a root iff the alpha_i-string through
                # alpha extends: p - <alpha, alpha_i^vee> > 0.
                p = 0
                down = list(alpha)
                while True:
                    down[i] -= 1
                    if min(down) < 0 or tuple(down) not in positive:
                        break
                    p += 1
                pairing = sum(alpha[j] * cartan[j][i] for j in range(n))
                if p - pairing > 0:
                    up = list(alpha)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in positive:
                        positive.add(cand)
                        new.append(cand)
        frontier = new
    return positive


def _roots(family: str, rank: int) -> tuple[Root, ...]:
    """All roots of the type, positive ones first; no rank-range check."""
    positive = _positive_roots(_cartan_matrix(family, rank))
    return tuple(sorted(positive)) + tuple(
        sorted(tuple(-x for x in r) for r in positive)
    )


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Generate the full root system by string closure from the Cartan
    matrix; the embedded marks must match the computed highest root."""
    marks = _marks_for(family, rank, 1)[:-1]
    roots = _roots(family, rank)
    highest = max(roots, key=lambda r: (sum(r), r))
    if highest != marks:
        raise ArithmeticError(
            f"embedded marks for {family}{rank} disagree with the computed"
            f" highest root {highest}"
        )
    return RootSystem(
        family=family,
        rank=rank,
        roots=roots,
        finite_marks=marks,
        highest_root=highest,
    )


# -- Kac diagrams --------------------------------------------------------------


@dataclass(frozen=True)
class KacDiagram:
    """An affine (possibly twisted) Dynkin diagram with {0,1} node labels.

    ``labels`` follows the node order alpha_1..alpha_l, affine node last.
    """

    family: str
    rank: int
    twist: int
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        marks = _marks_for(self.family, self.rank, self.twist)
        if len(self.labels) != len(marks):
            raise InputError(
                f"{self.name()} needs {len(marks)} labels, got"
                f" {len(self.labels)}"
            )
        if any(v not in (0, 1) for v in self.labels):
            raise InputError("labels must be 0 or 1")
        if not any(self.labels):
            raise InputError("at least one label must be nonzero")

    @classmethod
    def of(
        cls,
        family: str,
        rank: int,
        labels: Iterable[int],
        twist: int = 1,
    ) -> "KacDiagram":
        return cls(family, rank, twist, tuple(int(v) for v in labels))

    @classmethod
    def all_ones(cls, family: str, rank: int, twist: int = 1) -> "KacDiagram":
        marks = _marks_for(family, rank, twist)
        return cls(family, rank, twist, (1,) * len(marks))

    def name(self) -> str:
        return f"{self.family}{self.rank}^({self.twist})"


def _marks_for(family: str, rank: int, twist: int) -> tuple[int, ...]:
    marks = _MARKS.get((family, rank, twist))
    if marks is None:
        raise InputError(
            f"no Kac diagram {family}{rank}^({twist}) is supported"
        )
    return marks


def kac_order(d: KacDiagram) -> int:
    """Order of the grading: twist times the marks-weighted label sum."""
    marks = _marks_for(d.family, d.rank, d.twist)
    return d.twist * sum(a * v for a, v in zip(marks, d.labels))


# -- gradings from the folded root system --------------------------------------


def _folded_nodes(
    family: str, rank: int, twist: int
) -> tuple[Optional[tuple[int, ...]], ...]:
    """Per label position, the mu-orbit of simple roots of X_N (0-based
    Bourbaki) that the node folds from, or None for the node E_0 whose
    root vector is a lowest weight vector of the exp(2 pi i / k)
    eigenspace.  mu maps each orbit entry to the next one."""
    n = len(_marks_for(family, rank, twist)) - 1
    if twist == 1:
        return tuple((i,) for i in range(rank)) + (None,)
    if family == "A" and rank % 2 == 0:  # A_2n: E_0 is the mark-1 node n
        return tuple((n - p - 1, n + p) for p in range(1, n)) + (None, (n - 1, n))
    if family == "A":  # A_(2n-1)
        return tuple((p - 1, 2 * n - 1 - p) for p in range(1, n)) + ((n - 1,), None)
    if twist == 2 and family == "D":  # D_(n+1)
        return tuple((p - 1,) for p in range(1, n)) + ((n - 1, n), None)
    if family == "E":
        return ((0, 5), (2, 4), (3,), (1,), None)
    return ((0, 2, 3), (1,), None)  # D4^(3)


@lru_cache(maxsize=None)
def _eigenvectors(
    family: str, rank: int, twist: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """A basis of X_N of eigenvectors of the diagram automorphism mu of
    order k = twist, as pairs (j, restricted root): mu acts by
    exp(2 pi i j / k), and the restricted root holds, per label position,
    the root's coefficient sum over that node's orbit (0 at E_0)."""
    marks = _marks_for(family, rank, twist)
    nodes = _folded_nodes(family, rank, twist)
    orbits = [p for p in nodes if p is not None]
    back = list(range(rank))  # mu^-1 on the simple roots
    for p in orbits:
        for i, a in enumerate(p):
            back[a] = p[i - 1]
    # The Cartan: an orbit of s simple coroots spans one vector in each
    # j that is a multiple of k/s.
    zero = (0,) * len(nodes)
    out = [(j, zero) for p in orbits for j in range(0, twist, twist // len(p))]
    # A root fixed by mu has eigenvalue -1 when two nodes of one orbit are
    # joined (A_2n), else 1.  A free orbit of k roots spans one vector in
    # each j; the k roots carry them, one each, in sorted order.
    cartan = _cartan_matrix(family, rank)
    fixed_j = int(any(cartan[a][b] for p in orbits for a in p for b in p if a != b))
    for root in _roots(family, rank):
        orbit = [root]
        while len(orbit) < twist:
            orbit.append(tuple(orbit[-1][a] for a in back))
        j = fixed_j if orbit.count(root) == twist else sorted(orbit).index(root)
        out.append((j, tuple(0 if p is None else sum(root[i] for i in p) for p in nodes)))
    # The highest restricted weight with j = 1 is the marks of the other
    # nodes, and E_0 has mark 1 (for k = 1: the highest root).
    top = max((c for j, c in out if j == 1 % twist), key=lambda c: (sum(c), c))
    if top != tuple(0 if p is None else a for p, a in zip(nodes, marks)) or (
        marks[nodes.index(None)] != 1
    ):
        raise ArithmeticError(
            f"embedded marks for {family}{rank}^({twist}) disagree with the"
            f" folded root system's highest weight {top}"
        )
    return tuple(out)


@dataclass(frozen=True)
class GradedDims:
    """Dimension vector of the cyclic grading defined by a Kac diagram:
    ``dims[j]`` is the dimension of degree j mod ``order``."""

    order: int
    dims: tuple[int, ...]

    @property
    def delta(self) -> int:
        """dim in degree 1 minus dim in degree 0."""
        return self.dims[1 % self.order] - self.dims[0]


def _degrees(d: KacDiagram, m: int):
    """(degree mod m, restricted root) of each eigenvector: an eigenvector
    (j, c) of mu has degree j m / k + sum_P c_P s_P (Kac, Thm 8.6)."""
    step = m // d.twist
    for j, coords in _eigenvectors(d.family, d.rank, d.twist):
        yield (j * step + sum(map(mul, coords, d.labels))) % m, coords


def graded_dims(d: KacDiagram) -> GradedDims:
    """Graded dimensions of the grading of X_N by a Kac diagram X_N^(k),
    twisted or not: one per eigenvector of the diagram automorphism, in
    the degree its restricted root and eigenvalue give.  For k = 1 a root
    sum(k_i alpha_i) has degree sum(k_i s_i) mod m, and the Cartan
    subalgebra sits in degree 0."""
    m = kac_order(d)
    dims = [0] * m
    for deg, _ in _degrees(d, m):
        dims[deg] += 1
    if sum(dims) != _ALGEBRA_DIM[d.family](d.rank):
        raise ArithmeticError("graded dimensions do not sum to dim(algebra)")
    if any(dims[j] != dims[-j % m] for j in range(m)):
        raise ArithmeticError("graded dimensions are not symmetric")
    return GradedDims(order=m, dims=tuple(dims))


def zero_part_semisimple_rank(d: KacDiagram) -> int:
    """Rank of the degree-0 root subsystem: the span of the restricted
    roots of degree 0.

    Equals the number of 0-labelled nodes: the semisimple part of the
    degree-0 subalgebra is read off the 0-labelled subdiagram.
    """
    m = kac_order(d)
    return exactlin.rank_rows([c for deg, c in _degrees(d, m) if deg == 0])


# -- labeling scans -------------------------------------------------------------


def _all_labelings(node_count: int):
    for mask in range(1, 1 << node_count):
        yield tuple(mask >> i & 1 for i in range(node_count))


def rank1_dim_filter(family: str, rank: int, twist: int = 1) -> list[KacDiagram]:
    """All {0,1}-labelings whose grading gains exactly one dimension from
    degree 0 to degree 1."""
    hits = levi_order_scan(family, rank, 1, twist)
    return [h.diagram for h in hits if h.delta == 1]


@dataclass(frozen=True)
class ScanHit:
    diagram: KacDiagram
    order: int
    delta: int


def levi_order_scan(
    family: str, rank: int, min_delta: int = 2, twist: int = 1
) -> list[ScanHit]:
    """All {0,1}-labelings of the diagram with degree-1 excess at least
    ``min_delta``, together with their grading orders."""
    marks = _marks_for(family, rank, twist)
    out = []
    for labels in _all_labelings(len(marks)):
        d = KacDiagram(family, rank, twist, labels)
        gd = graded_dims(d)
        if gd.delta >= min_delta:
            out.append(ScanHit(diagram=d, order=gd.order, delta=gd.delta))
    return out


# -- classical gradings: closed dimension formulas ------------------------------


@dataclass(frozen=True)
class VinbergClassicalInput:
    """Eigenvalue-block data of a classical graded automorphism.

    ``case`` 1..4: inner on the special linear algebra; orthogonal;
    symplectic; outer on the special linear algebra.  ``k`` holds the
    eigenspace dimensions over Z_{m0}; ``eta`` records whether +1 and -1
    are eigenvalues (signs +1/-1), fixed to None in case 1.
    """

    case: int
    m0: int
    k: tuple[int, ...]
    eta: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.case not in (1, 2, 3, 4):
            raise InputError("case must be 1..4")
        if self.m0 < 1 or len(self.k) != self.m0:
            raise InputError("k must have exactly m0 entries")
        if any(v < 0 for v in self.k):
            raise InputError("eigenspace dimensions must be nonnegative")
        if self.case == 1:
            return
        if self.eta is None:
            raise InputError("cases 2..4 need the eta signs")
        eta1, etam1 = self.eta
        if eta1 not in (1, -1) or etam1 not in (1, -1):
            raise InputError("eta entries must be +1 or -1")
        expected = 1 if (eta1 == 1) == (self.m0 % 2 == 0) else -1
        if etam1 != expected:
            raise InputError(
                "eta[-1] is inconsistent with eta[+1] and the parity of m0"
            )
        for j in range(self.m0):
            if self.k[j] != self.k[self.conj(j)]:
                raise InputError(
                    f"duality symmetry violated: k[{j}] != k[{self.conj(j)}]"
                )

    @property
    def eps(self) -> tuple[int, int]:
        return {2: (1, 1), 3: (-1, -1), 4: (1, -1)}[self.case]

    def conj(self, j: int) -> int:
        """Index of the conjugate eigenvalue."""
        eta1 = self.eta[0] if self.eta else 1
        if eta1 == 1:
            return (-j) % self.m0
        return (-j - 1) % self.m0

    def minus_one_index(self) -> int:
        """Index whose eigenvalue has minimal real part."""
        eta1 = self.eta[0] if self.eta else 1
        if eta1 == 1:
            return self.m0 // 2
        return (self.m0 - 1) // 2

    def real_indices(self) -> frozenset[int]:
        """Indices whose eigenvalue is +1 or -1."""
        out = set()
        eta1 = self.eta[0] if self.eta else 1
        if eta1 == 1:
            out.add(0)
            if self.m0 % 2 == 0:
                out.add(self.m0 // 2)
        elif self.m0 % 2 == 1:
            out.add((self.m0 - 1) // 2)
        return frozenset(out)


def vinberg_delta(inp: VinbergClassicalInput) -> int:
    """Degree-1 minus degree-0 dimension from the closed formulas.

    Case 1: 1 - (1/2) sum_j (k_j - k_{j+1})^2.  Cases 2..4: a quarter of
    -sum_j (k_j - k_{j+1})^2 plus the eps/eta-signed corrections carried
    by the eigenvalues +1 and -1.
    """
    k, m0 = inp.k, inp.m0
    diffs = sum((k[j] - k[(j + 1) % m0]) ** 2 for j in range(m0))
    if inp.case == 1:
        val = 1 - Fraction(diffs, 2)
    else:
        eps1, epsm1 = inp.eps
        eta1, etam1 = inp.eta  # type: ignore[misc]
        val = Fraction(
            -diffs + 2 * eps1 * eta1 * k[0]
            + 2 * epsm1 * etam1 * k[inp.minus_one_index()],
            4,
        )
    if val.denominator != 1:
        raise InputError(
            "block data does not describe an integral grading"
            f" (delta = {val})"
        )
    return int(val)
