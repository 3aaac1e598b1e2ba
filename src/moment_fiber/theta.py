"""Root systems, Kac-diagram gradings, and classical-case dimension counts.

A Kac diagram is an affine (possibly twisted) Dynkin diagram X_N^(k) with
one {0,1} label per node.  It determines a cyclic grading of the simple
Lie algebra X_N; this module computes the grading order, the graded
dimension vector, the scans over all labelings (a rank-one table is the
scan's hits whose dimension gain from degree 0 to degree 1 is exactly 1),
and the closed dimension-difference formulas for the four classical
families of gradings.

Every grading, twisted or not, comes from one routine (Kac,
*Infinite-Dimensional Lie Algebras*, 8.3 and Thm 8.6): X_N splits into
eigenvectors (j, c) of the diagram automorphism mu of order k, on which
mu acts by exp(2 pi i j / k), with c the root restricted to the
mu-fixed Cartan.  Under labels s_P on nodes of mark a_P, the grading
has order m = k sum_P a_P s_P and such an eigenvector has degree
j m / k + sum_P c_P s_P mod m.  That degree is linear in the labels: per
node P, one column holds c_P + j a_P for every eigenvector, a labeling's
degrees are the sum of its labelled columns mod m, and their histogram
is its graded dimension vector.  For k = 1, mu is the identity and the
eigenvectors are the root vectors and the Cartan.

Each column is packed into one int, one byte lane per eigenvector
(SIMD within a register: Lamport, CACM 1975), so a labeling's degrees
are one big-integer sum and one byte translation, and a scan, walking
the labelings in Gray-code order, adds or subtracts one column per step.

Cartan matrices and marks are embedded static data: one table, ``_MARKS``,
holds the marks of all 55 supported diagrams (32 untwisted, 23 twisted),
so validating a diagram or computing its order needs no root system.
All roots are generated from the Cartan matrix by the simple reflections
that raise the height.  Every grading cross-checks the embedded marks
against the highest weight of the exp(2 pi i / k) eigenspace (for k = 1,
the highest root); the tests also check the untwisted marks against the
highest root of ``_roots``.

Node order for labels: the finite nodes alpha_1..alpha_l first, the
affine node alpha_0 last.  Untwisted diagrams use Bourbaki's numbering,
twisted ones that of Kac's Tables Aff 2 and Aff 3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import add, le, lt, mul, neg, sub
from typing import Iterable, Iterator, Optional

from .errors import InputError, is_int, read_tuple, record

Root = tuple[int, ...]

# A byte lane holds one eigenvector's label sum plus _BIAS (see _columns).
_BIAS = 128

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


def _positive_roots(cartan: list[list[int]]) -> set[Root]:
    """Positive roots of a finite-type Cartan matrix: the closure of the
    simple roots under the simple reflections that raise the height,
    beta -> beta - <beta, alpha_i^vee> alpha_i where that pairing is
    negative.  Every positive root arises so (Humphreys, *Introduction to
    Lie Algebras and Representation Theory*, 10.2-10.3).

    Each root is found with its pairings <beta, alpha_i^vee> for every i,
    row i of the matrix for alpha_i.  A reflection that adds p alpha_i
    adds p times row i to them, so no root is ever paired again."""
    n = len(cartan)
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    frontier = list(zip(simple, map(tuple, cartan)))
    positive: set[Root] = set(simple)
    while frontier:
        beta, pairings = frontier.pop()
        for i, pairing in enumerate(pairings):
            if pairing < 0:
                up = list(beta)
                up[i] -= pairing
                cand = tuple(up)
                if cand not in positive:
                    positive.add(cand)
                    step = map(mul, cartan[i], repeat(pairing))
                    frontier.append((cand, tuple(map(sub, pairings, step))))
    return positive


def _roots(family: str, rank: int) -> tuple[Root, ...]:
    """All roots of the type, positive ones first; no rank-range check.
    Negation reverses the order, so the sorted negative roots are the
    sorted positive ones, negated, last first."""
    positive = sorted(_positive_roots(_cartan_matrix(family, rank)))
    return (*positive, *[tuple(map(neg, r)) for r in reversed(positive)])


def _plus(x: Iterable[int], y: Iterable[int]) -> Iterator[int]:
    """The entrywise sum of two columns, as an iterator."""
    return map(add, x, y)


# -- Kac diagrams --------------------------------------------------------------


@record
class KacDiagram:
    """An affine (possibly twisted) Dynkin diagram with {0,1} node labels.

    ``labels`` follows the node order alpha_1..alpha_l, affine node last;
    any iterable is read once into a tuple by ``errors.read_tuple``.
    """

    family: str
    rank: int
    twist: int
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        marks = _marks_for(self.family, self.rank, self.twist)
        object.__setattr__(self, "labels", read_tuple(self.labels, "labels"))
        if len(self.labels) != len(marks):
            raise InputError(
                f"{self.name()} needs {len(marks)} labels, got"
                f" {len(self.labels)}"
            )
        for v in self.labels:
            if not is_int(v) or v not in (0, 1):
                raise InputError(f"labels must be the integers 0 or 1, got {v!r}")
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
        return cls(family, rank, twist, labels)

    @classmethod
    def all_ones(cls, family: str, rank: int, twist: int = 1) -> "KacDiagram":
        marks = _marks_for(family, rank, twist)
        return cls(family, rank, twist, (1,) * len(marks))

    def name(self) -> str:
        return f"{self.family}{self.rank}^({self.twist})"


def _marks_for(family: str, rank: int, twist: int) -> tuple[int, ...]:
    """The diagram's marks; InputError unless it is supported, with an
    int rank and twist (6.0 and True hash like 6 and 1)."""
    ints = is_int(rank) and is_int(twist)
    marks = _MARKS.get((family, rank, twist)) if ints else None
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
) -> tuple[tuple[tuple[int, Root], ...], int, tuple[int, ...]]:
    """A basis of X_N of eigenvectors of the diagram automorphism mu of
    order k = twist, as pairs (j, restricted root): mu acts by
    exp(2 pi i j / k), and the restricted root holds, per label position,
    the root's coefficient sum over that node's orbit (0 at E_0).  Their
    number, the sum of every grading's dimensions, is checked to be dim X_N.
    Returned with the empty labeling and the label columns, packed by
    ``_columns``.

    The roots are read as columns, one per simple root, and each step
    maps over whole columns: mu permutes the columns, which gives every
    root's j, and a node's restricted column is the sum of its orbit's
    columns.  The loops run over nodes and powers of mu, never over
    roots."""
    marks = _marks_for(family, rank, twist)
    nodes = _folded_nodes(family, rank, twist)
    orbits = [p for p in nodes if p is not None]
    # mu^-1 on the simple roots, every one of which lies in one orbit
    back = {a: p[i - 1] for p in orbits for i, a in enumerate(p)}
    # The Cartan: an orbit of s simple coroots spans one vector in each
    # j that is a multiple of k/s; its restricted roots are 0.
    js = [j for p in orbits for j in range(0, twist, twist // len(p))]
    rows = [(0,) * len(nodes)] * len(js)
    # A free orbit of k roots spans one vector in each j; the k roots
    # carry them, one each, in sorted order, so a root's j counts the
    # roots mu^t r, 0 < t < k, that sort below it.  k is prime, so a root
    # in no free orbit is fixed by mu.  Its eigenvalue is -1 when two
    # nodes of one orbit are joined (A_2n), else 1; for -1, mu r <= r
    # at t = 1 counts it once.
    cartan = _cartan_matrix(family, rank)
    fixed_j = any(cartan[a][b] for p in orbits for a in p for b in p if a != b)
    roots = _roots(family, rank)
    columns = moved = list(zip(*roots))
    below = repeat(0, len(roots))
    for t in range(1, twist):
        moved = [moved[back[a]] for a in range(rank)]
        order = le if fixed_j and t == 1 else lt
        below = map(add, below, map(order, zip(*moved), roots))
    js += below
    # Each node's restricted column: the sum over its orbit, 0 at E_0.
    zero = repeat(0, len(roots))
    rows += zip(*[reduce(_plus, [columns[a] for a in p]) if p else zero for p in nodes])
    out = tuple(zip(js, rows))
    if len(out) != _ALGEBRA_DIM[family](rank):
        raise ArithmeticError("graded dimensions do not sum to dim(algebra)")
    # The highest restricted weight with j = 1 is the marks of the other
    # nodes, and E_0 has mark 1 (for k = 1: the highest root).
    top = max(compress(zip(map(sum, rows), rows), map((1 % twist).__eq__, js)))[1]
    if top != tuple(0 if p is None else a for p, a in zip(nodes, marks)) or (
        marks[nodes.index(None)] != 1
    ):
        raise ArithmeticError(
            f"embedded marks for {family}{rank}^({twist}) disagree with the"
            f" folded root system's highest weight {top}"
        )
    return (out, *_columns(out, marks, twist))


@record
class GradedDims:
    """Dimension vector of the cyclic grading defined by a Kac diagram:
    ``dims[j]`` is the dimension of degree j mod ``order``."""

    order: int
    dims: tuple[int, ...]

    @property
    def delta(self) -> int:
        """dim in degree 1 minus dim in degree 0."""
        return self.dims[1 % self.order] - self.dims[0]


def _columns(
    vectors: list[tuple[int, Root]], marks: tuple[int, ...], twist: int
) -> tuple[int, tuple[int, ...]]:
    """Per label position P with mark a_P, the column of c_P + j a_P over
    the eigenvectors (j, c) of mu.  The labelled columns sum to
    j m / k + sum_P c_P s_P, as m / k = sum_P a_P s_P: each eigenvector's
    degree before reduction mod m (Kac, Thm 8.6).

    Each column is packed into one int, eigenvector i in the byte lane at
    bits 8i..8i+7, after the empty labeling, every lane _BIAS.  Labelled
    columns added to it leave each lane at their sum plus _BIAS, with no
    carry, while every lane's absolute entries sum to at most 127 (33 at
    most in ``_MARKS``).  ArithmeticError unless they do and the top order
    k sum_P a_P fits in a byte.  The vectors are transposed once; the
    bound and the packing map over whole columns."""
    js, cs = zip(*vectors)
    columns = [
        list(map(add, c, map(mul, js, repeat(a)))) for c, a in zip(zip(*cs), marks)
    ]
    bound = max(reduce(_plus, [map(abs, c) for c in columns]))
    top = twist * sum(marks)
    if bound > 127 or top > 255:
        raise ArithmeticError(
            f"label columns do not fit byte lanes: lane sum {bound} (at most"
            f" 127), top order {top} (at most 255)"
        )
    empty = int.from_bytes(bytes([_BIAS]) * len(vectors), "little")
    biased = (bytes(map(_BIAS.__add__, column)) for column in columns)
    return empty, tuple(int.from_bytes(c, "little") - empty for c in biased)


@lru_cache(maxsize=256)
def _degree_table(m: int) -> bytes:
    """Lane byte v -> its degree (v - _BIAS) mod m: 0..m-1 repeated,
    read from -_BIAS mod m.  ``_columns`` keeps every order below 256."""
    return (bytes(range(m)) * (256 // m + 2))[-_BIAS % m :][:256]


def _degrees(lanes: int, size: int, m: int) -> bytes:
    """Each eigenvector's degree mod m, one byte each, read off the
    ``size`` packed label sums."""
    return lanes.to_bytes(size, "little").translate(_degree_table(m))


def _histogram(m: int, degrees: bytes) -> list[int]:
    """Dimension per degree mod m, checked against the symmetry j <-> -j
    of every grading; their sum, dim X_N, is checked by ``_eigenvectors``."""
    dims = list(map(degrees.count, range(m)))
    if dims[1:] != dims[:0:-1]:
        raise ArithmeticError("graded dimensions are not symmetric")
    return dims


def _grading(d: KacDiagram) -> tuple[int, bytes]:
    """The order m of the grading and each eigenvector's degree: the sum
    of the labelled columns, mod m."""
    m = kac_order(d)
    vectors, lanes, columns = _eigenvectors(d.family, d.rank, d.twist)
    lanes += sum(c for c, v in zip(columns, d.labels) if v)
    return m, _degrees(lanes, len(vectors), m)


def graded_dims(d: KacDiagram) -> GradedDims:
    """Graded dimensions of the grading of X_N by a Kac diagram X_N^(k),
    twisted or not: one per eigenvector of the diagram automorphism, in
    the degree its restricted root and eigenvalue give.  For k = 1 a root
    sum(k_i alpha_i) has degree sum(k_i s_i) mod m, and the Cartan
    subalgebra sits in degree 0."""
    m, degrees = _grading(d)
    return GradedDims(order=m, dims=tuple(_histogram(m, degrees)))


# -- labeling scans -------------------------------------------------------------


@record
class ScanHit:
    diagram: KacDiagram
    order: int
    delta: int


def levi_order_scan(
    family: str, rank: int, min_delta: int = 2, twist: int = 1
) -> list[ScanHit]:
    """All {0,1}-labelings of the diagram with degree-1 excess at least
    ``min_delta``, together with their grading orders, in increasing
    label mask (label i at bit i).

    The labelings are walked in Gray-code order, so each step flips one
    label and adds or subtracts its packed column (see ``_columns``) from
    the packed label sums.  InputError unless ``min_delta`` is an int.
    """
    if not is_int(min_delta):
        raise InputError(f"min_delta needs an integer, got {min_delta!r}")
    marks = _marks_for(family, rank, twist)
    vectors, lanes, columns = _eigenvectors(family, rank, twist)
    mask = order = 0
    found = []
    for step in range(1, 1 << len(marks)):
        p = (step & -step).bit_length() - 1  # the label this step flips
        mask ^= 1 << p
        if mask >> p & 1:
            lanes += columns[p]
            order += marks[p]
        else:
            lanes -= columns[p]
            order -= marks[p]
        m = twist * order
        dims = _histogram(m, _degrees(lanes, len(vectors), m))
        delta = dims[1 % m] - dims[0]
        if delta >= min_delta:
            found.append((mask, m, delta))
    return [
        ScanHit(
            KacDiagram(family, rank, twist, tuple(mask >> i & 1 for i in range(len(marks)))),
            order=m,
            delta=delta,
        )
        for mask, m, delta in sorted(found)
    ]


# -- classical gradings: closed dimension formulas ------------------------------


@record
class VinbergClassicalInput:
    """Eigenvalue-block data of a classical graded automorphism.

    ``case`` 1..4: inner on the special linear algebra; orthogonal;
    symplectic; outer on the special linear algebra.  ``k`` holds the
    eigenspace dimensions over Z_{m0}; ``eta`` records whether +1 and -1
    are eigenvalues (signs +1/-1), fixed to None in case 1.

    The eigenvalue of index j is exp(pi i (2j + s) / m0), with the shift
    s = 0 when ``eta`` is None or eta[+1] = 1, else s = 1.  Conjugation,
    the index of minimal real part, the real indices and the parity rule
    for eta[-1] all follow from s.  ``case``, ``m0``, the entries of
    ``k`` and the eta signs are ints, not bools.  ``k`` and ``eta`` may be
    any iterables; each is read once into a tuple by ``errors.read_tuple``.
    """

    case: int
    m0: int
    k: tuple[int, ...]
    eta: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not is_int(self.case) or self.case not in (1, 2, 3, 4):
            raise InputError("case must be 1..4")
        if not is_int(self.m0):
            raise InputError(f"m0 must be an integer, got {self.m0!r}")
        object.__setattr__(self, "k", read_tuple(self.k, "k"))
        if self.m0 < 1 or len(self.k) != self.m0:
            raise InputError("k must have exactly m0 entries")
        if not all(map(is_int, self.k)):
            raise InputError(f"eigenspace dimensions {self.k!r} are not all integers")
        if any(v < 0 for v in self.k):
            raise InputError("eigenspace dimensions must be nonnegative")
        if self.case == 1:
            if self.eta is not None:
                raise InputError(f"case 1 takes no eta signs, got {self.eta!r}")
            return
        if self.eta is None:
            raise InputError("cases 2..4 need the eta signs")
        object.__setattr__(self, "eta", read_tuple(self.eta, "eta"))
        if len(self.eta) != 2:
            raise InputError(f"eta needs two signs, got {self.eta!r}")
        if any(not is_int(e) or e not in (1, -1) for e in self.eta):
            raise InputError("eta entries must be +1 or -1")
        # -1 = exp(pi i (2j + s) / m0) for some j iff m0 - s is even.
        if self.eta[1] != (1 if (self.m0 - self._shift()) % 2 == 0 else -1):
            raise InputError(
                "eta[-1] is inconsistent with eta[+1] and the parity of m0"
            )
        for j in range(self.m0):
            if self.k[j] != self.k[self.conj(j)]:
                raise InputError(
                    f"duality symmetry violated: k[{j}] != k[{self.conj(j)}]"
                )
        # The form restricts to each real eigenspace (eta = 1), skew where
        # eps = -1, and a nondegenerate skew form needs even dimension.
        for e, h, j in zip(self.eps, self.eta, (0, self.minus_one_index())):
            if h == 1 and e == -1 and self.k[j] % 2:
                raise InputError(f"k[{j}] = {self.k[j]} is odd, but its form is skew")

    @property
    def eps(self) -> tuple[int, int]:
        return {2: (1, 1), 3: (-1, -1), 4: (1, -1)}[self.case]

    def _shift(self) -> int:
        """s in the eigenvalues exp(pi i (2j + s) / m0)."""
        return 0 if not self.eta or self.eta[0] == 1 else 1

    def conj(self, j: int) -> int:
        """Index of the conjugate eigenvalue: 2j + s -> -(2j + s)."""
        return (-j - self._shift()) % self.m0

    def minus_one_index(self) -> int:
        """Index whose eigenvalue has minimal real part: 2j + s nearest m0."""
        return (self.m0 - self._shift()) // 2


def vinberg_delta(inp: VinbergClassicalInput) -> int:
    """Degree-1 minus degree-0 dimension from the closed formulas.

    Case 1: 1 - (1/2) sum_j (k_j - k_{j+1})^2, where the 1 is the trace
    that g_0 lacks and g_1 has; for the trivial grading (m0 = 1) g_1 is
    g_0, so delta is 0.  Cases 2..4: a quarter of -sum_j (k_j -
    k_{j+1})^2 plus the eps/eta-signed corrections carried by the
    eigenvalues +1 and -1.  Case 4 counts gl_N, whose trace lies in
    degree m0 of the order-2 m0 grading: in g_1, and so taken off, only
    for m0 = 1.
    """
    k, m0 = inp.k, inp.m0
    diffs = sum((k[j] - k[(j + 1) % m0]) ** 2 for j in range(m0))
    if inp.case == 1:
        val = (1 if m0 > 1 else 0) - Fraction(diffs, 2)
    else:
        (eps1, epsm1), (eta1, etam1) = inp.eps, inp.eta  # type: ignore[misc]
        corr = eps1 * eta1 * k[0] + epsm1 * etam1 * k[inp.minus_one_index()]
        trace = 1 if inp.case == 4 and m0 == 1 else 0
        val = Fraction(-diffs + 2 * corr, 4) - trace
    if val.denominator != 1:
        raise InputError(
            "block data does not describe an integral grading"
            f" (delta = {val})"
        )
    return int(val)
