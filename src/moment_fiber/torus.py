"""Decision procedures for a torus representation given by its weights.

A rank-r torus acting diagonally on n coordinate lines is encoded by the
n x r integer weight matrix S (row i is the weight of the i-th line).
Everything about the zero fiber of the moment map on V + V* is decided
exactly from S.  The facts read off the circuits of S come together in one
``Analysis``, built by one elimination of tS: the splits I_d/I_f (I_d is
the support of the symplectic reduction), the fiber's dimension and
irreducible components (normal iff I_f is empty), the visibility verdict
as one value (the decomposition when visible, else a non-visible
witness), the Cartan vectors, and explicit smooth points with their
stabilizers.  Separate functions give strata dimensions, stability, and
the orbit closedness of every fiber point (one hull query on the doubled
weights: its ``Inside``, or a ``NotClosed`` destabilizer).

Indices are 1-based: subsets I live inside {1..n}.  Each sequence taken
as input is read once by a reader of ``errors``: the weight rows by
``int_rows``, an index set and a pair point's x and phi by
``read_tuple``, so a non-iterable one is an ``InputError``.  All
certificates verify exactly, and all are integer vectors: separating
cocharacters, hull and relative-interior combinations, block relations
and the witness's relation and point.  A user's ``PairPoint`` keeps its
coordinates as given, ints or Fractions.  Most hull certificates come
from the simplex in ``polytope``; the non-visible witness is built from
its circuit and only checked, so ``analyze`` runs one simplex per matrix
(stability) and two eliminations: the circuits and the check of the
decomposition or witness they give.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Optional, Sequence

from . import exactlin, polytope
from .errors import CapabilityError, InputError, int_rows, is_int, read_tuple, record
from .polytope import HullQuery, Inside, Outside

Stratum = frozenset[int]


@record
class IntMatrix:
    """The bare integer rows of a ``WeightMatrix``, which reads them into
    tuples and checks them."""

    entries: tuple[tuple[int, ...], ...]


@record
class WeightMatrix:
    """Integer weight matrix S with n >= 1 rows and r >= 1 columns.

    ``n`` and ``r`` are plain attributes, set once from the checked rows:
    the oracles and the smooth witnesses read them on every call.  They
    are not fields, so ``_fields`` is ``("matrix",)`` and ``==``, ``hash``
    and the repr read the rows alone."""

    matrix: IntMatrix

    def __post_init__(self) -> None:
        """Read the rows once with ``errors.int_rows`` and keep them as
        tuples.  Shape and entries are checked before the size, since
        they name the fault.  Anything but an ``IntMatrix`` (bare rows
        too) is an InputError that names ``from_rows``."""
        if not isinstance(self.matrix, IntMatrix):
            raise InputError("WeightMatrix takes rows only via WeightMatrix.from_rows")
        rows = int_rows(self.matrix.entries, "weight matrix")
        if not rows or not rows[0]:
            raise InputError("weight matrix needs n >= 1 rows and r >= 1 columns")
        object.__setattr__(self, "matrix", IntMatrix(rows))
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "r", len(rows[0]))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "WeightMatrix":
        """The matrix of any iterable of integer rows; ``__post_init__``
        reads and checks them."""
        return cls(IntMatrix(rows))

    def weight(self, i: int) -> tuple[int, ...]:
        """Row number i (1-based); InputError unless i is an int in 1..n."""
        if not is_int(i) or not 1 <= i <= self.n:
            raise InputError(f"row index {i!r} is not an integer in 1..{self.n}")
        return self.matrix.entries[i - 1]

    def index_set(self, subset: Iterable[int]) -> set[int]:
        """The indices of ``subset``, read once by ``errors.read_tuple``,
        as a set; each is checked as ``weight`` checks it before it is
        hashed, so a non-iterable subset or an unhashable entry raises
        InputError."""
        n, chosen = self.n, set()
        for i in read_tuple(subset, "index set"):
            # ``type(i) is int`` settles the common case without a call.
            if not (type(i) is int or is_int(i)) or not 1 <= i <= n:
                raise InputError(f"row index {i!r} is not an integer in 1..{n}")
            chosen.add(i)
        return chosen


RatVector = tuple[int | Fraction, ...]


@record
class PairPoint:
    """A point (x, phi) of V + V*, coordinates exact rationals: ints or
    Fractions, kept as given.  The library's own smooth and non-visible
    witnesses have 0/1 int coordinates.

    phi is written in the basis dual to the coordinate lines, so its
    weights are the negated rows of S.
    """

    x: RatVector
    phi: RatVector

    @classmethod
    def of(cls, x: Iterable, phi: Iterable) -> "PairPoint":
        """x and phi read into tuples once by ``errors.read_tuple``, each
        coordinate kept as given; InputError unless both are iterable and
        every coordinate is an int (not a bool) or a Fraction."""
        x, phi = read_tuple(x, "pair point x"), read_tuple(phi, "pair point phi")
        for v in (*x, *phi):
            if not (is_int(v) or isinstance(v, Fraction)):
                raise InputError(f"coordinate {v!r} is not an int or a Fraction")
        return cls(x, phi)


@record
class Block:
    """One positive block of a visibility decomposition.

    ``relation`` pairs each index of ``indices`` (sorted) with a strictly
    positive integer coefficient, the entries having gcd 1; the weighted
    sum of the block's weights vanishes.  It is the block's one circuit.
    """

    indices: Stratum
    relation: tuple[int, ...]


@record
class VisibleDecomposition:
    fixed: Stratum  # I_0, the free part (coincides with I_f)
    blocks: tuple[Block, ...]


@record
class NotClosed:
    """A destabilizing cocharacter: pairings >= 0 on supp(x), <= 0 on
    supp(phi), strict somewhere; the limit point drops to a smaller
    stratum."""

    cocharacter: tuple[int, ...]
    limit: PairPoint


@record
class ClosedPairWitness:
    """A fiber point with closed orbit whose x-part is nilpotent.

    ``relation`` is a full-length integer vector: a mixed-sign dependency
    among the weights; x is the indicator of its positive part, phi of the
    negative part.  The monomial prod x_i^{b_i} prod phi_i^{b_i} over the
    relation's support is an invariant taking value 1 at the witness.
    """

    pair: PairPoint
    relation: tuple[int, ...]


# -- internal helpers -------------------------------------------------------


def support(vec: Sequence) -> Stratum:
    """Indices (1-based) of the nonzero coordinates."""
    return frozenset(i + 1 for i, v in enumerate(vec) if v != 0)


def weights_of(w: WeightMatrix, subset: Iterable[int]) -> list[tuple[int, ...]]:
    """The weight rows of ``subset`` in index order.  Every index is
    checked by ``WeightMatrix.index_set`` before the sort, so a mix of
    types raises InputError, not TypeError."""
    return [w.matrix.entries[i - 1] for i in sorted(w.index_set(subset))]


# -- moment map and strata ---------------------------------------------------


def _check_length(w: WeightMatrix, p: PairPoint) -> None:
    """InputError unless x and phi both have one coordinate per row."""
    n = w.n
    if len(p.x) != n or len(p.phi) != n:
        raise InputError(f"pair point length does not match n={n}")


def moment_eval(w: WeightMatrix, p: PairPoint) -> RatVector:
    """Value of the moment map at (x, phi): component j is
    sum_i S[i][j] * x_i * phi_i.

    Only the lines with x_i and phi_i both nonzero are summed; the other
    terms vanish.  Every component is exact: an int, or a Fraction when a
    coordinate is one.
    """
    _check_length(w, p)
    out = [0] * w.r
    for row, x, phi in zip(w.matrix.entries, p.x, p.phi):
        if x and phi:
            xphi = x * phi
            for j, s in enumerate(row):
                out[j] += s * xphi
    return tuple(out)


def stratum_orbit_dim(w: WeightMatrix, subset: Iterable[int]) -> int:
    """Orbit dimension along the stratum with support ``subset``:
    rank of the selected weight rows."""
    return exactlin.rank_rows(weights_of(w, subset))


# -- one analysis per weight matrix --------------------------------------------


@record
class Analysis:
    """Every fact the circuits of the weights decide, from one elimination.

    ``Analysis.of(w)`` runs one ``kernel_basis`` of tS.  Its pivot columns
    are the greedy row basis B of S, and each kernel vector is an integer
    relation on the fundamental circuit C(e, B) of one row e outside B,
    positive at e, the largest index of its support.  From these circuits:

    * I_d (``dependent``) is the union of their supports, I_f (``free``)
      the rest, and rank S = n - #circuits.
    * The zero fiber has dimension 2n - rank S; its components are the
      supersets of I_d, so it is irreducible, and normal, iff I_f = {}.
    * The action is visible iff no circuit has a mixed-sign relation.  A
      mixed fundamental circuit, or two positive ones meeting, give such a
      circuit, and ``visibility`` is the non-visible witness it builds.
      Otherwise the circuits are disjoint and positive, and
      ``visibility`` is the decomposition they are the blocks of, with
      I_0 = I_f.  Either certificate is checked before it is returned,
      the decomposition by one more rank and the witness by one more
      elimination.

    The ``WeightMatrix`` it was built from stays as ``weights``, so the
    smooth points come from here too: ``smooth_witness`` reads local
    freeness off ``rank``, and ``stabilizer_dim`` ranks no rows for a
    point supported on all of {1..n}, such as every smooth witness.
    """

    weights: WeightMatrix
    rank: int
    dependent: Stratum  # I_d: rows in some circuit
    free: Stratum  # I_f: rows in no circuit
    visibility: VisibleDecomposition | ClosedPairWitness

    @classmethod
    def of(cls, w: WeightMatrix) -> "Analysis":
        """The analysis of ``w``.  Each circuit's support is read off its
        vector as a list of 1-based indices in increasing order, the order
        the blocks and I_d are built from."""
        vectors = exactlin.kernel_basis(list(zip(*w.matrix.entries)), w.n)
        supports = [[i for i, c in enumerate(v, 1) if c] for v in vectors]
        dependent = frozenset().union(*supports)
        free = frozenset(range(1, w.n + 1)) - dependent
        mixed = _mixed_circuit(vectors)
        if mixed is None:  # disjoint supports: sorted by their least index
            blocks = tuple(
                Block(frozenset(s), polytope.primitive([v[i - 1] for i in s]))
                for s, v in sorted(zip(supports, vectors))
            )
            vis = VisibleDecomposition(fixed=free, blocks=blocks)
            _verify_decomposition(w, vis)
        else:
            vis = _nonvisible_witness(w, mixed)
        return cls(w, w.n - len(vectors), dependent, free, vis)

    @property
    def n(self) -> int:
        return self.weights.n

    @property
    def fiber_dimension(self) -> int:
        return 2 * self.n - self.rank

    @property
    def cartan_vectors(self) -> Optional[list[tuple[int, ...]]]:
        """Indicator vectors of the blocks, n - rank S of them; they span a
        Cartan subspace.  None when the action is not visible."""
        if isinstance(self.visibility, ClosedPairWitness):
            return None
        return [
            tuple(1 if i in b.indices else 0 for i in range(1, self.n + 1))
            for b in self.visibility.blocks
        ]

    def components(
        self, max_components: Optional[int] = None
    ) -> Optional[tuple[Stratum, ...]]:
        """Index sets of the irreducible components of the zero fiber: the
        2^#I_f supersets of I_d, ordered by size, then members.  None when
        that count exceeds ``max_components``, which is None or an int
        >= 0, the rule of the CLI's ``--max-components``.

        I_d joins each k-subset of the sorted I_f, k = 0..#I_f, by one
        ``frozenset.union`` with the subset's tuple.  The k-subsets come in
        lexicographic order, and so do their unions with the disjoint I_d,
        so no sort is needed."""
        cap = max_components
        if not (cap is None or is_int(cap) and cap >= 0):
            raise InputError(
                f"max_components needs None or an integer >= 0, got {cap!r}"
            )
        free = sorted(self.free)
        if cap is not None and 1 << len(free) > cap:
            return None
        return tuple(
            self.dependent.union(c)
            for k in range(len(free) + 1)
            for c in combinations(free, k)
        )

    def smooth_witness(self, subset: Iterable[int]) -> PairPoint:
        """A fiber point over the stratum of ``subset`` with trivial
        infinitesimal stabilizer: x the indicator of the subset, phi the
        indicator of its complement.  Its joint support is {1..n}, so
        ``stabilizer_dim`` reads r - rank S = 0 off ``rank``.  Requires a
        locally free action, rank S = r, and indices that
        ``WeightMatrix.index_set`` accepts."""
        w = self.weights
        if self.rank < w.r:
            raise CapabilityError(
                f"rank(S)={self.rank} < r={w.r}: the action has a"
                " positive-dimensional kernel; reduce it first"
                " (reduce_to_effective)"
            )
        x, phi = [0] * w.n, [1] * w.n
        for i in w.index_set(subset):
            x[i - 1], phi[i - 1] = 1, 0
        return PairPoint(tuple(x), tuple(phi))

    def stabilizer_dim(self, p: PairPoint) -> int:
        """Dimension of the joint infinitesimal stabilizer of (x, phi):
        r - rank of the weights on supp(x) | supp(phi).  A point supported
        on all of {1..n} reads the rank off ``rank``; a smaller support
        is a stratum, whose rank is ``stratum_orbit_dim``.  A coordinate
        pair is in neither support when it equals (0, 0)."""
        w = self.weights
        _check_length(w, p)
        if (0, 0) not in zip(p.x, p.phi):
            return w.r - self.rank
        return w.r - stratum_orbit_dim(w, support(p.x) | support(p.phi))


def _mixed_circuit(
    vectors: Sequence[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """A mixed-sign integer circuit met while scanning the fundamental
    circuits in order, or None when they are positive and disjoint.

    A mixed fundamental circuit is returned as it is.  Positive u, v meet
    only in basis rows; for the first, b, u_b v - v_b u is an integer
    dependency on {e_u, e_v} + B - b.  That set has nullity 1, so the
    support is a circuit (Oxley, Matroid Theory, 1.1), with -v_b u_{e_u} < 0
    at e_u and u_b v_{e_v} > 0 at e_v.
    """
    owner: dict[int, tuple[int, ...]] = {}  # row -> first circuit through it
    for v in vectors:
        if any(c < 0 for c in v):
            return v
        for i, c in enumerate(v):
            if c == 0:
                continue
            u = owner.setdefault(i, v)
            if u is not v:
                return tuple(u[i] * a - c * b for a, b in zip(v, u))
    return None


def _verify_decomposition(w: WeightMatrix, dec: VisibleDecomposition) -> None:
    """Check a visibility decomposition exactly, with one rank; raise
    ArithmeticError on a fault.

    I_0 and the blocks must partition {1..n}, and each block must be
    nonempty with its relation an ``Inside`` certificate for 0 in the
    relative interior of the block's rows: one strictly positive
    coefficient per row, with a vanishing weighted sum.  So the block's
    largest row lies in the span of its other rows.  Then D = I_0 + each
    block minus its largest row is independent iff I_0 is independent,
    each block b has rank |b| - 1, and the spans meet in a direct sum
    equal to span S.
    """
    rows = w.matrix.entries
    parts = [sorted(dec.fixed)] + [sorted(b.indices) for b in dec.blocks]
    if sorted(i for part in parts for i in part) != list(range(1, w.n + 1)):
        raise ArithmeticError("I_0 and the blocks do not partition {1..n}")
    basis = parts[0]
    for b, members in zip(dec.blocks, parts[1:]):
        if not members or not polytope.verify_certificate(
            HullQuery(tuple([rows[i - 1] for i in members])),
            Inside(b.relation),
            relative_interior=True,
        ):
            raise ArithmeticError(f"block {members}: no positive, vanishing relation")
        basis = basis + members[:-1]
    if exactlin.rank_rows([rows[i - 1] for i in basis]) != len(basis):
        raise ArithmeticError(
            "I_0 and the blocks less their largest rows are dependent"
        )


def reduce_to_effective(w: WeightMatrix) -> WeightMatrix:
    """Select a maximal independent set of columns of S: its pivot columns.

    Every column is a rational combination of the kept ones, so the rank of
    every row subset is preserved; the reduced action is locally free.
    """
    _, keep, _ = exactlin.echelon(w.matrix.entries, w.r)
    if not keep:
        raise CapabilityError(
            "the action is trivial (all weights vanish); there is no"
            " effective form with a positive-rank torus"
        )
    return WeightMatrix.from_rows([[row[j] for j in keep] for row in w.matrix.entries])


# -- stability and orbit closure ------------------------------------------------


def is_stable(w: WeightMatrix) -> tuple[bool, polytope.HullCertificate]:
    """Stability: 0 in the relative interior of the hull of all weights."""
    cert = polytope.zero_in_relative_interior(HullQuery(w.matrix.entries))
    return isinstance(cert, Inside), cert


def pair_closed_orbit(w: WeightMatrix, p: PairPoint) -> Inside | NotClosed:
    """Is the orbit of a fiber point closed?

    Hilbert-Mumford for tori: closed iff 0 lies in the relative interior
    of the hull of the doubled weights {s_i : x_i != 0} + {-s_i : phi_i
    != 0}.  One hull query decides it and checks its certificate.  A
    closed orbit returns the ``Inside`` itself: strictly positive
    coefficients on the doubled weights, one per s_i with x_i != 0, then
    one per -s_i with phi_i != 0, in index order, whose weighted sum
    vanishes; empty for the origin.  An Outside functional is a
    destabilizing cocharacter, and its flow at t -> 0 keeps the
    coordinates whose weights it pairs to 0: the limit point.
    """
    if any(v != 0 for v in moment_eval(w, p)):
        raise InputError("point is not in the zero fiber")
    pts = [w.weight(i) for i in sorted(support(p.x))] + [
        tuple(-v for v in w.weight(i)) for i in sorted(support(p.phi))
    ]
    if not pts:
        return Inside(())  # the origin
    cert = polytope.zero_in_relative_interior(HullQuery(tuple(pts)))
    if isinstance(cert, Inside):
        return cert
    lam = cert.functional
    exps = [sum(s * c for s, c in zip(row, lam)) for row in w.matrix.entries]
    limit = PairPoint(
        tuple(v if e == 0 else 0 for v, e in zip(p.x, exps)),
        tuple(v if e == 0 else 0 for v, e in zip(p.phi, exps)),
    )
    return NotClosed(cocharacter=lam, limit=limit)


def _nonvisible_witness(
    w: WeightMatrix, mixed: tuple[int, ...]
) -> ClosedPairWitness:
    """A closed-orbit fiber point with nilpotent x, from a mixed circuit.

    x is the indicator of the positive part P of the circuit's relation,
    phi of the negative part N.  The circuit gives both certificates, so
    no hull search runs: the absolute values of the relation are a
    strictly positive combination of the doubled weights (the orbit is
    closed), and P, a proper subset of a circuit, is independent, so
    S_P t = 1 has a solution t pairing positively with every weight on
    supp(x) (x is nilpotent).  ``_verify_nonvisible_witness`` checks
    both.
    """
    # The circuit is an integer relation; divided by the gcd of its
    # entries it is the primitive one.
    rel = polytope.primitive(mixed)
    x = tuple([1 if c > 0 else 0 for c in rel])
    phi = tuple([1 if c < 0 else 0 for c in rel])
    witness = ClosedPairWitness(pair=PairPoint(x, phi), relation=rel)
    _verify_nonvisible_witness(w, witness)
    return witness


def _verify_nonvisible_witness(
    w: WeightMatrix, witness: ClosedPairWitness
) -> None:
    """Check the witness exactly, one check per fact; raise
    ArithmeticError on a fault (InputError for a pair of the wrong
    length, as everywhere).

    The relation r is a weight dependency, and supp(x) and supp(phi) are
    its positive part P and negative part N, with P nonempty.  P and N are
    disjoint, so every x_i phi_i is 0 and the pair lies on the zero fiber
    without a moment map evaluation.  The same facts are closedness:
    sum_P |r_i| s_i + sum_N |r_i| (-s_i) = sum r_i s_i = 0 with every
    coefficient positive, an ``Inside`` certificate on the doubled weights
    that needs no check of its own.  Nilpotency is the one certificate
    built and checked: the functional t with S_P t = 1.

    The dependency is checked column by column, as ``verify_certificate``
    checks a combination, and the supports in one pass over the
    coordinates: x_i != 0 exactly where r_i > 0, phi_i != 0 exactly where
    r_i < 0.
    """
    p, rel = witness.pair, witness.relation
    _check_length(w, p)
    rows = w.matrix.entries
    if len(rel) != w.n or any(sum(map(mul, rel, col)) for col in zip(*rows)):
        raise ArithmeticError("witness relation is not a weight dependency")
    pos = [i for i, c in enumerate(rel) if c > 0]
    if any((x != 0) != (c > 0) or (phi != 0) != (c < 0)
           for x, phi, c in zip(p.x, p.phi, rel)):
        raise ArithmeticError("witness supports differ from the relation")
    if not pos:
        raise ArithmeticError("witness x-part is zero")

    # Nilpotent: solve S_P t = 1 by one elimination of [S_P | 1].
    a, pivots, d = exactlin.echelon([rows[i] + (1,) for i in pos], w.r + 1)
    if pivots and pivots[-1] == w.r:
        raise ArithmeticError("S_P t = 1 is inconsistent: P is dependent")
    # t = a[k][-1] / d at pivot column k; |d| * t keeps its signs.
    sign = 1 if d > 0 else -1
    t = [0] * w.r
    for row, c in zip(a, pivots):
        t[c] = sign * row[-1]
    nilpotent = Outside(polytope.primitive(t))
    if not polytope.verify_certificate(
        HullQuery(tuple([rows[i] for i in pos])), nilpotent, relative_interior=False
    ):
        raise ArithmeticError("witness x-part is not nilpotent")


# -- smooth points and tangent data ------------------------------------------


def smooth_witness(w: WeightMatrix, subset: Iterable[int]) -> PairPoint:
    """``Analysis.of(w).smooth_witness(subset)``."""
    return Analysis.of(w).smooth_witness(subset)
