"""Decision procedures for a torus representation given by its weights.

A rank-r torus acting diagonally on n coordinate lines is encoded by the
n x r integer weight matrix S (row i is the weight of the i-th line).
Everything about the zero fiber of the moment map on V + V* is decided
exactly from S.  The facts read off the circuits of S come together in one
``Analysis``, built by one elimination of tS: the splits I_d/I_f (I_d is
the support of the symplectic reduction), the fiber's dimension and
irreducible components (normal iff I_f is empty), the visibility
decomposition or a non-visible witness, and the Cartan vectors.  Separate
functions give strata dimensions, modality and classification, stability,
orbit closedness of every fiber point (one hull query on the doubled
weights) and explicit smooth points.

Indices are 1-based: subsets I live inside {1..n}.  All certificates
(hull combinations, separating cocharacters, block relations) verify by
exact rational arithmetic.  Most hull certificates come from the simplex
in ``polytope``; the non-visible witness's two are built from its circuit
and only checked, so ``analyze`` runs one simplex per matrix (stability)
and two eliminations: the circuits and the check of the decomposition or
witness they give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import exactlin, polytope
from .errors import CapabilityError, InputError
from .exactlin import IntMatrix, RatVector
from .polytope import HullQuery, Inside, Outside

Stratum = frozenset[int]


@dataclass(frozen=True)
class WeightMatrix:
    """Integer weight matrix S with n >= 1 rows and r >= 1 columns."""

    matrix: IntMatrix

    def __post_init__(self) -> None:
        if self.matrix.rows < 1 or self.matrix.cols < 1:
            raise InputError("weight matrix needs n >= 1 rows and r >= 1 columns")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "WeightMatrix":
        rows = list(rows)  # no rows: __post_init__ names the shape rule
        return cls(IntMatrix.from_rows(rows, None if rows else 0))

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def r(self) -> int:
        return self.matrix.cols

    def weight(self, i: int) -> tuple[int, ...]:
        return self.matrix.row(i)


@dataclass(frozen=True)
class PairPoint:
    """A point (x, phi) of V + V*, coordinates exact rationals.

    phi is written in the basis dual to the coordinate lines, so its
    weights are the negated rows of S.
    """

    x: RatVector
    phi: RatVector

    @classmethod
    def of(cls, x: Sequence, phi: Sequence) -> "PairPoint":
        return cls(
            tuple(Fraction(v) for v in x), tuple(Fraction(v) for v in phi)
        )


@dataclass(frozen=True)
class Block:
    """One positive block of a visibility decomposition.

    ``relation`` pairs each index of ``indices`` (sorted) with a strictly
    positive rational coefficient; the weighted sum of the block's weights
    vanishes.
    """

    indices: Stratum
    relation: tuple[Fraction, ...]


@dataclass(frozen=True)
class VisibleDecomposition:
    fixed: Stratum  # I_0, the free part (coincides with I_f)
    blocks: tuple[Block, ...]


@dataclass(frozen=True)
class NotVisible:
    reason: str


@dataclass(frozen=True)
class Nilpotent:
    functional: Outside
    is_nilpotent = True
    is_semisimple = False


@dataclass(frozen=True)
class Semisimple:
    combination: Inside
    is_nilpotent = False
    is_semisimple = True


@dataclass(frozen=True)
class Mixed:
    hull: Inside
    interior: Outside
    is_nilpotent = False
    is_semisimple = False


@dataclass(frozen=True)
class ZeroOrbit:
    """The origin: simultaneously semisimple and nilpotent."""

    is_nilpotent = True
    is_semisimple = True


Classification = Nilpotent | Semisimple | Mixed | ZeroOrbit  # see HullCertificate


@dataclass(frozen=True)
class Closed:
    """Strictly positive coefficients on the doubled weight system: one per
    s_i with x_i != 0, then one per -s_i with phi_i != 0, in index order;
    their weighted sum vanishes.  Empty for the origin."""

    combination: Inside


@dataclass(frozen=True)
class NotClosed:
    """A destabilizing cocharacter: pairings >= 0 on supp(x), <= 0 on
    supp(phi), strict somewhere; the limit point drops to a smaller
    stratum."""

    cocharacter: tuple[int, ...]
    limit: PairPoint


Closedness = Closed | NotClosed


@dataclass(frozen=True)
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
    return [w.weight(i) for i in sorted(set(subset))]


# -- moment map and strata ---------------------------------------------------


def moment_eval(w: WeightMatrix, p: PairPoint) -> RatVector:
    """Value of the moment map at (x, phi): component j is
    sum_i S[i][j] * x_i * phi_i.

    Only the lines with x_i and phi_i both nonzero are summed; the other
    terms vanish.  Every component is a Fraction, 0 included.
    """
    if len(p.x) != w.n or len(p.phi) != w.n:
        raise InputError(f"pair point length does not match n={w.n}")
    out = [Fraction(0)] * w.r
    for row, x, phi in zip(w.matrix.entries, p.x, p.phi):
        if x != 0 and phi != 0:
            xphi = x * phi
            for j, s in enumerate(row):
                out[j] += s * xphi
    return tuple(out)


def stratum_orbit_dim(w: WeightMatrix, subset: Iterable[int]) -> int:
    """Orbit dimension along the stratum with support ``subset``:
    rank of the selected weight rows."""
    return exactlin.rank_rows(weights_of(w, subset))


def modality(w: WeightMatrix, subset: Iterable[int]) -> int:
    """#I - rank(S_I): parameters of orbits inside the stratum."""
    rows = weights_of(w, subset)
    return len(rows) - exactlin.rank_rows(rows)


# -- one analysis per weight matrix --------------------------------------------


@dataclass(frozen=True)
class Analysis:
    """Every fact the circuits of the weights decide, from one elimination.

    ``Analysis.of(w)`` runs one ``kernel_basis`` of tS.  Its pivot columns
    are the greedy row basis B of S, and each kernel vector is the
    fundamental circuit C(e, B) of one row e outside B: coefficient 1 at
    e, the largest index of its support.  From these circuits:

    * I_d (``dependent``) is the union of their supports, I_f (``free``)
      the rest, and rank S = n - #circuits.
    * The zero fiber has dimension 2n - rank S; its components are the
      supersets of I_d, so it is irreducible, and normal, iff I_f = {}.
    * The action is visible iff no circuit has a mixed-sign relation.  A
      mixed fundamental circuit, or two positive ones meeting, give such a
      circuit, and it builds the non-visible ``witness``.  Otherwise the
      circuits are disjoint and positive: they are the blocks of the
      ``decomposition``, with I_0 = I_f.  Both certificates are checked
      before they are returned, the decomposition by one more rank and
      the witness by one more elimination.
    """

    n: int
    rank: int
    dependent: Stratum  # I_d: rows in some circuit
    free: Stratum  # I_f: rows in no circuit
    decomposition: VisibleDecomposition | NotVisible
    witness: Optional[ClosedPairWitness]  # None exactly when visible

    @classmethod
    def of(cls, w: WeightMatrix) -> "Analysis":
        vectors = exactlin.kernel_basis(exactlin.transpose(w.matrix))
        dependent = frozenset().union(*(support(v) for v in vectors))
        free = frozenset(range(1, w.n + 1)) - dependent
        mixed = _mixed_circuit(vectors)
        if mixed is None:
            blocks = []
            for v in vectors:
                members = sorted(support(v))
                blocks.append(
                    Block(frozenset(members), tuple(v[i - 1] for i in members))
                )
            blocks.sort(key=lambda b: min(b.indices))
            dec = VisibleDecomposition(fixed=free, blocks=tuple(blocks))
            _verify_decomposition(w, dec)
            return cls(w.n, w.n - len(vectors), dependent, free, dec, None)
        dec = NotVisible(
            f"circuit {sorted(support(mixed))} has a mixed-sign relation,"
            " so 0 is not interior to its hull"
        )
        witness = _nonvisible_witness(w, mixed)
        return cls(w.n, w.n - len(vectors), dependent, free, dec, witness)

    @property
    def fiber_dimension(self) -> int:
        return 2 * self.n - self.rank

    @property
    def cartan_vectors(self) -> Optional[list[tuple[int, ...]]]:
        """Indicator vectors of the blocks, n - rank S of them; they span a
        Cartan subspace.  None when the action is not visible."""
        if isinstance(self.decomposition, NotVisible):
            return None
        return [
            tuple(1 if i in b.indices else 0 for i in range(1, self.n + 1))
            for b in self.decomposition.blocks
        ]

    def components(
        self, max_components: Optional[int] = None
    ) -> Optional[tuple[Stratum, ...]]:
        """Index sets of the irreducible components of the zero fiber: the
        2^#I_f supersets of I_d, ordered by size, then members.  None when
        that count exceeds ``max_components``."""
        free = sorted(self.free)
        count = 1 << len(free)
        if max_components is not None and count > max_components:
            return None
        out = [
            self.dependent | {free[b] for b in range(len(free)) if pick >> b & 1}
            for pick in range(count)
        ]
        return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


def _mixed_circuit(vectors: Sequence[RatVector]) -> Optional[RatVector]:
    """A mixed-sign circuit met while scanning the fundamental circuits in
    order, or None when they are all positive and pairwise disjoint.

    A mixed fundamental circuit is returned as it is.  For positive u, v
    meeting in the basis row b, v - (v_b / u_b) u is a dependency on
    {e_u, e_v} + B - b.  That set has nullity 1, so the support is a
    circuit (Oxley, Matroid Theory, 1.1), with -v_b / u_b at e_u and 1 at
    e_v.
    """
    owner: dict[int, RatVector] = {}  # row -> first circuit through it
    for v in vectors:
        if any(c < 0 for c in v):
            return v
        for i, c in enumerate(v):
            if c == 0:
                continue
            u = owner.setdefault(i, v)
            if u is not v:
                ratio = c / u[i]
                return tuple(a - ratio * b for a, b in zip(v, u))
    return None


def _verify_decomposition(w: WeightMatrix, dec: VisibleDecomposition) -> None:
    """Check a visibility decomposition exactly, with one rank; raise
    ArithmeticError on a fault.

    I_0 and the blocks must partition {1..n}, and each block's relation
    must be strictly positive and vanish, so the block's largest row lies
    in the span of its other rows.  Then D = I_0 + each block minus its
    largest row is independent iff I_0 is independent, each block b has
    rank |b| - 1, and the spans meet in a direct sum equal to span S.
    """
    rows = w.matrix.entries
    parts = [sorted(dec.fixed)] + [sorted(b.indices) for b in dec.blocks]
    if sorted(i for part in parts for i in part) != list(range(1, w.n + 1)):
        raise ArithmeticError("I_0 and the blocks do not partition {1..n}")
    basis = parts[0]
    for b, members in zip(dec.blocks, parts[1:]):
        rel = b.relation
        if not members or len(rel) != len(members) or any(c <= 0 for c in rel):
            raise ArithmeticError(
                f"block {members} needs one positive coefficient per index"
            )
        for j in range(w.r):
            if sum(c * rows[i - 1][j] for c, i in zip(rel, members)) != 0:
                raise ArithmeticError(f"block {members} relation does not vanish")
        basis = basis + members[:-1]
    if exactlin.rank_rows([rows[i - 1] for i in basis]) != len(basis):
        raise ArithmeticError(
            "I_0 and the blocks less their largest rows are dependent"
        )


def is_locally_free(w: WeightMatrix) -> bool:
    """True iff rank(S) = r, i.e. generic orbits have full dimension."""
    return exactlin.rank(w.matrix) == w.r


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
    rows = tuple(tuple(row[j] for j in keep) for row in w.matrix.entries)
    return WeightMatrix(IntMatrix(rows, len(keep)))


# -- element classification --------------------------------------------------


def classify_stratum(w: WeightMatrix, subset: Iterable[int]) -> Classification:
    """Orbit geometry along a stratum, with dual certificates.

    Nilpotent iff 0 is outside the hull of the stratum's weights;
    semisimple iff 0 is in the relative interior; mixed otherwise.  The
    empty stratum is the origin, ``ZeroOrbit``.  An element v of V is
    classified by its stratum: ``classify_stratum(w, support(v))``.
    """
    idx = sorted(set(subset))
    if not idx:
        return ZeroOrbit()
    q = HullQuery.of(weights_of(w, idx))
    hull = polytope.zero_in_hull(q)
    if isinstance(hull, Outside):
        return Nilpotent(hull)
    interior = polytope.zero_in_relative_interior(q)
    if isinstance(interior, Inside):
        return Semisimple(interior)
    return Mixed(hull=hull, interior=interior)


def is_stable(w: WeightMatrix) -> tuple[bool, polytope.HullCertificate]:
    """Stability: 0 in the relative interior of the hull of all weights."""
    cert = polytope.zero_in_relative_interior(
        HullQuery.of(list(w.matrix.entries))
    )
    return isinstance(cert, Inside), cert


# -- orbit closure for fiber points ------------------------------------------


def pair_closed_orbit(w: WeightMatrix, p: PairPoint) -> Closedness:
    """Is the orbit of a fiber point closed?

    Hilbert-Mumford for tori: closed iff 0 lies in the relative interior
    of the hull of the doubled weights {s_i : x_i != 0} + {-s_i : phi_i
    != 0}.  One hull query decides it and checks its certificate.  An
    Inside combination makes the orbit closed; an Outside functional is
    a destabilizing cocharacter, and its flow at t -> 0 keeps the
    coordinates whose weights it pairs to 0: the limit point.
    """
    if any(v != 0 for v in moment_eval(w, p)):
        raise InputError("point is not in the zero fiber")
    pts = [w.weight(i) for i in sorted(support(p.x))] + [
        tuple(-v for v in w.weight(i)) for i in sorted(support(p.phi))
    ]
    if not pts:
        return Closed(combination=Inside(()))  # the origin
    cert = polytope.zero_in_relative_interior(HullQuery.of(pts))
    if isinstance(cert, Inside):
        return Closed(combination=cert)
    lam = cert.functional
    exps = [sum(s * c for s, c in zip(row, lam)) for row in w.matrix.entries]
    limit = PairPoint(
        tuple(v if e == 0 else Fraction(0) for v, e in zip(p.x, exps)),
        tuple(v if e == 0 else Fraction(0) for v, e in zip(p.phi, exps)),
    )
    return NotClosed(cocharacter=lam, limit=limit)


def _nonvisible_witness(w: WeightMatrix, mixed: RatVector) -> ClosedPairWitness:
    """A closed-orbit fiber point with nilpotent x, from a mixed circuit.

    x is the indicator of the positive part P of the circuit's relation,
    phi of the negative part N.  The circuit is itself both certificates,
    so no hull search runs: the absolute values of the relation are a
    strictly positive combination of the doubled weights (the orbit is
    closed), and P, a proper subset of a circuit, is independent, so
    S_P t = 1 has a solution t pairing positively with every weight on
    supp(x) (x is nilpotent).  Both are checked by
    ``_verify_nonvisible_witness``.
    """
    # The circuit vector is 1 at its largest index, so clearing the
    # denominators leaves a primitive integer relation.
    rel = exactlin.clear_denominators(mixed)
    x = tuple(Fraction(1) if c > 0 else Fraction(0) for c in rel)
    phi = tuple(Fraction(1) if c < 0 else Fraction(0) for c in rel)
    witness = ClosedPairWitness(pair=PairPoint(x, phi), relation=rel)
    _verify_nonvisible_witness(w, witness)
    return witness


def _verify_nonvisible_witness(
    w: WeightMatrix, witness: ClosedPairWitness
) -> None:
    """Build the witness's closedness and nilpotency certificates from its
    relation and check them exactly; raise ArithmeticError on a fault."""
    p, rel = witness.pair, witness.relation
    if any(v != 0 for v in moment_eval(w, p)):
        raise ArithmeticError("witness pair is off the zero fiber")
    rows = w.matrix.entries
    if len(rel) != w.n or any(
        sum(c * row[j] for c, row in zip(rel, rows)) != 0 for j in range(w.r)
    ):
        raise ArithmeticError("witness relation is not a weight dependency")
    pos = [i for i, c in enumerate(rel) if c > 0]
    neg = [i for i, c in enumerate(rel) if c < 0]
    x_supp, phi_supp = {i + 1 for i in pos}, {i + 1 for i in neg}
    if support(p.x) != x_supp or support(p.phi) != phi_supp:
        raise ArithmeticError("witness supports differ from the relation")
    if not pos:
        raise ArithmeticError("witness x-part is zero")

    # Closed: |rel| is a strictly positive combination of the doubled weights.
    doubled = HullQuery.of(
        [rows[i] for i in pos] + [tuple(-v for v in rows[i]) for i in neg]
    )
    closed = Inside(tuple(abs(rel[i]) for i in pos + neg))
    if not polytope.verify_certificate(doubled, closed, relative_interior=True):
        raise ArithmeticError("witness orbit failed the closedness check")

    # Nilpotent: solve S_P t = 1 by one elimination of [S_P | 1].
    a, pivots, d = exactlin.echelon([rows[i] + (1,) for i in pos], w.r + 1)
    if pivots and pivots[-1] == w.r:
        raise ArithmeticError("S_P t = 1 is inconsistent: P is dependent")
    # t = a[k][-1] / d at pivot column k; |d| * t keeps its signs.
    sign = 1 if d > 0 else -1
    t = [0] * w.r
    for row, c in zip(a, pivots):
        t[c] = sign * row[-1]
    nilpotent = Outside(polytope.integral_subgroup(t))
    if not polytope.verify_certificate(
        HullQuery.of([rows[i] for i in pos]), nilpotent, relative_interior=False
    ):
        raise ArithmeticError("witness x-part is not nilpotent")


# -- smooth points and tangent data ------------------------------------------


def smooth_witness(w: WeightMatrix, subset: Iterable[int]) -> PairPoint:
    """A fiber point over the stratum of ``subset`` with trivial
    infinitesimal stabilizer: x the indicator of the subset, phi the
    indicator of its complement.  Requires a locally free action."""
    if not is_locally_free(w):
        raise CapabilityError(
            f"rank(S)={exactlin.rank(w.matrix)} < r={w.r}: the"
            " action has a positive-dimensional kernel; reduce it first"
            " (reduce_to_effective)"
        )
    return _smooth_witness(w, subset)


def _smooth_witness(w: WeightMatrix, subset: Iterable[int]) -> PairPoint:
    """``smooth_witness`` for a caller that has checked local freeness."""
    chosen = set(subset)
    weights_of(w, chosen)  # rejects indices outside 1..n
    x = tuple(Fraction(1 if i in chosen else 0) for i in range(1, w.n + 1))
    phi = tuple(Fraction(0 if i in chosen else 1) for i in range(1, w.n + 1))
    return PairPoint(x, phi)


def stabilizer_dim(w: WeightMatrix, p: PairPoint) -> int:
    """Dimension of the joint infinitesimal stabilizer of (x, phi):
    r - rank of the weights on supp(x) | supp(phi)."""
    if len(p.x) != w.n or len(p.phi) != w.n:
        raise InputError(f"pair point length does not match n={w.n}")
    supp = support(p.x) | support(p.phi)
    return w.r - exactlin.rank_rows(weights_of(w, supp))
