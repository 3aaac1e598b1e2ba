"""Exact relative-interior membership tests with dual certificates.

The one query, "is 0 in the relative interior of the convex hull of the
given integer points?", is answered with a certificate that
``verify_certificate`` checks exactly:

* ``Inside``: explicit combination coefficients, primitive (gcd 1)
  positive integers, one per point,
* ``Outside``: an integral separating functional, i.e. a one-parameter
  subgroup under which every point has weakly positive pairing, and one
  point a strictly positive one.

The query checks its certificate with ``verify_certificate`` before
returning it.  A caller that already holds a certificate, such as the
torus layer's non-visible witness, checks it the same way and needs no
simplex run; ``verify_certificate`` also takes the hull form, whose
Inside is only nonnegative and whose Outside pairs strictly positively
with every point.  ``HullQuery.of`` reads the points with
``errors.int_rows``, the reader of the weight matrix too.

The engine is a fraction-free phase-one simplex priced by Dantzig's rule
(most negative reduced cost), falling back to Bland's rule after a
degenerate pivot so that it cannot cycle.  It is a revised simplex
(Dantzig and Orchard-Hays 1954) over one common denominator d: for n
points in Z^r the integer tableau holds only d times the basis inverse
and the basic solution, r + 2 integers per row.  Each step prices the
input columns against it and pivots by the same Bareiss step as the
elimination, ``exactlin.pivot``.  Its entries equal those of the full
(r + 1) x (n + r + 1) tableau, so the choices and certificates are the
full tableau's.  The Outside functional is the Farkas dual read off the
artificial columns.  Repeated points are kept: Inside coefficients are
reported per input position.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import InputError, int_rows, record
from .exactlin import pivot


@record
class HullQuery:
    """A nonempty list of integer points sharing one ambient dimension.

    ``of`` reads and checks points from outside; the torus layer builds
    its queries directly from rows of a ``WeightMatrix``, which were
    checked by the same reader when the matrix was made."""

    points: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, points: Iterable[Iterable[int]]) -> "HullQuery":
        """The points read once by ``errors.int_rows``: InputError unless
        they are iterables of ints of one common length, and at least
        one."""
        pts = int_rows(points, "hull query")
        if not pts:
            raise InputError("hull query needs at least one point")
        return cls(pts)

    @property
    def dim(self) -> int:
        return len(self.points[0])


@record
class Inside:
    """Combination coefficients witnessing 0 in the (relative interior of
    the) hull; one coefficient per input point position.  The simplex
    gives primitive positive integers; ``verify_certificate`` takes ints
    and Fractions alike, nonnegative ones in the hull form, and c passes
    iff c / sum(c) is a convex combination."""

    coefficients: tuple[int | Fraction, ...]


@record
class Outside:
    """Integral separating functional (a one-parameter subgroup)."""

    functional: tuple[int, ...]


HullCertificate = Inside | Outside  # not Union: its cache pins old imports


def _phase_one(
    columns: Sequence[Sequence[int]], rhs: list[int]
) -> tuple[list[int] | None, int, list[int] | None]:
    """Feasibility of {A x = b, x >= 0} by fraction-free phase-one simplex.

    ``columns`` holds the integer matrix A column-wise.  Returns (x, d,
    None) on feasibility, where the solution is x / d with integers x >= 0
    and d > 0, and (None, d, y) otherwise, where y is an integral Farkas
    dual for the original row orientation: y.A <= 0 componentwise and
    y.b > 0.

    Pricing is Dantzig's rule: the entering column has the most negative
    reduced cost, the smallest index among ties.  After a degenerate pivot
    (the leaving row's rhs is 0) it is Bland's rule, the smallest index
    with a negative reduced cost, until the next nondegenerate pivot.  A
    cycle would consist of degenerate pivots only, which Bland's rule
    cannot repeat, so the loop terminates.  The leaving row is the
    smallest ratio, ties to the smallest basic index, under both rules.
    Columns are numbered structural first, then one artificial per row.

    The simplex is revised.  With the rows flipped so that b >= 0, B the
    basis and d the common denominator, the tableau keeps only the rows
    [d B^-1 | d x_B | slot] and the objective row [artificial reduced
    costs | -objective | slot], len(b) + 2 integers each; the structural
    columns stay the untouched input.  A structural column's reduced cost
    is sum_i (c_i - d) Ahat[i][j], c_i the artificial reduced costs and
    Ahat the flipped input, and 0 for a basic column.  The entering column
    d B^-1 Ahat_q goes into the slot and ``exactlin.pivot`` pivots on it,
    its pivot becoming the next d.  The Bareiss update acts on each column
    alone, so every entry equals the full tableau's: pivots are positive,
    d > 0, and every sign test, cost comparison and cross-multiplied ratio
    test matches the rational tableau's.  The loop stops once the
    objective is 0, since any further pivot would be degenerate and keep x.
    """
    nrows = len(rhs)
    ncols = len(columns)
    flip = [-1 if b < 0 else 1 for b in rhs]
    flipped = -1 in flip
    xb, slot = nrows, nrows + 1
    # Minimize the sum of the artificials, which form the initial basis.
    tab = []
    for i, b in enumerate(rhs):
        row = [0] * (nrows + 2)
        row[i], row[xb] = 1, abs(b)
        tab.append(row)
    cons = tab[:]
    obj = [0] * nrows + [-sum(map(abs, rhs)), 0]
    tab.append(obj)
    basis = list(range(ncols, ncols + nrows))
    is_basic = [False] * ncols
    d = 1
    bland = False
    while obj[xb]:
        # The multipliers (c_i - d) with the row flips folded in, so that
        # they price the unflipped input columns.
        mult = [(c - d) * f for c, f in zip(obj, flip)]
        costs = [
            0 if basic else sum(map(mul, mult, col))
            for basic, col in zip(is_basic, columns)
        ]
        costs += obj[:nrows]
        if bland:
            enter = next((j for j, c in enumerate(costs) if c < 0), -1)
        else:
            # Dantzig: most negative reduced cost, smallest index on ties.
            least = min(costs)
            enter = costs.index(least) if least < 0 else -1
        if enter < 0:
            break
        if enter < ncols:
            col = columns[enter]
            if flipped:
                col = list(map(mul, col, flip))
            for row in cons:
                row[slot] = sum(map(mul, row, col))
        else:
            for row in cons:
                row[slot] = row[enter - ncols]
        obj[slot] = costs[enter]
        leave = -1
        for i in range(nrows):
            a = tab[i][slot]
            if a > 0 and leave >= 0:
                # ratio_i - ratio_leave, cross-multiplied by positive divisors.
                cmp = tab[i][xb] * tab[leave][slot] - tab[leave][xb] * a
                if cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                    leave = i
            elif a > 0:
                leave = i
        if leave < 0:
            # Cannot happen for this phase-one system (artificials bound it).
            raise ArithmeticError("unbounded phase-one simplex")
        bland = tab[leave][xb] == 0  # degenerate: Bland until it is not
        d = pivot(tab, leave, slot, d)
        cons, obj = tab[:-1], tab[-1]
        if basis[leave] < ncols:
            is_basic[basis[leave]] = False
        if enter < ncols:
            is_basic[enter] = True
        basis[leave] = enter

    if obj[xb] == 0:
        x = [0] * ncols
        for i, b in enumerate(basis):
            if b < ncols:
                x[b] = tab[i][xb]
        return x, d, None
    # Farkas dual: minus the multipliers, scaled by d > 0.
    y = [(d - c) * f for c, f in zip(obj, flip)]
    return None, d, y


def zero_in_relative_interior(q: HullQuery) -> HullCertificate:
    """Decide 0 in the relative interior of CH(points).

    A strictly positive combination exists iff {a >= 1, sum a_i p_i = 0} is
    feasible (the relation set is a cone), so strictness is LP-expressible.
    Inside: the primitive positive integers of d (a + 1), for the simplex's
    solution a = x / d.  Outside: integral functional nonnegative on all
    points, positive on one, from the Farkas dual y: its first ``q.dim``
    entries negated and made primitive.  The certificate is checked
    exactly before it is returned; a check that fails is an internal
    fault.
    """
    rhs = [-sum(coords) for coords in zip(*q.points)]
    x, d, y = _phase_one(q.points, rhs)
    if x is not None:
        cert: HullCertificate = Inside(primitive([v + d for v in x]))
    else:
        cert = Outside(primitive([-v for v in y[: q.dim]]))
    if not verify_certificate(q, cert, relative_interior=True):
        raise ArithmeticError("simplex produced a non-verifying certificate")
    return cert


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """Integers divided by their gcd, so the gcd is 1; all zeros stay.
    A tuple either way: the input's own entries when the gcd is 1 or 0
    (all zeros, or no entries), the common case, with no division."""
    g = math.gcd(*ints)
    if g <= 1:
        return tuple(ints)
    return tuple([v // g for v in ints])


def verify_certificate(
    q: HullQuery, cert: HullCertificate, relative_interior: bool
) -> bool:
    """Exact verification of a certificate against its query.

    Inside: one coefficient per point, each > 0 (relative interior) or
    >= 0 and not all 0 (hull), with a vanishing weighted sum; so c passes
    iff the convex combination c / sum(c) does.  The coefficients are
    checked as given, ints or Fractions.  Outside: a functional of length
    ``q.dim`` pairing > 0 with every point (hull), or >= 0 with every
    point and > 0 with one (relative interior).  Signs are read off the
    least and greatest value, sums column by column with ``map``.
    """
    if isinstance(cert, Inside):
        coeffs = cert.coefficients
        if len(coeffs) != len(q.points) or min(coeffs, default=0) < 0:
            return False
        if not (all(coeffs) if relative_interior else any(coeffs)):
            return False
        return not any(sum(map(mul, coeffs, col)) for col in zip(*q.points))
    if len(cert.functional) != q.dim:
        return False
    pairings = [sum(map(mul, cert.functional, p)) for p in q.points]
    if relative_interior:
        return min(pairings) >= 0 and max(pairings) > 0
    return min(pairings) > 0
