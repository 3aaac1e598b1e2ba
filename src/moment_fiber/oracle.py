"""Independent brute-force implementations of the fast-path criteria.

Everything here is deliberately written against different algorithms than
the main modules: ranks by inserting rows one at a time into an integer
echelon basis that pivots from the right (cross-multiplication, then gcd
division; no Bareiss division, no rational RREF), kernels by the same row
insertion, with a unit tag carried along to record each relation, hull
membership by Caratheodory subset search (no simplex), visibility by
exhaustive partition search (a decomposition, or None when there is
none), mixed-sign circuits by subset enumeration.
One reader of row subsets, ``_subset_circuits``, serves the visibility
and circuit searches, the kernels and the decomposition check: a subset's
basis extends that of the subset less its highest row, so a prefix has
the greedy basis, and a relation is read off a reduced tag.  Relations
are integer vectors, each checked in integers.  The hull searches visit
independent subsets only (Caratheodory), and the component walk ends a
branch whose nullity can no longer reach n - rank S.  The partition
search keeps its assigned parts in direct sum: a row joins I_0, or a
circuit opens a block, only if the rank of the union grows by 1, or by
the block's size less 1.  A subfamily of a direct family is direct, so
no branch to a decomposition is cut, and a finished partition has
n - rank S blocks without a test of its own.
The tangent oracle ranks a Jacobian's columns in index order through a
one-entry memo, because every smooth witness of a matrix has the rows of
S, in order, as its Jacobian columns.
These routes generate ground truth for the randomized suites; a bug cannot
be shared with the code they check.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import CapabilityError, InputError, int_rows, is_int
from .torus import (
    Block,
    PairPoint,
    Stratum,
    VisibleDecomposition,
    WeightMatrix,
    moment_eval,
)

_COMPONENT_LIMIT = 16
_VISIBLE_LIMIT = 8
_CIRCUIT_LIMIT = 16


# -- independent exact linear algebra ----------------------------------------


def _reduce(basis: list[tuple[int, list[int]]], row: Sequence[int]) -> list[int]:
    """``row`` reduced against ``basis`` by integer cross-multiplication;
    the result is 0 at every pivot column of the basis."""
    reduced = list(row)
    for col, b in basis:
        f = reduced[col]
        if f:
            p = b[col]
            reduced = [p * a - f * x for a, x in zip(reduced, b)]
    return reduced


def _insert_row(
    basis: list[tuple[int, list[int]]], row: Sequence[int], tags: int = 0
) -> Optional[list[tuple[int, list[int]]]]:
    """``basis`` extended by ``row``, or None if the row's data, its
    columns from ``tags`` on, is in the span of the basis's data.

    The basis is a list of (pivot column, row) pairs, pivots descending;
    each row's pivot is its rightmost nonzero column.  The new row is
    reduced against them (``_reduce``), divided by its gcd and inserted in
    pivot order.  ``basis`` itself is not modified, so a subset's basis can
    extend its parent subset's.
    """
    reduced = _reduce(basis, row)
    col = len(reduced) - 1
    while col >= tags and not reduced[col]:
        col -= 1
    if col < tags:
        return None
    g = math.gcd(*reduced)
    if g > 1:
        reduced = [a // g for a in reduced]
    at = 0
    while at < len(basis) and basis[at][0] > col:
        at += 1
    return basis[:at] + [(col, reduced)] + basis[at:]


def _rank_crossmul(rows: Sequence[Sequence[int]]) -> int:
    """Rank by inserting the rows one by one with ``_insert_row``.

    The pivot order (rightmost column first) and the update rule (plain
    cross-multiplication, then gcd division) are both unlike the fast
    path's Bareiss elimination.
    """
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        if len(basis) == len(row):
            break  # full column rank: no further row can raise it
        basis = _insert_row(basis, row) or basis
    return len(basis)


def _annihilating(relation: Sequence[int], vectors: Sequence[Sequence[int]]):
    """``relation``, after checking in integers that sum_i relation_i *
    vectors[i] = 0, one column at a time."""
    if any(sum(map(mul, relation, col)) for col in zip(*vectors)):
        raise ArithmeticError("relation does not annihilate the vectors")
    return relation


def _primitive(relation: Sequence[int], own: int) -> list[int]:
    """``relation`` divided by its gcd and signed positive at index ``own``."""
    g = math.gcd(*relation)
    if relation[own] < 0:
        g = -g
    return [c // g for c in relation]


def _dependencies(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """One relation per vector in the span of the vectors before it.

    Read off the prefix masks of ``_subset_circuits``, whose bases are the
    greedy left-to-right basis: a vector in the span of the vectors before
    it has its reduced tag as relation, made primitive and positive at its
    own index, nonzero elsewhere only at earlier basis vectors, and
    sum_j rel_j * vectors[j] = 0.  Divided by their own entries, the
    relations form the kernel basis of the matrix with these vectors as
    columns that is read off its reduced row-echelon form.
    """
    relation = _subset_circuits(vectors)[2]
    tags = [(i, relation((1 << i) - 1, i)) for i in range(len(vectors))]
    return [_primitive(tag, i) for i, tag in tags if tag is not None]


def _subset_circuits(entries: Sequence[Sequence[int]]):
    """``(basis, circuit, relation)``, readers of the row subsets of
    ``entries`` given as bitmasks; bases and circuits are memoized per mask.

    Rows are tagged on the left with their unit vectors, and pivots taken
    from the right stay in the data columns while the data is nonzero.
    ``basis(mask)`` extends the basis of the mask less its highest row by
    that row unless its data lies in the span, so a prefix mask has the
    greedy left-to-right basis.  ``relation(mask, i)`` is row i's tag
    reduced against ``basis(mask)``, checked in integers, or None if its
    data does not reduce to 0.  ``circuit(mask)`` is the relation of the
    highest row against the others if they are independent and it is
    nonzero on every member, else None: exactly when the rows form a
    circuit.
    """
    n = len(entries)
    tagged = [[int(j == i) for j in range(n)] + list(row)
              for i, row in enumerate(entries)]
    bases: dict[int, list] = {0: []}
    circuits: dict[int, Optional[list[int]]] = {}

    def basis(mask: int) -> list:
        if mask not in bases:
            top = mask.bit_length() - 1
            parent = basis(mask ^ 1 << top)
            bases[mask] = _insert_row(parent, tagged[top], n) or parent
        return bases[mask]

    def relation(mask: int, i: int) -> Optional[list[int]]:
        reduced = _reduce(basis(mask), tagged[i])
        if any(reduced[n:]):
            return None
        return _annihilating(reduced[:n], entries)

    def circuit(mask: int) -> Optional[list[int]]:
        if mask not in circuits:
            top = mask.bit_length() - 1
            below = mask ^ 1 << top
            rel = None
            if len(basis(below)) == bin(below).count("1"):
                tag = relation(below, top)
                if tag is not None and all(tag[i] for i in range(n) if mask >> i & 1):
                    rel = tag
            circuits[mask] = rel
        return circuits[mask]

    return basis, circuit, relation


# -- components ---------------------------------------------------------------


def brute_components(w: WeightMatrix) -> list[Stratum]:
    """All subsets I with rank(S) - rank(S_I) = n - #I, by enumeration:
    the subsets whose nullity #I - rank(S_I) is that of all n rows."""
    if w.n > _COMPONENT_LIMIT:
        raise CapabilityError(
            f"brute component enumeration refused for n={w.n} > "
            f"{_COMPONENT_LIMIT}"
        )
    entries = w.matrix.entries
    n = w.n
    need = n - _rank_crossmul(entries)  # the nullity of every component
    out = []

    def walk(i: int, basis: list, chosen: tuple[int, ...]) -> None:
        """Every subset of rows i+1..n added to ``chosen``; ``basis``
        spans the rows in ``chosen``.  Each further row raises the
        nullity #I - rank S_I by at most one, so a branch that cannot
        reach ``need`` ends at once."""
        nullity = len(chosen) - len(basis)
        if nullity + n - i < need:
            return
        if i == n:
            if nullity == need:
                out.append(frozenset(chosen))
            return
        walk(i + 1, basis, chosen)
        walk(i + 1, _insert_row(basis, entries[i]) or basis, chosen + (i + 1,))

    walk(0, [], ())
    return sorted(out, key=lambda s: (len(s), sorted(s)))


# -- visibility ----------------------------------------------------------------


def brute_visible(w: WeightMatrix) -> Optional[VisibleDecomposition]:
    """Exhaustive search over partitions {1..n} = I_0 + I_1 + ...

    I_0 may be empty and must be independent; every other part must carry a
    unique strictly positive relation; the spans must be in direct sum.
    Returns the first success in canonical order (elements assigned
    smallest-first, I_0 before blocks, blocks by increasing bitmask), or
    None when no partition passes: the action is not visible.
    Each new block holds the lowest unassigned row, so a leaf's blocks
    are in order of their least index without a sort.  The search keeps
    an invariant: the union of the assigned rows has rank ``want`` =
    |I_0| + sum(|b| - 1) over the blocks b, so the spans of I_0's rows
    and of the blocks are in direct sum and I_0 is independent.  A row
    joins I_0 only if the union's rank grows by 1, and a block opens only
    if the rank grows by |b| - 1 (tested first, as it is cheaper) and
    the block is a circuit.  Every subfamily of a direct family is
    direct, so every node on the way to a valid partition keeps the
    invariant: the prune is exact, the visiting order is unchanged, and
    the first success is the one an unpruned search finds.  A leaf has
    rank S = n - #blocks, so it has ``need`` = n - rank S blocks; no
    block opens once there are ``need``, and none whose rank would pass
    rank S.  A block's relation is its circuit made primitive and
    positive.
    """
    if w.n > _VISIBLE_LIMIT:
        raise CapabilityError(
            f"brute visibility search refused for n={w.n} > {_VISIBLE_LIMIT}"
        )
    n = w.n
    basis, circuit, _ = _subset_circuits(w.matrix.entries)

    def valid_block(mask: int) -> bool:
        """The mask's rows carry a unique relation, nonzero on every member
        and of one sign: a circuit that is not mixed."""
        rel = circuit(mask)
        return rel is not None and not min(rel) < 0 < max(rel)

    full = (1 << n) - 1
    rank = len(basis(full))
    need = n - rank  # the blocks of every leaf whose spans are in direct sum

    def search(
        unassigned: int, assigned: int, want: int, blocks: list[int]
    ) -> Optional[list[int]]:
        """The blocks of the first partition that extends ``blocks`` over
        ``unassigned``; I_0 is the rest.  The rows of ``assigned``, the
        union of the parts so far, have rank ``want``."""
        if unassigned == 0:
            return blocks  # rank S = n - #blocks: there are ``need``
        low = unassigned & -unassigned
        # Branch 1: lowest unassigned element joins I_0, if it is outside
        # the span of every assigned row.
        if len(basis(assigned | low)) == want + 1:
            got = search(unassigned ^ low, assigned | low, want + 1, blocks)
            if got is not None:
                return got
        # Branch 2: it starts a block, unless there are enough blocks;
        # enumerate the blocks inside `unassigned`.
        if len(blocks) == need:
            return None
        rest = unassigned ^ low
        sub = rest
        while True:  # all submasks of rest, visited so blocks ascend
            block = low | (rest ^ sub)
            grown = want + block.bit_count() - 1  # the rank if in direct sum
            # No rank passes rank S, and the rank test is cheaper than the
            # circuit, so it goes first.
            if (
                grown <= rank
                and len(basis(assigned | block)) == grown
                and valid_block(block)
            ):
                got = search(unassigned ^ block, assigned | block, grown,
                             blocks + [block])
                if got is not None:
                    return got
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return None

    block_masks = search(full, 0, 0, [])
    if block_masks is None:
        return None
    fixed_mask = full
    blocks = []
    for mask in block_masks:
        rel = _primitive(circuit(mask), mask.bit_length() - 1)
        members = [i for i in range(n) if mask >> i & 1]
        relation = tuple(rel[i] for i in members)
        blocks.append(Block(frozenset(i + 1 for i in members), relation))
        fixed_mask ^= mask
    return VisibleDecomposition(
        fixed=frozenset(i + 1 for i in range(n) if fixed_mask >> i & 1),
        blocks=tuple(blocks),
    )


def brute_mixed_circuit(w: WeightMatrix) -> Optional[tuple[int, ...]]:
    """A mixed-sign circuit of the weights by subset enumeration, or None.

    Subsets are scanned by increasing size, then bitmask.  A subset of
    nullity exactly one is a circuit iff its relation involves every index;
    the first circuit whose relation has mixed signs is returned as a
    primitive integer vector of length n, positive at its largest member.
    None means every circuit is same-signed, which is the visible case.
    """
    if w.n > _CIRCUIT_LIMIT:
        raise CapabilityError(
            f"brute circuit scan refused for n={w.n} > {_CIRCUIT_LIMIT}"
        )
    circuit = _subset_circuits(w.matrix.entries)[1]
    # The sort is stable: by size, and within a size by bitmask.
    for mask in sorted(range(1, 1 << w.n), key=int.bit_count):
        rel = circuit(mask)
        if rel is not None and min(rel) < 0 < max(rel):
            return tuple(_primitive(rel, mask.bit_length() - 1))
    return None


def check_decomposition(
    w: WeightMatrix, dec: VisibleDecomposition
) -> Optional[str]:
    """Re-verify a decomposition's three conditions with oracle arithmetic.

    Returns None when every condition holds, else a description of the
    first failure.
    """
    entries = w.matrix.entries
    n = w.n
    basis = _subset_circuits(entries)[0]
    parts = [dec.fixed] + [b.indices for b in dec.blocks]
    for part in parts:
        for i in part:
            if not is_int(i):
                return f"index {i!r} is not an integer"
    seen, masks = 0, []
    for part in parts:
        start = seen
        for i in sorted(part):
            if not 1 <= i <= n or seen >> (i - 1) & 1:
                return f"index {i} repeated or out of range"
            seen |= 1 << (i - 1)
        masks.append(seen ^ start)
    if seen != (1 << n) - 1:
        return "partition does not cover {1..n}"
    if len(basis(masks[0])) != len(dec.fixed):
        return "I_0 is not independent"
    for b, mask in zip(dec.blocks, masks[1:]):
        rows = [entries[i - 1] for i in sorted(b.indices)]
        if len(basis(mask)) != len(rows) - 1:
            return f"block {sorted(b.indices)} has the wrong rank"
        if len(b.relation) != len(rows):
            return f"block {sorted(b.indices)} relation length mismatch"
        if any(c <= 0 for c in b.relation):
            return f"block {sorted(b.indices)} relation is not positive"
        if any(sum(c * x for c, x in zip(b.relation, col)) for col in zip(*rows)):
            return f"block {sorted(b.indices)} relation does not vanish"
    if sum(len(basis(mask)) for mask in masks) != len(basis(seen)):
        return "spans are not in direct sum"
    return None


# -- hull membership -----------------------------------------------------------


def _distinct(points: Iterable[Iterable[int]], what: str) -> list[tuple[int, ...]]:
    """The distinct points, sorted; duplicates do not change a hull or a
    cone.  The points are read by ``errors.int_rows``, the fast path's
    reader too: InputError if there are none, a point is not iterable,
    their dimensions differ or a coordinate is not an integer."""
    pts = int_rows(points, what)
    if not pts:
        raise InputError(f"{what} needs at least one point")
    return sorted(set(pts))


def brute_zero_in_hull(points: Sequence[Sequence[int]]) -> bool:
    """0 in CH(points): the lifted target (0, 1) is a nonnegative
    combination of the lifted points (p, 1), found by ``_cone_support``.

    A zero point settles the query immediately.
    """
    pts = _distinct(points, "hull query")
    if any(not any(p) for p in pts):
        return True
    origin = (0,) * len(pts[0]) + (1,)
    return _cone_support(origin, [p + (1,) for p in pts]) is not None


def brute_zero_in_relative_interior(points: Sequence[Sequence[int]]) -> bool:
    """0 in the relative interior: every point joins some nonnegative
    relation, equivalently -p is in the cone of the points for each p.

    Each relation found covers its whole support at once, so points already
    seen inside a relation are not re-queried.  No separate hull test is
    needed: one relation through a nonzero point already puts 0 in the
    hull, and a set of zero points is its own hull.
    """
    pts = _distinct(points, "relative-interior query")
    covered: set[int] = set()
    for i, p in enumerate(pts):
        if i in covered or not any(p):
            continue
        positive = _cone_support(tuple(-x for x in p), pts)
        if positive is None:
            return False
        covered |= positive | {i}
    return True


def _cone_support(
    target: Sequence[int], vectors: Sequence[Sequence[int]]
) -> Optional[set[int]]:
    """Indices of the vectors with a positive coefficient in a nonnegative
    combination equal to the nonzero ``target``, or None if none exists.

    By conic Caratheodory a linearly independent subset suffices, and on it
    the coefficients are unique.  Depth-first, each subset extends its
    parent's basis of tagged rows [0, e_j | v_j] by one vector; a vector in
    the span is skipped with all its supersets.  The target [1, 0 | t],
    reduced along, reads [alpha, gamma | 0] once t is in the span: then
    alpha * t = -sum_j gamma_j v_j, nonnegative iff every gamma_j * alpha
    <= 0, and by uniqueness no superset does better.
    """
    k = len(vectors)
    tags = k + 1  # alpha, then one tag per vector
    rows = [[0] * tags + list(v) for v in vectors]
    for j, row in enumerate(rows):
        row[j + 1] = 1

    def grow(first: int, basis: list, reduced: list[int]) -> Optional[set[int]]:
        for j in range(first, k):
            child = _insert_row(basis, rows[j], tags)
            if child is None:
                continue
            left = _reduce(child, reduced)
            if any(left[tags:]):
                got = grow(j + 1, child, left)
                if got is not None:
                    return got
            elif all(g * left[0] <= 0 for g in left[1:tags]):
                return {i for i in range(k) if left[i + 1]}
        return None

    return grow(0, [], [1] + [0] * k + list(target))


# -- tangent spaces and sampling -----------------------------------------------


def tangent_dim(w: WeightMatrix, p: PairPoint) -> int:
    """Dimension of the kernel of the moment map's differential at p.

    The Jacobian has rows indexed by the torus directions; column i is
    S[i][j] * phi_i, column n+i is S[i][j] * x_i.  Columns whose factor is
    0 vanish and are dropped; the others are scaled by the positive
    denominator of their factor (rank is unchanged), i.e. built from its
    numerator, and eliminated by ``_rank_crossmul``.  The columns are
    taken in index order, column i before column n+i, a numerator 1
    reusing row i itself, and ranked through a one-entry memo: every
    smooth witness of a matrix has exactly one of x_i, phi_i nonzero, and
    that one 1, so its Jacobian columns are the rows of S in order.
    """
    if any(moment_eval(w, p)):
        raise InputError("point is not in the zero fiber")
    cols = []
    for row, phi, x in zip(w.matrix.entries, p.phi, p.x):
        a, b = phi.numerator, x.numerator
        if a:
            cols.append(row if a == 1 else tuple([s * a for s in row]))
        if b:
            cols.append(row if b == 1 else tuple([s * b for s in row]))
    return 2 * w.n - _rank_columns(tuple(cols))


@functools.lru_cache(maxsize=1)
def _rank_columns(cols: tuple[tuple[int, ...], ...]) -> int:
    """``_rank_crossmul`` of the columns, memoized for the last Jacobian
    only: consecutive smooth witnesses of one matrix share it."""
    return _rank_crossmul(cols)


def random_fiber_point(
    w: WeightMatrix, subset: Iterable[int], seed: int
) -> PairPoint:
    """A reproducible fiber point whose x-support is exactly ``subset``.

    x gets random small nonzero integers on the subset; phi is a random
    integer combination of an exact basis of the annihilator of the orbit
    tangent space at x, so the moment map vanishes by construction.
    ``WeightMatrix.index_set`` checks every index of the subset first.
    """
    rng = random.Random(seed)
    x = [0] * w.n
    for i in sorted(w.index_set(subset)):
        while not x[i - 1]:
            x[i - 1] = rng.randint(-4, 4)
    # Direction j moves coordinate i by S[i][j] * x_i, so phi annihilates
    # the tangent space iff it is a relation among the scaled weights.
    scaled = [[xi * s for s in row] for xi, row in zip(x, w.matrix.entries)]
    phi = [Fraction(0)] * w.n
    for rel in _dependencies(scaled):
        c = rng.randint(-3, 3)
        own = next(t for t in reversed(rel) if t)  # the entry at its own index
        for i, t in enumerate(rel):
            phi[i] += Fraction(c * t, own)
    point = PairPoint.of(x, phi)
    if any(v != 0 for v in moment_eval(w, point)):  # pragma: no cover
        raise ArithmeticError("sampled point left the fiber")
    return point


# -- Vinberg block-dimension oracle --------------------------------------------


def vinberg_delta_blocks(inp) -> Fraction:
    """Graded-dimension difference from the block model directly:
    (sum_j k_j k_{j+1} - sum_j k_j^2 + corrections) / 2, with the +1
    replacing the corrections in the inner type-A case: g_1 is the sum of
    the Hom(V_j, V_{j+1}) and g_0 the traceless part of the sum of the
    gl(V_j).  For m0 = 1 both are sl(V_0), and the +1 is 0.  In the outer
    type-A case the blocks fill gl(V); its scalars, negated by an
    automorphism of order 2 (m0 = 1), are taken off g_1."""
    k = inp.k
    m0 = inp.m0
    cross = sum(k[j] * k[(j + 1) % m0] for j in range(m0))
    squares = sum(v * v for v in k)
    if inp.case == 1:
        return Fraction(cross - squares + (1 if m0 > 1 else 0))
    eps1, epsm1 = inp.eps
    eta1, etam1 = inp.eta
    corr = eps1 * eta1 * k[0] + epsm1 * etam1 * k[inp.minus_one_index()]
    scalars_in_g1 = inp.case == 4 and m0 == 1
    return Fraction(cross - squares + corr, 2) - (1 if scalars_in_g1 else 0)
