"""Exact linear algebra over Q on integer rows, in integers only.

Ranks, pivot columns and kernels all come from one fraction-free forward
elimination, ``echelon``, whose step, ``pivot``, is the update rule of
Bareiss (1968); the simplex in ``polytope`` runs on the same step.  A
column of the reduced row-echelon form is back-substituted only when a
caller reads it (``back_substitute``), so ``circuits`` builds each kernel
circuit lazily.  Every routine takes plain integer rows, indexed from 0,
and returns integers: the reduced form over Q is the integer form over
its common denominator, and a kernel vector is an integer circuit.  No
``Fraction`` is built here.
"""

from __future__ import annotations

from typing import Iterator, Sequence

USING_COMPILED_KERNEL = False  # pure Python only; read by perfbench's meta line


def pivot(a: list[list[int]], k: int, c: int, prev: int) -> int:
    """Fraction-free Gauss-Jordan pivot of ``a`` on (k, c); returns a[k][c].

    Every row but k, also one with a 0 in column c, becomes (p * row -
    row[c] * a[k]) // prev.  If ``a / prev`` is a matrix over Q, ``a / p``
    is it after the pivot.  Each entry stays a minor of the integer input
    (Sylvester's identity; Bareiss 1968), so the division is exact, and
    it is skipped when prev is 1, as on the first step.
    """
    row_p = a[k]
    p = row_p[c]
    for i, row in enumerate(a):
        if i == k:
            continue
        f = row[c]
        if f and prev == 1:
            a[i] = [p * x - f * y for x, y in zip(row, row_p)]
        elif f:
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, row_p)]
        elif prev == 1 != p:
            a[i] = [p * x for x in row]
        elif p != prev:
            a[i] = [p * x // prev for x in row]
    return p


def echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free forward elimination of integer rows, as wide as the
    first row (no rows: no columns, so no pivots and d = 1).

    Returns ``(a, pivots, d)``: the nonzero rows of a row-echelon form,
    each 0 left of its pivot, their pivot columns, and d, the last pivot
    entry.  d is the basis minor up to sign, the common denominator of
    the reduced form, whose columns ``back_substitute`` reads.

    Pivoting is deterministic: columns left to right, first nonzero row
    at or below the current rank, found by a plain loop, each step done by
    ``pivot`` on the rows from the pivot row down.  Entries never grow
    past the size of a minor of the input.
    """
    a = list(map(list, rows))
    nrows = len(a)
    pivots: list[int] = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        k = len(pivots)
        for piv in range(k, nrows):
            if a[piv][c]:
                break
        else:
            continue
        a[k], a[piv] = a[piv], a[k]
        tail = a[k:]
        prev = pivot(tail, 0, c, prev)
        a[k:] = tail
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return a[: len(pivots)], pivots, prev


def back_substitute(
    a: list[list[int]], pivots: list[int], d: int, f: int
) -> list[int]:
    """Column f of d times the reduced row-echelon form, one entry per
    pivot, from ``echelon``'s ``(a, pivots, d)``: d B^-1 A_f, B the pivot
    columns.  Row k gives a[k][p_k] x_k = d a[k][f] - sum_{j > k}
    a[k][p_j] x_j, solved from the last row up; every x_k is an integer
    (Cramer's rule), so each division is exact.
    """
    x = [0] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        row = a[k]
        t = d * row[f]
        for j in range(k + 1, len(pivots)):
            t -= row[pivots[j]] * x[j]
        x[k] = t // row[pivots[k]]
    return x


def rank_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of integer rows: the number of pivots."""
    return len(echelon(rows)[1])


def circuits(rows: Sequence[Sequence[int]], ncols: int) -> Iterator[tuple[int, ...]]:
    """The integer basis of the right kernel {v : M v = 0} of rows M, one
    vector per free column f of ``echelon``, in increasing f, each built
    only when it is read.

    The vector for f is |d| at f, 0 at the other free columns, and
    -sign(d) x_k at pivot k, x = ``back_substitute(a, pivots, d, f)``.  It
    is the echelon-normalized rational vector (1 at f) times |d|, so it is
    positive at f, the largest index of its support: the fundamental
    circuit of f over the pivot columns.  There are ``ncols - rank`` of
    them, and each satisfies M v = 0 exactly.  ``ncols`` is the width of
    M, which an M with no rows cannot give.
    """
    a, pivots, d = echelon(rows)
    sign = 1 if d > 0 else -1
    for f in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[f] = abs(d)
        for p, x in zip(pivots, back_substitute(a, pivots, d, f)):
            v[p] = -sign * x
        yield tuple(v)


def kernel_basis(
    rows: Sequence[Sequence[int]], ncols: int
) -> list[tuple[int, ...]]:
    """Every circuit of ``circuits(rows, ncols)``, in its order."""
    return list(circuits(rows, ncols))
