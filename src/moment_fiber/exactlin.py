"""Exact linear algebra over Q on integer rows, in integers only.

Ranks, kernels and pivot columns all come from one routine, ``echelon``:
fraction-free Gauss-Jordan elimination whose step, ``pivot``, is the
update rule of Bareiss (1968); the simplex in ``polytope`` runs on the
same step.  Every routine takes plain integer rows, indexed from 0, and
returns integers: the reduced row-echelon form over Q is the integer
form over its common denominator, and a kernel vector is an integer
circuit.  No ``Fraction`` is built here.
"""

from __future__ import annotations

from typing import Sequence

USING_COMPILED_KERNEL = False  # pure Python only; read by perfbench's meta line


def pivot(a: list[list[int]], k: int, c: int, prev: int) -> int:
    """Fraction-free Gauss-Jordan pivot of ``a`` on (k, c); returns a[k][c].

    Every row but k, also one with a 0 in column c, becomes (p * row -
    row[c] * a[k]) // prev.  If ``a / prev`` is a matrix over Q, ``a / p``
    is it after the pivot.  Each entry stays a minor of the integer input
    (Sylvester's identity; Bareiss 1968), so the division is exact.
    """
    row_p = a[k]
    p = row_p[c]
    for i, row in enumerate(a):
        if i == k:
            continue
        f = row[c]
        if f:
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, row_p)]
        elif p != prev:
            a[i] = [p * x // prev for x in row]
    return p


def echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, as wide as
    the first row (no rows: no columns, so no pivots and d = 1).

    Returns ``(a, pivots, d)``: the nonzero rows of the reduced form, their
    pivot columns, and the common denominator d.  Every pivot entry of
    ``a`` equals d and every other entry of a pivot column is 0, so
    ``a / d`` is the reduced row-echelon form over Q.

    Pivoting is deterministic: columns left to right, first nonzero row
    at or below the current rank, found by a plain loop, each step done by
    ``pivot``.  Entries never grow past the size of a minor of the input.
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
        prev = pivot(a, k, c, prev)
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return a[: len(pivots)], pivots, prev


def rank_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of integer rows: the number of pivots."""
    return len(echelon(rows)[1])


def kernel_basis(
    rows: Sequence[Sequence[int]], ncols: int
) -> list[tuple[int, ...]]:
    """Integer basis of the right kernel {v : M v = 0} of rows M.

    One vector per free column f of ``echelon``'s (a, d): |d| at f, 0 at
    the other free columns, -sign(d) * a[k][f] at the pivot of row k.  It
    is the echelon-normalized rational vector (1 at f) times |d|, so it is
    positive at f, the largest index of its support.  The basis size is
    ``ncols - rank``, and every vector satisfies M v = 0 exactly.  The
    free columns are read off ``range(ncols)`` in increasing order, each
    tested against the pivot list, whose length is at most the number of
    rows.  ``ncols`` is the width of M, which an M with no rows cannot
    give.
    """
    a, pivots, d = echelon(rows)
    sign = 1 if d > 0 else -1
    basis = []
    for f in [f for f in range(ncols) if f not in pivots]:
        v = [0] * ncols
        v[f] = abs(d)
        for row, p in zip(a, pivots):
            v[p] = -sign * row[f]
        basis.append(tuple(v))
    return basis
