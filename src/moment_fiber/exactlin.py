"""Exact rational linear algebra on integer matrices.

Ranks, kernels and pivot columns all come from one routine, ``echelon``:
fraction-free Gauss-Jordan elimination whose step, ``pivot``, is the
update rule of Bareiss (1968); the simplex in ``polytope`` runs on the
same step.  Entries stay integers, and the reduced row-echelon form
over Q is read off at the end by one division by a common denominator.

Every routine takes plain integer rows.  The only 1-based row index is
``IntMatrix.row``, after the package's convention that weight rows are
numbered 1..n; ``IntMatrix`` itself only checks weight-matrix input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError

RatVector = tuple[Fraction, ...]

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


def echelon(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns ``(a, pivots, d)``: the nonzero rows of the reduced form, their
    pivot columns, and the common denominator d.  Every pivot entry of
    ``a`` equals d and every other entry of a pivot column is 0, so
    ``a / d`` is the reduced row-echelon form over Q.

    Pivoting is deterministic: columns left to right, first nonzero row
    at or below the current rank, each step done by ``pivot``.  Entries
    never grow past the size of a minor of the input.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        k = len(pivots)
        piv = next((i for i in range(k, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[k], a[piv] = a[piv], a[k]
        prev = pivot(a, k, c, prev)
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return a[: len(pivots)], pivots, prev


def rank_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of integer rows: the number of pivots."""
    return len(echelon(rows, len(rows[0]) if rows else 0)[1])


@dataclass(frozen=True)
class IntMatrix:
    """Rectangular exact integer rows: the checked ``WeightMatrix`` input."""

    entries: tuple[tuple[int, ...], ...]
    cols: int

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != self.cols:
                raise InputError("matrix is not rectangular")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(f"non-integer entry {x!r}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[int, ...]:
        """Row number i (1-based)."""
        if not 1 <= i <= self.rows:
            raise InputError(f"row index {i} out of range 1..{self.rows}")
        return self.entries[i - 1]


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[RatVector]:
    """Basis of the right kernel {v : M v = 0} of rows M, echelon-normalized.

    One vector per free column f: 1 at f, 0 at the other free columns, and
    minus the reduced row-echelon entries in column f at the pivots.  The
    basis size is always ``ncols - rank``, every vector satisfies M v = 0
    exactly, and the output is deterministic.
    """
    a, pivots, d = echelon(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(a, pivots):
            v[p] = Fraction(-row[f], d)
        basis.append(tuple(v))
    return basis


def clear_denominators(v: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational vector by the positive lcm of denominators."""
    scale = math.lcm(*(x.denominator for x in v)) if v else 1
    return tuple(x.numerator * (scale // x.denominator) for x in v)
