"""Exception types shared across the package, its one input-type rule, and
its two readers of input sequences.

Every integer the package takes as input (a weight, a row index, a hull
coordinate, a Kac label, rank or twist, a scan's minimum delta, a Vinberg
case, order, dimension or sign, a component cap, and selftest's seed,
count, sizes and job count) must be an int that is not a bool:
``is_int``.  A bool passes ``isinstance(x, int)`` and would silently
count as 0 or 1, and a float such as 2.0 compares and hashes equal to an
int but breaks ``range`` and exact arithmetic later.  A value outside
the rule is an ``InputError``.

Every sequence the package takes is read once, by one of two readers, so
that a value that is not iterable is an ``InputError`` too:

* ``read_tuple`` reads one flat sequence: a pair point's x and phi, an
  index set, Kac labels, and a Vinberg input's k and eta;
* ``int_rows`` reads a table of integer rows, rectangular with ``is_int``
  entries: a weight matrix, and the points of a hull query, fast or brute
  force.
"""

from typing import Iterable


class InputError(ValueError):
    """Malformed or out-of-contract input (bad shapes, indices, lengths)."""


class CapabilityError(RuntimeError):
    """A request the library deliberately refuses: an operation whose
    precondition fails, such as a trivial action or an oracle size cap."""


def is_int(x: object) -> bool:
    """True for an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def read_tuple(values: Iterable, what: str) -> tuple:
    """``values`` read once into a tuple (a tuple is returned as it is);
    InputError naming ``what`` unless it is iterable.  A TypeError raised
    while iterating is the iterable's own and is not relabeled."""
    try:
        iter(values)
    except TypeError:
        raise InputError(f"{what} is not iterable ({type(values).__name__})") from None
    return tuple(values)


def int_rows(rows: Iterable[Iterable[int]], what: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` read once into a tuple of tuples, each by ``read_tuple``;
    InputError naming ``what`` unless they all have the length of the
    first and every entry passes ``is_int``.  The rows are checked in
    order, each for its length first; emptiness is the caller's rule."""
    table = tuple([read_tuple(row, f"{what} row") for row in read_tuple(rows, what)])
    for row in table:
        if len(row) != len(table[0]):
            raise InputError(f"{what} is not rectangular: mismatched dimensions")
        for x in row:
            if not is_int(x):
                raise InputError(f"{what} entry {x!r} is not integral")
    return table
