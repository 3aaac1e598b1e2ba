"""Exception types shared across the package, and its one input-type rule.

Every integer the package takes as input (a weight, a row index, a hull
coordinate, a Kac label, rank or twist, a scan's minimum delta, a Vinberg
case, order, dimension or sign, a component cap, and selftest's seed,
count, sizes and job count) must be an int that is not a bool:
``is_int``.  A bool passes ``isinstance(x, int)`` and would silently
count as 0 or 1, and a float such as 2.0 compares and hashes equal to an
int but breaks ``range`` and exact arithmetic later.  A value outside
the rule is an ``InputError``.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad shapes, indices, lengths)."""


class CapabilityError(RuntimeError):
    """A request the library deliberately refuses: an operation whose
    precondition fails, such as a trivial action or an oracle size cap."""


def is_int(x: object) -> bool:
    """True for an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)
