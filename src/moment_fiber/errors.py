"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad shapes, indices, lengths)."""


class CapabilityError(RuntimeError):
    """A request the library deliberately refuses: an operation whose
    precondition fails, such as a trivial action or an oracle size cap."""

