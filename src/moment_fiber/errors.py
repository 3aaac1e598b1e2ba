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

Every value the package returns or takes as a certificate (a weight
matrix, a pair point, a hull answer, a block, an analysis, a Kac diagram,
a CLI report) is a frozen record made by the class decorator ``record``.
It reads the class's own annotations, in order, as the fields, and gives
the class:

* an ``__init__`` taking the fields positionally or by keyword, with a
  class attribute as the field's default, that calls ``__post_init__``
  when the class defines one;
* ``__eq__`` (``NotImplemented`` for another class), ``__hash__`` of the
  field tuple, and the ``Name(field=value, ...)`` repr;
* an ``AttributeError`` for every assignment or deletion;
* the field names as ``_fields``, which is also ``__match_args__``.

Only ``__init__`` is generated, by one ``exec`` per class: it runs for
every record made, and a generated body sets each field with
``object.__setattr__``, past the refusing ``__setattr__``.  Storing into
``self.__dict__`` instead builds a record faster, but on CPython 3.11
reading ``__dict__`` turns the instance's inline attribute values into a
dict for good, and every later attribute read of that record is slower;
records are read far more often than they are made, so ``selftest`` ran
slower with it.  A ``__post_init__`` that normalizes a field, or keeps a
value derived from the fields, sets it the same way; such a value is not
a field, so ``==``, ``hash`` and the repr ignore it.  The
other methods are shared and read the fields by name, so each call costs
a few hundred nanoseconds more; under cProfile, no operation of any
benchmark workload calls one.  ``dataclasses`` is not used: with
``frozen=True`` it runs one ``exec`` per method, up to six per class,
which took about 10 of the 13 ms that importing the package took with a
bytecode cache (Python 3.11), and importing it also imports ``inspect``,
``ast`` and ``dis``.  A record is not a dataclass, so ``dataclasses.fields``
and ``asdict`` do not apply to it; ``_fields`` lists the field names.
"""

from typing import Iterable, TypeVar

R = TypeVar("R", bound=type)


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


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other: object) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
    return f"{self.__class__.__qualname__}({fields})"


def _refuse_set(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_del(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: R) -> R:
    """``cls`` made a frozen record (see the module docstring).  A field
    with a default comes after every field without one, or the generated
    ``__init__`` is a SyntaxError."""
    attrs = cls.__dict__
    names = tuple(attrs.get("__annotations__", {}))
    params = [f"{n}=_attrs[{n!r}]" if n in attrs else n for n in names]
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if "__post_init__" in attrs:
        body.append("self.__post_init__()")
    code = f"def __init__({', '.join(['self', *params])}): {'; '.join(body) or 'pass'}"
    namespace = {"_set": object.__setattr__, "_attrs": attrs}
    exec(code, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__, cls._fields, cls.__match_args__ = init, names, names
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    return cls
