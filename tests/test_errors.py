"""The input readers of ``errors``, the entry points that use them, and
the frozen records that ``errors.record`` makes."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from moment_fiber import cli, oracle, polytope, theta, torus
from moment_fiber.errors import InputError, int_rows, read_tuple, record
from moment_fiber.polytope import HullQuery

W = torus.WeightMatrix.from_rows([[1], [-1]])


@pytest.mark.parametrize(
    "call, args",
    [
        (torus.WeightMatrix.from_rows, (5,)),
        (torus.WeightMatrix.from_rows, ([5],)),
        (HullQuery.of, ([5],)),
        (HullQuery.of, (None,)),
        (torus.PairPoint.of, (5, [1])),
        (oracle.brute_zero_in_hull, ([5],)),
        (oracle.brute_zero_in_relative_interior, (None,)),
        (W.index_set, (5,)),
        (theta.KacDiagram.of, ("A", 2, 5)),
        (theta.VinbergClassicalInput, (1, 5)),
        (lambda: theta.VinbergClassicalInput(2, (1, 1), eta=5), ()),
    ],
    ids=[
        "from_rows-int",
        "from_rows-int-row",
        "hull-int-point",
        "hull-none",
        "pair-point-int-x",
        "brute-hull-int-point",
        "brute-interior-none",
        "index-set-int",
        "kac-labels-int",
        "vinberg-k-int",
        "vinberg-eta-int",
    ],
)
def test_non_iterable_input_is_an_input_error(call, args):
    # Each of these used to end in "TypeError: 'int' object is not
    # iterable" (or 'NoneType'); the readers name the input instead.
    with pytest.raises(InputError, match="is not iterable"):
        call(*args)


@pytest.mark.parametrize("value", [[[1], [-1]], 5, None], ids=["rows", "int", "none"])
def test_weight_matrix_constructor_takes_only_an_int_matrix(value):
    # Bare rows go through from_rows; the constructor used to end in
    # "AttributeError: ... has no attribute 'entries'".
    with pytest.raises(InputError, match=r"WeightMatrix\.from_rows"):
        torus.WeightMatrix(value)


class TestReadTuple:
    def test_non_iterable_names_the_input(self):
        with pytest.raises(InputError) as exc:
            read_tuple(3, "labels")
        assert str(exc.value) == "labels is not iterable (int)"

    def test_generator_is_read_once(self):
        reads = []

        def gen():
            for v in (1, 2, 3):
                reads.append(v)
                yield v

        assert read_tuple(gen(), "x") == (1, 2, 3)
        assert reads == [1, 2, 3]

    def test_tuple_is_returned_as_it_is(self):
        t = (1, 2)
        assert read_tuple(t, "x") is t

    def test_type_error_while_iterating_is_not_relabeled(self):
        def gen():
            yield 1
            raise TypeError("a fault of the iterable itself")

        with pytest.raises(TypeError, match="the iterable itself"):
            read_tuple(gen(), "x")


class TestIntRows:
    def test_reads_any_iterables_into_tuples(self):
        rows = (iter([i, -i]) for i in range(3))
        assert int_rows(rows, "m") == ((0, 0), (1, -1), (2, -2))

    @pytest.mark.parametrize("rows", [5, None, [[1], 2]])
    def test_non_iterable_rejected(self, rows):
        with pytest.raises(InputError, match="is not iterable"):
            int_rows(rows, "m")

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[], [1]], [[1], [2, 3]]])
    def test_ragged_rejected(self, rows):
        with pytest.raises(InputError) as exc:
            int_rows(rows, "m")
        assert str(exc.value) == "m is not rectangular: mismatched dimensions"

    @pytest.mark.parametrize("entry", [True, False, 1.0, "1", None])
    def test_non_int_entry_rejected(self, entry):
        with pytest.raises(InputError) as exc:
            int_rows([[1, 0], [0, entry]], "m")
        assert str(exc.value) == f"m entry {entry!r} is not integral"

    def test_empty_table_is_the_callers_rule(self):
        assert int_rows([], "m") == ()
        assert int_rows([()], "m") == ((),)

    def test_weight_matrix_keeps_tuples(self):
        # The one read: WeightMatrix holds the tuples int_rows returns,
        # however the rows came in.
        w = torus.WeightMatrix.from_rows(iter([[1, 0], (0, 1)]))
        assert w.matrix.entries == ((1, 0), (0, 1))
        assert all(type(row) is tuple for row in w.matrix.entries)


@pytest.mark.parametrize(
    "subset, bad",
    [([1, 3], "3"), ([True], "True"), ([0, True], "0"), ([2, [1]], "[1]")],
    ids=["out-of-range", "bool", "first-bad-first", "unhashable"],
)
def test_bad_index_is_named_in_order(subset, bad):
    # Each index is checked in order, before it is hashed.
    with pytest.raises(InputError) as exc:
        W.index_set(subset)
    assert str(exc.value) == f"row index {bad} is not an integer in 1..2"


POINT = torus.PairPoint((1, 0, 1), (0, Fraction(1, 2), 0))
BLOCK = torus.Block(frozenset({1, 2}), (1, 1))
KAC = theta.KacDiagram.all_ones("A", 2)
NOT_VISIBLE = torus.WeightMatrix.from_rows([[1], [1], [-2]])
RECORDS = [
    torus.IntMatrix(((1,), (-1,))),
    W,
    POINT,
    BLOCK,
    torus.VisibleDecomposition(frozenset({3}), (BLOCK,)),
    torus.NotClosed((1,), POINT),
    torus.ClosedPairWitness((1, 1, -2)),
    torus.Analysis.of(NOT_VISIBLE),
    HullQuery.of([[1], [-1]]),
    polytope.Inside((1, 1)),
    polytope.Outside((1,)),
    KAC,
    theta.GradedDims((2, 3, 3)),
    theta.ScanHit(KAC, 1),
    theta.VinbergClassicalInput(2, (1, 1), (1, 1)),
    cli.analyze(NOT_VISIBLE),
]


def test_every_record_class_has_a_case():
    found = {
        c
        for m in (torus, polytope, theta, cli)
        for c in vars(m).values()
        if isinstance(c, type) and c.__module__ == m.__name__ and "_fields" in vars(c)
    }
    assert found == {type(r) for r in RECORDS} and len(found) == 16


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__qualname__)
def test_records_behave_as_frozen_dataclasses(rec):
    # ``old`` holds the same values in a frozen dataclass of the same
    # name: what the records were before ``errors.record``.
    cls = type(rec)
    values = tuple(getattr(rec, name) for name in cls._fields)
    old = dataclasses.make_dataclass(cls.__qualname__, cls._fields, frozen=True)(*values)
    assert cls.__match_args__ == cls._fields
    assert rec == cls(*values) == cls(**dict(zip(cls._fields, values)))
    fields = {"__annotations__": dict.fromkeys(cls._fields)}
    other = record(type(cls.__qualname__, (), fields))(*values)
    assert rec != other and not rec == other
    assert cls.__eq__(rec, other) is NotImplemented
    assert repr(rec) == repr(old)
    try:
        expected = hash(values)
    except TypeError:  # AnalysisReport's fields are dicts and lists
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == expected == hash(old)
    name = cls._fields[0] if cls._fields else "x"
    for change in (lambda r: setattr(r, name, None), lambda r: delattr(r, name)):
        with pytest.raises(AttributeError) as exc:
            change(rec)
        with pytest.raises(AttributeError) as old_exc:
            change(old)
        assert str(exc.value) == str(old_exc.value)
    assert [getattr(rec, n) for n in cls._fields] == list(values)
    restored = pickle.loads(pickle.dumps(rec))
    assert type(restored) is cls and restored == rec


def test_weight_matrix_sizes_are_attributes_not_fields():
    # n and r are set once in __post_init__; the rows alone are the
    # record's value.  selftest --jobs ships each case's matrix to a
    # worker by pickle, which keeps the sizes.
    w = torus.WeightMatrix.from_rows([[1, 0, 2], [-1, 3, 0]])
    assert torus.WeightMatrix._fields == ("matrix",)
    assert (w.n, w.r) == (2, 3)
    assert w == torus.WeightMatrix.from_rows(((1, 0, 2), (-1, 3, 0)))
    assert w != torus.WeightMatrix.from_rows([[1, 0, 2]])
    assert hash(w) == hash((w.matrix,))
    assert repr(w) == (
        "WeightMatrix(matrix=IntMatrix(entries=((1, 0, 2), (-1, 3, 0))))"
    )
    restored = pickle.loads(pickle.dumps(w))
    assert restored == w and (restored.n, restored.r) == (2, 3)
    for name in ("n", "r"):
        with pytest.raises(AttributeError):
            setattr(w, name, 5)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: torus.WeightMatrix(torus.IntMatrix([])), "n >= 1 rows"),
        (lambda: theta.KacDiagram("A", 2, 1, (0, 0, 0)), "at least one label"),
        (lambda: theta.VinbergClassicalInput(1, ()), "at least one"),
    ],
    ids=["weight-matrix", "kac-diagram", "vinberg"],
)
def test_records_validate_in_post_init(make, message):
    with pytest.raises(InputError, match=message):
        make()


def test_record_defaults():
    v = theta.VinbergClassicalInput(1, (1, 2))
    assert v.eta is None and v == theta.VinbergClassicalInput(1, (1, 2), eta=None)

    class Misordered:
        a: int = 0
        b: int

    with pytest.raises(SyntaxError):
        record(Misordered)


def test_the_library_imports_no_dataclasses():
    # dataclasses would also import inspect, ast and dis into every CLI
    # process.
    code = "import sys, moment_fiber, moment_fiber.cli; print('dataclasses' in sys.modules)"
    src = os.path.dirname(os.path.dirname(torus.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    ).stdout
    assert out.split() == ["False"]
