"""The input readers of ``errors`` and the entry points that use them."""

from __future__ import annotations

import pytest

from moment_fiber import oracle, theta, torus
from moment_fiber.errors import InputError, int_rows, read_tuple
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
        (theta.VinbergClassicalInput, (1, 1, 5)),
        (lambda: theta.VinbergClassicalInput(2, 2, (1, 1), eta=5), ()),
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
