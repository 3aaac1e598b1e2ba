"""Randomized oracle-vs-fast-path suites, run by ``moment-fiber selftest``."""

from __future__ import annotations

import os
import random
from typing import Iterator

from . import oracle, torus
from .errors import InputError, is_int


def _random_weight_matrix(
    rng: random.Random, max_n: int, max_r: int, max_entry: int
) -> torus.WeightMatrix:
    n = rng.randint(1, max_n)
    r = rng.randint(1, max_r)
    rows = [
        [rng.randint(-max_entry, max_entry) for _ in range(r)] for _ in range(n)
    ]
    if rng.random() < 0.15:  # force a zero row: degenerate strata matter
        rows[rng.randrange(n)] = [0] * r
    if n >= 2 and rng.random() < 0.15:  # force a duplicate row
        rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
    return torus.WeightMatrix.from_rows(rows)


def _cases(
    seed: int, count: int, max_n: int, max_r: int, max_entry: int
) -> Iterator[tuple[int, torus.WeightMatrix]]:
    """The run's ``count`` cases ``(seed, w)``, in order: weight matrices
    drawn from one ``random.Random(seed)``.  No check reads the generator,
    so the cases depend on these arguments only, never on how many
    processes check them."""
    rng = random.Random(seed)
    for _ in range(count):
        yield seed, _random_weight_matrix(rng, max_n, max_r, max_entry)


def _components(w: torus.WeightMatrix, a: torus.Analysis) -> Iterator[str]:
    """Suite, n <= 12: the components from I_d and I_f against the
    oracle's subset walk, as a set and by count."""
    if w.n <= 12:
        comps, brute = a.components(), oracle.brute_components(w)
        if set(comps) != set(brute):
            yield "component mismatch"
        if len(comps) != len(brute):
            yield "component count"


def _visibility(w: torus.WeightMatrix, a: torus.Analysis) -> Iterator[str]:
    """Suite, n <= 7: the visibility verdict against the oracle's
    exhaustive partition search, and a visible decomposition against the
    oracle's check."""
    if w.n <= 7:
        visible = isinstance(a.visibility, torus.VisibleDecomposition)
        if visible != (oracle.brute_visible(w) is not None):
            yield "visibility verdict mismatch"
        elif visible and oracle.check_decomposition(w, a.visibility) is not None:
            yield "decomposition verification"


def _smooth_witnesses(w: torus.WeightMatrix, a: torus.Analysis) -> Iterator[str]:
    """Suite, n <= 6 and locally free: the smooth witness of every subset
    lies on the fiber, with a trivial stabilizer and the tangent dimension
    of the fiber."""
    if w.n <= 6 and a.rank == w.r:
        for mask in range(1 << w.n):
            subset = {i + 1 for i in range(w.n) if mask >> i & 1}
            p = a.smooth_witness(subset)
            try:  # the oracle evaluates the moment map at p first
                tangent = oracle.tangent_dim(w, p)
            except InputError:
                yield "smooth witness off fiber"
                continue
            if a.stabilizer_dim(p) != 0:
                yield "smooth witness stabilizer"
            elif tangent != a.fiber_dimension:
                yield "smooth witness tangent dimension"


def _stability(w: torus.WeightMatrix, a: torus.Analysis) -> Iterator[str]:
    """Suite, n <= 6: the stability verdict against the oracle's cone
    search on the same rows.  A stability certificate that fails the
    simplex's own check (an ArithmeticError) is the failure
    ``certificate check`` of the matrix."""
    if w.n <= 6:
        try:
            stable = torus.is_stable(w)[0]
        except ArithmeticError:
            yield "certificate check"
            return
        if stable != oracle.brute_zero_in_relative_interior(w.matrix.entries):
            yield "stability"


# The matrix suites, in the order their failures are reported.  Each one
# takes a case's weight matrix and its Analysis, opens with its own size
# guard, and yields one failure kind per mismatch.
_SUITES = (_components, _visibility, _smooth_witnesses, _stability)


def _check_case(case: tuple[int, torus.WeightMatrix]) -> list[str]:
    """The suites of ``_SUITES`` in order, on one case from ``_cases``.
    Returns one line per failure, ``"<kind>: seed=<seed> weights=<rows>"``.
    An analysis that fails its own certificate check (an ArithmeticError)
    is the one failure ``certificate check`` of the matrix, whose suites
    it would feed."""
    seed, w = case
    try:
        a = torus.Analysis.of(w)  # one elimination feeds every suite
    except ArithmeticError:
        failures = ["certificate check"]
    else:
        failures = [kind for suite in _SUITES for kind in suite(w, a)]
    if failures:  # the matrix is written out only when it fails
        weights = f"seed={seed} weights={[list(r) for r in w.matrix.entries]}"
        failures = [f"{kind}: {weights}" for kind in failures]
    return failures


def _worker_count(jobs: int) -> int:
    """A requested worker count clamped to 1..os.cpu_count()."""
    return max(1, min(jobs, os.cpu_count() or 1))


# Cases per task sent to a worker: enough to amortize the pickling, few
# enough that the workers finish close together.
_CASES_PER_TASK = 16


def run_selftest(
    seed: int = 0,
    count: int = 100,
    max_n: int = 8,
    max_r: int = 5,
    max_entry: int = 5,
    jobs: int = 1,
) -> tuple[bool, list[str]]:
    """Oracle-vs-fast-path randomized suites; returns (ok, messages).

    ``_check_case`` checks the ``count`` cases of ``_cases`` in order, in
    this process or, when ``_worker_count(min(jobs, count))`` is above 1,
    on that many worker processes.  ``jobs`` sets only how fast the run
    goes: the messages depend on the other arguments alone, and every
    failure names the seed that replays it.  InputError unless every
    argument is an int, with count, jobs, max_n and max_r >= 1 and
    max_entry >= 0."""
    sizes = (count, jobs, max_n, max_r)
    ints = all(map(is_int, (seed, max_entry, *sizes)))
    if not ints or min(sizes) < 1 or max_entry < 0:
        raise InputError(
            "selftest needs integer arguments with count, jobs, max_n and"
            " max_r >= 1 and max_entry >= 0"
        )
    cases = _cases(seed, count, max_n, max_r, max_entry)
    processes = _worker_count(min(jobs, count))
    if processes == 1:
        failures = [msg for found in map(_check_case, cases) for msg in found]
    else:
        import multiprocessing  # only here: it costs about 1 MB to import
        with multiprocessing.Pool(processes=processes) as pool:
            found_per_case = pool.imap(_check_case, cases, _CASES_PER_TASK)
            failures = [msg for found in found_per_case for msg in found]
    lines = [
        f"selftest: {count} matrices"
        f" (seed={seed}, n<={max_n}, r<={max_r}, |entry|<={max_entry})",
    ]
    if failures:
        lines.append(f"FAIL: {len(failures)} mismatches")
        lines.extend(failures[:20])
    else:
        lines.append("PASS: fast paths agree with brute-force oracles")
    return not failures, lines
