"""Host speed probe, used to scale measured times to a reference speed.

On a shared host the same pass can take up to twice as long when other
tenants load the machine, in phases that switch within a second and last
up to minutes, so the raw time of a run depends more on when it ran than
on the code.  The probe is a small fixed piece of pure-Python work of the
kind the library does (exact Fraction elimination, integer Bareiss steps,
tuple-keyed dict lookups), written here so that no change to the library
can change it.

While a ``Sampler`` is active, a timer signal runs the probe every
``INTERVAL_S`` of wall time, also in the middle of a long op, so each
stretch of work can be scaled by the speed the host had while it ran:
``scale`` turns a measured time into the time it would take on a host
where the probe takes ``REFERENCE_S``.  The time spent in the probe is
kept in ``Sampler.busy`` so callers can take it out of what they measure.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Typical probe time on the host this benchmark was tuned on (a 2-vCPU VM,
# CPython 3.11) in its fast phases.  It only sets the unit: scaled times
# read as seconds on a host of that speed.
REFERENCE_S = 1.6e-4
INTERVAL_S = 0.01

_MATRIX = [
    [3, -1, 4, 1, -5],
    [-2, 6, -5, 3, 5],
    [4, 2, -3, -4, 1],
]


def _work() -> int:
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    ints = [list(row) for row in _MATRIX]
    prev = 1
    for k in range(len(ints) - 1):
        for i in range(k + 1, len(ints)):
            for j in range(k + 1, len(ints[0])):
                ints[i][j] = (ints[i][j] * ints[k][k] - ints[i][k] * ints[k][j]) // prev
        prev = ints[k][k] or 1
    key = tuple(map(tuple, _MATRIX))
    seen = {}
    for mask in range(16):
        seen[key, mask] = seen.get((key, mask - 1), 0) + rank
    return len(seen)


def probe() -> float:
    """Seconds the probe work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Sampler:
    """Runs the probe every ``INTERVAL_S`` of wall time while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0

    def _tick(self, signum, frame) -> None:
        took = probe()
        self.samples.append(took)
        self.busy += took

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(seconds: float, probes: list[float]) -> float:
    """``seconds`` of work done while the probe took ``probes``, at the
    reference speed."""
    return seconds * REFERENCE_S / statistics.fmean(probes)
