"""Shared corpora for the randomized suites, and a hull search built from
the relative-interior query.

Everything is reproducible from the fixed seeds below; failure messages in
the suites echo the offending matrix so a case can be replayed directly.
"""

from __future__ import annotations

import random
from operator import mul

import pytest

from moment_fiber import polytope, selftest, torus
from moment_fiber.polytope import HullQuery, Inside, Outside

CORPUS_SEED = 20260810
CORPUS_SHAPE = (10, 6, 5)  # max n, max r, max |entry| of the random matrices

# Hand-picked degenerate shapes that random sampling hits rarely.
SPECIAL_ROWS = [
    [[0]],
    [[1]],
    [[1], [0]],
    [[1], [-1]],
    [[1], [1]],
    [[1], [1], [-2]],
    [[1, 0], [0, 1]],
    [[1, 0], [-1, 0], [0, 1]],
    [[2, 4]],
    [[1, 0], [-1, 0]],
    [[0], [0], [3]],
]


def build_corpus(count: int, seed: int = CORPUS_SEED) -> list[torus.WeightMatrix]:
    rng = random.Random(seed)
    corpus = [torus.WeightMatrix.from_rows(rows) for rows in SPECIAL_ROWS]
    while len(corpus) < count:
        corpus.append(selftest._random_weight_matrix(rng, *CORPUS_SHAPE))
    return corpus


@pytest.fixture(scope="session")
def corpus() -> list[torus.WeightMatrix]:
    return build_corpus(500)


@pytest.fixture(scope="session")
def small_corpus() -> list[torus.WeightMatrix]:
    return build_corpus(120)


def _hull_by_peeling(points) -> polytope.HullCertificate:
    """A hull-form certificate for 0 in the hull of the points, from
    relative-interior queries alone, each checked.

    Query the rows left.  An Inside of them, zero on the other rows, is a
    hull-form Inside of all the points.  An Outside(lam) keeps the rows
    with lam.p = 0, the only ones a convex combination at 0 can use, and
    the loop queries again.  Once no row is left, the functionals are
    summed from the last to the first, each scaled to outweigh the sum of
    the later ones on the rows it pairs positively: the sum pairs
    positively with every point."""
    rows = list(range(len(points)))
    peeled = []
    while rows:
        q = HullQuery.of([points[i] for i in rows])
        cert = polytope.zero_in_relative_interior(q)
        assert polytope.verify_certificate(q, cert, relative_interior=True)
        if isinstance(cert, Inside):
            coefficients = dict(zip(rows, cert.coefficients))
            return Inside(tuple(coefficients.get(i, 0) for i in range(len(points))))
        peeled.append((cert.functional, rows))
        rows = [i for i in rows if not sum(map(mul, cert.functional, points[i]))]
    total = [0] * len(points[0])
    for functional, kept in reversed(peeled):
        pairings = [
            (sum(map(mul, functional, points[i])), sum(map(mul, total, points[i])))
            for i in kept
        ]
        # scale * own + later > 0 wherever own > 0
        scale = max(1 - later // own for own, later in pairings if own > 0)
        total = [scale * f + t for f, t in zip(functional, total)]
    return Outside(tuple(total))


@pytest.fixture(scope="session")
def hull_by_peeling():
    return _hull_by_peeling
