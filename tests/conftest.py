"""Shared corpora for the randomized suites.

Everything is reproducible from the fixed seeds below; failure messages in
the suites echo the offending matrix so a case can be replayed directly.
"""

from __future__ import annotations

import random

import pytest

from moment_fiber import selftest, torus

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
