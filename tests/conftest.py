"""Shared fixtures: the seeded endomorphism corpus and its cached analyses.

The corpus spans p in {2, 3, 5} and n in {1, 2} with a fixed seed, so every
test run sees the same 104 endomorphisms.  Reports and gamma solutions are
computed once per session; several suites iterate the same data.
"""

from __future__ import annotations

import pytest

from weylift import diffeq
from weylift.endo import Endo, generate_corpus
from weylift.scalars import FieldParams
from weylift.weyl import AlgebraParams

CORPUS_SEED = 20260823
CORPUS_SIZES = {
    (2, 1): 20,
    (2, 2): 16,
    (3, 1): 20,
    (3, 2): 16,
    (5, 1): 20,
    (5, 2): 12,
}


@pytest.fixture(scope="session")
def corpus() -> list[Endo]:
    out = []
    for (p, n), count in CORPUS_SIZES.items():
        alg = AlgebraParams(n, FieldParams(p))
        out.extend(generate_corpus(alg, count, CORPUS_SEED))
    return out


@pytest.fixture(scope="session")
def corpus_reports(corpus):
    return [(e, e.analyze()) for e in corpus]


@pytest.fixture(scope="session")
def corpus_gamma(corpus):
    return [(e, diffeq.gamma_solution(e)) for e in corpus]


@pytest.fixture(scope="session")
def f2():
    return FieldParams(2)


@pytest.fixture(scope="session")
def f3():
    return FieldParams(3)


@pytest.fixture(scope="session")
def f5():
    return FieldParams(5)


@pytest.fixture(scope="session")
def a1_f3(f3):
    return AlgebraParams(1, f3)


@pytest.fixture(scope="session")
def a2_f3(f3):
    return AlgebraParams(2, f3)
