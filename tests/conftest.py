"""Shared test settings, fixtures and space strategies.

Property tests are deterministic and keep no example database.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from chainopt import FiniteMetricSpace, harness

settings.register_profile("chainopt", derandomize=True, database=None, deadline=None)
settings.load_profile("chainopt")


@pytest.fixture
def harness_cannot_allocate(monkeypatch):
    """Fail the test if the space generators touch numpy or itertools at all."""
    class Unreachable:
        def __getattr__(self, name):
            raise AssertionError(f"{name} used before the size check")

    monkeypatch.setattr(harness, "np", Unreachable())
    monkeypatch.setattr(harness, "itertools", Unreachable())


@st.composite
def tied_spaces(draw):
    """Small spaces with many equal distances: lattice clouds, or shortest paths of a graph."""
    n = draw(st.integers(1, 14))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 2))
        coord = st.integers(0, 16).map(lambda k: k / 8.0)
        return FiniteMetricSpace.from_coordinates(
            draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n)))
    # integer edge weights, zero included, closed under shortest paths: a pseudo-metric
    W = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        W[i, j] = W[j, i] = draw(st.integers(0, 4))
    for k in range(n):
        W = np.minimum(W, W[:, [k]] + W[[k], :])
    return FiniteMetricSpace.from_distance_matrix(W)


@st.composite
def ultrametric_spaces(draw):
    """Pseudo-ultrametrics: clusters merged pairwise at nondecreasing heights, zero included."""
    n = draw(st.integers(1, 16))
    D = np.zeros((n, n))
    clusters = [[i] for i in range(n)]
    height = 0
    while len(clusters) > 1:
        i = draw(st.integers(0, len(clusters) - 1))
        a = clusters.pop(i)
        b = clusters[draw(st.integers(0, len(clusters) - 1))]
        height += draw(st.integers(0, 2))
        D[np.ix_(a, b)] = D[np.ix_(b, a)] = height
        b += a
    return FiniteMetricSpace.from_distance_matrix(D)
