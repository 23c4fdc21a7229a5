import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from dcspec._linalg import components


@pytest.mark.parametrize("n, edges", [(1, 0), (1, 3), (2, 0), (7, 3), (40, 25), (300, 280)])
@pytest.mark.parametrize("seed", range(4))
def test_components_match_scipy(n, edges, seed):
    # seeded random edge lists, self-loops, repeated edges and isolated nodes
    # included, against scipy's graph search: the smallest node of each
    # component, per node
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, (2, edges))
    a[: edges // 5] = b[: edges // 5]  # self-loops
    got = components(n, a, b)
    graph = sp.coo_matrix((np.ones(edges), (a, b)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    smallest = np.array([np.flatnonzero(labels == c)[0] for c in range(labels.max() + 1)])
    assert np.array_equal(got, smallest[labels])


def test_components_chain_in_reverse_order():
    # a path whose labels must travel the whole length
    n = 50
    a = np.arange(n - 1, 0, -1)
    assert np.array_equal(components(n, a, a - 1), np.zeros(n, dtype=int))
