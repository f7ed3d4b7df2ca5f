"""The distance layer checked against networkx on seeded random graphs."""

import itertools
import random

import pytest

from sgeo import (
    Disconnected,
    GeodesicExplosion,
    Unreachable,
    count_geodesics,
    diameter,
    distances_from,
    enumerate_geodesics,
    graph_from_edges,
    is_connected,
    is_strong_geodetic_set,
    sg_exact,
)
from sgeo.graph import Geodesics

nx = pytest.importorskip("networkx")

SEEDS = range(24)


def random_graph(seed):
    """G(n, p) on 6..13 vertices; sparse draws are often disconnected."""
    rng = random.Random(seed)
    n = rng.randint(6, 13)
    p = rng.choice([0.15, 0.25, 0.4, 0.6])
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    oracle = nx.Graph()
    oracle.add_nodes_from(range(n))
    oracle.add_edges_from(edges)
    return graph_from_edges(n, edges), oracle


def test_pool_has_both_connected_and_disconnected_graphs():
    connected = {nx.is_connected(random_graph(seed)[1]) for seed in SEEDS}
    assert connected == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
def test_distances(seed):
    g, oracle = random_graph(seed)
    for u in range(g.n):
        expected = nx.single_source_shortest_path_length(oracle, u)
        assert distances_from(g, u) == [expected.get(w) for w in range(g.n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_connectivity(seed):
    # Every entry that needs a connected graph asks Geodesics.connected,
    # and each raises its own message on a disconnected one.
    g, oracle = random_graph(seed)
    assert is_connected(g) == Geodesics(g).connected() == nx.is_connected(oracle)
    if not nx.is_connected(oracle):
        with pytest.raises(Disconnected, match="^exact solver needs a connected, nonempty graph$"):
            sg_exact(g)
        with pytest.raises(Disconnected, match="^graph is not connected$"):
            is_strong_geodetic_set(g, range(g.n))


@pytest.mark.parametrize("seed", SEEDS)
def test_diameter(seed):
    g, oracle = random_graph(seed)
    if nx.is_connected(oracle):
        assert diameter(g) == nx.diameter(oracle)
    else:
        with pytest.raises(Disconnected):
            diameter(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_geodesics(seed):
    g, oracle = random_graph(seed)
    for u, v in itertools.combinations(range(g.n), 2):
        if not nx.has_path(oracle, u, v):
            with pytest.raises(Unreachable):
                enumerate_geodesics(g, u, v)
            with pytest.raises(Unreachable):
                count_geodesics(g, u, v)
            continue
        expected = sorted(nx.all_shortest_paths(oracle, u, v))
        assert enumerate_geodesics(g, u, v) == expected
        assert count_geodesics(g, u, v) == len(expected)
        if len(expected) > 1:
            with pytest.raises(GeodesicExplosion):
                enumerate_geodesics(g, u, v, cap=len(expected) - 1)
            assert len(enumerate_geodesics(g, u, v, cap=len(expected))) == len(expected)


@pytest.mark.parametrize(
    "seed", [s for s in SEEDS if nx.is_connected(random_graph(s)[1])]
)
def test_geodesic_table(seed):
    g, oracle = random_graph(seed)
    geo = Geodesics(g)
    assert max(len(geo.dag(u)[0]) for u in range(g.n)) - 1 == nx.diameter(oracle)
    for u, v in itertools.permutations(range(g.n), 2):
        paths = list(nx.all_shortest_paths(oracle, u, v))
        assert sum(geo.interval(u, v)) == sum(1 << w for w in set().union(*paths))
        assert geo.count(u, v) == count_geodesics(g, u, v) == len(paths)


@pytest.mark.parametrize("seed", SEEDS)
def test_geodesic_masks(seed):
    # At a cap equal to the count every geodesic is built, in the order of
    # the sorted paths.
    g, oracle = random_graph(seed)
    for u, v in itertools.combinations(range(g.n), 2):
        if not nx.has_path(oracle, u, v):
            continue
        paths = sorted(nx.all_shortest_paths(oracle, u, v))
        assert enumerate_geodesics(g, u, v, len(paths)) == paths
