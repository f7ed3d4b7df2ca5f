"""The exact solver's twin rule checked against the full automorphism
group that networkx enumerates (a test-only oracle)."""

import itertools

import pytest

from sgeo import complete_bipartite, crown, graph_from_edges, hypercube
from sgeo.solver import twin_predecessors

from test_solver import cycle, planted_twins

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

# Groups small enough to enumerate: K(8,8) alone has 2 * 8!^2 automorphisms.
GRAPHS = {
    **{f"K({n},{m})": complete_bipartite(n, m) for n in range(2, 5) for m in range(n, 9 - n)},
    "K(1,5)": complete_bipartite(1, 5),
    **{f"crown({n})": crown(n) for n in range(3, 7)},
    "Q3": hypercube(3),
    "Q4": hypercube(4),
    **{f"C{n}": cycle(n) for n in range(5, 9)},
    **{f"twins{seed}": planted_twins(seed, 4 + seed % 8) for seed in range(24)},
}

SMALL = {name: g for name, g in GRAPHS.items() if g.n <= 8}


def full_group(g):
    """Every automorphism of g as a tuple of vertex images."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return [tuple(m[v] for v in range(g.n)) for m in GraphMatcher(h, h).isomorphisms_iter()]


@pytest.mark.parametrize("name", GRAPHS)
def test_generators_are_automorphisms(name):
    # The twin rule's generators, each vertex swapped with its next
    # smaller twin, lie in the group.
    g = GRAPHS[name]
    group = set(full_group(g))
    for v, bit in enumerate(twin_predecessors(g)):
        if bit:
            sigma = list(range(g.n))
            u = bit.bit_length() - 1
            sigma[u], sigma[v] = v, u
            assert tuple(sigma) in group, (u, v)


@pytest.mark.parametrize("name", SMALL)
def test_orbit_minimum_never_rejected(name):
    g = SMALL[name]
    group = full_group(g)
    need = twin_predecessors(g)
    rejected = 0
    for size in range(1, g.n + 1):
        for sel in itertools.combinations(range(g.n), size):
            taken = sum(1 << v for v in sel)
            accepted = not any(need[w] & ~taken for w in sel)
            leader = sel == min(tuple(sorted(sigma[v] for v in sel)) for sigma in group)
            assert accepted or not leader, sel
            rejected += not accepted
    if any(need):
        assert rejected > 0


def test_twin_predecessors():
    # K(2,3): {0, 1} and {2, 3, 4} are open twin classes; in the path
    # 0-1 the two ends are closed twins.
    assert twin_predecessors(complete_bipartite(2, 3)) == [0, 1, 0, 1 << 2, 1 << 3]
    assert twin_predecessors(graph_from_edges(2, [(0, 1)])) == [0, 1]
    assert twin_predecessors(crown(4)) == [0] * 8
