"""The exact solver's symmetry reduction checked against the full
automorphism group that networkx enumerates (a test-only oracle)."""

import itertools

import pytest

from sgeo import complete_bipartite, crown, graph_from_edges, hypercube
from sgeo import solver
from sgeo.solver import _beaten, automorphisms, twin_predecessors

from test_solver import cycle, planted_twins

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

# 0-1-2-3-4 with 5 joined to 1 and 2: no automorphism, and colour
# refinement alone already tells every vertex apart.
ASYMMETRIC = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)])

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
    g = GRAPHS[name]
    group = set(full_group(g))
    gens = automorphisms(g)
    assert all(tuple(sigma) in group for sigma in gens)
    # Twin transpositions are left to the enumeration; anything else in
    # the group means discovery should have found some generator.
    def twins(u, v):
        return not (g.adj[u] ^ g.adj[v]) & ~(1 << u | 1 << v)

    assert gens or all(twins(v, sigma[v]) for sigma in group for v in range(g.n))


@pytest.mark.parametrize("name", SMALL)
def test_orbit_minimum_never_rejected(name):
    g = SMALL[name]
    group = full_group(g)
    need = twin_predecessors(g)
    bits = [[1 << x for x in sigma] for sigma in automorphisms(g)]
    rejected = 0
    for size in range(1, g.n + 1):
        for sel in itertools.combinations(range(g.n), size):
            taken = sum(1 << v for v in sel)
            prefix = not any(need[w] & ~taken for w in sel)
            accepted = prefix and not _beaten(bits, list(sel), taken)
            leader = sel == min(tuple(sorted(sigma[v] for v in sel)) for sigma in group)
            assert accepted or not leader, sel
            rejected += not accepted
    if len(group) > 1:
        assert rejected > 0


def test_twin_predecessors():
    # K(2,3): {0, 1} and {2, 3, 4} are open twin classes; in the path
    # 0-1 the two ends are closed twins.
    assert twin_predecessors(complete_bipartite(2, 3)) == [0, 1, 0, 1 << 2, 1 << 3]
    assert twin_predecessors(graph_from_edges(2, [(0, 1)])) == [0, 1]
    assert twin_predecessors(crown(4)) == [0] * 8


def test_discovery_stops_on_discrete_refinement(monkeypatch):
    calls = []
    real = solver._refine
    monkeypatch.setattr(solver, "_refine", lambda *a: calls.append(a) or real(*a))
    assert automorphisms(ASYMMETRIC) == []
    assert len(calls) == 1
    assert len(full_group(ASYMMETRIC)) == 1


def test_candidate_maps_are_verified():
    # The Frucht graph is 3-regular and has no automorphism but the
    # identity: refinement leaves one cell, and every map matched up
    # from two leaves of the search is wrong and must be dropped.
    frucht = graph_from_edges(12, nx.frucht_graph().edges())
    assert len(full_group(frucht)) == 1
    assert automorphisms(frucht) == []
