import functools
import gc
import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from sgeo import (
    DiameterTooSmall,
    Disconnected,
    SizeLimitExceeded,
    complete_bipartite,
    crown,
    enumerate_geodesics,
    forced_vertices,
    graph_from_edges,
    hypercube,
    is_strong_geodetic_set,
    lower_bound_general,
    sg_complete_bipartite,
    sg_crown,
    sg_exact,
    verify_witness,
)
from sgeo import graph, solver, verify
from sgeo.graph import Geodesics, diameter
from sgeo.solver import _lower_bound
from sgeo.verify import _PairCache, _search, make_witness
import test_golden
from test_golden import benchmark_graphs


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_connected_graph(rng):
    n = rng.randint(2, 10)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return graph_from_edges(n, edges)


class TestLowerBound:
    def test_q4(self):
        assert lower_bound_general(hypercube(4)) == 4

    def test_q10(self):
        assert lower_bound_general(hypercube(10)) == 16

    def test_q2(self):
        assert lower_bound_general(hypercube(2)) == 3

    def test_small_diameter_rejected(self):
        with pytest.raises(DiameterTooSmall):
            lower_bound_general(complete_graph(4))

    def test_at_least_two_from_diameter_two(self):
        # So sg_exact's start size needs no floor of 2: a graph of
        # diameter d >= 2 has n >= d + 1 >= 3 vertices.
        assert min(_lower_bound(n, d) for n in range(3, 60) for d in range(2, n)) == 2


class TestExact:
    def test_q3(self):
        res = sg_exact(hypercube(3))
        assert res.value == 4
        assert res.method == "exact"
        assert verify_witness(hypercube(3), res.witness).covered

    def test_q4(self):
        res = sg_exact(hypercube(4))
        assert res.value == 5
        assert verify_witness(hypercube(4), res.witness).covered

    def test_q5(self):
        # Every 5-set fails, so this also settles sg(Q5) >= 6.
        res = sg_exact(hypercube(5), max_vertices=32)
        assert res.value == 6
        assert verify_witness(hypercube(5), res.witness).covered

    def test_single_vertex(self):
        res = sg_exact(hypercube(0))
        assert res.to_dict() == {
            "value": 1, "method": "exact", "witness": {"set": [0], "assignment": []},
            "trace": None, "split": None,
        }

    def test_complete_graphs(self):
        for k in (2, 3, 5):
            res = sg_exact(complete_graph(k))
            assert res.value == k
            assert verify_witness(complete_graph(k), res.witness).covered

    def test_stars(self):
        for m in (3, 5, 8):
            res = sg_exact(complete_bipartite(1, m))
            assert res.value == m

    def test_disconnected_rejected(self):
        for g in (graph_from_edges(4, [(0, 1), (2, 3)]), graph_from_edges(0, [])):
            with pytest.raises(Disconnected):
                sg_exact(g)

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            sg_exact(hypercube(5))

    def test_disconnected_before_size_limit(self):
        # Connectivity is checked first: a disconnected graph over the
        # limit is Disconnected, a connected one SizeLimitExceeded.
        with pytest.raises(Disconnected):
            sg_exact(graph_from_edges(30, [(0, 1)]))
        with pytest.raises(SizeLimitExceeded):
            sg_exact(path_graph(21))

    def test_size_limit_override(self):
        g = complete_bipartite(1, 21)  # 22 vertices, trivially solvable
        res = sg_exact(g, max_vertices=22)
        assert res.value == 21
        assert verify_witness(g, res.witness).covered

    def test_ladder_with_more_geodesics_than_enumeration_allows(self):
        # 0, then 20 levels of two vertices, each level joined to the next
        # in full, then 41: 2^20 geodesics join 0 and 41, more than
        # enumerate_geodesics lists, yet neither the solver nor the search
        # lists any.
        edges = [(0, 1), (0, 2), (39, 41), (40, 41)]
        edges += [(a, b) for i in range(19)
                  for a in (2 * i + 1, 2 * i + 2) for b in (2 * i + 3, 2 * i + 4)]
        g = graph_from_edges(42, edges)
        res = sg_exact(g, max_vertices=42)
        assert res.value == 3
        assert verify_witness(g, res.witness).covered
        w = is_strong_geodetic_set(g, [0, 1, 41])
        assert w is not None and verify_witness(g, w).covered

    def test_k77_matches_balanced_form(self):
        res = sg_exact(complete_bipartite(7, 7))
        assert res.value == 7

    def test_matches_bipartite_closed_form_small(self):
        for n in range(2, 5):
            for m in range(n, 9 - n):
                res = sg_exact(complete_bipartite(n, m))
                assert res.value == sg_complete_bipartite(n, m).value, (n, m)

    def test_matches_crown_form_small(self):
        for n in (3, 4, 5):
            res = sg_exact(crown(n))
            assert res.value == sg_crown(n).value, n


POOL = Path(__file__).resolve().parents[1] / "clibench" / "random_pool.json"


class TestExactProperties:
    def test_bounds_and_witnesses_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_connected_graph(rng)
            res = sg_exact(g)
            assert res.value <= g.n
            if g.n >= 2 and max(g.degree(v) for v in range(g.n)) < g.n - 1:
                pass  # diameter may still be 1 only for complete graphs
            assert verify_witness(g, res.witness).covered

    @pytest.mark.parametrize("g", [crown(6), hypercube(4)], ids=["crown6", "Q4"])
    def test_one_bfs_per_vertex(self, monkeypatch, g):
        # The closure table and the pair cache share one geodesic DAG per
        # source, and the connectivity check reads the first of them.
        sources = []
        real = graph.bfs_levels

        def counted(h, u, depth=None):
            sources.append(u)
            return real(h, u, depth)

        monkeypatch.setattr(graph, "bfs_levels", counted)
        sg_exact(g)
        assert len(sources) == g.n

    def test_leaves_no_cyclic_garbage(self):
        # Every table of a call is freed on return, without waiting for
        # the cyclic collector.
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                sg_exact(crown(6))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_random_pool(self):
        # The exact_random benchmark's 90 graphs on 14 to 18 vertices, each
        # with the sg value a brute-force search over all sets gave.
        for entry in json.loads(POOL.read_text())["graphs"]:
            g = graph_from_edges(entry["n"], entry["edges"])
            res = sg_exact(g)
            assert res.value == entry["sg"], entry["id"]
            assert verify_witness(g, res.witness).covered, entry["id"]

    def test_lower_bound_respected(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected_graph(rng)
            try:
                lb = lower_bound_general(g)
            except DiameterTooSmall:
                lb = g.n
            assert lb <= sg_exact(g).value


def subsets_with_forced(free, forced, t):
    """Size-t sets holding every forced vertex, in lexicographic order."""
    for combo in combinations(free, t - len(forced)):
        yield sorted(forced + list(combo))


def reference_exact(g, rejected):
    """sg_exact without the closure filter and with only the leaves forced:
    the decision search on every candidate set.  Sets whose interval
    closure is not V are collected in ``rejected`` with the search's
    verdict on them."""
    if diameter(g) <= 1:
        return g.n, make_witness(range(g.n), {p: list(p) for p in combinations(range(g.n), 2)})
    geo = Geodesics(g)
    forced = sorted(v for v in range(g.n) if g.degree(v) == 1)
    free = [v for v in range(g.n) if v not in forced]
    cache = _PairCache(g)
    start = max(_lower_bound(g.n, diameter(g)), len(forced), 2)
    for t in range(start, g.n + 1):
        for sel in subsets_with_forced(free, forced, t):
            closure = sum(1 << v for v in sel)
            for u, v in combinations(sel, 2):
                closure |= sum(geo.interval(u, v))
            w = _search(cache, sel)
            if closure != (1 << g.n) - 1:
                rejected.append(w)
            if w is not None:
                return t, w
    raise AssertionError("search must succeed at t = |V|")


def closure_seed_graph(seed):
    """A random spanning tree on 5 to 11 vertices plus up to 2n random edges."""
    rng = random.Random(seed)
    n = rng.randint(5, 11)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return graph_from_edges(n, edges)


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def planted_twins(seed, base):
    """A seeded random connected graph on ``base`` vertices plus one to
    three planted twins, each an open or a closed copy of a vertex,
    relabelled at random so that twins are not adjacent indices."""
    rng = random.Random(seed)
    n = base
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(n)
        edges |= {(x, n) for x in range(n) if (min(x, v), max(x, v)) in edges}
        if rng.random() < 0.5:
            edges.add((v, n))
        n += 1
    label = rng.sample(range(n), n)
    return graph_from_edges(n, [(label[u], label[v]) for u, v in edges])


SYMMETRIC = {
    **{f"K({n},{m})": complete_bipartite(n, m) for n in range(1, 5) for m in range(n, 10 - n)},
    **{f"crown({n})": crown(n) for n in range(3, 6)},
    "Q3": hypercube(3),
    "C6": cycle(6),
    "C8": cycle(8),
    **{f"twins{seed}": planted_twins(seed, 4 + seed % 4) for seed in range(12)},
}


class TestClosureFilter:
    @staticmethod
    def assert_matches_reference(g):
        rejected = []
        expected = reference_exact(g, rejected)
        assert all(w is None for w in rejected)
        got = sg_exact(g)
        assert (got.value, got.witness) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_loop(self, seed):
        # 23 of these graphs have a simplicial vertex that is not a leaf,
        # which sg_exact forces and the reference loop does not.
        self.assert_matches_reference(closure_seed_graph(seed))

    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_matches_reference_loop_on_symmetric_graphs(self, name):
        # The twin rule skips most candidate sets of the twin-rich graphs
        # here; the reference loop skips none.
        self.assert_matches_reference(SYMMETRIC[name])


def seeded_connected_graph(seed):
    """A random spanning tree on 6 to 12 vertices plus every other pair
    with probability 0.2, 0.35 or 0.5 by seed."""
    rng = random.Random(seed)
    n, p = rng.randint(6, 12), (0.2, 0.35, 0.5)[seed % 3]
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u, v in combinations(range(n), 2) if rng.random() < p}
    return graph_from_edges(n, edges)


AGREEMENT = {
    **{f"random{seed}": seeded_connected_graph(seed) for seed in range(15)},
    "K(3,4)": complete_bipartite(3, 4),
    "crown(4)": crown(4),
    "C8": cycle(8),
    "Q3": hypercube(3),
    # I(0, 2) = I(1, 3) = V in C4, yet the two pairs have different geodesics.
    "C4": cycle(4),
    "C6": cycle(6),
}


class TestForcedVertices:
    def test_star_leaves(self):
        g = complete_bipartite(1, 5)
        assert forced_vertices(g) == {1, 2, 3, 4, 5}

    def test_regular_graph_has_none(self):
        assert forced_vertices(hypercube(3)) == set()

    def test_path_endpoints(self):
        assert forced_vertices(path_graph(3)) == {0, 2}

    def test_complete_graph_all(self):
        assert forced_vertices(complete_graph(4)) == {0, 1, 2, 3}

    def test_cycle_has_none(self):
        assert forced_vertices(cycle(4)) == set()

    def test_triangle_with_pendant(self):
        # 2 carries the pendant 3; its neighbours 0, 1 and 3 are not a clique.
        g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert forced_vertices(g) == {0, 1, 3}

    @pytest.mark.parametrize("name", [*AGREEMENT, *(f"seed{seed}" for seed in range(40))])
    def test_witnesses_hold_every_simplicial_vertex(self, name):
        g = AGREEMENT[name] if name in AGREEMENT else closure_seed_graph(int(name[4:]))
        assert forced_vertices(g) <= set(sg_exact(g).witness.vertices)

    def test_over_cap_switch(self):
        # The house: the square 0-1-4-3 with the roof 2 on the edge 0-1.
        # Roof 2 is simplicial, so it is forced, although pairs 1-3 and
        # 0-4 have two geodesics each.
        g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)])
        assert forced_vertices(g) == {2}
        assert sg_exact(g).witness.vertices == (0, 2, 4)


def brute_force_strong(g, sel):
    """Whether one geodesic per pair of sel covers g: a pair-order search
    that tries every geodesic of each pair, pairs in combinations order."""
    options = [
        {sum(1 << x for x in p) for p in enumerate_geodesics(g, u, v)}
        for u, v in combinations(sel, 2)
    ]
    full = (1 << g.n) - 1

    @functools.cache
    def covers(i, covered):
        if covered == full:
            return True
        return i < len(options) and any(covers(i + 1, covered | m) for m in options[i])

    return covers(0, sum(1 << v for v in sel))


class TestDecide:
    @pytest.mark.parametrize("name", AGREEMENT)
    def test_agrees_with_pair_order_search(self, name):
        # Every set of size 1..5, whether or not it passes the closure
        # filter.  Every witness the chain search builds must pass the
        # verifier.
        g = AGREEMENT[name]
        cache = _PairCache(g)
        for t in range(1, 6):
            for sel in combinations(range(g.n), t):
                sel = list(sel)
                w = _search(cache, sel)
                assert (w is not None) == brute_force_strong(g, sel), sel
                if w is not None:
                    assert w.vertices == tuple(sel)
                    assert verify_witness(g, w).covered, sel

    def test_single_vertex(self):
        g = hypercube(0)
        assert _search(_PairCache(g), [0]) == make_witness([0], {})
        g = path_graph(2)
        assert _search(_PairCache(g), [0]) is None


def path_budget(g, sel):
    """|S| + the sum over pairs of S of d(u, v) - 1: the most vertices that
    one fixed geodesic per pair can hold."""
    geo = Geodesics(g)
    return len(sel) + sum(geo.dag(u)[1][v] - 1 for u, v in combinations(sel, 2))


def leaves_on_k2m(m):
    """K(2, m) with three leaves on one vertex of its 2-side and one on the
    other.  The leaves' intervals cover V, yet their budget is
    4 + 3 * 1 + 3 * 3 = 16, below n = m + 6 for m > 10."""
    edges = [(v, s) for s in (0, 1) for v in range(2, m + 2)]
    edges += [(0, m + 2), (0, m + 3), (0, m + 4), (1, m + 5)]
    return graph_from_edges(m + 6, edges)


def brute_force_decided_sets(g):
    """The sets sg_exact must decide, in order: for each size from 1 up,
    every subset in lex order that holds the forced vertices and passes
    the path budget, the twin rule and closure = V, up to the first one
    the search accepts."""
    n = g.n
    geo = Geodesics(g)
    dist = [geo.dag(u)[1] for u in range(n)]
    interval = {
        (u, v): {x for x in range(n) if dist[u][x] + dist[x][v] == dist[u][v]}
        for u, v in combinations(range(n), 2)
    }
    # Each vertex's largest smaller twin by open and by closed neighbourhood.
    smaller = [set() for _ in range(n)]
    for nbhd in ([g.adj[x] for x in range(n)], [g.adj[x] | 1 << x for x in range(n)]):
        for v in range(n):
            twins = [u for u in range(v) if nbhd[u] == nbhd[v]]
            smaller[v].update(twins[-1:])
    forced = forced_vertices(g)
    cache = _PairCache(g)
    decided = []
    for t in range(1, n + 1):
        for sel in combinations(range(n), t):
            held = set(sel)
            pairs = list(combinations(sel, 2))
            if (
                forced <= held
                and t + sum(dist[u][v] - 1 for u, v in pairs) >= n
                and all(smaller[v] <= held for v in sel)
                and len(held.union(*(interval[p] for p in pairs))) == n
            ):
                decided.append(list(sel))
                if _search(cache, list(sel)) is not None:
                    return decided
    raise AssertionError("search must succeed at t = |V|")


class TestPathBudget:
    @pytest.mark.parametrize("name", AGREEMENT)
    def test_sets_under_budget_fail(self, name):
        # sg_exact never decides a set whose budget is below n: the search
        # must reject each such set.
        g = AGREEMENT[name]
        cache = _PairCache(g)
        for t in range(1, 6):
            for sel in combinations(range(g.n), t):
                if path_budget(g, sel) < g.n:
                    assert _search(cache, list(sel)) is None, sel

    @staticmethod
    def decided_sets(monkeypatch, g):
        decided = []
        real = solver._search

        def counted(cache, sel):
            decided.append(sel)
            return real(cache, sel)

        monkeypatch.setattr(solver, "_search", counted)
        sg_exact(g)
        return decided

    @pytest.mark.parametrize("name", [*AGREEMENT, "leaves on K(2,12)"])
    def test_no_decided_set_under_budget(self, monkeypatch, name):
        # On K(2, 12) with leaves the forced set alone has the start size
        # and passes the closure filter, but not the budget.
        g = AGREEMENT[name] if name in AGREEMENT else leaves_on_k2m(12)
        decided = self.decided_sets(monkeypatch, g)
        assert decided and all(path_budget(g, sel) >= g.n for sel in decided)

    @pytest.mark.parametrize("name", [*{**AGREEMENT, **SYMMETRIC}, "leaves on K(2,12)"])
    def test_decided_sets_match_brute_force(self, monkeypatch, name):
        # The walk's cuts may only drop sets that its filters reject.
        graphs = {**AGREEMENT, **SYMMETRIC, "leaves on K(2,12)": leaves_on_k2m(12)}
        g = graphs[name]
        assert self.decided_sets(monkeypatch, g) == brute_force_decided_sets(g)

    @pytest.mark.parametrize(
        "g, decisions", [(hypercube(4), 1), (crown(8), 81)], ids=["Q4", "crown8"]
    )
    def test_prunes_decisions(self, monkeypatch, g, decisions):
        # Without the budget the closure filter and the twin rule leave
        # 732 sets of Q4 and 3,437 of crown(8) to decide.
        assert len(self.decided_sets(monkeypatch, g)) == decisions

    def test_decided_sets_of_the_benchmark_graphs(self, monkeypatch):
        # Every set sg_exact decides over the benchmark's 149 graphs, in
        # order: 231 on the family graphs and 464 on the random pool.
        decided = []
        for g in benchmark_graphs():
            decided += self.decided_sets(monkeypatch, g)
        assert len(decided) == 695
        digest = hashlib.sha256(json.dumps(decided).encode()).hexdigest()
        assert digest == "af7ebd8773dd253dc1b6fa7f2b7eb12d6fce9195f659f0e4f2bd31cb3c1d6052"


class TestMemoOnlyPrunes:
    """With no room for a failed state the search must decide every set,
    and build every witness, exactly as it does with its memo."""

    @pytest.fixture(autouse=True)
    def no_memo(self, monkeypatch):
        monkeypatch.setattr(verify, "_MEMO_BYTES", 0)

    @pytest.mark.parametrize("name", AGREEMENT)
    def test_agrees_with_pair_order_search(self, name):
        TestDecide().test_agrees_with_pair_order_search(name)

    def test_decided_sets_of_the_benchmark_graphs(self, monkeypatch):
        TestPathBudget().test_decided_sets_of_the_benchmark_graphs(monkeypatch)

    def test_exact_benchmark_graphs(self, capsys, tmp_path):
        test_golden.test_exact_benchmark_graphs(capsys, tmp_path)
