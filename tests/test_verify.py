import gc
import itertools
import json
import random
import tracemalloc
from functools import reduce
from pathlib import Path

import pytest

from sgeo import (
    Disconnected,
    MalformedWitness,
    Witness,
    complete_bipartite,
    crown,
    distances_from,
    enumerate_geodesics,
    graph_from_edges,
    hypercube,
    is_strong_geodetic_set,
    make_witness,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)
from sgeo import construct, verify
from sgeo.verify import PairGeodesic, _PairCache
from test_graph import SHORT_SEQUENCE_GRAPHS, brute_defect, brute_tables

Q3 = hypercube(3)

FIG_SET = [0b000, 0b101, 0b110, 0b111]

FIG_PATHS = {
    (0, 7): [0, 2, 3, 7],
    (0, 5): [0, 1, 5],
    (0, 6): [0, 4, 6],
    (5, 6): [5, 4, 6],
    (5, 7): [5, 7],
    (6, 7): [6, 7],
}


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


class TestVerifyWitness:
    def test_q3_reference_set_covers(self):
        w = make_witness(FIG_SET, FIG_PATHS)
        report = verify_witness(Q3, w)
        assert report.covered
        assert report.uncovered_vertices == []
        assert report.invalid_paths == []

    def test_q3_broken_assignment_misses_a_vertex(self):
        paths = dict(FIG_PATHS)
        paths[(0, 6)] = [0, 2, 6]
        paths[(5, 6)] = [5, 7, 6]
        report = verify_witness(Q3, make_witness(FIG_SET, paths))
        assert not report.covered
        assert report.uncovered_vertices == [0b100]

    def test_single_vertex_graph(self):
        g = hypercube(0)
        report = verify_witness(g, Witness((0,), ()))
        assert report.covered

    def test_selected_vertices_count_as_covered(self):
        g = graph_from_edges(2, [(0, 1)])
        report = verify_witness(g, Witness((0,), ()))
        assert not report.covered
        assert report.uncovered_vertices == [1]

    def test_invalid_paths_reported_not_raised(self):
        paths = dict(FIG_PATHS)
        paths[(0, 7)] = [0, 1, 5, 7]  # shortest, but wrong: length ok? 0-1-5-7 d=3 valid
        paths[(0, 5)] = [0, 4, 5]  # 4 ~ 5 is an edge, 0-4-5 has length 2: valid geodesic
        paths[(0, 6)] = [0, 1, 6]  # 1 ~ 6 not an edge
        paths[(5, 6)] = [5, 1, 0, 2, 6]  # too long
        report = verify_witness(Q3, make_witness(FIG_SET, paths))
        reasons = dict(report.invalid_paths)
        assert reasons[(0, 6)] == "non-adjacent step"
        assert reasons[(5, 6)] == "not a shortest path"
        assert not report.covered

    def test_endpoint_mismatch(self):
        paths = dict(FIG_PATHS)
        paths[(5, 7)] = [5, 4, 6]
        report = verify_witness(Q3, make_witness(FIG_SET, paths))
        assert ((5, 7), "endpoints do not match pair") in report.invalid_paths

    # 10**12 and 1 << 4096 must be rejected without building 1 << x.
    @pytest.mark.parametrize("inner", [-1, 99, 10**12, 1 << 4096], ids=["-1", "99", "1e12", "2^4096"])
    def test_path_vertex_outside_graph(self, inner):
        paths = dict(FIG_PATHS)
        paths[(0, 5)] = [0, inner, 5]
        report = verify_witness(Q3, make_witness(FIG_SET, paths))
        assert report.invalid_paths == [((0, 5), "vertex not in graph")]
        assert not report.covered

    def test_missing_pair_raises(self):
        paths = {k: v for k, v in FIG_PATHS.items() if k != (5, 6)}
        w = Witness(tuple(FIG_SET), make_witness(FIG_SET, paths).assignment)
        with pytest.raises(MalformedWitness):
            verify_witness(Q3, w)

    def test_duplicate_pair_raises(self):
        w = make_witness(FIG_SET, FIG_PATHS)
        dup = Witness(w.vertices, w.assignment + (w.assignment[0],))
        with pytest.raises(MalformedWitness):
            verify_witness(Q3, dup)

    def test_foreign_vertex_raises(self):
        with pytest.raises(MalformedWitness):
            verify_witness(Q3, Witness((0, 99), ()))

    # An empty set is checked first, then connectivity, then the vertices.
    @pytest.mark.parametrize(
        "g, sel, error, message",
        [(hypercube(2), [], ValueError, "vertex set must be nonempty"),
         (hypercube(2), [0, 9], MalformedWitness, "vertex 9 not in graph"),
         (graph_from_edges(0, []), [], ValueError, "vertex set must be nonempty"),
         (graph_from_edges(0, []), [0], Disconnected, "graph is not connected"),
         (graph_from_edges(4, [(0, 1), (2, 3)]), [0, 9], Disconnected, "graph is not connected")],
        ids=["empty", "foreign", "empty-set-of-empty-graph", "empty-graph", "disconnected-and-foreign"],
    )
    def test_decision_rejects_bad_sets(self, g, sel, error, message):
        with pytest.raises(error) as exc:
            is_strong_geodetic_set(g, sel)
        assert exc.type is error and str(exc.value) == message

    def test_json_round_trip(self):
        w = make_witness(FIG_SET, FIG_PATHS)
        doc = json.loads(json.dumps(witness_to_dict(w)))
        assert witness_from_dict(doc) == w

    def test_non_integer_fields_are_not_coerced(self):
        # int() would truncate 1.7 to 1 and read True as 1.
        doc = {"set": [1, 2], "assignment": [{"u": 1.7, "v": 2.2, "path": [1.5, 0, 2.9]}]}
        for bad in (doc, {**doc, "set": [1, "2"]}, {"set": [True, 2], "assignment": []}):
            with pytest.raises(MalformedWitness, match="not an integer"):
                witness_from_dict(bad)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "1"], ids=repr)
    @pytest.mark.parametrize("field", ["set", "u", "v", "path"])
    def test_first_non_integer_vertex_is_named(self, field, bad):
        # A list checks its types at once; only a failing one is read
        # vertex by vertex, so the message names its first bad vertex.
        pair = {"u": 0, "v": 3, "path": [0, 1, 3]}
        if field == "set":
            doc = {"set": [0, bad, 3.5], "assignment": []}
        elif field == "path":
            doc = {"set": [0, 3], "assignment": [{**pair, "path": [0, bad, "3"]}]}
        else:
            doc = {"set": [0, 3], "assignment": [{**pair, field: bad}]}
        with pytest.raises(MalformedWitness) as info:
            witness_from_dict(doc)
        assert str(info.value) == f"bad witness document: vertex {bad!r} is not an integer"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"set": 5, "assignment": []}, "'int' object is not iterable"),
            ({"set": None, "assignment": []}, "'NoneType' object is not iterable"),
            ({"set": "03", "assignment": []}, "vertex '0' is not an integer"),
            ({"set": [0, 3], "assignment": [{"u": 0, "v": 3, "path": 7}]}, "'int' object is not iterable"),
            ({"set": [0, 3]}, "'assignment'"),
        ],
        ids=["int-set", "null-set", "string-set", "int-path", "no-assignment"],
    )
    def test_non_list_fields(self, doc, message):
        with pytest.raises(MalformedWitness) as info:
            witness_from_dict(doc)
        assert str(info.value) == f"bad witness document: {message}"


def oracle_report(n, nbrs, dist, sel, assignment):
    """(covered, uncovered_vertices, invalid_paths) of a witness whose
    pairs are well formed, from ``brute_defect`` alone."""
    cover = set(sel)
    invalid = []
    for u, v, path in assignment:
        if len(path) < 2 or {path[0], path[-1]} != {u, v}:
            reason = "endpoints do not match pair"
        else:
            reason = brute_defect(n, nbrs, dist, path)
        if reason is None:
            cover.update(path)
        else:
            invalid.append(((min(u, v), max(u, v)), reason))
    uncovered = [x for x in range(n) if x not in cover]
    return not invalid and not uncovered, uncovered, invalid


class TestHalfRadiusCheck:
    """verify_witness decides each path by whether two half-radius balls
    about its ends meet; the oracle reads distances off a queue BFS."""

    @pytest.mark.parametrize("name", SHORT_SEQUENCE_GRAPHS)
    def test_every_short_sequence_as_a_two_vertex_witness(self, name):
        n, edges = SHORT_SEQUENCE_GRAPHS[name]
        g = graph_from_edges(n, edges)
        nbrs, dist = brute_tables(n, edges)
        alphabet = [-1, *range(n + 1), 10**12]
        for length in range(2, 6):
            for start in range(n):
                for rest in itertools.product(alphabet, repeat=length - 1):
                    path = (start, *rest)
                    end = path[-1]
                    if end not in range(n) or end == start:
                        continue
                    # The pair is named in path order, so both orders of
                    # u and v occur.
                    w = Witness(tuple(sorted((start, end))), (PairGeodesic(start, end, path),))
                    report = verify_witness(g, w)
                    want = oracle_report(n, nbrs, dist, w.vertices, w.assignment)
                    got = (report.covered, report.uncovered_vertices, report.invalid_paths)
                    assert got == want, path

    def test_both_orientations_in_one_witness(self):
        # Vertex 7 starts the long (0, 7) path and ends the short (5, 7)
        # one, and 6 ends two paths and starts a rejected one, so each
        # end needs its own ball radius.
        paths = {
            (0, 7): [7, 3, 2, 0],
            (0, 5): [5, 1, 0],
            (0, 6): [0, 4, 6],
            (5, 6): [6, 7, 3, 1, 5],
            (5, 7): [5, 7],
            (6, 7): [7, 6],
        }
        w = make_witness(FIG_SET, paths)
        report = verify_witness(Q3, w)
        nbrs, dist = brute_tables(8, SHORT_SEQUENCE_GRAPHS["Q3"][1])
        want = oracle_report(8, nbrs, dist, w.vertices, w.assignment)
        assert (report.covered, report.uncovered_vertices, report.invalid_paths) == want
        assert report.invalid_paths == [((5, 6), "not a shortest path")]

    @pytest.mark.parametrize("name", SHORT_SEQUENCE_GRAPHS)
    def test_random_multi_path_witnesses(self, name):
        # Each pair gets a random walk of d(u, v) or d(u, v) + 1 steps in a
        # random orientation, a geodesic half of the time.
        n, edges = SHORT_SEQUENCE_GRAPHS[name]
        g = graph_from_edges(n, edges)
        nbrs, dist = brute_tables(n, edges)
        rng = random.Random(name)
        for _ in range(200):
            comp = sorted(dist[rng.randrange(n)])
            if len(comp) < 2:
                continue
            sel = rng.sample(comp, rng.randint(2, len(comp)))
            assignment = []
            for u, v in itertools.combinations(sel, 2):
                if rng.random() < 0.5:
                    u, v = v, u
                if rng.random() < 0.5:
                    path = rng.choice(enumerate_geodesics(g, u, v))
                else:
                    path = [u]
                    for _ in range(dist[u][v] + rng.randint(0, 1) - 1):
                        path.append(rng.choice(sorted(nbrs[path[-1]])))
                    path.append(v)
                assignment.append(PairGeodesic(u, v, tuple(path)))
            w = Witness(tuple(sel), tuple(assignment))
            report = verify_witness(g, w)
            want = oracle_report(n, nbrs, dist, sel, assignment)
            assert (report.covered, report.uncovered_vertices, report.invalid_paths) == want


def test_verify_witness_bounds_its_searches(monkeypatch):
    # Each selected vertex gets at most one BFS, cut at half the longest
    # path it ends: 11 // 2 levels on Q11, whose paths have at most 11 steps.
    built = construct.build_hypercube_basic(11, 6)
    searches = []
    real = verify.bfs_levels

    def counted(h, u, depth=None):
        searches.append((u, depth))
        return real(h, u, depth)

    monkeypatch.setattr(verify, "bfs_levels", counted)
    assert verify_witness(hypercube(11), built.witness).covered
    sources = [u for u, _ in searches]
    assert len(sources) == len(set(sources))
    assert set(sources) <= set(built.witness.vertices)
    assert all(depth is not None and depth <= 11 // 2 for _, depth in searches)


class TestDecision:
    def test_q3_reference_set_found(self):
        w = is_strong_geodetic_set(Q3, FIG_SET)
        assert w is not None
        assert verify_witness(Q3, w).covered

    def test_q3_no_three_subset_works(self):
        for sel in itertools.combinations(range(8), 3):
            assert is_strong_geodetic_set(Q3, sel) is None

    def test_k33_one_side(self):
        g = complete_bipartite(3, 3)
        w = is_strong_geodetic_set(g, [0, 1, 2])
        assert w is not None
        middles = {a.path[1] for a in w.assignment}
        assert middles == {3, 4, 5}

    def test_disconnected_raises(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            is_strong_geodetic_set(g, [0, 2])

    def test_round_trip_property(self):
        rng = random.Random(2024)
        hits = 0
        for _ in range(120):
            g = random_connected_graph(rng)
            size = rng.randint(2, g.n)
            sel = rng.sample(range(g.n), size)
            w = is_strong_geodetic_set(g, sel)
            if w is not None:
                hits += 1
                assert verify_witness(g, w).covered
        assert hits > 10

    def test_superset_monotonicity(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(200):
            g = random_connected_graph(rng)
            sel = rng.sample(range(g.n), rng.randint(2, g.n))
            if is_strong_geodetic_set(g, sel) is None:
                continue
            rest = [v for v in range(g.n) if v not in sel]
            if not rest:
                continue
            bigger = sel + [rng.choice(rest)]
            assert is_strong_geodetic_set(g, bigger) is not None
            checked += 1
        assert checked > 5

    def test_two_vertex_sets_reduce_to_single_geodesic(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_connected_graph(rng)
            u, v = rng.sample(range(g.n), 2)
            w = is_strong_geodetic_set(g, [u, v])
            full = set(range(g.n))
            some_geodesic_covers = any(
                set(p) == full for p in enumerate_geodesics(g, u, v)
            )
            assert (w is not None) == some_geodesic_covers

    def test_deterministic_witness(self):
        w1 = is_strong_geodetic_set(Q3, FIG_SET)
        w2 = is_strong_geodetic_set(Q3, FIG_SET)
        assert w1 == w2

    def test_every_geodesic_has_exact_length(self):
        w = is_strong_geodetic_set(Q3, FIG_SET)
        for a in w.assignment:
            d = distances_from(Q3, a.u)[a.v]
            assert len(a.path) - 1 == d

    def test_crown_600_optimal_set(self):
        # 1,200 vertices: the search branches 1,132 levels deep, past
        # Python's default recursion limit of 1,000.
        g = crown(600)
        w = is_strong_geodetic_set(g, construct.build_crown_witness(600).witness.vertices)
        assert w is not None and verify_witness(g, w).covered

    def test_leaves_no_cyclic_garbage(self):
        # The search state is freed on return, without waiting for the
        # cyclic collector.
        gc.collect()
        gc.disable()
        try:
            for sel in [FIG_SET, [0, 1, 2], [0, 3, 5, 6]]:
                is_strong_geodetic_set(Q3, sel)
            is_strong_geodetic_set(crown(6), [0, 1, 6, 7])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_crown_split_example(self):
        # The (1, 2) split needs the matched pair: its length-3 geodesic
        # covers two vertices at once on the 6-cycle.
        g = crown(3)
        w = is_strong_geodetic_set(g, [0, 3, 4])
        assert w is not None and verify_witness(g, w).covered
        assert is_strong_geodetic_set(g, [0, 4, 5]) is None

    def test_memo_is_bounded_in_bytes(self, monkeypatch):
        # This Q5 decision fails 33,859 states.  Under a 64 KiB bound the
        # memo stores them only until their estimated bytes, n / 8 + 24
        # per live pair and once more for the covered set, reach it.
        memos = []

        class Memo(set):
            def __init__(self, *items):
                super().__init__(*items)
                if not items:
                    memos.append(self)

        monkeypatch.setattr(verify, "set", Memo, raising=False)
        monkeypatch.setattr(verify, "_MEMO_BYTES", 1 << 16)
        g = hypercube(5)
        assert is_strong_geodetic_set(g, [0, 1, 2, 4, 27, 31]) is None
        [memo] = memos
        charges = [(len(live) + 1) * (g.n // 8 + 24) for _, live, _ in memo]
        assert sum(charges) - max(charges) < 1 << 16 <= sum(charges)


def test_decision_allocates_nothing_quadratic():
    # A 4,096-vertex path: one table slot per ordered pair of vertices
    # would take about 128 MB of pointers before the search starts.
    n = 4096
    g = graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    tracemalloc.start()
    try:
        w = is_strong_geodetic_set(g, [0, n - 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is not None and w.assignment[0].path == tuple(range(n))
    assert peak < 32 << 20


def pool_graph(graph_id):
    """A graph of the benchmark's stored random pool, by id."""
    pool = Path(__file__).resolve().parents[1] / "clibench" / "random_pool.json"
    (g,) = [g for g in json.loads(pool.read_text())["graphs"] if g["id"] == graph_id]
    return graph_from_edges(g["n"], [tuple(e) for e in g["edges"]])


SEGMENT_GRAPHS = {
    "Q3": lambda: Q3,
    "crown(4)": lambda: crown(4),
    "K(3,4)": lambda: complete_bipartite(3, 4),
    "pool p0.2-n14-0": lambda: pool_graph("p0.2-n14-0"),
    "pool p0.5-n18-5": lambda: pool_graph("p0.5-n18-5"),
}


@pytest.mark.parametrize("name", SEGMENT_GRAPHS)
def test_segment_table_matches_enumeration(name):
    # Each entry is (interval by level, its union, its forced part): level
    # k holds the k-th vertices of the a-b geodesics, the union their
    # vertices, and the forced part the vertices every one of them passes.
    g = SEGMENT_GRAPHS[name]()
    cache = _PairCache(g)
    for a, b in itertools.permutations(range(g.n), 2):
        paths = enumerate_geodesics(g, a, b)
        masks = [sum(1 << x for x in p) for p in paths]
        levels, union, forced = cache.get(a, b)
        assert levels == [sum({1 << p[k] for p in paths}) for k in range(len(paths[0]))]
        assert union == reduce(int.__or__, masks)
        assert forced == reduce(int.__and__, masks)
