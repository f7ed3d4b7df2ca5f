import itertools
import json
import random

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

    @pytest.mark.parametrize("inner", [-1, 99])
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

    def test_crown_split_example(self):
        # The (1, 2) split needs the matched pair: its length-3 geodesic
        # covers two vertices at once on the 6-cycle.
        g = crown(3)
        w = is_strong_geodetic_set(g, [0, 3, 4])
        assert w is not None and verify_witness(g, w).covered
        assert is_strong_geodetic_set(g, [0, 4, 5]) is None
