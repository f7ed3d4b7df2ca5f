import itertools
import json
import random
import tracemalloc
from collections import deque
from pathlib import Path

import pytest

from sgeo import (
    DimensionTooLarge,
    Disconnected,
    DisconnectedFamily,
    GeodesicExplosion,
    IndexOutOfRange,
    ParseError,
    Unreachable,
    complete_bipartite,
    count_geodesics,
    crown,
    diameter,
    distances_from,
    enumerate_geodesics,
    from_edge_list,
    graph_from_edges,
    hypercube,
    is_geodesic,
    to_edge_list,
)
from sgeo import graph as graph_module
from sgeo.graph import MAX_VERTICES, Geodesics, Graph, bfs_levels, iter_bits, path_defect


def brute_force_shortest_paths(g, u, v):
    """Oracle: enumerate all simple paths by DFS, keep the shortest ones."""
    best = None
    found = []
    stack = [(u, [u])]
    while stack:
        w, path = stack.pop()
        if best is not None and len(path) - 1 > best:
            continue
        if w == v:
            d = len(path) - 1
            if best is None or d < best:
                best = d
                found = [path]
            elif d == best:
                found.append(path)
            continue
        for x in range(g.n):
            if g.has_edge(w, x) and x not in path:
                stack.append((x, path + [x]))
    return sorted(found)


class TestGenerators:
    def test_hypercube_tiny(self):
        g = hypercube(0)
        assert g.n == 1 and g.edge_count() == 0

    def test_hypercube_q3(self):
        g = hypercube(3)
        assert g.n == 8 and g.edge_count() == 12

    def test_hypercube_q4_structure(self):
        g = hypercube(4)
        assert g.n == 16
        # Count edges by popcount scan as an independent check.
        edges = sum(
            1
            for i in range(16)
            for j in range(i + 1, 16)
            if (i ^ j).bit_count() == 1
        )
        assert g.edge_count() == edges == 32
        assert diameter(g) == 4

    def test_hypercube_is_the_popcount_one_graph(self):
        # Built by doubling; checked against the definition: u ~ v iff
        # u ^ v has exactly one bit, and each vertex has n such u.
        for n in range(13):
            g = hypercube(n)
            assert g.n == 1 << n and g.family == ("hypercube", n)
            for v, row in enumerate(g.adj):
                assert row.bit_count() == n
                assert all((u ^ v).bit_count() == 1 for u in iter_bits(row))

    def test_hypercube_rejects_large(self):
        with pytest.raises(DimensionTooLarge):
            hypercube(25)

    def test_vertex_budget_is_checked_before_allocating(self):
        with pytest.raises(DimensionTooLarge):
            hypercube(MAX_VERTICES.bit_length())
        with pytest.raises(DimensionTooLarge):
            complete_bipartite(2_000_000_000, 1)
        with pytest.raises(DimensionTooLarge):
            crown(MAX_VERTICES // 2 + 1)
        with pytest.raises(DimensionTooLarge):
            from_edge_list("p 2000000000 0\n")
        assert from_edge_list(f"p {MAX_VERTICES} 0\n").n == MAX_VERTICES

    def test_hypercube_distance_is_popcount(self):
        for n in range(1, 6):
            g = hypercube(n)
            for u in range(g.n):
                dist = distances_from(g, u)
                for v in range(g.n):
                    assert dist[v] == (u ^ v).bit_count()

    def test_complete_bipartite_star(self):
        g = complete_bipartite(1, 3)
        assert g.n == 4 and g.edge_count() == 3
        assert g.degree(0) == 3

    def test_complete_bipartite_33(self):
        g = complete_bipartite(3, 3)
        assert g.edge_count() == 9
        assert diameter(g) == 2

    def test_complete_bipartite_degrees(self):
        g = complete_bipartite(2, 5)
        degs = sorted((g.degree(v) for v in range(g.n)), reverse=True)
        assert degs == [5, 5, 2, 2, 2, 2, 2]

    def test_crown_3_is_hexagon(self):
        g = crown(3)
        assert g.n == 6 and g.edge_count() == 6
        assert all(g.degree(v) == 2 for v in range(6))
        assert diameter(g) == 3

    def test_crown_4_matches_q3(self):
        # Same graph up to relabeling: x_i y_j adjacency with the
        # matching removed is 3-regular, bipartite, 8 vertices, 12 edges.
        g = crown(4)
        q = hypercube(3)
        assert g.n == q.n and g.edge_count() == q.edge_count()
        assert sorted(g.degree(v) for v in range(8)) == sorted(
            q.degree(v) for v in range(8)
        )
        # Explicit isomorphism: x_i -> strings of weight pattern mapping.
        mapping = {0: 0, 1: 3, 2: 5, 3: 6, 4: 7, 5: 4, 6: 2, 7: 1}
        for u in range(8):
            for v in range(8):
                assert g.has_edge(u, v) == q.has_edge(mapping[u], mapping[v])

    def test_crown_5_degrees(self):
        g = crown(5)
        assert g.edge_count() == 10 * 2
        assert all(g.degree(v) == 4 for v in range(10))

    def test_crown_distances(self):
        for n in (3, 4, 5, 6):
            g = crown(n)
            dist = distances_from(g, 0)
            assert dist[n] == 3  # matched partner
            for j in range(1, n):
                assert dist[n + j] == 1
            for i in range(1, n):
                assert dist[i] == 2

    def test_crown_rejects_disconnected(self):
        with pytest.raises(DisconnectedFamily):
            crown(2)


class TestEdgeList:
    def test_parse_k2(self):
        g = from_edge_list("p 2 1\ne 0 1\n")
        assert g.n == 2 and g.edge_count() == 1

    def test_parse_triangle(self):
        g = from_edge_list("p 3 3\ne 0 1\ne 1 2\ne 0 2\n")
        assert g.edge_count() == 3

    def test_parse_dedup(self):
        g = from_edge_list("p 2 2\ne 0 1\ne 0 1\n")
        assert g.edge_count() == 1

    def test_parse_comments_and_blanks(self):
        g = from_edge_list("c a comment\n\np 3 2\ne 0 1\nc another\ne 1 2\n")
        assert g.edge_count() == 2

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            from_edge_list("e 0 1\n")
        with pytest.raises(ParseError):
            from_edge_list("p 2 1\ne 0\n")
        with pytest.raises(ParseError):
            from_edge_list("p 2 1\nq 0 1\n")
        with pytest.raises(ParseError):
            from_edge_list("p 2 1\ne 1 1\n")
        with pytest.raises(IndexOutOfRange):
            from_edge_list("p 2 1\ne 0 5\n")

    @pytest.mark.parametrize(
        "g",
        [hypercube(3), complete_bipartite(3, 4), crown(4), hypercube(0)],
        ids=["q3", "k34", "crown4", "q0"],
    )
    def test_round_trip(self, g):
        assert from_edge_list(to_edge_list(g)) == g


Q11_TEXT = to_edge_list(hypercube(11))
Q11_LINES = Q11_TEXT.splitlines(keepends=True)


def canonical_texts():
    """Edge lists in the form ``gen``, ``to_edge_list`` and the benchmark
    write: Q11, the benchmark's random pool in file order, crown(3..8)
    and the two smallest graphs."""
    texts = [Q11_TEXT]
    pool = Path(__file__).resolve().parents[1] / "clibench" / "random_pool.json"
    for entry in json.loads(pool.read_text())["graphs"]:
        edges = "".join(f"e {u} {v}\n" for u, v in entry["edges"])
        texts.append(f"p {entry['n']} {len(entry['edges'])}\n" + edges)
    texts += [to_edge_list(crown(n)) for n in range(3, 9)]
    return texts + ["p 0 0\n", "p 1 0\n"]


def outcome(parse, text):
    """The graph ``parse`` returns on ``text``, or its error's type and message."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


class TestEdgeListPaths:
    """``from_edge_list`` reads canonical text slice by slice and hands
    everything else to the line parser ``_parse_lines``."""

    def test_canonical_text_never_reaches_the_line_parser(self, monkeypatch):
        texts = canonical_texts()
        expected = [graph_module._parse_lines(t) for t in texts]

        def refuse(text):
            raise AssertionError("canonical text fell back to the line parser")

        monkeypatch.setattr(graph_module, "_parse_lines", refuse)
        assert len(texts) == 99
        for text, g in zip(texts, expected):
            assert from_edge_list(text) == g

    @pytest.mark.parametrize(
        "text",
        [
            "".join(Q11_LINES[:2000] + ["e 0 2048\n"] + Q11_LINES[2001:]),
            "".join(Q11_LINES[:-1] + ["e 7 7\n"]),
            "".join(Q11_LINES[:500] + ["e 0 1 2\n"] + Q11_LINES[500:]),
            Q11_TEXT.replace("\n", "\r\n"),
            "".join(Q11_LINES[:300] + ["c a comment\n", "\n"] + Q11_LINES[300:]),
            Q11_TEXT[:-1],
            Q11_TEXT + "c the end\n",
            Q11_TEXT + "c no newline",
            "p 11 3\ne 01 2\ne 0 +3\ne 1_0 3\n",
            "p 4 1\ne 1_0 3\n",
            f"p {MAX_VERTICES + 1} 0\n",
            "p 3 1\ne 0 1\np 3 1\n",
            "p 3 1\ne 0 1",
            "p 3 1\ne 0 " + "9" * 5000 + "\n",
            "p " + "9" * 5000 + " 0\n",
            "p 3 " + "9" * 5000 + "\n",
        ],
        ids=[
            "out-of-range-after-first-slice",
            "self-loop-in-last-slice",
            "four-fields",
            "crlf",
            "comment-and-blank",
            "no-final-newline",
            "trailing-comment",
            "trailing-comment-no-newline",
            "leading-zero-plus-underscore",
            "underscore-out-of-range",
            "header-over-limit",
            "second-header",
            "short-last-line",
            "endpoint-over-int-digit-limit",
            "order-over-int-digit-limit",
            "edge-count-over-int-digit-limit",
        ],
    )
    def test_other_text_reads_as_the_line_parser_reads_it(self, text):
        assert outcome(from_edge_list, text) == outcome(graph_module._parse_lines, text)

    @pytest.mark.parametrize(
        "text",
        [Q11_TEXT[:-1], Q11_TEXT + "c the end\n", "p 3 1\ne 0 1\n\n"],
        ids=["no-final-newline", "trailing-comment", "trailing-blank"],
    )
    def test_late_deviation_reads_no_slice(self, monkeypatch, text):
        # Text whose last line is not a canonical edge line goes to the
        # line parser before the first slice: only that one line is
        # matched, where a slice holds several.
        matched = []
        fullmatch = graph_module.re.fullmatch

        def record(pattern, string, *args):
            matched.append(string)
            return fullmatch(pattern, string, *args)

        monkeypatch.setattr(graph_module.re, "fullmatch", record)
        assert from_edge_list(text) == graph_module._parse_lines(text)
        assert all(s.count("\n") <= 1 for s in matched)

    def test_peak_memory(self):
        # tracemalloc peaks on Q11 with CPython 3.11.7: 1.30 MB for the
        # line parser alone, 0.65 MB for the sliced reader, and 2.36 MB
        # for a reader that matches the whole text with one
        # non-possessive regex and splits it at once.
        tracemalloc.start()
        try:
            from_edge_list(Q11_TEXT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_800_000


class TestIsGeodesic:
    def test_paths(self):
        g = hypercube(2)
        assert is_geodesic(g, [0, 1, 3])
        assert is_geodesic(g, [2])
        assert not is_geodesic(g, [])
        assert not is_geodesic(g, [0, 1, 3, 2])  # not shortest
        assert not is_geodesic(g, [0, 3])  # non-adjacent
        assert not is_geodesic(g, [0, 1, 0])  # repeated

    @pytest.mark.parametrize("path", [[0, -1], [5, 1]])
    def test_vertex_outside_graph(self, path):
        assert not is_geodesic(hypercube(2), path)


def brute_defect(n, nbrs, dist, path):
    """Oracle for path_defect from neighbour sets and BFS distances, in the
    cascade's order: repeat, range, adjacency, length."""
    if len(set(path)) != len(path):
        return "repeated vertex"
    if any(x not in range(n) for x in path):
        return "vertex not in graph"
    if any(b not in nbrs[a] for a, b in zip(path, path[1:])):
        return "non-adjacent step"
    if len(path) - 1 != dist[path[0]][path[-1]]:
        return "not a shortest path"
    return None


def brute_tables(n, edges):
    """Neighbour sets and, per source, a dict of BFS distances over its
    component, from a plain queue BFS: the inputs of ``brute_defect``."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    dist = []
    for s in range(n):
        d = {s: 0}
        queue = deque([s])
        while queue:
            w = queue.popleft()
            for x in nbrs[w]:
                if x not in d:
                    d[x] = d[w] + 1
                    queue.append(x)
        dist.append(d)
    return nbrs, dist


def _q3_edges():
    return [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b]


# Small graphs whose every short vertex sequence is checked against the
# oracle; the last has two components.
SHORT_SEQUENCE_GRAPHS = {
    "Q3": (8, _q3_edges()),
    "C5": (5, [(i, (i + 1) % 5) for i in range(5)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "P3+C3": (6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]),
}


class TestPathDefect:
    @pytest.mark.parametrize("name", ["Q3", "C5", "P4", "P3+C3"])
    def test_matches_brute_force_on_every_short_sequence(self, name):
        n, edges = SHORT_SEQUENCE_GRAPHS[name]
        g = graph_from_edges(n, edges)
        nbrs, dist = brute_tables(n, edges)
        alphabet = [-1, *range(n + 1), 10**12]
        for length in range(1, 6):
            for start in range(n):
                for rest in itertools.product(alphabet, repeat=length - 1):
                    path = [start, *rest]
                    want = brute_defect(n, nbrs, dist, path)
                    assert path_defect(g, path) == want, path


class TestGraphRows:
    """Builders whose rows are symmetric by construction skip Graph's
    checks; their graphs must pass them."""

    @pytest.mark.parametrize(
        "g",
        [hypercube(d) for d in range(9)]
        + [complete_bipartite(a, b) for a, b in [(1, 1), (1, 5), (3, 3), (4, 7), (8, 9)]]
        + [crown(k) for k in range(3, 9)],
        ids=repr,
    )
    def test_families_pass_the_checks(self, g):
        checked = Graph(g.n, g.adj, g.family)
        assert checked == g and checked.family == g.family

    @pytest.mark.parametrize("seed", range(12))
    def test_edge_lists_pass_the_checks(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 30)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randrange(len(pairs) + 1))
        text = f"p {n} {len(edges)}\n" + "".join(f"e {v} {u}\n" for u, v in edges)
        for g in (graph_from_edges(n, edges), from_edge_list(text)):
            assert Graph(g.n, g.adj) == g
            assert list(g.edges()) == sorted(edges)

    @pytest.mark.parametrize(
        "n, rows, error, message",
        [
            (2, [2], ValueError, "adjacency must have one row per vertex"),
            (2, [0b100, 0], IndexOutOfRange, "row 0 refers to vertices >= 2"),
            (2, [0b01, 0], ValueError, "self-loop at vertex 0"),
            (3, [0b010, 0, 0], ValueError, "asymmetric adjacency between 0 and 1"),
        ],
        ids=["row-count", "out-of-range", "self-loop", "asymmetric"],
    )
    def test_graph_checks_outside_rows(self, n, rows, error, message):
        with pytest.raises(error) as exc:
            Graph(n, rows)
        assert exc.type is error and str(exc.value) == message

    def test_negative_order_is_rejected(self):
        with pytest.raises(ValueError, match="one row per vertex"):
            graph_from_edges(-1, [])


class TestGeodesics:
    def test_q3_two_flips(self):
        g = hypercube(3)
        paths = enumerate_geodesics(g, 0b000, 0b011)
        assert len(paths) == 2
        assert paths == sorted(paths)

    def test_q3_antipodal(self):
        g = hypercube(3)
        paths = enumerate_geodesics(g, 0, 7)
        assert len(paths) == 6

    def test_crown4_matched_pair(self):
        g = crown(4)
        paths = enumerate_geodesics(g, 0, 4)
        assert len(paths) == 6
        for p in paths:
            assert len(p) == 4
            s, t = p[1] - 4, p[2]
            assert s != 0 and t != 0 and s != t

    def test_count_q4_antipodal(self):
        assert count_geodesics(hypercube(4), 0, 15) == 24

    def test_explosion_raises(self):
        g = hypercube(4)
        with pytest.raises(GeodesicExplosion):
            enumerate_geodesics(g, 0, 15, cap=10)
        # 12! geodesics, past the default cap: it must raise before
        # building a single path, while counting them stays cheap.
        q12 = hypercube(12)
        with pytest.raises(GeodesicExplosion) as exc:
            enumerate_geodesics(q12, 0, 4095)
        assert str(exc.value) == "479001600 geodesics between 0 and 4095 exceed cap 1000000"
        assert count_geodesics(q12, 0, 4095) == 479001600

    def test_unreachable(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(Unreachable):
            enumerate_geodesics(g, 0, 3)
        with pytest.raises(Unreachable, match="no path between 0 and 3"):
            count_geodesics(g, 0, 3)
        assert distances_from(g, 0)[3] is None

    def test_lexicographic_and_valid(self):
        for g in (hypercube(3), crown(4), complete_bipartite(3, 4)):
            dist = {u: distances_from(g, u) for u in range(g.n)}
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    paths = enumerate_geodesics(g, u, v)
                    assert paths == sorted(paths)
                    d = dist[u][v]
                    for p in paths:
                        assert len(p) - 1 == d
                        for w in p[1:-1]:
                            assert dist[u][w] + dist[w][v] == d

    def test_count_matches_enumeration_all_pairs(self):
        graphs = [
            hypercube(3),
            hypercube(4),
            crown(4),
            crown(5),
            complete_bipartite(3, 5),
            complete_bipartite(4, 4),
        ]
        for g in graphs:
            assert g.n <= 16
            for u, v in itertools.combinations(range(g.n), 2):
                assert count_geodesics(g, u, v) == len(enumerate_geodesics(g, u, v))

    def test_enumeration_matches_brute_force(self):
        for g in (hypercube(3), crown(3), complete_bipartite(2, 3)):
            for u, v in itertools.combinations(range(g.n), 2):
                assert enumerate_geodesics(g, u, v) == brute_force_shortest_paths(g, u, v)


class TestBfsLevels:
    def test_q4_levels_are_popcount_classes(self):
        levels = bfs_levels(hypercube(4), 0)
        assert levels == [
            sum(1 << v for v in range(16) if bin(v).count("1") == k) for k in range(5)
        ]

    def test_depth_ends_at_that_level(self):
        g = hypercube(4)
        for depth in range(6):
            assert bfs_levels(g, 0, depth=depth) == bfs_levels(g, 0)[: depth + 1]
        path = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert bfs_levels(path, 0, depth=7) == [0b1, 0b10, 0b100]

    def test_component_only(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert bfs_levels(g, 0) == [0b1, 0b10, 0b100]

    def test_out_of_range(self):
        g = hypercube(2)
        for u in (-1, 4):
            with pytest.raises(IndexOutOfRange):
                bfs_levels(g, u)
            with pytest.raises(IndexOutOfRange):
                distances_from(g, u)
            with pytest.raises(IndexOutOfRange):
                count_geodesics(g, 0, u)


class TestDiameter:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_hypercube_diameter(self, n):
        assert diameter(hypercube(n)) == n

    @pytest.mark.parametrize("nm", [(2, 2), (2, 5), (3, 3), (4, 7)])
    def test_bipartite_diameter(self, nm):
        assert diameter(complete_bipartite(*nm)) == 2

    def test_disconnected_raises(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            diameter(g)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: graph_from_edges(3, [(0, 5)]), IndexOutOfRange,
         "edge (0,5) out of range for 3 vertices"),
        (lambda: graph_from_edges(3, [(1, 1)]), ParseError, "self-loop at vertex 1"),
        (lambda: complete_bipartite(0, 3), ParseError, "both sides must be nonempty"),
        (lambda: diameter(graph_from_edges(0, [])), Disconnected, "empty graph"),
        (lambda: Geodesics(hypercube(2)).count(1, 1), ValueError, "endpoints must differ"),
        (lambda: from_edge_list("p 3\n"), ParseError,
         "line 1: header must be 'p <vertices> <edges>'"),
        (lambda: from_edge_list("p -1 0\n"), ParseError, "line 1: negative header field"),
        (lambda: from_edge_list("c only\n"), ParseError, "missing 'p' header line"),
    ],
    ids=["edge-range", "self-loop", "empty-side", "empty-diameter", "same-endpoints",
         "short-header", "negative-header", "no-header"],
)
def test_argument_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message
