"""Immutable bitset graphs, family generators, and geodesic machinery.

Vertices are dense 0-based indices; each adjacency row is a Python int
used as a bit set over vertex indices.  Hypercube vertices encode the
bit string b1..bn with b1 as the most significant bit, so string labels
from the construction templates map directly onto integers.

All distance questions go through one primitive, ``bfs_levels``: a BFS
whose levels are bitsets, each found by OR-ing the adjacency rows of the
previous level (the bit-parallel BFS of Akiba, Iwata and Yoshida, SIGMOD
2013).  Distances, connectivity, the diameter, geodesic checks, the
u-v interval that geodesic counting and enumeration walk, and the
all-pairs interval table of the exact solver are all read off its levels.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DimensionTooLarge,
    Disconnected,
    DisconnectedFamily,
    GeodesicExplosion,
    IndexOutOfRange,
    ParseError,
    Unreachable,
)

Path = list[int]

DEFAULT_GEODESIC_CAP = 10**6

# Adjacency rows take about n^2 / 8 bytes, so this budget is 128 MiB.
MAX_VERTICES = 1 << 15


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class Graph:
    """Simple undirected graph, immutable after construction."""

    __slots__ = ("n", "adj", "family")

    def __init__(self, n: int, adj: Iterable[int], family: Optional[tuple] = None):
        rows = tuple(adj)
        if len(rows) != n:
            raise ValueError("adjacency must have one row per vertex")
        for u, row in enumerate(rows):
            if row >> n:
                raise IndexOutOfRange(f"row {u} refers to vertices >= {n}")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u, row in enumerate(rows):
            for v in iter_bits(row):
                if not rows[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = rows
        self.family = family

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        tag = f", family={self.family!r}" if self.family else ""
        return f"Graph(n={self.n}, edges={self.edge_count()}{tag})"

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(row):
                out.append((u, v))
        return out

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def label(self, v: int) -> str:
        """Human-readable vertex label derived from the family tag."""
        if self.family and self.family[0] == "hypercube":
            return format(v, f"0{max(self.family[1], 1)}b") if self.family[1] else "0"
        if self.family and self.family[0] in ("complete_bipartite", "crown"):
            n = self.family[1]
            return f"x{v}" if v < n else f"y{v - n}"
        return str(v)


def _check_order(n: int, what: str) -> None:
    """Reject a graph of more than MAX_VERTICES vertices before allocating it."""
    if n > MAX_VERTICES:
        raise DimensionTooLarge(f"{what} has {n} vertices, more than the limit {MAX_VERTICES}")


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]], family: Optional[tuple] = None) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise ParseError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows, family)


def hypercube(n: int) -> Graph:
    """Hypercube on 2^n vertices; i ~ j iff they differ in exactly one bit.

    Memory grows as 4^n, so cubes of more than MAX_VERTICES vertices are
    rejected.
    """
    max_dim = MAX_VERTICES.bit_length() - 1
    if not 0 <= n <= max_dim:
        raise DimensionTooLarge(f"hypercube dimension {n} outside [0, {max_dim}]")
    size = 1 << n
    rows = []
    for v in range(size):
        row = 0
        for b in range(n):
            row |= 1 << (v ^ (1 << b))
        rows.append(row)
    return Graph(size, rows, ("hypercube", n))


def complete_bipartite(n: int, m: int) -> Graph:
    """K_{n,m} with X = 0..n-1 and Y = n..n+m-1."""
    if n < 1 or m < 1:
        raise ParseError("both sides must be nonempty")
    _check_order(n + m, f"K({n},{m})")
    x_mask = (1 << n) - 1
    y_mask = ((1 << m) - 1) << n
    rows = [y_mask] * n + [x_mask] * m
    return Graph(n + m, rows, ("complete_bipartite", n, m))


def crown(n: int) -> Graph:
    """K_{n,n} minus a perfect matching: x_i ~ y_j iff i != j.

    For n < 3 the graph is disconnected, so those sizes are rejected.
    """
    if n < 3:
        raise DisconnectedFamily(f"crown({n}) is disconnected; need n >= 3")
    _check_order(2 * n, f"crown({n})")
    rows = []
    y_all = ((1 << n) - 1) << n
    x_all = (1 << n) - 1
    for i in range(n):
        rows.append(y_all ^ (1 << (n + i)))
    for i in range(n):
        rows.append(x_all ^ (1 << i))
    return Graph(2 * n, rows, ("crown", n))


def from_edge_list(text: str) -> Graph:
    """Parse the edge-list format: ``p <n> <m>`` header then ``e <u> <v>`` lines.

    Lines starting with ``c`` and blank lines are ignored; duplicate edges
    are deduplicated silently.
    """
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: header must be 'p <vertices> <edges>'")
            try:
                n = int(fields[1])
                declared = int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header field") from None
            if n < 0 or declared < 0:
                raise ParseError(f"line {lineno}: negative header field")
            _check_order(n, f"line {lineno}: the header")
        elif fields[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: edge must be 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint") from None
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"line {lineno}: vertex out of range")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop")
            edges.add((min(u, v), max(u, v)))
        else:
            raise ParseError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise ParseError("missing 'p' header line")
    return graph_from_edges(n, edges)


def to_edge_list(g: Graph) -> str:
    """Emit the edge-list format; parse(emit(g)) reproduces g exactly."""
    lines = [f"p {g.n} {g.edge_count()}"]
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def _neighbourhood(adj: tuple[int, ...], mask: int) -> int:
    """Union of the adjacency rows of the vertices in ``mask``."""
    reach = 0
    while mask:
        # Clearing the top bit shrinks the int, which is cheaper than
        # clearing the lowest on wide masks.
        top = mask.bit_length() - 1
        reach |= adj[top]
        mask ^= 1 << top
    return reach


def bfs_levels(g: Graph, u: int, stop: int = 0) -> list[int]:
    """Level sets of a BFS from u: ``levels[k]`` is the bitset of the
    vertices at distance k, and the union of all levels is u's component.

    Each level is the OR of the adjacency rows of the previous level,
    less every vertex already seen.  The search ends after the first
    level that meets the bitset ``stop``, or when no new vertex is found.
    """
    if not 0 <= u < g.n:
        raise IndexOutOfRange(f"vertex {u} out of range")
    adj = g.adj
    frontier = seen = 1 << u
    levels = [frontier]
    while not frontier & stop:
        frontier = _neighbourhood(adj, frontier) & ~seen
        if not frontier:
            break
        seen |= frontier
        levels.append(frontier)
    return levels


def distances_from(g: Graph, u: int) -> list[Optional[int]]:
    """BFS distances from u; unreachable vertices carry None."""
    dist: list[Optional[int]] = [None] * g.n
    for k, level in enumerate(bfs_levels(g, u)):
        for w in iter_bits(level):
            dist[w] = k
    return dist


def is_connected(g: Graph) -> bool:
    # Levels are disjoint, so their sum is the component of vertex 0.
    return g.n > 0 and sum(bfs_levels(g, 0)) == (1 << g.n) - 1


def _geodesic_interval(g: Graph, u: int, v: int) -> tuple[list[int], int]:
    """The u-v interval by level, and the number of u-v geodesics.

    ``interval[k]`` is the bitset of vertices at distance k from u that
    lie on some shortest u-v path.  One BFS from u stops at v's level; a
    backward sweep keeps the level-k vertices adjacent to level k + 1 of
    the interval.
    """
    if u == v:
        raise ValueError("endpoints must differ")
    if not 0 <= v < g.n:
        raise IndexOutOfRange(f"vertex {v} out of range")
    levels = bfs_levels(g, u, 1 << v)
    if not levels[-1] >> v & 1:
        raise Unreachable(f"no path between {u} and {v}")
    adj = g.adj
    d = len(levels) - 1
    interval = [0] * (d + 1)
    interval[d] = 1 << v
    ways = {v: 1}
    for k in range(d - 1, -1, -1):
        nxt = interval[k + 1]
        interval[k] = level = levels[k] & _neighbourhood(adj, nxt)
        for w in iter_bits(level):
            ways[w] = sum(ways[x] for x in iter_bits(adj[w] & nxt))
    return interval, ways[u]


def count_geodesics(g: Graph, u: int, v: int) -> int:
    """Number of distinct shortest u-v paths, counted exactly on the BFS DAG."""
    return _geodesic_interval(g, u, v)[1]


def enumerate_geodesics(g: Graph, u: int, v: int, cap: int = DEFAULT_GEODESIC_CAP) -> list[Path]:
    """All shortest u-v paths in lexicographic order of vertex sequences.

    The count is established first via DAG counting; if it exceeds ``cap``
    a GeodesicExplosion is raised without enumerating anything.
    """
    interval, total = _geodesic_interval(g, u, v)
    if total > cap:
        raise GeodesicExplosion(f"{total} geodesics between {u} and {v} exceed cap {cap}")

    adj = g.adj
    d = len(interval) - 1
    paths: list[Path] = []
    path = [u]

    def walk(w: int, k: int) -> None:
        if k == d:
            paths.append(list(path))
            return
        for x in iter_bits(adj[w] & interval[k + 1]):
            path.append(x)
            walk(x, k + 1)
            path.pop()

    walk(u, 0)
    return paths


def diameter(g: Graph) -> int:
    """Max eccentricity over all vertices; raises Disconnected when apt."""
    if g.n == 0:
        raise Disconnected("empty graph")
    if not is_connected(g):
        raise Disconnected("graph is not connected")
    return max(len(bfs_levels(g, u)) - 1 for u in range(g.n))


def geodesic_table(g: Graph) -> tuple[int, list[list[int]], list[list[int]]]:
    """Diameter, intervals and geodesic counts of a connected graph,
    from one BFS per vertex.

    ``interval[u][v]`` is the bitset of the vertices on some shortest u-v
    path: the union over k of level k from u and level d(u, v) - k from v.
    ``count[u][v]`` is the number of u-v geodesics, summed level by level
    from u over the previous level's neighbours (Brandes' sigma sweep).
    """
    levels = [bfs_levels(g, u) for u in range(g.n)]
    dist = [[0] * g.n for _ in range(g.n)]
    count = [[0] * g.n for _ in range(g.n)]
    for u, lv in enumerate(levels):
        du, cu = dist[u], count[u]
        cu[u] = 1
        for k in range(1, len(lv)):
            for w in iter_bits(lv[k]):
                du[w] = k
                cu[w] = sum(cu[x] for x in iter_bits(g.adj[w] & lv[k - 1]))
    # Levels are disjoint, so the sum of the meets is their union.
    interval = [
        [sum(lu[k] & lv[d - k] for k in range(d + 1)) for lv, d in zip(levels, dist[u])]
        for u, lu in enumerate(levels)
    ]
    return max(map(len, levels)) - 1, interval, count


def path_defect(
    g: Graph, path: Sequence[int], levels: Optional[list[int]] = None
) -> Optional[str]:
    """Why the nonempty ``path`` is not a shortest path of g, or None.

    ``levels`` are the BFS levels from ``path[0]`` when the caller keeps
    them; a path with k edges is a shortest path iff its end is in level k.
    """
    if len(set(path)) != len(path):
        return "repeated vertex"
    if min(path) < 0 or max(path) >= g.n:
        return "vertex not in graph"
    adj = g.adj
    if any(not adj[a] >> b & 1 for a, b in zip(path, path[1:])):
        return "non-adjacent step"
    if levels is None:
        levels = bfs_levels(g, path[0], 1 << path[-1])
    k = len(path) - 1
    if k >= len(levels) or not levels[k] >> path[-1] & 1:
        return "not a shortest path"
    return None


def is_geodesic(g: Graph, path: Path) -> bool:
    """True iff path is a shortest path of g (adjacency, no repeats, length)."""
    return bool(path) and path_defect(g, path) is None
