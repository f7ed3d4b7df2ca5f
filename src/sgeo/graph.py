"""Immutable bitset graphs, family generators, and geodesic machinery.

Vertices are dense 0-based indices; each adjacency row is a Python int
used as a bit set over vertex indices.  Hypercube vertices encode the
bit string b1..bn with b1 as the most significant bit, so string labels
from the construction templates map directly onto integers.

All distance questions go through one primitive, ``bfs_levels``: a BFS
whose levels are bitsets, each found by OR-ing the adjacency rows of the
previous level (the bit-parallel BFS of Akiba, Iwata and Yoshida, SIGMOD
2013), cut at an optional ``depth``.  Distances, connectivity and the
diameter are read off its levels, and so is ``path_defect``'s length
check, from one search cut one level short of the path's length.  Every
question about the geodesics themselves goes to ``Geodesics``, which
keeps one DAG per source: the levels plus each vertex's level index.
The u-v interval is read off the DAGs of u and v, and counting,
enumeration and the decision search's segment table all start from it.

``Graph(n, adj)`` checks rows that come from outside: one row per
vertex, no bit at or above n, no self-loop, and symmetry.  The family
generators, ``graph_from_edges`` and ``from_edge_list`` build their rows
symmetric by construction (the last two check each edge and set both
directions), so they skip that check.
"""

from __future__ import annotations

import re
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

    @classmethod
    def _symmetric(cls, n: int, rows: list[int], family: Optional[tuple] = None) -> Graph:
        """A graph on rows the caller built in range, loop-free and
        symmetric; only their count is checked."""
        if len(rows) != n:
            raise ValueError("adjacency must have one row per vertex")
        g = object.__new__(cls)
        g.n = n
        g.adj = tuple(rows)
        g.family = family
        return g

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

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, read off the rows in order."""
        for u, row in enumerate(self.adj):
            for v in iter_bits(row >> (u + 1) << (u + 1)):
                yield u, v

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def _check_order(n: int, what: str) -> None:
    """Reject a graph of more than MAX_VERTICES vertices before allocating it."""
    if n > MAX_VERTICES:
        raise DimensionTooLarge(f"{what} has {n} vertices, more than the limit {MAX_VERTICES}")


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise ParseError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._symmetric(n, rows)


def hypercube(n: int) -> Graph:
    """Hypercube on 2^n vertices; i ~ j iff they differ in exactly one bit.

    Memory grows as 4^n, so cubes of more than MAX_VERTICES vertices are
    rejected.
    """
    max_dim = MAX_VERTICES.bit_length() - 1
    if not 0 <= n <= max_dim:
        raise DimensionTooLarge(f"hypercube dimension {n} outside [0, {max_dim}]")
    # Q_{k+1} is two copies of Q_k, vertex v of the first joined to v + 2^k.
    rows = [0]
    for k in range(n):
        h = 1 << k
        rows = [r | 1 << (v + h) for v, r in enumerate(rows)] + [r << h | 1 << v for v, r in enumerate(rows)]
    return Graph._symmetric(1 << n, rows, ("hypercube", n))


def complete_bipartite(n: int, m: int) -> Graph:
    """K_{n,m} with X = 0..n-1 and Y = n..n+m-1."""
    if n < 1 or m < 1:
        raise ParseError("both sides must be nonempty")
    _check_order(n + m, f"K({n},{m})")
    x_mask = (1 << n) - 1
    y_mask = ((1 << m) - 1) << n
    rows = [y_mask] * n + [x_mask] * m
    return Graph._symmetric(n + m, rows, ("complete_bipartite", n, m))


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
    return Graph._symmetric(2 * n, rows, ("crown", n))


def from_edge_list(text: str) -> Graph:
    """Parse the edge-list format: ``p <n> <m>`` header then ``e <u> <v>`` lines.

    Lines starting with ``c`` and blank lines are ignored; duplicate edges
    are deduplicated silently.  Canonical text is read in line-aligned slices,
    which bound the regex stack; the rest goes to ``_parse_lines``, which raises.
    """
    head = re.match(r"p ([0-9]+) ([0-9]+)\n", text)
    # Text that is not canonical up to its last line goes to the line
    # parser before any slice is read, so a late deviation costs no pass.
    last = text[text.rfind("\n", 0, -1) + 1:]
    if head is None or head.end() < len(text) and not re.fullmatch(r"e [0-9]+ [0-9]+\n", last):
        return _parse_lines(text)
    try:
        n, _ = map(int, head.groups())
        _check_order(n, "line 1: the header")
        rows, pos = [0] * n, head.end()
        while pos < len(text):
            chunk = text[pos:text.find("\n", pos + 4096) + 1 or len(text)]
            if not re.fullmatch(r"(?:e [0-9]+ [0-9]+\n)*", chunk):
                return _parse_lines(text)
            fields = chunk.split()
            for u, v in zip(map(int, fields[1::3]), map(int, fields[2::3])):
                if u >= n or v >= n or u == v:
                    return _parse_lines(text)
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            pos += len(chunk)
    except ValueError:  # a digit run over int()'s str-digit limit
        return _parse_lines(text)
    return Graph._symmetric(n, rows)


def _parse_lines(text: str) -> Graph:
    """``from_edge_list`` line by line, each edge OR-ed into the rows."""
    n = None
    rows: list[int] = []
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
            rows = [0] * n
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
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            raise ParseError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise ParseError("missing 'p' header line")
    return Graph._symmetric(n, rows)


def _edge_lines(g: Graph) -> Iterator[str]:
    """The edge-list format one line at a time, read off the adjacency
    rows, so a dense graph is written without holding its edges."""
    yield f"p {g.n} {g.edge_count()}\n"
    for u, v in g.edges():
        yield f"e {u} {v}\n"


def to_edge_list(g: Graph) -> str:
    """Emit the edge-list format; parse(emit(g)) reproduces g exactly."""
    return "".join(_edge_lines(g))


def bfs_levels(g: Graph, u: int, depth: Optional[int] = None) -> list[int]:
    """Level sets of a BFS from u: ``levels[k]`` is the bitset of the
    vertices at distance k, and the union of all levels is u's component.

    Each level is the OR of the adjacency rows of the previous level,
    less every vertex already seen.  The search ends after level
    ``depth`` when a depth is given, or when no new vertex is found; so
    a bounded search returns at most ``depth + 1`` levels, fewer when
    u's component ends sooner.
    """
    if not 0 <= u < g.n:
        raise IndexOutOfRange(f"vertex {u} out of range")
    adj = g.adj
    frontier = seen = 1 << u
    levels = [frontier]
    # No BFS has more than n levels, so n bounds an unbounded search.
    last = g.n if depth is None else depth
    while len(levels) <= last:
        reach = 0
        while frontier:
            # Clearing the top bit shrinks the int, which is cheaper than
            # clearing the lowest on wide masks.
            top = frontier.bit_length() - 1
            reach |= adj[top]
            frontier ^= 1 << top
        frontier = reach & ~seen
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
    return Geodesics(g).connected()


class Geodesics:
    """The geodesic DAGs of one graph, one per source, each built on first use.

    The DAG from u is u's BFS levels plus, for every vertex w, its level
    index ``dist[w]``, which is 0 outside u's component.  Its arcs are the
    edges between consecutive levels, read off the adjacency rows.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.dags: list = [None] * g.n

    def dag(self, u: int) -> tuple[list[int], list[int]]:
        """(levels, dist) from u."""
        dag = self.dags[u]
        if dag is None:
            levels = bfs_levels(self.g, u)
            dist = [0] * self.g.n
            for k in range(1, len(levels)):
                for w in iter_bits(levels[k]):
                    dist[w] = k
            dag = self.dags[u] = (levels, dist)
        return dag

    def connected(self) -> bool:
        """Nonempty, and the disjoint levels from vertex 0 sum to every vertex."""
        return self.g.n > 0 and sum(self.dag(0)[0]) == (1 << self.g.n) - 1

    def count(self, u: int, v: int) -> int:
        """Number of u-v geodesics, u != v; raises Unreachable when none.
        The sigma sweep (Brandes, J. Math. Sociol. 2001) runs over the u-v
        interval, which holds every u-w geodesic of each of its vertices w."""
        if u == v:
            raise ValueError("endpoints must differ")
        for x in (v, u):
            if not 0 <= x < self.g.n:
                raise IndexOutOfRange(f"vertex {x} out of range")
        if not self.dag(u)[1][v]:
            raise Unreachable(f"no path between {u} and {v}")
        adj = self.g.adj
        levels = self.interval(u, v)
        sigma = {u: 1}
        for prev, level in zip(levels, levels[1:]):
            for w in iter_bits(level):
                sigma[w] = sum(sigma[x] for x in iter_bits(adj[w] & prev))
        return sigma[v]

    def interval(self, u: int, v: int) -> list[int]:
        """The u-v interval by level: level k holds the vertices at
        distance k from u on some shortest u-v path, which is level k
        from u met with level d(u, v) - k from v."""
        levels, dist = self.dag(u)
        back = self.dag(v)[0]
        d = dist[v]
        return [levels[k] & back[d - k] for k in range(d + 1)]

def count_geodesics(g: Graph, u: int, v: int) -> int:
    """Number of distinct shortest u-v paths, summed over their interval."""
    return Geodesics(g).count(u, v)


def enumerate_geodesics(g: Graph, u: int, v: int, cap: int = DEFAULT_GEODESIC_CAP) -> list[Path]:
    """All shortest u-v paths in lexicographic order of vertex sequences.

    The count is read off the DAG first; if it exceeds ``cap`` a
    GeodesicExplosion is raised without enumerating anything.
    """
    geo = Geodesics(g)
    total = geo.count(u, v)
    if total > cap:
        raise GeodesicExplosion(f"{total} geodesics between {u} and {v} exceed cap {cap}")
    adj = g.adj
    # Extending the partial paths in order, each by its next vertices in
    # ascending order, keeps them in lexicographic order.
    paths = [[u]]
    for level in geo.interval(u, v)[1:]:
        paths = [p + [x] for p in paths for x in iter_bits(adj[p[-1]] & level)]
    return paths


def diameter(g: Graph) -> int:
    """Max eccentricity over all vertices; raises Disconnected when apt."""
    if g.n == 0:
        raise Disconnected("empty graph")
    if not is_connected(g):
        raise Disconnected("graph is not connected")
    return max(len(bfs_levels(g, u)) - 1 for u in range(g.n))


def path_defect(g: Graph, path: Sequence[int]) -> Optional[str]:
    """Why the nonempty ``path`` is not a shortest path of g, or None.

    The checks name the first defect, in the order repeat, vertex range,
    adjacency, length.  Once they pass, a walk of L >= 1 edges is a
    shortest path exactly when its end is not within L - 1 of its start,
    so one BFS from the start, cut at depth L - 1, decides the length.
    A single vertex is a shortest path of length 0.
    """
    if len(set(path)) != len(path):
        return "repeated vertex"
    if min(path) < 0 or max(path) >= g.n:
        return "vertex not in graph"
    adj = g.adj
    if any(not adj[a] >> b & 1 for a, b in zip(path, path[1:])):
        return "non-adjacent step"
    # Levels are disjoint, so their sum is the ball of radius L - 1.
    if len(path) > 1 and sum(bfs_levels(g, path[0], depth=len(path) - 2)) >> path[-1] & 1:
        return "not a shortest path"
    return None


def is_geodesic(g: Graph, path: Path) -> bool:
    """True iff path is a shortest path of g (adjacency, no repeats, length)."""
    return bool(path) and path_defect(g, path) is None
