"""Immutable bitset graphs, family generators, and geodesic machinery.

Vertices are dense 0-based indices; each adjacency row is a Python int
used as a bit set over vertex indices.  Hypercube vertices encode the
bit string b1..bn with b1 as the most significant bit, so string labels
from the construction templates map directly onto integers.

All distance questions go through one primitive, ``bfs_levels``: a BFS
whose levels are bitsets, each found by OR-ing the adjacency rows of the
previous level (the bit-parallel BFS of Akiba, Iwata and Yoshida, SIGMOD
2013).  Distances, connectivity, the diameter and geodesic checks are
read off its levels.  Every question about the geodesics themselves
goes to ``Geodesics``, which keeps one DAG per source: the levels plus
each vertex's geodesic count.  Counting, enumeration, intervals and the
exact solver's options all read those DAGs.
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

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, read off the rows in order."""
        for u, row in enumerate(self.adj):
            for v in iter_bits(row >> (u + 1) << (u + 1)):
                yield u, v

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
    are deduplicated silently.  Each edge is checked once and OR-ed
    straight into the adjacency rows.
    """
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
    return Graph(n, rows)


def _edge_lines(g: Graph) -> Iterator[str]:
    """The edge-list format one line at a time, read off the adjacency
    rows, so a dense graph is written without holding its edges."""
    yield f"p {g.n} {g.edge_count()}\n"
    for u, v in g.edges():
        yield f"e {u} {v}\n"


def to_edge_list(g: Graph) -> str:
    """Emit the edge-list format; parse(emit(g)) reproduces g exactly."""
    return "".join(_edge_lines(g))


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
    # Levels are disjoint, so their sum is the component of vertex 0.
    return g.n > 0 and sum(bfs_levels(g, 0)) == (1 << g.n) - 1


class Geodesics:
    """The geodesic DAGs of one graph, one per source, each built on first use.

    The DAG from u is u's BFS levels plus, for every vertex w, its level
    index ``dist[w]`` and ``sigma[w]``, the number of u-w geodesics: 1 at
    u, and at level k the sum over w's neighbours in level k - 1 (the
    sigma sweep of Brandes, J. Math. Sociol. 2001); sigma is 0 outside
    u's component.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.dags: list = [None] * g.n

    def dag(self, u: int) -> tuple[list[int], list[int], list[int]]:
        """(levels, dist, sigma) from u."""
        dag = self.dags[u]
        if dag is None:
            adj = self.g.adj
            levels = bfs_levels(self.g, u)
            dist = [0] * self.g.n
            sigma = [0] * self.g.n
            sigma[u] = 1
            for k in range(1, len(levels)):
                prev = levels[k - 1]
                for w in iter_bits(levels[k]):
                    dist[w] = k
                    sigma[w] = sum(sigma[x] for x in iter_bits(adj[w] & prev))
            dag = self.dags[u] = (levels, dist, sigma)
        return dag

    def count(self, u: int, v: int) -> int:
        """Number of u-v geodesics, u != v; raises Unreachable when none."""
        if u == v:
            raise ValueError("endpoints must differ")
        for x in (v, u):
            if not 0 <= x < self.g.n:
                raise IndexOutOfRange(f"vertex {x} out of range")
        total = self.dag(u)[2][v]
        if not total:
            raise Unreachable(f"no path between {u} and {v}")
        return total

    def interval(self, u: int, v: int) -> list[int]:
        """The u-v interval by level: level k holds the vertices at
        distance k from u on some shortest u-v path, which is level k
        from u met with level d(u, v) - k from v."""
        levels, dist, _ = self.dag(u)
        back = self.dag(v)[0]
        d = dist[v]
        return [levels[k] & back[d - k] for k in range(d + 1)]

    def masks(self, u: int, v: int, cap: int) -> list[int]:
        """Vertex sets of the u-v geodesics, in lexicographic order of
        their paths; raises GeodesicExplosion, before building any, when
        there are more than ``cap``."""
        total = self.count(u, v)
        if total > cap:
            raise GeodesicExplosion(f"{total} geodesics between {u} and {v} exceed cap {cap}")
        adj = self.g.adj
        # Extending the partial paths in order, each by its next vertices
        # in ascending order, keeps them in lexicographic order.
        ends = [(u, 1 << u)]
        for level in self.interval(u, v)[1:]:
            ends = [(x, m | 1 << x) for w, m in ends for x in iter_bits(adj[w] & level)]
        return [m for _, m in ends]


def mask_path(g: Graph, u: int, mask: int) -> Path:
    """The geodesic from u whose vertex set is ``mask``: a geodesic has
    no chords, so each step has one unvisited neighbour in the mask."""
    path = [u]
    rest = mask ^ 1 << u
    while rest:
        x = (g.adj[path[-1]] & rest).bit_length() - 1
        path.append(x)
        rest ^= 1 << x
    return path


def count_geodesics(g: Graph, u: int, v: int) -> int:
    """Number of distinct shortest u-v paths, read off u's geodesic DAG."""
    return Geodesics(g).count(u, v)


def enumerate_geodesics(g: Graph, u: int, v: int, cap: int = DEFAULT_GEODESIC_CAP) -> list[Path]:
    """All shortest u-v paths in lexicographic order of vertex sequences.

    The count is read off the DAG first; if it exceeds ``cap`` a
    GeodesicExplosion is raised without enumerating anything.
    """
    return [mask_path(g, u, m) for m in Geodesics(g).masks(u, v, cap)]


def diameter(g: Graph) -> int:
    """Max eccentricity over all vertices; raises Disconnected when apt."""
    if g.n == 0:
        raise Disconnected("empty graph")
    if not is_connected(g):
        raise Disconnected("graph is not connected")
    return max(len(bfs_levels(g, u)) - 1 for u in range(g.n))


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
