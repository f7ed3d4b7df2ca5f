"""Witness verification and the strong-geodetic-set decision search.

A witness fixes exactly one geodesic per unordered pair of the selected
set; the set is strong geodetic when the fixed paths cover every vertex.
``verify_witness`` checks each path in one pass: every step must be an
edge, and a walk of L steps is then a shortest path exactly when its
ends are L apart, that is when the ball of radius L // 2 about its start
and the ball of radius (L - 1) // 2 about its end are disjoint (the two
halves of a bidirectional search, Pohl, Machine Intelligence 6, 1971).
Each selected vertex gets one BFS, cut at the largest radius its paths
need, and the pass collects each path's cover mask on the way.  Only a
rejected path is examined again, to name its defect.

One search, ``_search``, both decides a set and builds its witness.  It
never lists a pair's geodesics: each pair keeps a chain of vertices its
path must pass and can still cover every vertex of the intervals
between consecutive chain vertices, read off a ``_PairCache``: the
graph's ``Geodesics``, which the exact solver shares, plus a segment
table that the search reads directly and asks to fill only on a miss.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .errors import Disconnected, MalformedWitness
from .graph import Geodesics, Graph, Path, bfs_levels, path_defect


class PairGeodesic(NamedTuple):
    u: int
    v: int
    path: tuple[int, ...]


class Witness(NamedTuple):
    """A vertex set plus one fixed geodesic per unordered pair of it."""

    vertices: tuple[int, ...]
    assignment: tuple[PairGeodesic, ...]

    def size(self) -> int:
        return len(self.vertices)


class CoverageReport(SimpleNamespace):
    """``covered``, ``uncovered_vertices`` and ``invalid_paths`` as
    ((u, v), reason); mutable and compared by value."""


def make_witness(vertices, pair_paths: dict[tuple[int, int], Path]) -> Witness:
    keys = sorted(pair_paths)
    paths = map(tuple, map(pair_paths.__getitem__, keys))
    assignment = tuple(map(PairGeodesic, map(itemgetter(0), keys), map(itemgetter(1), keys), paths))
    return Witness(tuple(sorted(vertices)), assignment)


def witness_to_dict(w: Witness) -> dict:
    return {
        "set": list(w.vertices),
        "assignment": [
            {"u": u, "v": v, "path": list(path)} for u, v, path in w.assignment
        ],
    }


def _vertex(x) -> int:
    """x itself if it is a JSON integer; floats, strings and booleans fail."""
    if type(x) is not int:
        raise TypeError(f"vertex {x!r} is not an integer")
    return x


def _vertices(xs) -> tuple[int, ...]:
    """xs as a tuple of JSON integers, checked by one type set; only a
    failing list goes through ``_vertex``, which names its first bad vertex."""
    xs = tuple(xs)
    return xs if set(map(type, xs)) <= {int} else tuple(map(_vertex, xs))


def _assignment(items) -> tuple[PairGeodesic, ...]:
    """The pairs of a witness document's assignment.  The u, v and path
    columns are read and type-checked once each; if that fails, the items
    are read one by one, which raises for the first bad item."""
    items = list(items)
    try:
        us, vs = [a["u"] for a in items], [a["v"] for a in items]
        paths = [tuple(a["path"]) for a in items]
        types = set(map(type, us)) | set(map(type, vs)) | set(map(type, chain.from_iterable(paths)))
        if types <= {int}:
            return tuple(map(PairGeodesic, us, vs, paths))
    except (KeyError, TypeError):
        pass
    return tuple(PairGeodesic(_vertex(a["u"]), _vertex(a["v"]), _vertices(a["path"])) for a in items)


def witness_from_dict(data: dict) -> Witness:
    try:
        return Witness(_vertices(data["set"]), _assignment(data["assignment"]))
    except (KeyError, TypeError) as exc:
        raise MalformedWitness(f"bad witness document: {exc}") from None


def report_to_dict(r: CoverageReport) -> dict:
    return {
        "covered": r.covered,
        "uncovered_vertices": list(r.uncovered_vertices),
        "invalid_paths": [
            {"pair": [u, v], "reason": reason} for (u, v), reason in r.invalid_paths
        ],
    }


def verify_witness(g: Graph, w: Witness) -> CoverageReport:
    """Check a witness against a graph, reporting all violations.

    Raises MalformedWitness for structural defects (vertices outside the
    graph, a missing or duplicated pair).  Path-level problems are
    reported in the result instead of raised.
    """
    sel = sorted(set(w.vertices))
    if len(sel) != len(w.vertices):
        raise MalformedWitness("selected set contains duplicates")
    for v in sel:
        if not 0 <= v < g.n:
            raise MalformedWitness(f"vertex {v} not in graph")

    # One pass over the assignment checks its pairs and records, for each
    # path whose ends match its pair, the ball radius each end needs.
    n = g.n
    selected = set(sel)
    seen: set[int] = set()
    radius = [-1] * n
    for u, v, path in w.assignment:
        if u > v:
            u, v = v, u
        if u == v or u not in selected or v not in selected:
            raise MalformedWitness(f"assignment pair {(u, v)} not a pair of the set")
        key = u * n + v
        if key in seen:
            raise MalformedWitness(f"duplicate assignment for pair {(u, v)}")
        seen.add(key)
        if path and (path[0] == u and path[-1] == v or path[0] == v and path[-1] == u):
            steps = len(path) - 1
            if radius[path[0]] < steps >> 1:
                radius[path[0]] = steps >> 1
            if radius[path[-1]] < (steps - 1) >> 1:
                radius[path[-1]] = (steps - 1) >> 1
    if len(seen) < len(sel) * (len(sel) - 1) // 2:
        missing = [(u, v) for u, v in combinations(sel, 2) if u * n + v not in seen]
        raise MalformedWitness(f"missing assignment for pairs {missing}")

    # balls[x][r] is the set of vertices within distance r of x, for every
    # radius up to the largest x needs; past x's component it stays whole.
    balls: list[Optional[list[int]]] = [None] * n
    for x in sel:
        if radius[x] >= 0:
            ball = 0
            grown = balls[x] = []
            for level in bfs_levels(g, x, depth=radius[x]):
                ball |= level
                grown.append(ball)
            grown += [ball] * (radius[x] + 1 - len(grown))

    adj = g.adj
    covered = 0
    for v in sel:
        covered |= 1 << v
    invalid: list[tuple[tuple[int, int], str]] = []
    for u, v, path in w.assignment:
        if path and (path[0] == u and path[-1] == v or path[0] == v and path[-1] == u):
            mask = 0
            row = -1  # the first vertex needs no edge into it
            for x in path:
                # x < 0 first: a vertex outside the graph is rejected by
                # right shifts alone, so even a huge one allocates nothing.
                if x < 0 or not row >> x & 1:
                    break
                mask |= 1 << x
                row = adj[x]
            else:
                # Every step is an edge: the walk is a shortest path
                # exactly when its two half-radius balls are disjoint.
                steps = len(path) - 1
                if not balls[path[0]][steps >> 1] & balls[path[-1]][(steps - 1) >> 1]:
                    covered |= mask
                    continue
            reason = path_defect(g, path)
        else:
            reason = "endpoints do not match pair"
        invalid.append(((min(u, v), max(u, v)), reason))

    uncovered = [v for v in range(g.n) if not covered >> v & 1]
    ok = not invalid and not uncovered
    return CoverageReport(covered=ok, uncovered_vertices=uncovered, invalid_paths=invalid)


class _PairCache(Geodesics):
    """A graph's geodesic DAGs plus its segment table, filled on first
    use: for the ordered pair (a, b), the a-b interval by level from a,
    its union, and its forced part, the union of the levels that hold
    one vertex, which every a-b geodesic passes.

    ``segments`` is keyed by the int a * n + b and holds only the pairs
    filled so far, so it never takes memory in proportion to n^2 and the
    decision takes graphs of up to ``graph.MAX_VERTICES`` vertices.
    ``get`` fills an entry; ``_search`` reads filled ones by subscript."""

    def __init__(self, g: Graph):
        super().__init__(g)
        self.segments: dict[int, tuple[list[int], int, int]] = {}

    def get(self, a: int, b: int) -> tuple[list[int], int, int]:
        key = a * self.g.n + b
        entry = self.segments.get(key)
        if entry is None:
            levels = self.interval(a, b)
            forced = sum(level for level in levels if not level & (level - 1))
            entry = self.segments[key] = (levels, sum(levels), forced)
        return entry


def _search(cache: _PairCache, sel: list[int]) -> Optional[Witness]:
    """The first witness for the sorted set sel in the search order, or None.

    Each pair (u, v) keeps a chain u = c0, ..., ck = v of vertices its
    path must pass, in distance order from u, and reaches the union of
    the intervals I(c_i, c_i+1): the vertices of the u-v geodesics
    through the chain.  The search branches on the lowest uncovered
    vertex x that only one pair reaches, else the lowest (Knuth's
    Algorithm X, arXiv cs/0011047).  Each pair that reaches x, in
    combinations order, may insert x into the one segment whose interval
    holds it, covering the forced parts of the two new segments.  A
    pair's reach fixes the geodesics it allows, so a node's state is the
    covered set and the index and reach of each live pair, one that can
    still cover something.  A branch node is one stack frame: its state,
    x's bit, the index among the state's live pairs of the option taken
    (-1 before the first) and the chain that option replaced, so a
    decision's memory is its stack.  At the root, each interior level of
    a pair's interval that meets the uncovered set is a slot: the pair's
    path passes exactly one vertex of that level, so a set with fewer
    slots than uncovered vertices fails unsearched.  A pair's witness
    path is the lexicographically first geodesic through its final chain.
    """
    n = cache.g.n
    full = (1 << n) - 1
    pairs = list(combinations(sel, 2))
    # Every segment of every chain is in seg; get is called only to fill one.
    seg, get = cache.segments, cache.get
    entries = [seg.get(u * n + v) or get(u, v) for u, v in pairs]
    covered = sum(1 << v for v in sel)
    for _, _, forced in entries:
        covered |= forced
    need = full & ~covered
    if sum(1 for levels, _, _ in entries for level in levels[1:-1] if level & need) < need.bit_count():
        return None
    chains = pairs[:]
    reaches = [union for _, union, _ in entries]
    stack: list[tuple] = []
    live = range(len(pairs))
    while need := full & ~covered:
        # Bit-sliced counters over the parent's live pairs, as an option only
        # shrinks reach: ones holds the vertices that some pair can still
        # reach, twos those that two or more can.
        ones = twos = 0
        parent, live = live, []
        for i in parent:
            reach = reaches[i] & need
            if reach:
                twos |= ones & reach
                ones |= reach
                live.append(i)
        if ones == need:
            state = (covered, tuple(live), tuple([reaches[i] for i in live]))
            pick = need & ~twos or need
            stack.append((state, pick & -pick, -1, None))
        # Undo the top frame's option and take its next one; a frame with
        # no option left is dropped.
        while stack:
            state, bit, k, chain = stack.pop()
            _, live, held = state
            if k >= 0:
                chains[live[k]] = chain
                reaches[live[k]] = held[k]
            k += 1
            while k < len(held) and not held[k] & bit:
                k += 1
            if k < len(held):
                break
        else:
            return None
        i = live[k]
        chain, x = chains[i], bit.bit_length() - 1
        j = 1
        while not seg[chain[j - 1] * n + chain[j]][1] & bit:
            j += 1
        a, b = chain[j - 1], chain[j]
        _, left, left_forced = seg.get(a * n + x) or get(a, x)
        _, right, right_forced = seg.get(x * n + b) or get(x, b)
        chains[i] = chain[:j] + (x,) + chain[j:]
        reaches[i] = held[k] & ~seg[a * n + b][1] | left | right
        stack.append((state, bit, k, chain))
        covered = state[0] | left_forced | right_forced

    adj = cache.g.adj
    paths = []
    for chain in chains:
        path = [chain[0]]
        for a, b in zip(chain, chain[1:]):
            for level in seg[a * n + b][0][1:]:
                step = adj[path[-1]] & level
                path.append((step & -step).bit_length() - 1)
        paths.append(path)
    return make_witness(sel, dict(zip(pairs, paths)))


def is_strong_geodetic_set(g: Graph, vertices) -> Optional[Witness]:
    """Search for a covering geodesic assignment over the given set.

    Returns a witness, or None when no assignment covers the graph.  The
    witness is the first the chain search ``_search`` finds; each pair's
    path is the lexicographically first geodesic through the vertices the
    search committed it to.  The search runs on an explicit stack, so no
    recursion limit bounds how many vertices it assigns.  Raises
    ValueError for an empty set, then Disconnected for a disconnected
    graph, then MalformedWitness for a vertex outside the graph.
    """
    sel = sorted(set(vertices))
    if not sel:
        raise ValueError("vertex set must be nonempty")
    cache = _PairCache(g)
    if not cache.connected():
        raise Disconnected("graph is not connected")
    for v in sel:
        if not 0 <= v < g.n:
            raise MalformedWitness(f"vertex {v} not in graph")
    return _search(cache, sel)
