"""Witness verification and the strong-geodetic-set decision search.

A witness fixes exactly one geodesic per unordered pair of the selected
set; the set is strong geodetic when the fixed paths cover every vertex.
``verify_witness`` keeps the BFS level sets of each path start and checks
each path in one pass: it is a shortest path exactly when its k-th
vertex lies in level k and every step is an edge, and the pass collects
its cover mask on the way.  Only a rejected path is examined again, to
name its defect.
Deciding a set runs in two phases.  ``_decide`` answers yes or no by
branching on the uncovered vertex with the fewest options, each option
a pair and one of its geodesics, a geodesic's vertex set read off the
graph's geodesic DAGs.  Only a set it accepts goes to ``_search``,
which builds the witness: it backtracks over the pairs in a fixed
order, so its witness is the first in that order.  Both commit the
vertices shared by all of a pair's geodesics up front.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .errors import Disconnected, MalformedWitness
from .graph import (
    DEFAULT_GEODESIC_CAP,
    Geodesics,
    Graph,
    Path,
    bfs_levels,
    is_connected,
    iter_bits,
    mask_path,
    path_defect,
)


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
    verts = tuple(sorted(vertices))
    assignment = tuple(
        PairGeodesic(u, v, tuple(pair_paths[(u, v)]))
        for u, v in sorted(pair_paths)
    )
    return Witness(verts, assignment)


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


def witness_from_dict(data: dict) -> Witness:
    try:
        verts = tuple(_vertex(v) for v in data["set"])
        assignment = tuple(
            PairGeodesic(_vertex(a["u"]), _vertex(a["v"]), tuple(_vertex(x) for x in a["path"]))
            for a in data["assignment"]
        )
    except (KeyError, TypeError) as exc:
        raise MalformedWitness(f"bad witness document: {exc}") from None
    return Witness(verts, assignment)


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

    expected = {(u, v) for u, v in combinations(sel, 2)}
    seen: set[tuple[int, int]] = set()
    for u, v, _ in w.assignment:
        key = (min(u, v), max(u, v))
        if key not in expected:
            raise MalformedWitness(f"assignment pair {key} not a pair of the set")
        if key in seen:
            raise MalformedWitness(f"duplicate assignment for pair {key}")
        seen.add(key)
    missing = expected - seen
    if missing:
        raise MalformedWitness(f"missing assignment for pairs {sorted(missing)}")

    levels_from: dict[int, list[int]] = {}
    covered = 0
    for v in sel:
        covered |= 1 << v
    invalid: list[tuple[tuple[int, int], str]] = []
    for u, v, path in w.assignment:
        if len(path) < 2 or {path[0], path[-1]} != {u, v}:
            reason = "endpoints do not match pair"
        else:
            # path[0] is a selected vertex, so it is in the graph.
            levels = levels_from.get(path[0])
            if levels is None:
                levels = levels_from[path[0]] = bfs_levels(g, path[0])
            mask = g.geodesic_mask(path, levels)
            if mask:
                covered |= mask
                continue
            reason = path_defect(g, path, levels)
        invalid.append(((min(u, v), max(u, v)), reason))

    uncovered = [v for v in range(g.n) if not covered >> v & 1]
    ok = not invalid and not uncovered
    return CoverageReport(covered=ok, uncovered_vertices=uncovered, invalid_paths=invalid)


class _PairCache:
    """Per-graph cache of geodesic options keyed by vertex pair, read off
    the geodesic DAGs in ``geo``: the vertex sets of the pair's geodesics
    in the lexicographic order of their paths (a geodesic has one vertex
    per BFS level, so its set fixes it), the forced bitset shared by all
    of them, and their union, the interval."""

    def __init__(self, g: Graph, cap: int):
        self.cap = cap
        self.geo = Geodesics(g)
        self.data: dict[tuple[int, int], tuple] = {}

    def get(self, u: int, v: int):
        entry = self.data.get((u, v))
        if entry is None:
            masks = self.geo.masks(u, v, self.cap)
            union = sum(self.geo.interval(u, v))
            entry = self.data[u, v] = (masks, reduce(and_, masks), union)
        return entry


def _decide(g: Graph, sel: list[int], cache: _PairCache) -> bool:
    """Whether sel is strong geodetic, by branching on the uncovered
    vertex with the fewest options (Knuth's Algorithm X, "Dancing links",
    arXiv cs/0011047): the lowest one that only one free pair can still
    reach, else the lowest uncovered one.  Each option is a free pair and
    one of its geodesics through that vertex, one per new coverage; a
    pair never chosen may take any geodesic, since coverage only grows.
    """
    full = (1 << g.n) - 1
    # Every pair is fetched, in combinations order, before any branching,
    # so an over-cap pair raises here as it does in _search.
    entries = [cache.get(u, v) for u, v in combinations(sel, 2)]
    covered0 = sum(1 << v for v in sel)
    for _, forced, _ in entries:
        covered0 |= forced
    live = [(masks, union) for masks, _, union in entries if union & ~covered0]
    failed: set[tuple[int, int]] = set()

    def rec(covered: int, free: int) -> bool:
        need = full & ~covered
        if not need:
            return True
        # Bit-sliced counters: ones holds the vertices that some free pair
        # can still reach, twos those that two or more can.
        ones = twos = 0
        for i in iter_bits(free):
            u = live[i][1] & need
            twos |= ones & u
            ones |= u
        if ones != need:
            return False
        state = (covered, free)
        if state in failed:
            return False
        pick = need & ~twos or need
        bit = pick & -pick
        for i in iter_bits(free):
            masks, union = live[i]
            if not union & bit:
                continue
            rest = free & ~(1 << i)
            seen_new: set[int] = set()
            for mask in masks:
                new = mask & need
                if new & bit and new not in seen_new:
                    seen_new.add(new)
                    if rec(covered | mask, rest):
                        return True
        if len(failed) < (1 << 20):
            failed.add(state)
        return False

    found = rec(covered0, (1 << len(live)) - 1)
    # rec holds itself through its closure; dropping it frees the memo now.
    del rec
    return found


def _search(g: Graph, sel: list[int], cache: _PairCache) -> Optional[Witness]:
    """First witness for sel in the fixed enumeration order, if any."""
    full = (1 << g.n) - 1
    base = 0
    for v in sel:
        base |= 1 << v
    if len(sel) == 1:
        if base == full:
            return Witness(tuple(sel), ())
        return None

    pairs = list(combinations(sel, 2))
    entries = [cache.get(u, v) for u, v in pairs]
    order = sorted(range(len(pairs)), key=lambda i: (len(entries[i][0]), pairs[i]))
    pairs = [pairs[i] for i in order]
    entries = [entries[i] for i in order]

    covered0 = base
    for _, forced, _ in entries:
        covered0 |= forced

    k = len(pairs)
    suffix_union = [0] * (k + 1)
    suffix_gain = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | entries[i][2]
        suffix_gain[i] = suffix_gain[i + 1] + max(m.bit_count() for m in entries[i][0])

    choice: list[int] = [0] * k
    failed: set[tuple[int, int]] = set()

    def rec(i: int, covered: int) -> bool:
        if covered == full:
            for j in range(i, k):
                choice[j] = 0
            return True
        if i == k:
            return False
        if covered | suffix_union[i] != full:
            return False
        if (full & ~covered).bit_count() > suffix_gain[i]:
            return False
        state = (i, covered)
        if state in failed:
            return False
        # Geodesics adding the same new coverage are interchangeable
        # downstream; keeping only the first of each class preserves the
        # lexicographically first success.
        seen_new: set[int] = set()
        for idx, mask in enumerate(entries[i][0]):
            new = mask & ~covered
            if new in seen_new:
                continue
            seen_new.add(new)
            choice[i] = idx
            if rec(i + 1, covered | mask):
                return True
        if len(failed) < (1 << 20):
            failed.add(state)
        return False

    found = rec(0, covered0)
    # rec holds itself through its closure; dropping it frees the memo now
    # instead of at the next cyclic garbage collection.
    del rec
    if not found:
        return None
    paths = [mask_path(g, u, masks[c]) for (u, _), (masks, _, _), c in zip(pairs, entries, choice)]
    return make_witness(sel, dict(zip(pairs, paths)))


def is_strong_geodetic_set(
    g: Graph, vertices, cap: int = DEFAULT_GEODESIC_CAP
) -> Optional[Witness]:
    """Search for a covering geodesic assignment over the given set.

    Returns the first witness in the fixed enumeration order (pairs by
    ascending geodesic count, geodesics lexicographic) or None when no
    assignment covers the graph.  The set is decided first, so a "no"
    answer costs one vertex-first search and builds no witness.  Raises
    Disconnected for disconnected graphs and GeodesicExplosion when a
    pair exceeds ``cap`` geodesics.
    """
    sel = sorted(set(vertices))
    if not sel:
        raise ValueError("vertex set must be nonempty")
    if not is_connected(g):
        raise Disconnected("graph is not connected")
    for v in sel:
        if not 0 <= v < g.n:
            raise MalformedWitness(f"vertex {v} not in graph")
    cache = _PairCache(g, cap)
    return _search(g, sel, cache) if _decide(g, sel, cache) else None
