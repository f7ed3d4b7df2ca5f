"""Exact strong geodetic numbers on small graphs.

Cardinality-ascending subset search: sizes grow from the best known
lower bound, subsets of each size are enumerated lexicographically
(always containing every degree-1 vertex), and the first subset that
admits a covering geodesic assignment wins.  One search,
``verify._search``, decides each candidate by growing a chain of
committed vertices per pair, and builds the witness of the first set
it accepts from those chains.

A strong geodetic set is first of all a geodetic set: the union I[S] of
its vertices' pairwise intervals must be every vertex.  The enumeration
grows I[S] as it adds vertices, and runs the decision search only on
sets with I[S] = V.  This skips no success: the search covers at most
I[S], and fails at once otherwise.  The diameter, the geodesic counts
and the intervals come from one geodesic DAG per vertex, built once per
call; the closure rows and the search's segments read the intervals off
one segment table.

A fixed u-v geodesic holds at most d(u, v) - 1 vertices besides u and v,
so the paths of S hold at most |S| + sum over its pairs of (d(u, v) - 1)
vertices, its path budget.  The start size is the smallest t whose
budget reaches n with every distance set to the diameter d.  The
enumeration carries each set's budget and, per remaining vertex w, its
span, the sum of d(u, w) - 1 over the chosen u.  It skips every set
whose budget is below n, and every branch whose best completion is:
each vertex still to come adds 1 plus one of the largest spans left,
and d - 1 per pair among them.  Such a set cannot cover V, so the
search would reject it: no success is skipped.  A set with a pair over
the geodesic cap must still reach the search, which raises for it, so
the budget is off for a graph with any such pair.

The enumeration also skips every set S that a known automorphism sigma
maps below itself, sorted(sigma(S)) < sorted(S).  Success, closure and
over-cap pairs are invariant under automorphism, so the first set where
one happens is the lex-smallest of its orbit (its lex-leader), which is
never skipped: values, witnesses and errors stay the same.  Twins (equal
open or closed neighbourhoods) swap by a transposition, so a twin class
contributes its smallest members first.  Other automorphisms come from
individualisation-refinement on the adjacency (McKay and Piperno,
"Practical graph isomorphism, II", J. Symbolic Comput. 2014), verified
before use and tested on sets that pass the closure filter.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .errors import Disconnected, DiameterTooSmall, SizeLimitExceeded
from .graph import (
    DEFAULT_GEODESIC_CAP,
    Graph,
    diameter,
    is_connected,
    iter_bits,
)
from .intmath import ceil_sqrt_ratio
from .results import SgResult
from .verify import Witness, _PairCache, _search

DEFAULT_MAX_VERTICES = 20


def lower_bound_general(g: Graph) -> int:
    """Diameter-based lower bound, exact-integer ceiling.

    Requires diameter d >= 2; the value is the smallest integer at least
    (d - 3 + sqrt((d-3)^2 + 8 n (d-1))) / (2 (d-1)).
    """
    return _lower_bound(g.n, diameter(g))


def _lower_bound(n: int, d: int) -> int:
    if d < 2:
        raise DiameterTooSmall(f"bound needs diameter >= 2, got {d}")
    a = d - 3
    disc = a * a + 8 * n * (d - 1)
    return ceil_sqrt_ratio(a, disc, 2 * (d - 1))


def forced_vertices(g: Graph) -> set[int]:
    """Degree-1 vertices; they lie on no geodesic interior, so any
    strong geodetic set must contain them."""
    return {v for v in range(g.n) if g.degree(v) == 1}


def twin_predecessors(g: Graph) -> list[int]:
    """Bit of each vertex's next smaller twin, or 0: twins have equal open
    or equal closed neighbourhoods, so swapping them is an automorphism."""
    need, last = [0] * g.n, {}
    for v, row in enumerate(g.adj):
        for key in (row, row | 1 << v):
            need[v] |= last.get(key, 0)
            last[key] = 1 << v
    return need


def _refine(adj, cells: list[int], queue: list[int]) -> list[int]:
    """Equitable refinement of ordered bitset cells: each splitter from
    ``queue`` splits every cell by neighbour counts in it, parts in count
    order, and new parts join the queue; automorphisms commute with it."""
    while queue and len(cells) < len(adj):
        s, out = queue.pop(), []
        for c in cells:
            if not c & (c - 1):
                out.append(c)
                continue
            parts: dict[int, int] = {}
            for v in iter_bits(c):
                k = (adj[v] & s).bit_count()
                parts[k] = parts.get(k, 0) | 1 << v
            split = [parts[k] for k in sorted(parts)]
            out += split
            if len(split) > 1:
                queue += split
        cells = out
    return cells


def _first_path(adj, cells: list[int], v: int = -1) -> tuple[list, list[int]]:
    """Nodes (partition, v) of the path splitting v, then each time the least
    vertex, off the first non-singleton cell; and its leaf's vertex order."""
    path = []
    while len(cells) < len(adj):
        i = next(i for i, c in enumerate(cells) if c & (c - 1))
        v = v if v >= 0 else (cells[i] & -cells[i]).bit_length() - 1
        path.append((cells, v))
        cells = _refine(adj, cells[:i] + [1 << v, cells[i] ^ 1 << v] + cells[i + 1:], [1 << v])
        v = -1
    return path, [c.bit_length() - 1 for c in cells]


def automorphisms(g: Graph) -> list[list[int]]:
    """Verified automorphisms as vertex images.  At each node (cells, v) of
    the first path, each w != v of v's cell, twins of v aside, starts a path
    of its own; its leaf against the first leaf gives a candidate map."""
    adj, full = g.adj, (1 << g.n) - 1
    path, leaf = _first_path(adj, _refine(adj, [full], [full]))
    rank = sorted(range(g.n), key=leaf.__getitem__)
    found = []
    for cells, v in path:
        for w in iter_bits(next(c for c in cells if c >> v & 1) ^ 1 << v):
            if (adj[v] ^ adj[w]) & ~(1 << v | 1 << w):
                image = _first_path(adj, cells, w)[1]
                sigma = [image[rank[u]] for u in range(g.n)]
                if all(sum(1 << sigma[x] for x in iter_bits(adj[u])) == adj[sigma[u]] for u in range(g.n)):
                    found.append(sigma)
    return found


def _beaten(gens: list[list[int]], chosen: list[int], taken: int) -> bool:
    """Whether some sigma (vertex-image bits) has sorted(sigma(S)) < sorted(S),
    that is, the lowest bit of sigma(S) ^ S lies in sigma(S)."""
    return any((d := sum(sigma[v] for v in chosen) ^ taken) & -d & ~taken for sigma in gens)


def sg_exact(
    g: Graph,
    cap: int = DEFAULT_GEODESIC_CAP,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> SgResult:
    """Exact strong geodetic number with a verified witness.

    ``max_vertices`` is a soft safety limit (raise it explicitly for
    bigger instances).
    """
    if g.n == 0 or not is_connected(g):
        raise Disconnected("exact solver needs a connected, nonempty graph")
    if g.n > max_vertices:
        raise SizeLimitExceeded(
            f"{g.n} vertices exceeds limit {max_vertices}; pass a higher max_vertices"
        )
    if g.n == 1:
        return SgResult(1, "exact", witness=Witness((0,), ()))
    cache = _PairCache(g, cap)
    dags = [cache.geo.dag(u) for u in range(g.n)]
    d = max(len(levels) for levels, _, _ in dags) - 1
    forced = sorted(forced_vertices(g))
    free = [v for v in range(g.n) if v not in set(forced)]
    # In a complete graph geodesics are single edges and cover nothing
    # new, so only V itself passes the closure filter.
    start = max(_lower_bound(g.n, d) if d > 1 else g.n, len(forced), 2)
    full = (1 << g.n) - 1
    # rows[w][u] is the interval I(u, w), read off the segment table, plus
    # bit n when u and w are joined by more than ``cap`` geodesics.  A set
    # whose closure has bit n goes to the search, which then raises
    # GeodesicExplosion for the set's first such pair, as it does for any
    # set that meets one.
    rows = [[0] * g.n for _ in range(g.n)]
    for u, (_, _, sigma) in enumerate(dags):
        for w in range(u + 1, g.n):
            rows[u][w] = rows[w][u] = cache.get(u, w)[1] | (sigma[w] > cap) << g.n

    # The path budget (module docstring) is off, goal 0, when some pair is
    # over the cap: a set holding that pair must reach the search, which
    # raises for it.
    goal = 0 if any(max(row) >> g.n for row in rows) else g.n
    # gaps[w][p] = d(w, free[p]) - 1, the most a fixed w-free[p] geodesic
    # adds to the budget.
    gaps = [[dist[x] - 1 for x in free] for _, dist, _ in dags]
    zeros = [0] * len(free)
    need = twin_predecessors(g)
    gens = [[1 << x for x in sigma] for sigma in automorphisms(g)]

    def walk(
        i: int, left: int, chosen: list[int], taken: int, closure: int,
        budget: int, span: list[int], gap: list[int],
    ) -> Optional[Witness]:
        # budget is the chosen set's path budget; adding free[p] adds
        # 1 + span[p] + gap[p] to it.  gap is zeros or, with one vertex
        # left to add, the last chosen vertex's gaps row: only nodes with
        # more to add sort their spans, so only they need the sum.
        if not left:
            if closure < full or budget < goal or _beaten(gens, chosen, taken):
                return None
            return _search(g, sorted(chosen), cache)
        more = left - 1
        # Besides w, the vertices still to come add at most 1 each, their
        # largest spans (top), and d - 1 per pair of them.
        rest = more + more * (more - 1) // 2 * (d - 1)
        for j in range(i, len(free) - more):
            w = free[j]
            if need[w] & ~taken:
                continue
            size = budget + 1 + span[j] + gap[j]
            if more > 1:
                grown_span, grown_gap = [s + e for s, e in zip(span, gaps[w])], zeros
                top = sum(sorted(grown_span[j + 1:])[-more:])
            else:
                # The child sums no spans.  With more == 1, gap is zeros
                # here and gaps[w] is at most d - 1.
                grown_span, grown_gap = span, gaps[w]
                top = more and max(span[j + 1:]) + d - 1
            if size + rest + top < goal:
                continue
            row = rows[w]
            grown = closure | 1 << w
            for u in chosen:
                grown |= row[u]
            # Sets short of V are dropped here, cheaper than a call each.
            if more or grown >= full:
                found = walk(j + 1, more, chosen + [w], taken | 1 << w, grown, size, grown_span, grown_gap)
                if found is not None:
                    return found
        return None

    closure = taken = sum(1 << w for w in forced)
    budget = len(forced)
    for u, v in combinations(forced, 2):
        closure |= rows[u][v]
        budget += dags[u][1][v] - 1
    span = [sum(gaps[u][p] for u in forced) for p in range(len(free))]
    for t in range(start, g.n + 1):
        found = walk(0, t - len(forced), forced, taken, closure, budget, span, zeros)
        if found is not None:
            return SgResult(t, "exact", witness=found)
    raise AssertionError("search must succeed at t = |V|")
