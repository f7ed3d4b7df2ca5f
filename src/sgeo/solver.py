"""Exact strong geodetic numbers on small graphs.

Cardinality-ascending subset search: sizes grow from the best known
lower bound, subsets of each size are enumerated lexicographically
(always containing every forced vertex, below), and the first subset
that admits a covering geodesic assignment wins.  The enumeration
yields the sets that pass its filters, and ``sg_exact`` decides them
in one loop by one search, ``verify._search``, which grows a chain of
committed vertices per pair and builds the witness of the first set
it accepts from those chains.

A strong geodetic set is first of all a geodetic set: the union I[S] of
its vertices' pairwise intervals must be every vertex.  The enumeration
grows I[S] as it adds vertices, and yields only sets with I[S] = V.
This skips no success: the search covers at most I[S], and fails at
once otherwise.  One ``verify._PairCache`` per call holds the graph's
geodesic DAGs, which give connectivity, the distances and the
diameter; each closure row, the interval I(u, w), is read off the
levels of the DAGs of u and w, and the search shares the object and
alone fills its segment table.

A simplicial vertex (its neighbours pairwise adjacent) is on no
geodesic's interior, so it is in every geodetic set (Chartrand, Harary
and Zhang, Networks 2002) and is forced.  A set lacking one fails the
closure filter, and shared vertices never decide the lex order of two
sets of one size, so the same sets reach the search in the same order.

A fixed u-v geodesic holds at most d(u, v) - 1 vertices besides u and v,
so the paths of S hold at most |S| + sum over its pairs of (d(u, v) - 1)
vertices, its path budget.  The start size is the smallest t whose
budget reaches n with every distance set to the diameter d.  The walk
carries each set's budget, closure and, per vertex x, its span, the sum
of d(u, x) - 1 over the taken u, and reach, the union of their I(u, x).
One rule adds every vertex, the forced ones first: x adds 1 + span[x] to
the budget, and x and reach[x] to the closure.  The walk skips every set
whose budget is below n, and every branch whose best completion is: each
vertex still to come adds 1 plus one of the largest spans after the last
chosen vertex, and d - 1 per pair among them.  Such a set cannot cover
V, so the search would reject it: no success is skipped.

A closure look-ahead cuts a branch that no remaining pair can complete.
Every set through w is the taken set, w and some F of vertices after w,
so its I[S] lies within closure | later[w] | pairs[w]: pairs[u] is the
union of I(x, y) over u <= x < y, a table of the graph, and later[j] the
union of reach[x] over x >= j, built once per node the first time a w
leaves a vertex outside closure | reach[w] | pairs[w].  If that bound
misses a vertex, no set through w passes the closure filter.  The bound
only shrinks as w grows, so no set through a later w passes either, and
the loop breaks.  The filter would reject every set cut, so the same
sets still reach the search in the same order.

Twins (equal open or closed neighbourhoods) swap by a transposition,
an automorphism, so a twin class contributes its smallest members
first: a set holding a twin but not its next smaller twin is skipped.
Success and closure are invariant under automorphism, so the first set
where one happens is the lex-smallest of its orbit (its lex-leader).  A
lex-leader holds each twin's smaller twins, since the swap would
otherwise map it lex-below itself, so it is never skipped: values and
witnesses stay the same.

Each filter runs in one place.  At each w a node tests twins first.
With two or more vertices still to come after w, it then runs the
closure and the budget look-aheads and recurses (next to the last
vertex, building later costs more than it saves).  With one, the loop
picks the last vertex x itself, in the same order, by its budget, exact
with d(w, x), then twins, then the closure, so a budget look-ahead there
would only pre-check that test.  With none (only at the root), the
child tests the closure and the budget of its finished set.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import add, and_, or_
from typing import Iterator

from .errors import Disconnected, DiameterTooSmall, SizeLimitExceeded
from .graph import Graph, diameter, iter_bits
from .intmath import ceil_sqrt_ratio
from .results import SgResult
from .verify import _PairCache, _search

DEFAULT_MAX_VERTICES = 20

# A walk node: (taken, closure, budget, span, reach).
State = tuple[int, int, int, list[int], list[int]]


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
    """Simplicial vertices, whose neighbours are pairwise adjacent (every
    degree-1 vertex is one); they lie on no geodesic interior, so any
    strong geodetic set must contain them."""
    adj = g.adj
    return {v for v, row in enumerate(adj) if all(row & ~adj[a] == 1 << a for a in iter_bits(row))}


def twin_predecessors(g: Graph) -> list[int]:
    """Bit of each vertex's next smaller twin, or 0: twins have equal open
    or equal closed neighbourhoods, so swapping them is an automorphism."""
    need, last = [0] * g.n, {}
    for v, row in enumerate(g.adj):
        for key in (row, row | 1 << v):
            need[v] |= last.get(key, 0)
            last[key] = 1 << v
    return need


def sg_exact(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> SgResult:
    """Exact strong geodetic number with a verified witness.

    ``max_vertices`` is a soft safety limit (raise it explicitly for
    bigger instances).
    """
    cache = _PairCache(g)
    if not cache.connected():
        raise Disconnected("exact solver needs a connected, nonempty graph")
    if g.n > max_vertices:
        raise SizeLimitExceeded(
            f"{g.n} vertices exceeds limit {max_vertices}; pass a higher max_vertices"
        )
    full = (1 << g.n) - 1
    levels, dist = zip(*map(cache.dag, range(g.n)))
    d = max(map(max, dist))
    # rows[w][u] is the union of the interval I(u, w): level a from u met
    # with level d(u, w) - a from w.  The levels are disjoint, so their
    # sum is their union.
    # pairs[u] is the union of I(x, y) over u <= x < y.
    rows = [[0] * g.n for _ in range(g.n)]
    pairs = [0] * (g.n + 1)
    for u in reversed(range(g.n)):
        union = pairs[u + 1]
        for w in range(u + 1, g.n):
            e = dist[u][w]
            rows[u][w] = rows[w][u] = sum(map(and_, levels[u][:e + 1], levels[w][e::-1]))
            union |= rows[u][w]
        pairs[u] = union

    forced = forced_vertices(g)
    # In a complete graph geodesics are single edges and cover nothing
    # new, so only V itself passes the closure filter.
    start = max(_lower_bound(g.n, d) if d > 1 else g.n, len(forced))
    # gaps[w][x] = d(w, x) - 1, the most a w-x geodesic adds to the budget.
    gaps = [[e - 1 for e in du] for du in dist]
    need = twin_predecessors(g)

    def grow(state: State, x: int) -> State:
        # The one rule that adds a vertex x, forced or chosen.
        taken, closure, budget, span, reach = state
        return (taken | 1 << x, closure | 1 << x | reach[x], budget + 1 + span[x],
                list(map(add, span, gaps[x])), list(map(or_, reach, rows[x])))

    def walk(i: int, left: int, state: State) -> Iterator[list[int]]:
        taken, closure, budget, span, reach = state
        if not left:
            if closure >= full and budget >= g.n:
                yield list(iter_bits(taken))
            return
        more = left - 1
        later: list[int] = []
        for w in range(i, g.n - more):
            if taken >> w & 1 or need[w] & ~taken:
                continue
            size = budget + 1 + span[w]
            if more > 1:
                # Closure look-ahead: a vertex that no set through w can
                # cover rules out w and every later w.
                miss = full & ~(closure | reach[w] | pairs[w])
                if miss:
                    if not later:
                        # later[j] is the union of reach[x] over x >= j.
                        later = list(accumulate(reach[::-1], or_))[::-1]
                    if miss & ~later[w + 1]:
                        break
                # Budget look-ahead: besides w, the vertices still to come add
                # 1 each, at most their largest spans (top), and d - 1 a pair.
                rest = more + more * (more - 1) // 2 * (d - 1)
                top = sum(sorted(map(add, span[w + 1:], gaps[w][w + 1:]))[-more:])
                if size + rest + top < g.n:
                    continue
            if more == 1:
                # The last vertex x: budget, twins, then closure.
                grown, held = closure | 1 << w | reach[w], taken | 1 << w
                gap, row, low = gaps[w], rows[w], g.n - size - 1
                for x in range(w + 1, g.n):
                    if held >> x & 1 or span[x] + gap[x] < low or need[x] & ~held:
                        continue
                    if grown | 1 << x | reach[x] | row[x] >= full:
                        yield list(iter_bits(held | 1 << x))
            else:
                yield from walk(w + 1, more, grow(state, w))

    state = reduce(grow, forced, (0, 0, 0, [0] * g.n, [0] * g.n))
    for t in range(start, g.n + 1):
        for sel in walk(0, t - len(forced), state):
            found = _search(cache, sel)
            if found is not None:
                # walk holds itself through its closure; dropping it frees
                # its tables now instead of at the next cyclic collection.
                del walk
                return SgResult(t, "exact", witness=found)
    raise AssertionError("search must succeed at t = |V|")
