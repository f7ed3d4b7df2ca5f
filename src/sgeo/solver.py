"""Exact strong geodetic numbers on small graphs.

Cardinality-ascending subset search: sizes grow from the best known
lower bound, subsets of each size are enumerated lexicographically
(always containing every degree-1 vertex), and the first subset that
admits a covering geodesic assignment wins.

A strong geodetic set is first of all a geodetic set: the union I[S] of
its vertices' pairwise intervals must be every vertex.  The enumeration
grows I[S] as it adds vertices, and runs the decision search only on
sets with I[S] = V.  This skips no success: the search covers at most
I[S], and fails at once otherwise.  The intervals, the diameter and the
search's geodesic options come from one geodesic DAG per vertex, built
once per call.
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
)
from .intmath import ceil_sqrt_ratio
from .results import SgResult
from .verify import Witness, _PairCache, _search, make_witness

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


def _complete_witness(g: Graph) -> Witness:
    """All-vertices witness for diameter <= 1 graphs (every pair an edge)."""
    sel = list(range(g.n))
    pair_paths = {(u, v): [u, v] for u, v in combinations(sel, 2)}
    return make_witness(sel, pair_paths)


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
    if d <= 1:
        # Complete graph: geodesics are single edges and cover nothing new.
        return SgResult(g.n, "exact", witness=_complete_witness(g))

    forced = sorted(forced_vertices(g))
    free = [v for v in range(g.n) if v not in set(forced)]
    start = max(_lower_bound(g.n, d), len(forced), 2)
    full = (1 << g.n) - 1
    # rows[w][u] is the interval I(u, w), plus bit n when u and w are joined
    # by more than ``cap`` geodesics.  A set whose closure has bit n goes to
    # the search, whose pair cache then raises GeodesicExplosion for the
    # set's first such pair, as it does for any set that meets one.
    rows = [[0] * g.n for _ in range(g.n)]
    for u, (_, _, sigma) in enumerate(dags):
        for w in range(u, g.n):
            rows[u][w] = rows[w][u] = sum(cache.geo.interval(u, w)) | (sigma[w] > cap) << g.n

    def walk(i: int, left: int, chosen: list[int], closure: int) -> Optional[Witness]:
        if not left:
            return _search(g, sorted(chosen), cache) if closure >= full else None
        for j in range(i, len(free) - left + 1):
            w = free[j]
            row = rows[w]
            grown = closure | 1 << w
            for u in chosen:
                grown |= row[u]
            found = walk(j + 1, left - 1, chosen + [w], grown)
            if found is not None:
                return found
        return None

    closure = sum(1 << w for w in forced)
    for u, v in combinations(forced, 2):
        closure |= rows[u][v]
    for t in range(start, g.n + 1):
        found = walk(0, t - len(forced), forced, closure)
        if found is not None:
            return SgResult(t, "exact", witness=found)
    raise AssertionError("search must succeed at t = |V|")
