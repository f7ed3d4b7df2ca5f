"""Exact strong geodetic numbers on small graphs.

Cardinality-ascending subset search: sizes grow from the best known
lower bound, subsets of each size are enumerated lexicographically
(always containing every degree-1 vertex), and the first subset that
admits a covering geodesic assignment wins.  Candidate subsets may be
evaluated in parallel blocks, but the reported witness is always the
lexicographically first success of the first successful size.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterable, Iterator, Optional

from .errors import Disconnected, DiameterTooSmall, SizeLimitExceeded
from .graph import DEFAULT_GEODESIC_CAP, Graph, diameter, is_connected
from .intmath import ceil_sqrt_ratio
from .results import SgResult
from .verify import Witness, _PairCache, _search, make_witness

DEFAULT_MAX_VERTICES = 20

_BLOCK_SIZE = 64


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


def _subsets_with_forced(free: list[int], forced: list[int], t: int) -> Iterator[list[int]]:
    """Size-t subsets containing all forced vertices, in lexicographic
    order of the full sorted subset."""
    extra = t - len(forced)
    if extra < 0:
        return
    if extra == 0:
        yield sorted(forced)
        return
    for combo in combinations(free, extra):
        yield sorted(forced + list(combo))


def _chunked(it: Iterable, size: int) -> Iterator[list]:
    it = iter(it)
    while True:
        block = list(islice(it, size))
        if not block:
            return
        yield block


def sg_exact(
    g: Graph,
    cap: int = DEFAULT_GEODESIC_CAP,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    threads: int = 1,
) -> SgResult:
    """Exact strong geodetic number with a verified witness.

    ``max_vertices`` is a soft safety limit (raise it explicitly for
    bigger instances).  ``threads`` controls block-parallel candidate
    evaluation; results are identical for any thread count.
    """
    if g.n == 0 or not is_connected(g):
        raise Disconnected("exact solver needs a connected, nonempty graph")
    if g.n > max_vertices:
        raise SizeLimitExceeded(
            f"{g.n} vertices exceeds limit {max_vertices}; pass a higher max_vertices"
        )
    if g.n == 1:
        return SgResult(1, "exact", witness=Witness((0,), ()))
    d = diameter(g)
    if d <= 1:
        # Complete graph: geodesics are single edges and cover nothing new.
        return SgResult(g.n, "exact", witness=_complete_witness(g))

    forced = sorted(forced_vertices(g))
    free = [v for v in range(g.n) if v not in set(forced)]
    start = max(_lower_bound(g.n, d), len(forced), 2)
    cache = _PairCache(g, cap)

    for t in range(start, g.n + 1):
        candidates = _subsets_with_forced(free, forced, t)
        found = _first_success(g, candidates, cache, threads)
        if found is not None:
            return SgResult(t, "exact", witness=found)
    raise AssertionError("search must succeed at t = |V|")


def _first_success(
    g: Graph, candidates: Iterator[list[int]], cache: _PairCache, threads: int
) -> Optional[Witness]:
    if threads <= 1:
        for sel in candidates:
            w = _search(g, sel, cache)
            if w is not None:
                return w
        return None

    def eval_block(block: list[list[int]]) -> Optional[Witness]:
        for sel in block:
            w = _search(g, sel, cache)
            if w is not None:
                return w
        return None

    from concurrent.futures import ThreadPoolExecutor

    # Keep a bounded window of blocks in flight; consume results in
    # submission order so the reduction is deterministic.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = []
        blocks = _chunked(candidates, _BLOCK_SIZE)
        exhausted = False
        while True:
            while not exhausted and len(pending) < threads * 2:
                block = next(blocks, None)
                if block is None:
                    exhausted = True
                    break
                pending.append(pool.submit(eval_block, block))
            if not pending:
                return None
            result = pending.pop(0).result()
            if result is not None:
                for fut in pending:
                    fut.cancel()
                return result
