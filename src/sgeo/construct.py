"""Witness builders that realize the closed-form values constructively.

Every builder returns a witness verified once; a construction that
cannot cover the graph is a bug, not a soft failure, so it raises
AssignmentInfeasible and is never repaired.  The K(n,m) and crown
builders only choose their set and share one router driven by the
adjacency rows, since a crown is K(n,n) less a perfect matching.  Both
hypercube builders are one router over the two-block template (a spread
of suffix-zero vertices plus a top sub-block): the basic witness is the
template with nothing removed, and the improved one thins the top block
as ``_thinning`` describes.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .errors import AssignmentInfeasible, OutOfRange
from .formulas import f_val, g_val, sg_bipartite_closed, sg_bipartite_opt, sg_crown
from .formulas import hypercube_upper_basic_at, hypercube_upper_improved_at
from .graph import Graph, Path, complete_bipartite, crown, hypercube, iter_bits
from .verify import CoverageReport, Witness, make_witness, verify_witness

MAX_CONSTRUCTION_DIM = 14
# Every pair of the set gets a routed path; build_hypercube_basic(10, 1)
# has 513 vertices and 131,328 pairs, and sg(K(3,m)) = m fits up to m = 724.
MAX_WITNESS_PAIRS = 1 << 18


class HypercubeConstructionPlan(NamedTuple):
    """Ingredients of a hypercube witness: the spread P, the top block Q,
    and the removed set F and diagonal path system of ``_thinning``."""

    n: int
    n0: int
    P: list[int]
    Q: list[int]
    F: Sequence[int] = ()
    path_system: Sequence[Path] = ()


class ConstructionResult(NamedTuple):
    """A witness with its size report and the builder's own verification."""

    witness: Witness
    report: dict
    coverage: CoverageReport
    plan: Optional[HypercubeConstructionPlan] = None


def _verified(
    g: Graph,
    sel: list[int],
    pair_paths: dict[tuple[int, int], Path],
    target: int,
    plan: Optional[HypercubeConstructionPlan] = None,
) -> ConstructionResult:
    """The witness of sel and its routes, verified once; raises
    AssignmentInfeasible when it does not cover g."""
    witness = make_witness(sel, pair_paths)
    coverage = verify_witness(g, witness)
    if not coverage.covered:
        raise AssignmentInfeasible(
            f"witness on {g!r} failed verification: "
            f"{len(coverage.uncovered_vertices)} vertices uncovered, "
            f"invalid paths {coverage.invalid_paths[:3]}"
        )
    report = {"target_size": target, "achieved_size": witness.size()}
    return ConstructionResult(witness, report, coverage, plan)


def _check_pairs(size: int) -> None:
    """Reject a set of more than MAX_WITNESS_PAIRS pairs before routing."""
    if size * (size - 1) // 2 > MAX_WITNESS_PAIRS:
        raise OutOfRange(f"witness of {size} vertices has more than {MAX_WITNESS_PAIRS} pairs")


def canonical_path(u: int, v: int, n: int) -> Path:
    """Geodesic from u to v flipping differing bits left to right in the
    length-n string (most significant bit first)."""
    path = [u]
    w = u
    diff = u ^ v
    for pos in range(n - 1, -1, -1):
        b = 1 << pos
        if diff & b:
            w ^= b
            path.append(w)
    return path


def _two_side(g: Graph, sel: list[int], target: int) -> ConstructionResult:
    """The witness of sel in a bipartite graph of diameter at most 3,
    routed from the adjacency rows alone: each route takes the smallest
    vertex that fits, preferring vertices no route has covered yet.

    Pairs with neither an edge nor a common neighbour go first: u-s-t-v
    with s the smallest uncovered neighbour of u that leaves an uncovered
    common neighbour t of s and v.  Adjacent pairs are edges; every other
    pair goes through its smallest uncovered common neighbour, or its
    smallest common neighbour once none is uncovered.
    """
    adj = g.adj
    free = (1 << g.n) - 1 - sum(1 << v for v in sel)
    pair_paths: dict[tuple[int, int], Path] = {}
    # Pairs at distance 3 sort first; the sort is stable otherwise.
    pairs = combinations(sorted(sel), 2)
    for u, v in sorted(pairs, key=lambda p: bool(adj[p[0]] & (adj[p[1]] | 1 << p[1]))):
        common = adj[u] & adj[v]
        if g.has_edge(u, v):
            pair_paths[(u, v)] = [u, v]
        elif common:
            mid = next(iter_bits(common & free or common))
            free &= ~(1 << mid)
            pair_paths[(u, v)] = [u, mid, v]
        else:
            s = next((s for s in iter_bits(adj[u] & free) if adj[s] & adj[v] & free), None)
            if s is None:
                raise AssignmentInfeasible(f"{g!r}: no fresh route for distance-3 pair {u}, {v}")
            t = next(iter_bits(adj[s] & adj[v] & free))
            free &= ~(1 << s | 1 << t)
            pair_paths[(u, v)] = [u, s, t, v]
    return _verified(g, sel, pair_paths, target)


def build_bipartite_witness(n: int, m: int) -> ConstructionResult:
    """Optimal witness for K_{n,m}, 3 <= n <= m: the first k vertices of
    the small side and the first l = max(f(k), g(k)) of the large side at
    the optimizing k."""
    # The closed form's value is k + l; checked before the O(n) sweep.
    _check_pairs(sg_bipartite_closed(n, m).value)
    opt = sg_bipartite_opt(n, m)
    k = opt.trace.k_star
    l = max(f_val(n, k), g_val(m, k))
    return _two_side(complete_bipartite(n, m), list(range(k)) + list(range(n, n + l)), opt.value)


def build_crown_witness(n: int) -> ConstructionResult:
    """Optimal witness for the crown graph on 2n vertices, n >= 3: the
    first p vertices of the X side and the first q of the Y side at
    sg_crown's split, so x_i, y_i with i < min(p, q) are at distance 3."""
    if n < 3:
        raise OutOfRange(f"need n >= 3, got {n}")
    res = sg_crown(n)
    p, q = res.split.p, res.split.q
    _check_pairs(p + q)
    return _two_side(crown(n), list(range(p)) + list(range(n, n + q)), res.value)


def _two_block(n: int, n0: int, improved: bool) -> ConstructionResult:
    """The two-block witness on Q_n at its formula's target: a suffix-zero
    spread P plus the top sub-block Q, thinned by ``_thinning`` when
    improved.  The dimension cap is checked before the target's 2^(n - n0).

    A spread-to-block pair (pv, top|c) walks c's flip chain from pv,
    crosses the block boundary after chain index j, finishes the chain
    on the far side and then flips the prefix canonically.  A suffix with
    no chain entry takes its canonical chain and crosses at its end;
    every other pair takes the canonical geodesic.
    """
    if n > MAX_CONSTRUCTION_DIM:
        raise OutOfRange(f"verification capped at n <= {MAX_CONSTRUCTION_DIM}")
    target = (hypercube_upper_improved_at if improved else hypercube_upper_basic_at)(n, n0)
    d = n0 - 1
    mid = 1 << d
    top = ((1 << (n - n0)) - 1) << n0 | mid
    P = [b << n0 for b in range(1 << (n - n0))]
    removed, chains, seqs = _thinning(d) if improved else ([], {}, [])
    gone = set(removed)
    suffixes = [c for c in range(mid) if c not in gone]
    Q = [top | c for c in suffixes]
    _check_pairs(len(P) + len(Q))
    g = hypercube(n)

    pair_paths: dict[tuple[int, int], Path] = {}
    for c in suffixes:
        chain = canonical_path(0, c, d)
        chain, j = chains.get(c, (chain, len(chain) - 1))
        for pv in P:
            path = [pv | gamma for gamma in chain[: j + 1]]
            path += [pv | gamma | mid for gamma in chain[j:]]
            path += canonical_path(path[-1], top | c, n)[1:]
            pair_paths[(pv, top | c)] = path
    for block in (P, Q):
        for a, b in combinations(block, 2):
            pair_paths[(a, b)] = canonical_path(a, b, n)

    system = [[top | c for c in seq] for seq in seqs]
    plan = HypercubeConstructionPlan(n, n0, P, Q, [top | f for f in removed], system)
    return _verified(g, P + Q, pair_paths, target, plan)


def build_hypercube_basic(n: int, n0: int) -> ConstructionResult:
    """Two-block witness on Q_n: a suffix-zero spread of size 2^(n-n0)
    plus a full top sub-block of size 2^(n0-1), every suffix routed on
    its canonical chain."""
    return _two_block(n, n0, improved=False)


def _thinning(d: int) -> tuple[list[int], dict[int, tuple[list[int], int]], list[list[int]]]:
    """Removed suffixes, boundary chains and diagonal paths of the thinned
    top block, whose suffixes have width d.

    Path i runs from 0 to the all-ones suffix (1 << d) - 1, flipping
    string positions in cyclic rotation from i, so the d paths are
    internally disjoint geodesics.  The thinning removes every vertex of
    the paths, their common start 0 included, except their common end
    and the suffixes that get a boundary chain: every path's last
    interior vertex and all but the first path's second-to-last, so
    (d - 1)(d - 2) suffixes go in all.

    A boundary chain is a suffix's flip chain with the index after which
    its routes cross the block boundary.  The early crossings put the
    removed interiors on the far side of the boundary for every prefix
    line; near sides come from the end-crossing chains of the other
    suffixes.  The first path's chain crosses at index 0, so each spread
    vertex pv steps straight to pv|mid: these far-side vertices of
    suffix 0 were covered by the routes to the removed block anchor, and
    the all-ones spread vertex steps to the anchor itself.  That path is
    the canonical chain of the all-ones suffix, which still crosses at
    its end, so its near side stays covered.
    """
    seqs = []
    for i in range(d):
        c, seq = 0, [0]
        for t in range(d):
            c |= 1 << (d - 1 - (i + t) % d)
            seq.append(c)
        seqs.append(seq)
    for a, b in combinations(seqs, 2):
        assert not set(a[1:-1]) & set(b[1:-1]), "diagonal paths must be disjoint"
    chains = {seqs[0][d - 1]: (seqs[0][:d], 0)}
    for seq in seqs[1:]:
        chains[seq[d - 1]] = (seq[:d], d - 1)
        chains[seq[d - 2]] = (seq[: d - 1], 1)
    removed = sorted({c for seq in seqs for c in seq} - {(1 << d) - 1} - chains.keys())
    return removed, chains, seqs


def build_hypercube_improved(n: int, n0: int) -> ConstructionResult:
    """Thinned two-block witness: the basic template less the
    (n0 - 2)(n0 - 3) top-block vertices that ``_thinning`` removes, so it
    has the formula's target size, which the report carries with the
    achieved size."""
    return _two_block(n, n0, improved=True)
