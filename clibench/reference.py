"""Reference computations for the CLI benchmark, written apart from sgeo.

Nothing here imports sgeo: the graphs, the witness verifier, the paper's
optimisations for K_{n,m} and crown graphs, the hypercube bound rows and
the brute-force solver are all computed from first principles, so that a
fault in sgeo cannot hide itself by agreeing with its own reference.

Run as a script to rebuild the stored pool of random graphs and their
strong geodetic numbers with the brute-force solver:

    python3 clibench/reference.py --rebuild-pool

It writes ``clibench/random_pool.json``; ``--check-pool`` recomputes every
stored value and exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations
from math import comb, isqrt
from pathlib import Path

POOL_FILE = Path(__file__).with_name("random_pool.json")
POOL_SEED = 18100404
POOL_SIZES = (14, 15, 16, 17, 18)
POOL_DENSITIES = (0.2, 0.35, 0.5)
POOL_PER_STRATUM = 6


# --- graphs as adjacency bitsets -------------------------------------------

def rows_from_edges(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def bipartite_edges(n: int, m: int) -> list[tuple[int, int]]:
    return [(x, n + y) for x in range(n) for y in range(m)]


def crown_edges(n: int) -> list[tuple[int, int]]:
    return [(x, n + y) for x in range(n) for y in range(n) if x != y]


def hypercube_edges(n: int) -> list[tuple[int, int]]:
    return [(v, v | 1 << b) for v in range(1 << n) for b in range(n) if not v >> b & 1]


def edge_list_text(n: int, edges) -> str:
    """The edge-list format sgeo reads: ``p <n> <m>`` then ``e <u> <v>``."""
    lines = [f"p {n} {len(edges)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def levels(rows: list[int], source: int) -> list[int]:
    """BFS levels from ``source`` as bitsets; level i holds distance i."""
    seen = 1 << source
    frontier = seen
    out = [frontier]
    while True:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= rows[low.bit_length() - 1]
            f ^= low
        nxt &= ~seen
        if not nxt:
            return out
        seen |= nxt
        out.append(nxt)
        frontier = nxt


def distance_table(rows: list[int], source: int) -> list[int]:
    """Distances from ``source``; -1 marks an unreachable vertex."""
    dist = [-1] * len(rows)
    for d, level in enumerate(levels(rows, source)):
        while level:
            low = level & -level
            dist[low.bit_length() - 1] = d
            level ^= low
    return dist


# --- witness verifier ------------------------------------------------------

def check_witness(rows: list[int], vertices, assignment) -> str | None:
    """None when the witness is valid, else the first fault found.

    ``assignment`` is a list of (u, v, path).  Every unordered pair of the
    set must have exactly one path, every path must be a shortest path
    between its pair, and the paths with the set must cover every vertex.
    """
    n = len(rows)
    sel = list(vertices)
    if len(set(sel)) != len(sel):
        return "set has duplicates"
    if any(not 0 <= v < n for v in sel):
        return "set vertex outside the graph"
    pairs = {}
    for u, v, path in assignment:
        key = (min(u, v), max(u, v))
        if key in pairs:
            return f"pair {key} has two paths"
        pairs[key] = path
    want = set(combinations(sorted(sel), 2))
    if set(pairs) != want:
        return "assignment pairs differ from the pairs of the set"
    dist_from: dict[int, list[int]] = {}
    covered = 0
    for v in sel:
        covered |= 1 << v
    for (u, v), path in pairs.items():
        if len(path) < 2 or {path[0], path[-1]} != {u, v}:
            return f"path of {u, v} has wrong endpoints"
        for a, b in zip(path, path[1:]):
            if not 0 <= a < n or not rows[a] >> b & 1:
                return f"path of {u, v} steps along a non-edge"
        s = path[0]
        if s not in dist_from:
            dist_from[s] = distance_table(rows, s)
        if dist_from[s][path[-1]] != len(path) - 1:
            return f"path of {u, v} is not a shortest path"
        for x in path:
            covered |= 1 << x
    if covered != (1 << n) - 1:
        return "paths leave a vertex uncovered"
    return None


# --- closed forms from the paper ------------------------------------------

def _f(n: int, k: int) -> int:
    """Smallest q with C(q, 2) >= n - k."""
    q = 0
    while comb(q, 2) < n - k:
        q += 1
    return q


def sg_bipartite(n: int, m: int) -> int:
    """sg(K_{n,m}): the paper's optimisation for 3 <= n <= m, plus n <= 2."""
    n, m = min(n, m), max(n, m)
    if n == 1:
        return max(m, 2)
    if n == 2:
        return 3 if m == 2 else m
    return min(max(k + _f(n, k), k + m - comb(k, 2)) for k in range(n + 1))


def sg_crown(n: int) -> int:
    """sg of the crown graph on 2n vertices, n >= 3, as an optimisation.

    Select p vertices of one side and q of the other, matched by index
    as far as possible.  Same-side pairs (distance 2) each cover one
    vertex of the other side; each matched pair x_i, y_i (distance 3)
    covers one vertex on each side; other cross pairs are edges.
    """
    best = 2 * n
    for p in range(n + 1):
        for q in range(n + 1):
            matched = min(p, q)
            if n - q <= comb(p, 2) + matched and n - p <= comb(q, 2) + matched:
                best = min(best, p + q)
    return best


HYPERCUBE_KNOWN = {1: 2, 2: 3, 3: 4, 4: 5}


def hypercube_lower(n: int) -> int:
    """Smallest t with t^2 (n - 1) >= 2^(n + 1), for n >= 2."""
    t = isqrt(2 ** (n + 1) // (n - 1))
    while t * t * (n - 1) < 2 ** (n + 1):
        t += 1
    return t


def hypercube_basic(n: int, n0: int) -> int:
    return 2 ** (n - n0) + 2 ** (n0 - 1)


def hypercube_improved(n: int, n0: int) -> int:
    return hypercube_basic(n, n0) - (n0 - 2) * (n0 - 3)


def table_text(max_n: int) -> str:
    """The bound table as ``sgeo table --format tsv`` prints it."""
    ns = range(1, max_n + 1)

    def row(label, values):
        return label + "\t" + "\t".join("" if x is None else str(x) for x in values)

    lines = [
        row("n", ns),
        row("lower", [hypercube_lower(n) if n >= 2 else None for n in ns]),
        row("upper_improved",
            [hypercube_improved(n, (n + 2) // 2) if n >= 6 else None for n in ns]),
        row("upper_basic",
            [min(hypercube_basic(n, k) for k in range(1, n + 1)) for n in ns]),
    ]
    return "\n".join(lines) + "\n"


# --- brute force -----------------------------------------------------------

def geodesic_masks(rows: list[int], dist: list[list[int]], u: int, v: int) -> list[int]:
    """Distinct vertex sets of the shortest u-v paths."""
    out = set()

    def walk(w: int, mask: int) -> None:
        if w == v:
            out.add(mask)
            return
        nbrs = rows[w]
        while nbrs:
            low = nbrs & -nbrs
            x = low.bit_length() - 1
            nbrs ^= low
            if dist[u][x] == dist[u][w] + 1 and dist[x][v] == dist[w][v] - 1:
                walk(x, mask | low)

    walk(u, 1 << u)
    return sorted(out)


def sg_brute_force(n: int, edges) -> int:
    """Strong geodetic number by trying every vertex set, smallest first.

    A set is accepted when some choice of one geodesic per pair covers
    every vertex; choices are tried pair by pair, abandoning a branch
    once the remaining pairs' geodesics cannot cover what is left.
    """
    rows = rows_from_edges(n, edges)
    dist = [distance_table(rows, s) for s in range(n)]
    if any(d < 0 for d in dist[0]):
        raise ValueError("graph is not connected")
    full = (1 << n) - 1
    masks = {}
    for u, v in combinations(range(n), 2):
        options = geodesic_masks(rows, dist, u, v)
        union = 0
        for m in options:
            union |= m
        masks[(u, v)] = (options, union)

    def covers(sel) -> bool:
        pairs = list(combinations(sel, 2))
        base = 0
        for v in sel:
            base |= 1 << v
        reach = [0] * (len(pairs) + 1)
        for i in range(len(pairs) - 1, -1, -1):
            reach[i] = reach[i + 1] | masks[pairs[i]][1]
        if base | reach[0] != full:
            return False

        def choose(i: int, covered: int) -> bool:
            if covered == full:
                return True
            if i == len(pairs) or covered | reach[i] != full:
                return False
            return any(choose(i + 1, covered | m) for m in masks[pairs[i]][0])

        return choose(0, base)

    if n == 1:
        return 1
    for t in range(2, n + 1):
        for sel in combinations(range(n), t):
            if covers(sel):
                return t
    raise AssertionError("the whole vertex set always covers")


# --- the stored pool of random graphs -------------------------------------

def random_connected_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) edges, drawn again until the graph is connected."""
    while True:
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        if all(d >= 0 for d in distance_table(rows_from_edges(n, edges), 0)):
            return edges


def build_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    pool = []
    for p in POOL_DENSITIES:
        for n in POOL_SIZES:
            for i in range(POOL_PER_STRATUM):
                edges = random_connected_edges(rng, n, p)
                pool.append({"id": f"p{p}-n{n}-{i}", "n": n, "edges": edges})
    return pool


def load_pool() -> list[dict]:
    return json.loads(POOL_FILE.read_text())["graphs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rebuild-pool", action="store_true",
                      help="draw the pool again and store brute-force values")
    mode.add_argument("--check-pool", action="store_true",
                      help="recompute the stored values and compare")
    args = parser.parse_args(argv)
    if args.rebuild_pool:
        pool = build_pool()
        for g in pool:
            g["sg"] = sg_brute_force(g["n"], g["edges"])
            print(g["id"], g["sg"], file=sys.stderr, flush=True)
        # One graph per line keeps the file readable and its diffs small.
        POOL_FILE.write_text(
            f'{{\n"pool_seed": {POOL_SEED},\n"graphs": [\n'
            + ",\n".join(json.dumps(g) for g in pool) + "\n]}\n")
        return 0
    bad = 0
    for g in load_pool():
        got = sg_brute_force(g["n"], [tuple(e) for e in g["edges"]])
        if got != g["sg"]:
            print(f"{g['id']}: stored {g['sg']}, brute force {got}", file=sys.stderr)
            bad += 1
    print(f"{bad} disagreements", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
