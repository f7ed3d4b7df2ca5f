"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import random
import time
from pathlib import Path

from sgeo import (
    DiameterTooSmall,
    build_bipartite_witness,
    build_crown_witness,
    build_hypercube_basic,
    build_hypercube_improved,
    complete_bipartite,
    crown,
    distances_from,
    graph_from_edges,
    hypercube,
    hypercube_upper_basic_at,
    lower_bound_general,
    sg_balanced,
    sg_bipartite_closed,
    sg_bipartite_opt,
    sg_complete_bipartite,
    sg_crown,
    sg_exact,
    verify_witness,
)
from sgeo.cli import main as cli_main

DATA = Path(__file__).parent / "data"


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL - {label}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {num}: PASS - {label} ({elapsed:.1f}s)")

        return run

    return wrap


def random_connected_graph(rng):
    n = rng.randint(2, 10)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return graph_from_edges(n, edges)


@criterion(1, "bound table byte-exact for n <= 15 in under 1s")
def test_criterion_1_table(capsys):
    start = time.perf_counter()
    code = cli_main(["table", "--max-n", "15"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        assert out == (DATA / "table15.tsv").read_text()
        assert elapsed < 1.0, f"table took {elapsed:.2f}s"


@criterion(2, "exact small-cube values with re-verified witnesses")
def test_criterion_2_small_cubes():
    start = time.perf_counter()
    res3 = sg_exact(hypercube(3))
    t3 = time.perf_counter() - start
    assert res3.value == 4
    assert verify_witness(hypercube(3), res3.witness).covered
    assert t3 < 5.0, f"Q3 took {t3:.2f}s"

    start = time.perf_counter()
    res4 = sg_exact(hypercube(4))
    t4 = time.perf_counter() - start
    assert res4.value == 5
    assert verify_witness(hypercube(4), res4.witness).covered
    assert t4 < 600.0, f"Q4 took {t4:.2f}s"


@criterion(3, "closed form equals optimization oracle on 44551 pairs in under 30s")
def test_criterion_3_closed_vs_opt():
    start = time.perf_counter()
    pairs = 0
    for n in range(3, 301):
        for m in range(n, 301):
            assert sg_bipartite_closed(n, m).value == sg_bipartite_opt(n, m).value, (n, m)
            pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == 44551
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


@criterion(4, "balanced form consistent with closed form up to 300")
def test_criterion_4_balanced():
    for n in range(6, 301):
        assert sg_balanced(n).value == sg_bipartite_closed(n, n).value, n


@criterion(5, "exact solver agrees with closed forms on small instances")
def test_criterion_5_brute_force_equivalence():
    start = time.perf_counter()
    for n in range(1, 12):
        for m in range(n, 13 - n):
            g = complete_bipartite(n, m)
            assert sg_exact(g).value == sg_complete_bipartite(n, m).value, (n, m)
    for n in range(3, 7):
        g = crown(n)
        assert sg_exact(g).value == sg_crown(n).value, n
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"equivalence took {elapsed:.1f}s"


@criterion(6, "hypercube constructions verify at their stated sizes")
def test_criterion_6_construction_validity():
    start = time.perf_counter()
    for n in range(1, 11):
        for n0 in range(1, n + 1):
            built = build_hypercube_basic(n, n0)
            assert built.witness.size() == 2 ** (n - n0) + 2 ** (n0 - 1), (n, n0)
            assert verify_witness(hypercube(n), built.witness).covered, (n, n0)

    resolutions = []
    for n in range(8, 13):
        n0 = (n + 2) // 2
        built = build_hypercube_improved(n, n0)
        assert verify_witness(hypercube(n), built.witness).covered, n
        achieved = built.report["achieved_size"]
        target = built.report["target_size"]
        assert achieved <= hypercube_upper_basic_at(n, n0), n
        assert achieved == target, (n, achieved, target)
        resolutions.append(f"n={n}: formula target {target} achieved")
    elapsed = time.perf_counter() - start
    for line in resolutions:
        print("  " + line)
    assert elapsed < 300.0, f"constructions took {elapsed:.1f}s"


@criterion(7, "bipartite and crown witnesses match the closed forms")
def test_criterion_7_witness_builders():
    for n in range(3, 41):
        for m in range(n, 41):
            built = build_bipartite_witness(n, m)
            assert built.witness.size() == sg_complete_bipartite(n, m).value, (n, m)
            assert verify_witness(complete_bipartite(n, m), built.witness).covered, (n, m)
    for n in range(3, 41):
        built = build_crown_witness(n)
        assert built.witness.size() == sg_crown(n).value, n
        assert verify_witness(crown(n), built.witness).covered, n


@criterion(8, "property suite on 200 random connected graphs")
def test_criterion_8_properties():
    rng = random.Random(20240901)
    for i in range(200):
        g = random_connected_graph(rng)
        res = sg_exact(g)
        try:
            assert lower_bound_general(g) <= res.value, i
        except DiameterTooSmall:
            assert res.value == g.n, i
        assert verify_witness(g, res.witness).covered, i
        dist = {}
        for a in res.witness.assignment:
            if a.u not in dist:
                dist[a.u] = distances_from(g, a.u)
            assert len(a.path) - 1 == dist[a.u][a.v], i
