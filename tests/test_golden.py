"""Byte-identical CLI output on a fixed command set.

Each digest is the sha256 of a command's stdout.  A change to the
algorithms behind these commands must leave them as they are; a change
that means to alter the output updates them and says why.
"""

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from sgeo import complete_bipartite, crown, graph_from_edges, hypercube, is_connected, to_edge_list
from sgeo.cli import main

CONSTRUCT = {
    "hypercube 8 --n0 5": (
        hypercube(8),
        ["hypercube", "8", "--n0", "5"],
        "08877e0c3111a2c6c2a6af52561943ef41254f7d151bcd810ce14d33aa9a95db",
    ),
    "hypercube 8 --n0 5 --improved": (
        hypercube(8),
        ["hypercube", "8", "--n0", "5", "--improved"],
        "65b5c025540a0309753250325ec38911010d57a8c220048efc9946773edc986d",
    ),
    # The frame's edges: a one-vertex block (n0 = 1) and a one-vertex
    # spread (n0 = n).
    "hypercube 6 --n0 1": (
        hypercube(6),
        ["hypercube", "6", "--n0", "1"],
        "9ee8bfe4d8b7b88883aaa1c44210355c0197a22ae87daa3905e30e28c39fcb24",
    ),
    "hypercube 6 --n0 6": (
        hypercube(6),
        ["hypercube", "6", "--n0", "6"],
        "65eb6dbc07c3629e8bbe8deed58ea0d11558e5fa73015f1d0a720438bab8a257",
    ),
    # The smallest diagonal system, D = 3.
    "hypercube 7 --n0 4 --improved": (
        hypercube(7),
        ["hypercube", "7", "--n0", "4", "--improved"],
        "78a66e2df0eaf7e11b169f9cdc1871b10fd3afaf5ea50c53cae8b746da71a701",
    ),
    "crown 6": (
        crown(6),
        ["crown", "6"],
        "8e6d274eab5bdaf3808ff788f08b8edb5c1a8fbe3df23d96926832cef8e004b3",
    ),
    "kbipartite 4 10": (
        complete_bipartite(4, 10),
        ["kbipartite", "4", "10"],
        "723689e3bbcbb9e8a252b7285c29fc72374357c6a6cedb8546747f3b1bc1b1ab",
    ),
    # k = l = 4: both sides run out of unselected middles, so later
    # same-side pairs reuse one.
    "kbipartite 8 9": (
        complete_bipartite(8, 9),
        ["kbipartite", "8", "9"],
        "5b2249bea3e921222cb221f5171be96b453c74ae0ada28b7c22504dea2e3f44a",
    ),
    # k = 0: the whole set lies on one side.
    "kbipartite 3 3": (
        complete_bipartite(3, 3),
        ["kbipartite", "3", "3"],
        "3ca982c0c86b8883b7750a63a6c10e4fea588e94701b5248053f7304077fe888",
    ),
    # Split (1, 2): one matched pair x0, y0 at distance 3.
    "crown 3": (
        crown(3),
        ["crown", "3"],
        "58ab5dd292f88352ab4748e41decef505a67759150f35bbb55311e11ecc8e6dd",
    ),
    # Split (3, 4): three matched pairs.
    "crown 10": (
        crown(10),
        ["crown", "10"],
        "0c9ab3521de1a9648b5c569396c67cf8fa42d09b95788f91020be204545549d4",
    ),
}

# Every verify run prints the same covering report.
VERIFY_COVERED = "e498c92395a25ec73465058f88d99060cd8938b760b39002d019759d2bb1bb04"

EXACT = {
    "Q3": (hypercube(3), "efbcaf518ad6d718703d6ded3405a9c0438375b31c49d4dca3a382faa6d831a3"),
    "K(3,4)": (
        complete_bipartite(3, 4),
        "ce936461a265204ca57f13629ddfc754e70432e304306f3d29a33e4c160f8fc2",
    ),
    "crown(4)": (crown(4), "08159667228c268e823eee1c6fc4f30da030dab1cfad5afd9d7995fdff2bd595"),
    # Witness paths of length 3-4 picked among several geodesics of a pair.
    "Q4": (hypercube(4), "bf655458a30240f464967add090f78159540e4179b6b9c955b3b82bf68ee849f"),
    "crown(5)": (crown(5), "c165dc8e25e3b0b0db996b16e409689114719069ef0834fad47f574f22824477"),
    # Vertex-transitive graphs and twin-rich bipartite ones, where most
    # candidate sets are copies of each other under automorphism.
    "crown(6)": (crown(6), "e388bc192d56a159fe53ecb0af24c626093a0ae395450810fcf58985fc26c11d"),
    "crown(7)": (crown(7), "3d1e11748d3beb60aeb574dc12812619aefd972fa736500cdb7ad78042d92b94"),
    "crown(8)": (crown(8), "3717a9d72f08f4bf77abaa476eb1a8ab92ef34e225db3c526a11e790eccf9026"),
    "K(7,7)": (
        complete_bipartite(7, 7),
        "d743c7f097f0c0d87e489e0a2dd2166e37b9dc2bb62b11e2082ed38832a0799e",
    ),
    "K(4,10)": (
        complete_bipartite(4, 10),
        "245c0257917ef6d9fefa15a5ec218e7db8591000214914a43ba0c88927d9c932",
    ),
    "K(3,11)": (
        complete_bipartite(3, 11),
        "cd2be60e4ab14b20c21ef6f23705380cc1f279179d4a3ef05f25f32877888413",
    ),
}


def gnp(n, p, seed):
    """The G(n, p) graph drawn from random.Random(seed), pairs in
    lexicographic order."""
    rng = random.Random(seed)
    return graph_from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


# Connected G(n, p) graphs with no automorphism and no twins, so every
# candidate set that passes the closure filter reaches the decision search.
EXACT_RANDOM = {
    "G(14, 0.25) seed 14": (
        gnp(14, 0.25, 14),
        "296109fb6b3fd8175e2d5325057988bb16f168806aaff6c62292bf5219e04b6c",
    ),
    "G(16, 0.3) seed 17": (
        gnp(16, 0.3, 17),
        "f147c1c287a0a6322c65dc5572856614fc76b8a32a1b6a556ad702b1050ca3f9",
    ),
    "G(18, 0.3) seed 22": (
        gnp(18, 0.3, 22),
        "552fede0ed27a526e878740523af7f5cd21adf5f087c3110ab508f74b5aabf2d",
    ),
}


def benchmark_graphs():
    """The 149 graphs the benchmark's exact workloads solve: K(n,m) for
    1 <= n <= m, n + m <= 14, crown(3..8) and Q1..Q4, then the 90 graphs
    of ``clibench/random_pool.json`` in file order."""
    graphs = [complete_bipartite(n, m) for n in range(1, 8) for m in range(n, 15 - n)]
    graphs += [crown(n) for n in range(3, 9)] + [hypercube(d) for d in range(1, 5)]
    pool = Path(__file__).resolve().parents[1] / "clibench" / "random_pool.json"
    for g in json.loads(pool.read_text())["graphs"]:
        graphs.append(graph_from_edges(g["n"], [tuple(e) for e in g["edges"]]))
    return graphs


# The sha256 of the concatenated ``exact`` stdout over benchmark_graphs().
EXACT_BENCHMARK = "65c1ee95885344891172622cb4baaefe7d7d4e5b42043eadd487846967a14551"

# Closed forms, bounds and the table, whose ``trace`` and bound fields
# must keep their layout.
PLAIN = {
    "formula kbipartite 12 20": "4c174c49a7bb24500532fcef58c0c454f06adddc9538c180bcec0002a2ebbdce",
    "formula crown 8": "c430f5cadb6795fd063d42a41ed18dcfd4f6d9025fda6244d006e9bc49f6b497",
    "bounds hypercube 10": "2a19ad73b4b54c593be81436bcce04dc15086d5396b3b8eeca0055190b52267c",
    "table --max-n 20 --format json": "c8f259bb300e8efe42d3feeecb4a21f5f520d80af9884eceeb2dc571ba074cbc",
}


def stdout_digest(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", CONSTRUCT)
def test_construct_and_verify(capsys, tmp_path, name):
    g, params, digest = CONSTRUCT[name]
    out, got = stdout_digest(capsys, "construct", *params, "--verify")
    assert got == digest
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(to_edge_list(g))
    witness_file = tmp_path / "w.json"
    witness_file.write_text(out)
    _, got = stdout_digest(capsys, "verify", str(graph_file), str(witness_file))
    assert got == VERIFY_COVERED


@pytest.mark.parametrize("name", EXACT)
def test_exact(capsys, tmp_path, name):
    g, digest = EXACT[name]
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(to_edge_list(g))
    _, got = stdout_digest(capsys, "exact", str(graph_file))
    assert got == digest


@pytest.mark.parametrize("name", EXACT_RANDOM)
def test_exact_random(capsys, tmp_path, name):
    g, digest = EXACT_RANDOM[name]
    assert is_connected(g)
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(to_edge_list(g))
    _, got = stdout_digest(capsys, "exact", str(graph_file))
    assert got == digest


def test_exact_benchmark_graphs(capsys, tmp_path):
    graphs = benchmark_graphs()
    assert len(graphs) == 149
    digest = hashlib.sha256()
    graph_file = tmp_path / "g.txt"
    for g in graphs:
        graph_file.write_text(to_edge_list(g))
        out, _ = stdout_digest(capsys, "exact", str(graph_file))
        digest.update(out.encode())
    assert digest.hexdigest() == EXACT_BENCHMARK


@pytest.mark.parametrize("command", PLAIN)
def test_plain(capsys, command):
    _, got = stdout_digest(capsys, *command.split())
    assert got == PLAIN[command]
