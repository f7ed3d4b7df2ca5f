"""Byte-identical CLI output on a fixed command set.

Each digest is the sha256 of a command's stdout.  A change to the
algorithms behind these commands must leave them as they are; a change
that means to alter the output updates them and says why.
"""

import hashlib

import pytest

from sgeo import complete_bipartite, crown, hypercube, to_edge_list
from sgeo.cli import main

CONSTRUCT = {
    "hypercube 8 --n0 5": (
        hypercube(8),
        ["hypercube", "8", "--n0", "5"],
        "afb7311a5a0f3f82e260ee70d1ba63bbbeebb86e3671243e13c8dbcb8395f1e3",
    ),
    "hypercube 8 --n0 5 --improved": (
        hypercube(8),
        ["hypercube", "8", "--n0", "5", "--improved"],
        "1a8b65b48b531c37c2a0aabde8322d8ae1da5ab5f9963d14ece031f119c284c9",
    ),
    # The frame's edges: a one-vertex block (n0 = 1) and a one-vertex
    # spread (n0 = n).
    "hypercube 6 --n0 1": (
        hypercube(6),
        ["hypercube", "6", "--n0", "1"],
        "e2bce4ce8b5e167a17fa15518f82d3880cd2451d0a47340d59bb19597718757f",
    ),
    "hypercube 6 --n0 6": (
        hypercube(6),
        ["hypercube", "6", "--n0", "6"],
        "1a3b7264feb118851e4e1bae3185351b8ee5c5c04d23f64a57e0f04f83bc023e",
    ),
    # The smallest diagonal system, D = 3.
    "hypercube 7 --n0 4 --improved": (
        hypercube(7),
        ["hypercube", "7", "--n0", "4", "--improved"],
        "f8115989aef6e13e59efbac121597a16dba760bed879c66740240035d2464a37",
    ),
    "crown 6": (
        crown(6),
        ["crown", "6"],
        "3e5bf5067e87306065ef350d18cea26b314ce987417d3d76cdd0794d2b765b2a",
    ),
    "kbipartite 4 10": (
        complete_bipartite(4, 10),
        ["kbipartite", "4", "10"],
        "1ba5f67e868021776e6af94cd96f83845aaf57b36d75040fb4e6f79f69b37ad3",
    ),
    # k = l = 4: both sides run out of unselected middles, so later
    # same-side pairs reuse one.
    "kbipartite 8 9": (
        complete_bipartite(8, 9),
        ["kbipartite", "8", "9"],
        "e4383aaf4c663deaa4d5d4772cd683965859b21f6a9c860bdf1be22a8b2dbe1c",
    ),
    # k = 0: the whole set lies on one side.
    "kbipartite 3 3": (
        complete_bipartite(3, 3),
        ["kbipartite", "3", "3"],
        "07ffcd63b0f8135e76581b1d5b21dd150b89830fd1a376d1037af35baff23af0",
    ),
    # Split (1, 2): one matched pair x0, y0 at distance 3.
    "crown 3": (
        crown(3),
        ["crown", "3"],
        "05bf6080dfa9deeb7677eac73a7cca622b06604319e0bc8d255c0bbc03a78836",
    ),
    # Split (3, 4): three matched pairs.
    "crown 10": (
        crown(10),
        ["crown", "10"],
        "892f9416bf8dca52588a4e32a31e51a993497700f618c13962952f8e651094f9",
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
    "crown(4)": (crown(4), "b6497205087781f797a2bfd628c56bf22c86c07e023ef07eaeddb511cbcd50a0"),
    # Witness paths of length 3-4 picked among several geodesics of a pair.
    "Q4": (hypercube(4), "305d967e2b24c13d04b0d5361acc6b19f33aa1fd5e585b03aa7cfebfbb2f7a1f"),
    "crown(5)": (crown(5), "245a87918f831a390d5f0cffae2dfeb20bb5be760312f7f9f6a50a412ec7a996"),
    # Vertex-transitive graphs and twin-rich bipartite ones, where most
    # candidate sets are copies of each other under automorphism.
    "crown(6)": (crown(6), "978e15b5b9a856ae1bdcecbad901074141e9e3d28ee84d0e4022a56dc4de6d2f"),
    "crown(7)": (crown(7), "c50c4e9290f17f07f9e56c353042bbbea53f672147a476a12ea5fe1f93daa880"),
    "crown(8)": (crown(8), "f0dc156e592cbef320ef800e10da9a9a2c9dc69c494d56e6596dde303a1b4319"),
    "K(7,7)": (
        complete_bipartite(7, 7),
        "018142028acf0b2bb10f18625f11c8224f4182e68a54f5cf40ec50290a21b3a9",
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


@pytest.mark.parametrize("command", PLAIN)
def test_plain(capsys, command):
    _, got = stdout_digest(capsys, *command.split())
    assert got == PLAIN[command]
