"""Four hypercube sets that bound sg(Q6), sg(Q7) and sg(Q8) from above,
pinned with their witnesses.

``data/hypercube_sets.json`` holds, for each set, the witness that
``is_strong_geodetic_set`` returned for it.  Each witness is checked by
``verify_witness`` and by a Hamming oracle that uses nothing of sgeo:
in Q_n a u-v path is a geodesic exactly when each step flips one bit
and it has popcount(u ^ v) steps.  The three sets that decide in under
a second are decided again; the Q6 8-set's decision takes seconds, so
only its witness is checked.
"""

import json
from itertools import combinations
from pathlib import Path

import pytest

from sgeo import hypercube, is_strong_geodetic_set, verify_witness
from sgeo.verify import witness_from_dict, witness_to_dict

SETS = {
    "Q6-8": (6, [0, 28, 29, 35, 38, 39, 56, 58]),
    "Q6-9": (6, [0, 17, 27, 28, 38, 44, 48, 49, 63]),
    "Q7-12": (7, [0, 10, 52, 53, 55, 62, 63, 64, 66, 72, 107, 109]),
    "Q8-16": (8, [0, 50, 66, 67, 72, 81, 140, 165, 181, 183, 188, 207, 221, 224, 254, 255]),
}
FAST = ["Q6-9", "Q7-12", "Q8-16"]

DATA = json.loads((Path(__file__).parent / "data" / "hypercube_sets.json").read_text())
CASES = dict(zip(SETS, DATA))


def test_data_holds_the_four_sets():
    assert [(case["dimension"], case["set"]) for case in DATA] == list(SETS.values())
    assert sum(len(a["path"]) for case in DATA for a in case["assignment"]) == 1212


@pytest.mark.parametrize("name", SETS)
def test_witness_verifies(name):
    case = CASES[name]
    report = verify_witness(hypercube(case["dimension"]), witness_from_dict(case))
    assert report.covered
    assert report.uncovered_vertices == [] and report.invalid_paths == []


@pytest.mark.parametrize("name", SETS)
def test_witness_by_hamming_oracle(name):
    case = CASES[name]
    n, sel = case["dimension"], case["set"]
    flips = {1 << i for i in range(n)}
    assert [(a["u"], a["v"]) for a in case["assignment"]] == list(combinations(sel, 2))
    covered = set()
    for a in case["assignment"]:
        u, v, path = a["u"], a["v"], a["path"]
        assert (path[0], path[-1]) == (u, v)
        assert len(path) - 1 == bin(u ^ v).count("1")
        assert all((x ^ y) in flips for x, y in zip(path, path[1:]))
        covered.update(path)
    assert covered == set(range(1 << n))


@pytest.mark.parametrize("name", FAST)
def test_fast_sets_decide_to_the_pinned_witness(name):
    n, sel = SETS[name]
    found = is_strong_geodetic_set(hypercube(n), sel)
    case = CASES[name]
    assert witness_to_dict(found) == {"set": case["set"], "assignment": case["assignment"]}
