import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sgeo import construct, hypercube, to_edge_list
from sgeo.cli import _encode, build_parser, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_hypercube(self, capsys):
        code, out, _ = run(capsys, "gen", "hypercube", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p 8 12"
        assert len(lines) == 13

    def test_kbipartite(self, capsys):
        code, out, _ = run(capsys, "gen", "kbipartite", "3", "4")
        assert code == 0
        assert out.splitlines()[0] == "p 7 12"

    def test_crown_disconnected_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gen", "crown", "2")
        assert code == 2
        doc = json.loads(err)
        assert doc["status"] == "error"
        assert doc["payload"]["code"] == "DisconnectedFamily"

    def test_oversized_graph_is_rejected(self, capsys):
        code, out, err = run(capsys, "gen", "kbipartite", "2000000000", "1")
        assert code == 2 and out == ""
        assert json.loads(err)["payload"]["code"] == "DimensionTooLarge"

    def test_edge_list_text(self, capsys):
        _, out, _ = run(capsys, "gen", "kbipartite", "1", "2")
        assert out == "p 3 2\ne 0 1\ne 0 2\n"

    def test_streams_edge_lines(self, monkeypatch):
        # K(256,256) has 65,536 edges; holding them as tuples and text
        # lines peaks near 11 MB, writing them line by line under 1 MB.
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["gen", "kbipartite", "256", "256"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 4_000_000


class TestExact:
    def test_q3(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "hypercube", "3")
        graph_file = tmp_path / "q3.txt"
        graph_file.write_text(out)
        code, out, _ = run(capsys, "exact", str(graph_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 4
        assert doc["method"] == "exact"
        assert len(doc["witness"]["set"]) == 4

    def test_disconnected(self, capsys, tmp_path):
        graph_file = tmp_path / "two.txt"
        graph_file.write_text("p 4 2\ne 0 1\ne 2 3\n")
        code, out, err = run(capsys, "exact", str(graph_file))
        assert code == 3
        assert json.loads(err)["payload"]["code"] == "Disconnected"

    def test_oversized_header_is_rejected(self, capsys, tmp_path):
        graph_file = tmp_path / "huge.txt"
        graph_file.write_text("p 2000000000 0\n")
        code, out, err = run(capsys, "exact", str(graph_file))
        assert code == 2 and out == ""
        assert json.loads(err)["payload"]["code"] == "DimensionTooLarge"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p 3 1\ne 0 " + "9" * 5000 + "\n", "line 2: non-integer endpoint"),
            ("p " + "9" * 5000 + " 0\n", "line 1: non-integer header field"),
            ("p 3 " + "9" * 5000 + "\n", "line 1: non-integer header field"),
        ],
        ids=["endpoint", "order", "edge-count"],
    )
    def test_digit_run_over_int_limit_is_json(self, capsys, tmp_path, text, message):
        # int() refuses more than 4,300 digits; that stays a ParseError.
        graph_file = tmp_path / "long.txt"
        graph_file.write_text(text)
        code, out, err = run(capsys, "exact", str(graph_file))
        assert code == 2 and out == ""
        assert json.loads(err)["payload"] == {"code": "ParseError", "message": message}

    @pytest.mark.parametrize(
        "argv, message",
        [
            # exact has no geodesic cap; the flag is a usage error.
            (["--cap", "6"], "unrecognized arguments: --cap 6"),
            (["--max-size", "-1"], "must be a positive integer"),
            (["--max-size", "0"], "must be a positive integer"),
        ],
        ids=["cap-flag", "max-size-negative", "max-size-0"],
    )
    def test_limits_must_be_positive(self, capsys, tmp_path, argv, message):
        _, out, _ = run(capsys, "gen", "hypercube", "3")
        graph_file = tmp_path / "q3.txt"
        graph_file.write_text(out)
        code, out, err = run(capsys, "exact", str(graph_file), *argv)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["status"] == "error"
        assert message in doc["payload"]["message"]


class TestFormula:
    def test_kbipartite_11_11(self, capsys):
        code, out, _ = run(capsys, "formula", "kbipartite", "11", "11")
        doc = json.loads(out)
        assert code == 0 and doc["value"] == 9
        assert doc["trace"]["case_label"] == "otherwise"

    def test_crown_6(self, capsys):
        code, out, _ = run(capsys, "formula", "crown", "6")
        doc = json.loads(out)
        assert doc["value"] == 5 and doc["split"] == [2, 3]

    def test_kbipartite_at_ten_to_the_twenty(self, capsys):
        side = str(10**20)
        code, out, _ = run(capsys, "formula", "kbipartite", side, side)
        doc = json.loads(out)
        assert code == 0 and doc["trace"]["case_label"] == "otherwise"

    def test_kbipartite_2_2(self, capsys):
        code, out, _ = run(capsys, "formula", "kbipartite", "2", "2")
        assert json.loads(out)["value"] == 3


class TestBounds:
    def test_n10(self, capsys):
        code, out, _ = run(capsys, "bounds", "hypercube", "10")
        doc = json.loads(out)
        assert doc == {"lower": 16, "upper_basic": 48, "upper_improved": 36, "known": None}

    def test_n4(self, capsys):
        _, out, _ = run(capsys, "bounds", "hypercube", "4")
        doc = json.loads(out)
        assert doc == {"lower": 4, "upper_basic": 6, "upper_improved": None, "known": 5}

    def test_n5(self, capsys):
        _, out, _ = run(capsys, "bounds", "hypercube", "5")
        doc = json.loads(out)
        assert doc == {"lower": 4, "upper_basic": 8, "upper_improved": None, "known": 6}

    def test_n1(self, capsys):
        _, out, _ = run(capsys, "bounds", "hypercube", "1")
        doc = json.loads(out)
        assert doc == {"lower": None, "upper_basic": 2, "upper_improved": None, "known": 2}

    def test_largest_dimension(self, capsys):
        code, out, _ = run(capsys, "bounds", "hypercube", "10000")
        assert code == 0 and json.loads(out)["upper_basic"] > 0

    @pytest.mark.parametrize("n", ["-1", "10001", str(10**9)])
    def test_dimension_out_of_range_exits_2(self, capsys, n):
        code, out, err = run(capsys, "bounds", "hypercube", n)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["status"] == "error"
        assert doc["payload"]["message"] == "dimension must be in [0, 10000]"


class TestConstruct:
    def test_hypercube_7_n0_4(self, capsys):
        code, out, _ = run(capsys, "construct", "hypercube", "7", "--n0", "4")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["witness"]["set"]) == 16
        assert doc["report"]["achieved_size"] == 16

    def test_crown_12(self, capsys):
        _, out, _ = run(capsys, "construct", "crown", "12", "--verify")
        doc = json.loads(out)
        assert len(doc["witness"]["set"]) == 8
        assert doc["coverage"]["covered"] is True

    def test_kbipartite_4_10(self, capsys):
        _, out, _ = run(capsys, "construct", "kbipartite", "4", "10")
        doc = json.loads(out)
        assert len(doc["witness"]["set"]) == 8

    def test_improved(self, capsys):
        _, out, _ = run(capsys, "construct", "hypercube", "8", "--n0", "5", "--improved")
        doc = json.loads(out)
        assert doc["report"]["target_size"] == 18
        assert doc["report"]["achieved_size"] == 18

    def test_assignment_infeasible_exits_3(self, capsys, monkeypatch):
        real = construct.verify_witness

        def verify_witness_uncovered(g, w):
            report = real(g, w)
            report.covered = False
            return report

        monkeypatch.setattr(construct, "verify_witness", verify_witness_uncovered)
        code, out, err = run(capsys, "construct", "crown", "5")
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["status"] == "error"
        assert doc["payload"]["code"] == "AssignmentInfeasible"

    def test_pair_budget(self, capsys):
        # 1,959 vertices, about 1.9 million pairs: rejected before routing.
        code, out, err = run(capsys, "construct", "hypercube", "12", "--n0", "12", "--improved")
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["payload"]["code"] == "OutOfRange"
        assert "1959 vertices" in doc["payload"]["message"]

    def test_kbipartite_pair_budget(self, capsys):
        # sg(K(3,2000)) = 2000, about 2 million pairs: rejected before routing.
        code, out, err = run(capsys, "construct", "kbipartite", "3", "2000", "--verify")
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["payload"]["code"] == "OutOfRange"
        assert "2000 vertices" in doc["payload"]["message"]

    def test_dimension_cap_before_target(self):
        # Under a 512 MB address-space limit, computing the target
        # 2^(10^10 - n0) first would end in a MemoryError traceback.
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        for extra in (["--n0", "1"], ["--n0", "5", "--improved"]):
            argv = ["construct", "hypercube", "10000000000", *extra]
            proc = subprocess.run(
                [sys.executable, "-m", "sgeo.cli", *argv],
                capture_output=True,
                env=env,
                preexec_fn=limit,
                timeout=60,
            )
            assert proc.returncode == 2 and proc.stdout == b"", extra
            doc = json.loads(proc.stderr)
            assert doc["payload"]["code"] == "OutOfRange"
            assert "capped" in doc["payload"]["message"]

    def test_document_shape(self, capsys):
        # report and plan hold only what the builder decides; the diagonal
        # paths' ends and last interior vertices are read off path_system.
        def construct_doc(*argv):
            code, out, _ = run(capsys, "construct", *argv, "--verify")
            assert code == 0
            doc = json.loads(out)
            assert set(doc["report"]) == {"target_size", "achieved_size"}
            return doc

        assert "plan" not in construct_doc("crown", "6")
        plan_keys = {"n", "n0", "P", "Q", "F", "path_system"}
        basic = construct_doc("hypercube", "8", "--n0", "5")["plan"]
        assert set(basic) == plan_keys and basic["path_system"] == []
        plan = construct_doc("hypercube", "8", "--n0", "5", "--improved")["plan"]
        assert set(plan) == plan_keys
        paths, Q, F = plan["path_system"], set(plan["Q"]), set(plan["F"])
        assert len({p[0] for p in paths}) == 1 and paths[0][0] in F
        assert len({p[-1] for p in paths}) == 1 and paths[0][-1] in Q
        assert all(p[-2] in Q for p in paths)
        assert all(p[-3] in Q for p in paths[1:])

    def test_reader_closing_early(self):
        # The reader takes 10 bytes of a multi-megabyte witness and leaves.
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["construct", "hypercube", "11", "--n0", "6", "--verify"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "sgeo.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""


class TestVerify:
    def make_files(self, capsys, tmp_path, witness_doc):
        _, out, _ = run(capsys, "gen", "hypercube", "3")
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(out)
        witness_file = tmp_path / "w.json"
        witness_file.write_text(json.dumps(witness_doc))
        return graph_file, witness_file

    def test_covering_witness(self, capsys, tmp_path):
        doc = {
            "set": [0, 5, 6, 7],
            "assignment": [
                {"u": 0, "v": 5, "path": [0, 1, 5]},
                {"u": 0, "v": 6, "path": [0, 4, 6]},
                {"u": 0, "v": 7, "path": [0, 2, 3, 7]},
                {"u": 5, "v": 6, "path": [5, 4, 6]},
                {"u": 5, "v": 7, "path": [5, 7]},
                {"u": 6, "v": 7, "path": [6, 7]},
            ],
        }
        graph_file, witness_file = self.make_files(capsys, tmp_path, doc)
        code, out, _ = run(capsys, "verify", str(graph_file), str(witness_file))
        assert code == 0
        assert json.loads(out)["covered"] is True

    def test_non_covering_witness_exits_4(self, capsys, tmp_path):
        doc = {
            "set": [0, 5, 6, 7],
            "assignment": [
                {"u": 0, "v": 5, "path": [0, 1, 5]},
                {"u": 0, "v": 6, "path": [0, 2, 6]},
                {"u": 0, "v": 7, "path": [0, 2, 3, 7]},
                {"u": 5, "v": 6, "path": [5, 7, 6]},
                {"u": 5, "v": 7, "path": [5, 7]},
                {"u": 6, "v": 7, "path": [6, 7]},
            ],
        }
        graph_file, witness_file = self.make_files(capsys, tmp_path, doc)
        code, out, _ = run(capsys, "verify", str(graph_file), str(witness_file))
        assert code == 4
        assert json.loads(out)["uncovered_vertices"] == [4]

    def test_path_vertex_outside_graph(self, capsys, tmp_path):
        _, out, _ = run(capsys, "gen", "hypercube", "2")
        graph_file = tmp_path / "q2.txt"
        graph_file.write_text(out)
        witness_file = tmp_path / "w.json"
        doc = {"set": [0, 3], "assignment": [{"u": 0, "v": 3, "path": [0, -1, 3]}]}
        witness_file.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(graph_file), str(witness_file))
        # A verification that ran and did not cover exits 4, with no error.
        assert code == 4 and err == ""
        report = json.loads(out)
        assert report["covered"] is False
        assert report["invalid_paths"] == [
            {"pair": [0, 3], "reason": "vertex not in graph"}
        ]

    def test_single_vertex_graph(self, capsys, tmp_path):
        graph_file = tmp_path / "one.txt"
        graph_file.write_text("p 1 0\n")
        witness_file = tmp_path / "w.json"
        witness_file.write_text(json.dumps({"set": [0], "assignment": []}))
        code, out, _ = run(capsys, "verify", str(graph_file), str(witness_file))
        assert code == 0 and json.loads(out)["covered"] is True

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "witness is not JSON: JSONDecodeError("),
            ("5", "bad witness document: "),
            ("[]", "bad witness document: "),
            ("[" * 100_000, "witness is not JSON: RecursionError("),
            ('{"set": [1e400], "assignment": []}',
             "bad witness document: vertex inf is not an integer"),
            ('{"set": [1.5, 2], "assignment": []}',
             "bad witness document: vertex 1.5 is not an integer"),
            ('{"set": [1, 2], "assignment": [{"u": 1, "v": 2, "path": [1, 0, "2"]}]}',
             "bad witness document: vertex '2' is not an integer"),
            ('{"set": [1, 2], "assignment": [{"u": true, "v": 2, "path": [1, 0, 2]}]}',
             "bad witness document: vertex True is not an integer"),
            ('{"set": [0, 0, 3], "assignment": []}', "selected set contains duplicates"),
            ('{"set": [0, 3], "assignment": [{"u": 0, "v": 2, "path": [0, 2]}]}',
             "assignment pair (0, 2) not a pair of the set"),
            ('{"set": [0, 3], "assignment": [{"u": 0, "v": 0, "path": [0]}]}',
             "assignment pair (0, 0) not a pair of the set"),
        ],
        ids=["invalid", "number", "list", "deep", "overflow", "float", "string", "bool",
             "duplicate", "foreign-pair", "loop-pair"],
    )
    def test_malformed_json_exits_2(self, capsys, tmp_path, text, message):
        graph_file, witness_file = self.make_files(capsys, tmp_path, {})
        witness_file.write_text(text)
        code, out, err = run(capsys, "verify", str(graph_file), str(witness_file))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["status"] == "error"
        assert doc["payload"]["code"] == "MalformedWitness"
        assert doc["payload"]["message"].startswith(message)

    def test_construct_output_round_trips(self, capsys, tmp_path):
        _, out, _ = run(capsys, "construct", "hypercube", "5", "--n0", "3")
        witness_file = tmp_path / "w.json"
        witness_file.write_text(out)
        _, out, _ = run(capsys, "gen", "hypercube", "5")
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(out)
        code, out, _ = run(capsys, "verify", str(graph_file), str(witness_file))
        assert code == 0 and json.loads(out)["covered"] is True


class TestTable:
    def test_matches_fixture(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "15")
        assert code == 0
        assert out == (DATA / "table15.tsv").read_text()

    def test_small(self, capsys):
        _, out, _ = run(capsys, "table", "--max-n", "4")
        lines = out.strip().split("\n")
        assert lines[1] == "lower\t\t3\t3\t4"
        assert lines[2] == "upper_improved\t\t\t\t"
        assert lines[3] == "upper_basic\t2\t3\t4\t6"

    def test_n1(self, capsys):
        _, out, _ = run(capsys, "table", "--max-n", "1")
        lines = out.strip("\n").split("\n")
        assert lines[1] == "lower\t"
        assert lines[3] == "upper_basic\t2"

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "table", "--max-n", "6", "--format", "json")
        doc = json.loads(out)
        assert doc["lower"] == [None, 3, 3, 4, 4, 6]
        assert doc["upper_improved"][-1] == 10

    def test_range_check(self, capsys):
        code, _, err = run(capsys, "table", "--max-n", "61")
        assert code == 2


def random_document(rng, depth=0):
    """A random JSON-able value with the scalars and containers that
    ``json.dumps`` treats specially."""
    kind = rng.randrange(8 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([None, True, False, 0, -7, 2**64, -(10**40), rng.randrange(-999, 999)])
    if kind == 1:
        return rng.choice([0.5, -2.25, 1e300, 5e-324, float("nan"), float("inf"), float("-inf")])
    if kind == 2:
        return "".join(rng.choice('az"\\/\n\t\x00\x7féü€\u2028😀 ') for _ in range(rng.randrange(6)))
    if kind == 3:
        # Ints, and in half of them one bool, whose int.__repr__ is "1".
        ints = [rng.choice([rng.randrange(-99, 99), 2**70]) for _ in range(rng.randrange(5))]
        if rng.random() < 0.5:
            ints.insert(rng.randrange(len(ints) + 1), rng.choice([True, False]))
        return ints if rng.random() < 0.7 else tuple(ints)
    items = [random_document(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    keys = ["k", "é\"", "", None, True, False, 3, -2**65, 1.5, float("nan"), float("-inf")]
    if kind == 6:
        keys = keys[:3]
    return {rng.choice(keys): item for item in items}


class TestEncode:
    """``_encode`` is the CLI's writer for ``json.dumps(doc, indent=2)``."""

    def test_matches_stdlib_on_random_documents(self):
        rng = random.Random(23)
        for _ in range(10_000):
            doc = random_document(rng)
            assert _encode(doc) == json.dumps(doc, indent=2), doc

    def test_rejects_what_stdlib_rejects(self):
        for doc in ({(1, 2): 0}, [1, object()], {"a": {1j}}):
            with pytest.raises(TypeError) as ours:
                _encode(doc)
            with pytest.raises(TypeError) as theirs:
                json.dumps(doc, indent=2)
            assert str(ours.value) == str(theirs.value)


class TestParserReuse:
    """main() builds its parser once per process; nothing one call parses
    may leak into the next."""

    @pytest.mark.parametrize(
        "first, second",
        [
            (["table", "--format", "json"], ["table"]),
            (
                ["construct", "hypercube", "6", "--n0", "4", "--improved", "--verify"],
                ["construct", "hypercube", "6", "--n0", "4"],
            ),
            (["construct", "hypercube", "5", "--n0", "x"], ["exact", "{q3}"]),
        ],
        ids=["table", "construct", "usage-error-then-exact"],
    )
    def test_later_call_reads_as_a_fresh_one(self, capsys, tmp_path, first, second):
        q3 = tmp_path / "q3.txt"
        q3.write_text(to_edge_list(hypercube(3)))
        first = [a.format(q3=q3) for a in first]
        second = [a.format(q3=q3) for a in second]
        build_parser.cache_clear()
        fresh = run(capsys, *second)
        build_parser.cache_clear()
        run(capsys, *first)
        parser = build_parser()
        assert run(capsys, *second) == fresh
        assert build_parser() is parser
        assert build_parser.cache_info().misses == 1


class TestImport:
    def test_no_heavy_modules(self):
        # dataclasses pulls in inspect, ast and dis: about a megabyte of
        # peak memory that every fresh process would pay for nothing.
        src = str(Path(__file__).parent.parent / "src")
        code = "import sys, sgeo.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
            check=True,
            timeout=60,
        ).stdout
        assert out.strip() == b"[]"


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus"],
            [],
            ["gen", "foo", "3"],
            ["gen", "hypercube", "abc"],
            ["exact"],
            ["bounds", "kbipartite", "3"],
            ["construct", "hypercube", "5", "--n0", "x"],
            ["construct", "crown", "3", "--n0", "9"],
            ["construct", "kbipartite", "4", "10", "--improved"],
        ],
        ids=["command", "none", "family", "param", "no-file", "bounds-family", "n0",
             "crown-n0", "kbipartite-improved"],
    )
    def test_usage_error_is_json(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["status"] == "error" and doc["payload"]["message"]

    @pytest.mark.parametrize(
        "command, family, params",
        [
            ("gen", "hypercube", ["3", "3"]),
            ("gen", "kbipartite", ["3"]),
            ("gen", "crown", ["4", "4"]),
            ("formula", "kbipartite", ["3", "4", "5"]),
            ("formula", "crown", ["4", "4"]),
            ("construct", "hypercube", ["6", "3"]),
            ("construct", "kbipartite", ["4"]),
            ("construct", "crown", ["4", "5"]),
        ],
    )
    def test_wrong_parameter_count(self, capsys, command, family, params):
        code, out, err = run(capsys, command, family, *params)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        want = 2 if family == "kbipartite" else 1
        assert json.loads(err)["payload"] == {
            "code": "Error",
            "message": f"{command} {family} takes {want} parameter(s), got {len(params)}",
        }

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 2
        assert "invalid choice: 'bogus'" in json.loads(err)["payload"]["message"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sgeo")

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "exact", "/nonexistent/file.txt")
        assert code == 2 and out == ""
        assert json.loads(err)["payload"] == {
            "code": "Error",
            "message": "[Errno 2] No such file or directory: '/nonexistent/file.txt'",
        }

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["exact", "{dir}"], "Error"),
            (["verify", "{graph}", "{dir}"], "Error"),
            (["verify", "{dir}", "{graph}"], "Error"),
            (["exact", "{binary}"], "ParseError"),
            (["verify", "{binary}", "{graph}"], "ParseError"),
        ],
        ids=["exact-dir", "verify-witness-dir", "verify-graph-dir", "exact-binary", "verify-binary"],
    )
    def test_unreadable_input_is_json(self, capsys, tmp_path, argv, code):
        # Directories and bytes that do not decode keep the error contract:
        # exit 2 with a JSON error, no traceback.
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("p 2 1\ne 0 1\n")
        binary = tmp_path / "b.txt"
        binary.write_bytes(b"p 2 1\ne 0 1\n\xff\xfe\n")
        files = {"dir": tmp_path, "graph": graph_file, "binary": binary}
        exit_code, out, err = run(capsys, *(a.format(**files) for a in argv))
        assert exit_code == 2 and out == ""
        doc = json.loads(err)
        assert doc["status"] == "error" and doc["payload"]["code"] == code
