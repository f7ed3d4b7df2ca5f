import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sgeo import construct
from sgeo.cli import main

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
        "argv, env",
        [
            (["--cap", "0"], None),
            (["--cap", "-5"], None),
            (["--max-size", "-1"], None),
            (["--max-size", "0"], None),
            ([], "abc"),
            ([], "0"),
            ([], "2.5"),
        ],
        ids=["cap-0", "cap-negative", "max-size-negative", "max-size-0",
             "env-word", "env-0", "env-float"],
    )
    def test_limits_must_be_positive(self, capsys, tmp_path, monkeypatch, argv, env):
        if env is not None:
            monkeypatch.setenv("SG_GEODESIC_CAP", env)
        _, out, _ = run(capsys, "gen", "hypercube", "3")
        graph_file = tmp_path / "q3.txt"
        graph_file.write_text(out)
        code, out, err = run(capsys, "exact", str(graph_file), *argv)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["status"] == "error"
        assert "must be a positive integer" in doc["payload"]["message"]

    def test_cap_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SG_GEODESIC_CAP", "abc")
        _, out, _ = run(capsys, "gen", "hypercube", "3")
        graph_file = tmp_path / "q3.txt"
        graph_file.write_text(out)
        code, out, _ = run(capsys, "exact", str(graph_file), "--cap", "6")
        assert code == 0 and json.loads(out)["value"] == 4


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
        assert doc["report"]["achieved_size"] == 19

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
        # 1,960 vertices, about 1.9 million pairs: rejected before routing.
        code, out, err = run(capsys, "construct", "hypercube", "12", "--n0", "12", "--improved")
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["payload"]["code"] == "OutOfRange"
        assert "1960 vertices" in doc["payload"]["message"]

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
        "text",
        [
            "{not json",
            "5",
            "[]",
            "[" * 100_000,
            '{"set": [1e400], "assignment": []}',
            '{"set": [1.5, 2], "assignment": []}',
            '{"set": [1, 2], "assignment": [{"u": 1, "v": 2, "path": [1, 0, "2"]}]}',
            '{"set": [1, 2], "assignment": [{"u": true, "v": 2, "path": [1, 0, 2]}]}',
        ],
        ids=["invalid", "number", "list", "deep", "overflow", "float", "string", "bool"],
    )
    def test_malformed_json_exits_2(self, capsys, tmp_path, text):
        graph_file, witness_file = self.make_files(capsys, tmp_path, {})
        witness_file.write_text(text)
        code, out, err = run(capsys, "verify", str(graph_file), str(witness_file))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["status"] == "error"
        assert doc["payload"]["code"] == "MalformedWitness"

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
        ],
        ids=["command", "none", "family", "param", "no-file", "bounds-family", "n0"],
    )
    def test_usage_error_is_json(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["status"] == "error" and doc["payload"]["message"]

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
        code, _, err = run(capsys, "exact", "/nonexistent/file.txt")
        assert code == 2

    def test_cap_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SG_GEODESIC_CAP", "2")
        _, out, _ = run(capsys, "gen", "hypercube", "3")
        graph_file = tmp_path / "q3.txt"
        graph_file.write_text(out)
        # Antipodal pairs have 6 geodesics; a cap of 2 must trip.
        code, _, err = run(capsys, "exact", str(graph_file))
        assert code == 3
        assert json.loads(err)["payload"]["code"] == "GeodesicExplosion"
