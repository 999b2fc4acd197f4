import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ribboncells import intersect, ordinary_graph, permgraph
from ribboncells.cli import _parse_qqi, main
from ribboncells.model0 import QQi
from ribboncells.suites import SUITE_NAMES


@pytest.fixture
def theta_file(tmp_path):
    g = ordinary_graph([(0, 2, 4), (1, 3, 5)])
    f = tmp_path / "theta.json"
    f.write_text(permgraph.dumps(g))
    return f


class TestInspect:
    def test_text_report(self, theta_file, capsys):
        assert main(["inspect", str(theta_file)]) == 0
        out = capsys.readouterr().out
        assert "genus: 1" in out and "edges: 3" in out and "faces: 1" in out

    def test_json_report(self, theta_file, capsys):
        assert main(["inspect", str(theta_file), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["genus"] == 1 and data["aut_order"] == 6

    def test_round_trip_lossless(self, theta_file, tmp_path, capsys):
        out = tmp_path / "copy.json"
        assert main(["inspect", str(theta_file), "--roundtrip", str(out)]) == 0
        assert permgraph.loads(out.read_text()) == permgraph.loads(
            theta_file.read_text())

    def test_dot_export(self, theta_file, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main(["inspect", str(theta_file), "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("digraph") and text.count("->") == 3

    @pytest.mark.parametrize("half_edges, cycle, defect, detail", [
        (4, [0, 1, 2, 7], 0, "half-edge 7 out of range"),
        (200000000000, [0, 1, 2], 0,
         "199999999997 half-edges belong to no vertex"),
        (4, [0, 1, 2, -1], 0, "half-edge -1 out of range"),
        # the pass over the vertices stops here, before their half-edges
        (4, [0, 1, 2, 9], -1, "negative defect -1"),
    ])
    def test_dot_refuses_a_broken_partition(self, tmp_path, capsys, half_edges,
                                            cycle, defect, detail):
        # the digraph reads each half-edge's vertex: without a partition it
        # is refused before anything is written or sized by the claim
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"half_edges": half_edges, "vertices": [
            {"cycles": [cycle], "defect": defect}], "face_labels": {}}))
        dot = tmp_path / "g.dot"
        tracemalloc.start()
        try:
            code = main(["inspect", str(bad), "--dot", str(dot)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not dot.exists()
        assert captured.err.startswith("usage error: --dot needs vertex cycles")
        assert detail in captured.err
        assert peak < 5 * 2 ** 20

    def test_dot_draws_a_graph_with_broken_labels(self, tmp_path, capsys):
        # a label violation leaves the partition whole, so the digraph stands
        g = permgraph.StableRibbonGraph(6, ordinary_graph(
            [(0, 2, 4), (1, 3, 5)]).vertices, {})
        f, dot = tmp_path / "g.json", tmp_path / "g.dot"
        f.write_text(permgraph.dumps(g))
        assert main(["inspect", str(f), "--dot", str(dot)]) == 0
        assert "face-labels" in capsys.readouterr().out
        assert dot.read_text().count("->") == 3

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"half_edges": 6,,}')
        assert main(["inspect", str(bad)]) == 2
        assert "offset" in capsys.readouterr().err

    def test_claimed_count_beyond_vertex_data_is_bounded(self, tmp_path, capsys):
        # a tiny file claiming two million half-edges: the report names a
        # few missing ones, and memory follows the file, not the claim
        huge = tmp_path / "huge.json"
        huge.write_text('{"half_edges": 2000000, "vertices": '
                        '[{"cycles": [[0, 1, 2]], "defect": 0}], "face_labels": {}}')
        tracemalloc.start()
        try:
            code = main(["inspect", str(huge)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "stable: False" in out and "partition" in out
        assert len(out.encode()) < 1024
        assert peak < 5 * 2 ** 20


class TestContract:
    def test_contract_to_stdout(self, theta_file, capsys):
        assert main(["contract", "--graph", str(theta_file), "--edges", "0"]) == 0
        g = permgraph.loads(capsys.readouterr().out)
        assert g.num_edges == 2 and len(g.vertices) == 1

    def test_forbidden_contraction(self, theta_file, capsys):
        assert main(["contract", "--graph", str(theta_file),
                     "--edges", "0,1,2"]) == 1
        assert "error" in capsys.readouterr().err


def _theta_with(**changes):
    """The theta graph's JSON object with some fields replaced."""
    d = permgraph.to_json_dict(ordinary_graph([(0, 2, 4), (1, 3, 5)]))
    d.update(changes)
    return json.dumps(d)


@pytest.mark.parametrize("text", [
    _theta_with(face_labels=[]),
    _theta_with(face_labels="x"),
    _theta_with(face_labels={" 0": 1}),
    _theta_with(face_labels={"0": "1"}),
    '{"half_edges": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"half_edges": 2, "vertices": [{"cycles": [[0, 1.5]], "defect": 1}], '
    '"face_labels": {"0": 1}}',
    _theta_with(half_edges=True),
    _theta_with(half_edges="6"),
    _theta_with(vertices=[{"cycles": [[0, 2, 4]], "defect": 1.9},
                          {"cycles": [[1, 3, 5]], "defect": 0}]),
], ids=["labels-array", "labels-string", "label-key-space", "label-string",
        "deep-array", "float-half-edge", "bool-count", "string-count",
        "float-defect"])
@pytest.mark.parametrize("command", [["inspect"], ["contract", "--edges", "0", "--graph"]],
                         ids=["inspect", "contract"])
def test_graph_file_of_wrong_json_types(tmp_path, capsys, text, command):
    # JSON that is no graph object is a usage error, never a traceback
    # nor a silently rounded value
    f = tmp_path / "g.json"
    f.write_text(text)
    assert main(command + [str(f)]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--genus", "-1", "--faces", "5", "--out"],
    ["cells", "--genus", "-1", "--faces", "5", "--perimeters", "1,2,3,4,5",
     "--out"],
    ["intersect", "--genus", "-1", "--d", "0,0,0,0,0,0", "--ledger"]])
def test_negative_genus_exit(tmp_path, capsys, argv):
    assert main(argv + [str(tmp_path / "x")]) == 2
    assert "not stable" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


class TestEnumerateCmd:
    def test_writes_classes_and_index(self, tmp_path, capsys):
        out = tmp_path / "e03"
        assert main(["enumerate", "--genus", "0", "--faces", "3",
                     "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        assert index["count"] == 4
        for entry in index["classes"]:
            g = permgraph.loads((out / entry["file"]).read_text())
            assert g.num_edges == entry["edges"] == 3

    def test_all_cells_mode(self, tmp_path, capsys):
        out = tmp_path / "c11"
        assert main(["enumerate", "--genus", "1", "--faces", "1",
                     "--all-cells", "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        assert index["count"] == 3
        assert index["boundary"]

    def test_nine_edge_classes(self, tmp_path, capsys):
        out = tmp_path / "e21"
        assert main(["enumerate", "--genus", "2", "--faces", "1",
                     "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        assert index["count"] == 9

    def test_size_guard_exit(self, tmp_path, capsys):
        assert main(["enumerate", "--genus", "0", "--faces", "6",
                     "--out", str(tmp_path / "x")]) == 1
        assert "guard" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestCellsCmd:
    def test_writes_polytopes(self, tmp_path, capsys):
        out = tmp_path / "cells"
        assert main(["cells", "--genus", "0", "--faces", "3",
                     "--perimeters", "3,5,7", "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        tops = [c for c in index["cells"] if not c["empty"]]
        assert tops
        one = json.loads((out / index["cells"][0]["file"]).read_text())
        assert "edge_charts" in one and "incidence" in one

    def test_wrong_perimeter_count_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "z"
        assert main(["cells", "--genus", "0", "--faces", "3",
                     "--perimeters", "1,2", "--out", str(out)]) == 2
        assert "perimeters" in capsys.readouterr().err
        assert not out.exists()


class TestIntersectCmd:
    def test_values(self, capsys):
        assert main(["intersect", "--genus", "1", "--d", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1/24"

    def test_genus_two(self, capsys):
        assert main(["intersect", "--genus", "2", "--d", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1/1152"

    def test_ledger(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.json"
        assert main(["intersect", "--genus", "0", "--d", "0,0,0",
                     "--ledger", str(ledger)]) == 0
        data = json.loads(ledger.read_text())
        assert data["value"] == "1/1"
        total = sum(Fraction(c["contribution"]) for c in data["cells"])
        assert total == 1

    def test_p_independence_flag(self, capsys):
        assert main(["intersect", "--genus", "0", "--d", "0,0,0",
                     "--check-p-independence"]) == 0

    def test_p_independence_flag_catches_dependence(self, monkeypatch, capsys):
        real = intersect.intersection_number

        def skewed(genus, exponents, perimeters=None):
            r = real(genus, exponents, perimeters)
            return r._replace(value=r.value + sum(r.query.perimeters))

        monkeypatch.setattr(intersect, "intersection_number", skewed)
        assert main(["intersect", "--genus", "0", "--d", "0,0,0",
                     "--check-p-independence"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_bad_exponents(self, capsys):
        assert main(["intersect", "--genus", "0", "--d", "1,1,1"]) == 1
        assert capsys.readouterr().err.startswith("error: exponents sum to")

    @pytest.mark.parametrize("d", ["--d=,", "--d=-1,2,0"],
                             ids=["empty", "negative"])
    def test_malformed_exponents_are_usage_errors(self, capsys, d):
        # the same exit code as a malformed perimeter list
        assert main(["intersect", "--genus", "0", d]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "usage error: need one non-negative exponent per face\n"
        assert captured.out == ""

    @pytest.mark.parametrize("perimeters", ["0,5,7", "3,5"],
                             ids=["non-positive", "too-few"])
    @pytest.mark.parametrize("flags", [[], ["--check-p-independence"]],
                             ids=["plain", "p-independence"])
    def test_bad_perimeters_are_usage_errors(self, capsys, perimeters, flags):
        # the same exit code as `cells` for the same perimeter list
        assert main(["intersect", "--genus", "0", "--d", "0,0,0",
                     "--perimeters", perimeters, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "usage error: need one positive perimeter per face\n"
        assert captured.out == ""

    @pytest.mark.parametrize("genus, d", [(0, "0,0"), (-1, "0")],
                             ids=["(0,2)", "(-1,1)"])
    @pytest.mark.parametrize("flags", [[], ["--check-p-independence"]],
                             ids=["plain", "p-independence"])
    def test_unstable_refused_whatever_the_exponents(self, capsys, genus, d,
                                                     flags):
        # neither exponent list sums to 3g - 3 + n; stability comes first
        assert main(["intersect", "--genus", str(genus), "--d", d, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert "not stable" in captured.err and captured.out == ""

    @pytest.mark.parametrize("genus, d, code, message", [
        (0, [1] * 1997 + [0] * 3, 1,
         "error: E = 5994 exceeds the enumeration size guard"),
        (-1, [1] * 1994 + [0] * 6, 2,
         "usage error: (g, n) = (-1, 2000) is not stable")],
        ids=["size-guard", "unstable"])
    @pytest.mark.parametrize("flags", [[], ["--check-p-independence"]],
                             ids=["plain", "p-independence"])
    def test_guards_before_default_perimeters(self, monkeypatch, capsys,
                                              genus, d, code, message, flags):
        # the default perimeters take a trial division per integer below
        # the n-th prime; stability and the size guard come first
        def forbidden(n):
            raise AssertionError("default perimeters built before the guard")

        monkeypatch.setattr(intersect, "default_perimeters", forbidden)
        argv = ["intersect", "--genus", str(genus),
                "--d", ",".join(map(str, d)), *flags]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("args, token", [
        (["--genus", "1", "--d", "x"], "'x'"),
        (["--genus", "0", "--d", "0,0,0", "--perimeters", "1,y,3"], "'y'"),
        (["--genus", "0", "--d", "0,0,0", "--perimeters", "1/0,2,3"], "'1/0'")])
    def test_malformed_list_names_the_entry(self, capsys, args, token):
        assert main(["intersect", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:") and token in captured.err
        assert captured.out == ""

    def test_wall_perimeters_in_a_fresh_process(self):
        # 22 = 3 + 19: both zero-dimensional cells touch the wall
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "ribboncells.cli", "intersect", "--genus", "0",
             "--d", "0,0,0", "--perimeters", "3,22,19"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path))
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "1"


class TestModel0Cmd:
    def test_points_parsing(self, capsys):
        assert main(["model0", "--points", "0,1,1/2+3i,inf"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 4 and len(data["maps"]) == 4
        for m in data["maps"]:
            assert len(m["coords"]) == 3

    def test_coincident_points(self, capsys):
        assert main(["model0", "--points", "0,0,1"]) == 2

    @pytest.mark.parametrize("token, re, im", [
        ("1+i", 1, 1), ("1-i", 1, -1), ("+i", 0, 1), ("-i", 0, -1),
        ("i", 0, 1), ("1/2+3i", Fraction(1, 2), 3)])
    def test_imaginary_parts(self, token, re, im):
        assert _parse_qqi(token) == QQi.of(re, im)

    def test_bare_sign_points_run(self, capsys):
        assert main(["model0", "--points", "1+i,0,1"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    @pytest.mark.parametrize("token", ["1+", "1/0", "1/0+i"])
    def test_malformed_point_rejected(self, capsys, token):
        assert main(["model0", "--points", f"{token},0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and repr(token) in err


@pytest.mark.parametrize("argv, token", [
    (["intersect", "--genus", "1", "--d", "1", "--perimeters", "1e100000000"],
     "1e100000000"),
    (["cells", "--genus", "0", "--faces", "3", "--perimeters", "3,5,7E2",
      "--out", "{out}"], "7E2"),
    (["model0", "--points", "0,1,2e3+i"], "2e3+i")],
    ids=["intersect", "cells", "model0"])
def test_exponent_notation_refused(tmp_path, capsys, argv, token):
    # Fraction expands exponents: the 12-character 1e100000000 would be a
    # 10^8-digit integer, so every numeric list refuses the notation before
    # any number is built
    out = tmp_path / "out"
    assert main([a.format(out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: bad list entry {token!r}")
    assert captured.out == "" and not out.exists()


class TestCheckCmd:
    def test_suite_runs_clean(self, capsys):
        assert main(["check", "--suite", "alpha", "--seed", "5",
                     "--cases", "20"]) == 0
        assert "alpha: 20 cases, ok" in capsys.readouterr().out

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_cases_below_one_rejected(self, capsys, cases):
        assert main(["check", "--suite", "alpha", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:") and "--cases" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        assert main(["check", "--suite", "alpha", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:") and "--jobs" in captured.err
        assert captured.out == ""

    def test_parallel_report_matches_serial(self, tmp_path, capsys):
        reports = []
        for jobs in ("1", "2"):
            path = tmp_path / f"jobs{jobs}.json"
            assert main(["check", "--suite", "all", "--cases", "2",
                         "--jobs", jobs, "--report", str(path)]) == 0
            report = json.loads(path.read_text())
            for r in report:
                r.pop("wall_time")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_default_case_counts(self, capsys):
        # the command the check-suites benchmark runs: a change to its
        # default work has to change these counts
        assert main(["check", "--suite", "all", "--seed", "0"]) == 0
        counts = {}
        for line in capsys.readouterr().out.splitlines():
            suite, rest = line.split(": ")
            counts[suite] = int(rest.split()[0])
        assert counts == {"alpha": 300, "contraction": 200, "model0": 100,
                          "omega": 8, "p-independence": 9, "stokes": 200}

    def test_unknown_suite_rejected(self, monkeypatch, capsys):
        # refused by run_suite, which names every suite, before a pool starts
        def forbidden(*args, **kwargs):
            raise AssertionError("pool started for an unknown suite")

        monkeypatch.setattr(multiprocessing, "Pool", forbidden)
        for jobs in ("1", "2"):
            assert main(["check", "--suite", "nonsense", "--jobs", jobs]) == 2
            captured = capsys.readouterr()
            prefix = "usage error: unknown suite 'nonsense'; choose from "
            assert captured.err.startswith(prefix) and captured.out == ""
            named = captured.err[len(prefix):].strip().split(", ")
            assert named == list(SUITE_NAMES) + ["all"]

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["check", "--suite", "contraction", "--seed", "9",
              "--cases", "10", "--report", str(a)])
        main(["check", "--suite", "contraction", "--seed", "9",
              "--cases", "10", "--report", str(b)])
        ra = json.loads(a.read_text())
        rb = json.loads(b.read_text())
        for x in ra + rb:
            x.pop("wall_time")
        assert ra == rb
