"""Negative controls of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- output checks ----------------------------------------------------------


def test_wrong_expected_value_is_a_failed_operation():
    query = workloads.Query(1, (1,), (12,))
    right = workloads.ColdOp(tuple(query.argv()), query.expected)
    wrong = workloads.ColdOp(tuple(query.argv()), "1/23")

    def ops(workload, seed):
        yield wrong
        while True:
            yield right

    fake = type("W", (), {"cold_ops": staticmethod(ops), "spawn": staticmethod(workloads.spawn),
                          "cli_command": staticmethod(workloads.cli_command)})
    raw = run._timed_cold(fake, "cold-intersect", 0, 0.5, time.perf_counter())
    assert raw["attempted"] >= 2
    assert [f["op"] for f in raw["failures"]] == [0]
    assert "1/23" in raw["failures"][0]["reason"]
    assert len(raw["latencies"]) == raw["attempted"] - 1


def test_value_and_exit_code_checks():
    op = workloads.ColdOp(("intersect",), "1/24")
    assert op.failure(0, "1/24\n") is None
    assert op.failure(0, "1/12\n") is not None
    assert op.failure(0, "") is not None
    assert op.failure(1, "1/24\n") is not None
    assert op.failure(None, "") is not None  # timed out and killed
    check = workloads.ColdOp(("check",), None)
    assert check.failure(0, "anything") is None
    assert check.failure(1, "") is not None


def test_peak_memory_is_the_program_own_not_the_harness():
    ballast = bytes(range(256)) * (64 * 2 ** 20 // 256)  # 64 MiB, all touched
    rc, out, _, peak = workloads.spawn(workloads.cli_command(
        ["intersect", "--genus", "1", "--d", "1", "--perimeters", "12"]), 60)
    assert (rc, out.strip()) == (0, "1/24")
    assert peak is not None and 1 < peak < len(ballast) / 2 ** 20


def test_expected_values_come_from_the_oracle():
    values = {q.exponents: q.expected for q, _ in
              zip(workloads.queries(7), range(len(workloads.CORRELATORS)))}
    assert sorted(values.values()) == ["1", "1", "1/24", "1/24", "1/24"]


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    def first(seed, n=10):
        return [op.argv for op, _ in zip(workloads.cold_ops("cold-intersect", seed), range(n))]
    assert first(3) == first(3)
    assert first(3) != first(4)


# -- span arithmetic -----------------------------------------------------------


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: union 5)
    # and c [8, 12] (clipped to the root: 2); a has a child d [2, 3].
    spans = [
        ("root", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 4.0, 0, 0, 0),
        ("b", 3.0, 6.0, 0, 0, 0),
        ("d", 2.0, 3.0, 1, 0, 0),
        ("c", 8.0, 12.0, 0, 0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_aggregate_counts_calls_self_time_and_solves_under_vertices():
    spans = [
        ("polyform.Polytope.vertices", 0.0, 4.0, -1, 0, 3),
        ("linalg.solve_unique", 1.0, 2.0, 0, 0, 0),
        ("linalg.solve_unique", 2.0, 3.0, 0, 0, 0),
        ("linalg.solve_unique", 5.0, 6.0, -1, 1, 0),
    ]
    agg = tracer.aggregate(spans)
    assert agg["polyform.Polytope.vertices"] == {"calls": 1, "self_s": 2.0, "count": 3}
    assert agg["linalg.solve_unique"]["calls"] == 3
    assert agg["solve_unique_under_vertices"]["calls"] == 2


def test_traced_cli_wraps_names_bound_by_importing_modules(tmp_path):
    spans_path = tmp_path / "spans.json"
    rc, out, _, _ = workloads.spawn(workloads.traced_cli_command(
        spans_path, 5, ["intersect", "--genus", "1", "--d", "1", "--perimeters", "12"]), 60)
    assert (rc, out.strip()) == (0, "1/24")
    spans, data = tracer.load_spans(str(spans_path))
    assert data["missing"] == []
    names = {s[0] for s in spans}
    # bound in intersect by ``from .polyform import volume``
    assert "polyform.volume" in names
    # looked up by ``require_valid`` in permgraph
    assert "permgraph.validate" in names
    roots = [s for s in spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]
    assert {s[4] for s in spans} == {5}


# -- order statistics ------------------------------------------------------------


@pytest.mark.parametrize("n, q", [(11, 9), (20, 50), (30, 66), (100, 90), (1000, 99)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, q):
    values = list(range(n, 0, -1))
    got_q, value, beyond = metrics.tail(values)
    assert got_q == q
    assert beyond >= 10
    assert sum(v > value for v in values) == beyond
    # one percentile higher would leave fewer than ten beyond (nearest rank)
    assert q == 99 or n - math.ceil((q + 1) / 100 * n) < 10


def test_tail_without_enough_samples_is_flagged():
    assert metrics.tail([3.0, 1.0, 2.0]) == (100, 3.0, 0)


def test_quartile_spread():
    assert metrics.quartile_spread([1.0] * 9 + [2.0]) == 0.0
    assert metrics.quartile_spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


# -- contract -----------------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "warm-sweep", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
