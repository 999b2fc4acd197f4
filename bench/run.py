"""The ribboncells benchmark: one workload per run, or all of them.

    python3 bench/run.py --workload cold-intersect --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the workload runs
closed-loop, one client, for ``--seconds`` seconds and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed prefix of the same
operation sequence twice, untraced and then traced from outside the
program, and reports per-layer calls, self-time shares, counters and the
tracing overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cold-intersect", "warm-sweep", "check-suites")

#: Set-ups before the first timed operation; setup_s is the median of all.
SETUPS = {"cold-intersect": 5, "warm-sweep": 3, "check-suites": 5}
#: Cold workloads take one more set-up per this many seconds of timed work,
#: between operations and with the clock paused.
PROBE_EVERY_S = 2.0
#: Operations in the traced prefix: fixed, so every counter repeats exactly.
TRACE_OPS = {"cold-intersect": 20, "warm-sweep": 30, "check-suites": 4}
#: A run never outlives this many seconds; later operations are failures.
HARD_LIMIT_S = 170.0


def _require_program() -> None:
    needed = [ROOT / "src" / "ribboncells" / "cli.py", ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: program files missing from {ROOT}: {', '.join(missing)}",
              file=sys.stderr)
        raise SystemExit(2)


def _loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def _prime(w) -> None:
    """Compile the package once, untimed, so no run pays for bytecode."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/ribboncells",
                    "tests/oracles.py", "bench"], cwd=ROOT, env=w.child_env(),
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- timed runs -------------------------------------------------------------


def _cold_setup(w, hard_deadline: float, count: int) -> list[float]:
    """A fresh interpreter importing the CLI: the start-up every query pays."""
    samples = []
    for _ in range(count):
        timeout = max(1.0, hard_deadline - time.perf_counter())
        rc, _, wall, _ = w.spawn([sys.executable, "-c", "import ribboncells.cli"], timeout)
        if rc != 0:
            raise RuntimeError("importing ribboncells.cli failed")
        samples.append(wall)
    return samples


def _timed_cold(w, workload: str, seed: int, seconds: float, started: float) -> dict:
    hard_deadline = started + HARD_LIMIT_S
    setups = _cold_setup(w, hard_deadline, SETUPS[workload])
    latencies, failures, peaks = [], [], [0.0]
    attempted, paused = 0, 0.0
    start = time.perf_counter()
    for i, op in enumerate(w.cold_ops(workload, seed)):
        now = time.perf_counter()
        timed = now - start - paused
        if timed >= seconds:
            break
        # spread the set-ups over the run, so their median does not hang on
        # the host's speed in the first second
        due = int(timed / PROBE_EVERY_S) - (len(setups) - SETUPS[workload])
        if due > 0:
            setups += _cold_setup(w, hard_deadline, due)
            paused += time.perf_counter() - now
            now = time.perf_counter()
        attempted += 1
        rc, out, wall, peak = w.spawn(w.cli_command(op.argv),
                                      max(1.0, hard_deadline - now))
        peaks.append(peak or 0.0)
        why = op.failure(rc, out)
        if why is None:
            latencies.append(wall)
        else:
            failures.append({"op": i, "argv": list(op.argv), "reason": why})
    elapsed = time.perf_counter() - start - paused
    return {"setups": setups, "latencies": latencies, "failures": failures,
            "attempted": attempted, "elapsed": elapsed, "peak_mb": max(peaks)}


class _Worker:
    """A ``warm_worker.py`` process, killed and waited for on exit."""

    def __init__(self, w):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "warm_worker.py")], cwd=ROOT,
            env=w.child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def ready(self, timeout: float) -> list:
        """Wait for the set-up to finish; the set-up's failures."""
        if not select.select([self.proc.stdout], [], [], timeout)[0]:
            raise TimeoutError("warm worker set-up timed out")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"warm worker exited with {self.proc.wait()}")
        return json.loads(line)["failures"]

    def command(self, command: dict, timeout: float) -> dict | None:
        """Send the one command and wait for the worker's reply and exit."""
        out, _ = self.proc.communicate(json.dumps(command) + "\n", timeout=timeout)
        if self.proc.returncode != 0:
            raise RuntimeError(f"warm worker exited with {self.proc.returncode}")
        return json.loads(out) if out.strip() else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _timed_warm(w, seed: int, seconds: float, started: float) -> dict:
    hard_deadline = started + HARD_LIMIT_S
    setups, failures = [], []
    for k in range(SETUPS["warm-sweep"]):
        t0 = time.perf_counter()
        with _Worker(w) as worker:
            failures += worker.ready(max(1.0, hard_deadline - t0))
            setups.append(time.perf_counter() - t0)
            last = k + 1 == SETUPS["warm-sweep"]
            reply = worker.command(
                {"cmd": "run", "seed": seed, "seconds": seconds} if last else {"cmd": "stop"},
                max(1.0, hard_deadline - time.perf_counter()))
    bad = {f["op"] for f in reply["failures"]}
    latencies = [x for i, x in enumerate(reply["latencies"]) if i not in bad]
    return {"setups": setups, "latencies": latencies,
            "failures": failures + reply["failures"],
            "attempted": len(reply["latencies"]) + len(failures),
            "elapsed": reply["elapsed"], "peak_mb": reply["peak_mb"]}


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and the details behind them."""
    import workloads as w  # imports the oracle, so only once it is known to exist

    started = time.perf_counter()
    load_start = _loadavg()
    _prime(w)
    if workload == "warm-sweep":
        raw = _timed_warm(w, seed, seconds, started)
    else:
        raw = _timed_cold(w, workload, seed, seconds, started)
    lat = raw["latencies"]
    verified = len(lat)
    tail_q, tail_v, beyond = metrics.tail(lat) if lat else (100, 0.0, 0)
    result = {
        "ops_per_s": _metric(verified / raw["elapsed"], "1/s"),
        "op_p50_s": _metric(statistics.median(lat) if lat else 0.0, "s"),
        "op_tail_s": _metric(tail_v, "s"),
        "setup_s": _metric(statistics.median(raw["setups"]), "s"),
        "peak_rss_mb": _metric(raw["peak_mb"], "MB"),
    }
    detail = {
        "workload": workload, "seed": seed, "held_out_seed": w.HELD_OUT_SEED,
        "seconds": seconds, "attempted": raw["attempted"], "verified": verified,
        "failed": len(raw["failures"]),
        "failed_share": len(raw["failures"]) / max(1, raw["attempted"]),
        "op_p50_samples": verified, "op_tail_percentile": tail_q,
        "op_tail_samples_beyond": beyond, "setup_samples_s": raw["setups"],
        "timed_s": raw["elapsed"], "failures": raw["failures"][:5],
        "loadavg_start": load_start, "loadavg_end": _loadavg(),
    }
    return result, detail


# -- traced runs ------------------------------------------------------------


def _traced_cold(w, workload: str, seed: int, started: float) -> dict:
    w.OUT.mkdir(exist_ok=True)
    hard_deadline = started + HARD_LIMIT_S
    ops = [op for op, _ in zip(w.cold_ops(workload, seed), range(TRACE_OPS[workload]))]
    agg, walls, untraced, main_s, failures, missing = {}, [], [], [], [], set()
    for i, op in enumerate(ops):
        # alternate untraced and traced runs of the same operation, so a
        # drifting host speed falls on both sides of the overhead ratio
        rc, out, wall, _ = w.spawn(w.cli_command(op.argv),
                                   max(1.0, hard_deadline - time.perf_counter()))
        untraced.append(wall)
        spans_path = w.OUT / f"spans-{workload}-op{i}.json"
        spans_path.unlink(missing_ok=True)
        rc_t, out_t, wall_t, _ = w.spawn(
            w.traced_cli_command(spans_path, i, op.argv),
            max(1.0, hard_deadline - time.perf_counter()))
        why = op.failure(rc, out) or op.failure(rc_t, out_t)
        if why is not None:
            failures.append({"op": i, "argv": list(op.argv), "reason": why})
        walls.append(wall_t)
        if spans_path.exists():
            spans, data = tracer.load_spans(str(spans_path))
            tracer.merge(agg, tracer.aggregate(spans))
            main_s.append(sum(e - s for n, s, e, p, *_ in spans
                              if n == "cli.main" and p < 0))
            missing.update(data["missing"])
    return {"agg": agg, "walls": walls, "startup_s": sum(walls) - sum(main_s),
            "untraced": untraced, "failures": failures, "missing": sorted(missing),
            "attempted": 2 * len(ops)}


def _traced_warm(w, seed: int, started: float) -> dict:
    w.OUT.mkdir(exist_ok=True)
    spans_path = w.OUT / "spans-warm-sweep.json"
    hard_deadline = started + HARD_LIMIT_S
    with _Worker(w) as worker:
        setup_failures = worker.ready(max(1.0, hard_deadline - time.perf_counter()))
        reply = worker.command({"cmd": "trace", "seed": seed, "spans": str(spans_path),
                                "ops": TRACE_OPS["warm-sweep"]},
                               max(1.0, hard_deadline - time.perf_counter()))
    spans, _ = tracer.load_spans(str(spans_path))
    return {"agg": tracer.aggregate(spans), "walls": reply["op_walls"],
            "startup_s": 0.0, "untraced": reply["untraced"],
            "failures": setup_failures + reply["failures"],
            "missing": reply["missing"],
            "attempted": len(reply["op_walls"]) + len(setup_failures)}


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the details behind them."""
    import workloads as w  # imports the oracle, so only once it is known to exist

    started = time.perf_counter()
    load_start = _loadavg()
    _prime(w)
    if workload == "warm-sweep":
        raw = _traced_warm(w, seed, started)
    else:
        raw = _traced_cold(w, workload, seed, started)
    agg = raw["agg"]
    wall = sum(raw["walls"])
    ops = len(raw["walls"])

    def entry(name):
        return agg.get(name, {"calls": 0, "self_s": 0.0, "count": 0})

    def share(seconds):
        return 100 * seconds / wall

    result, self_s = {}, {}
    for name, _, _ in tracer.TARGETS:
        if name == "suites.run_suite":
            parts = [v for k, v in agg.items() if k.startswith("suites.run_suite:")]
            e = {"calls": sum(v["calls"] for v in parts),
                 "self_s": sum((v["self_s"] for v in parts), 0.0)}
        else:
            e = entry(name)
        result[f"{name}.calls"] = _metric(e["calls"], "count")
        result[f"{name}.self_pct"] = _metric(share(e["self_s"]), "%")
        self_s[name] = e["self_s"]
    for suite in tracer.SUITES:
        e = entry(f"suites.run_suite:{suite}")
        result[f"suites.{suite}.self_pct"] = _metric(share(e["self_s"]), "%")
        self_s[f"suites.{suite}"] = e["self_s"]
    result["cli.startup_pct"] = _metric(share(raw["startup_s"]), "%")

    classes = entry("enumeration.enumerate_trivalent")["count"]
    keys = entry("enumeration.canonical_key")["calls"]
    built = entry("cells.cell_polytope")["calls"]
    empty = entry("cells.cell_polytope")["count"]
    found = entry("polyform.Polytope.vertices")["count"]
    solves = entry("solve_unique_under_vertices")["calls"]
    result["enumeration.classes"] = _metric(classes, "count")
    result["enumeration.classes_per_key"] = _metric(classes / keys if keys else 0.0, "ratio")
    result["cells.empty"] = _metric(empty, "count")
    result["cells.nonempty_share"] = _metric((built - empty) / built if built else 0.0, "ratio")
    result["polyform.vertices.found"] = _metric(found, "count")
    result["polyform.vertices.found_per_solve"] = _metric(
        found / solves if solves else 0.0, "ratio")
    # overhead per untraced/traced pair of the same operation; its quartile
    # range says whether the median stands out from the host's noise
    pairs = [100 * (t / u - 1) for u, t in zip(raw["untraced"], raw["walls"])]
    q1, overhead, q3 = statistics.quantiles(pairs, n=4, method="inclusive")
    result["trace.ops"] = _metric(ops, "count")
    result["trace.op_wall_s"] = _metric(wall, "s")
    result["trace.untraced_ops_per_s"] = _metric(ops / sum(raw["untraced"]), "1/s")
    result["trace.traced_ops_per_s"] = _metric(ops / wall, "1/s")
    result["trace.overhead_pct"] = _metric(overhead, "%")
    result["trace.overhead_iqr_pct"] = _metric(q3 - q1, "%")

    detail = {
        "workload": workload, "seed": seed, "held_out_seed": w.HELD_OUT_SEED,
        "attempted": raw["attempted"], "failed": len(raw["failures"]),
        "failures": raw["failures"][:5], "not_traced": raw["missing"],
        "self_s": self_s, "cli.startup_s": raw["startup_s"],
        "overhead_pct_per_op": pairs,
        # resolved: at least the middle half of the pairs agree in sign
        "overhead_resolved": q1 > 0 or q3 < 0,
        "loadavg_start": load_start, "loadavg_end": _loadavg(),
    }
    with open(w.OUT / f"trace-{workload}.json", "w") as fh:
        json.dump({"detail": detail, "metrics": result}, fh, indent=1)
    return result, detail


# -- command line -------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        metrics, detail = traced_run(workload, seed)
    else:
        metrics, detail = timed_run(workload, seed, seconds)
    print("detail " + json.dumps(detail))
    for name, m in metrics.items():
        print(f"{workload:15s} {name:45s} {m['value']:14.6g} {m['unit']}")
    if not trace:
        print(f"{workload:15s} {'failed_share':45s} {detail['failed_share']:14.6g} share")
    return {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": metrics}


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for wl in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", wl,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[1:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {wl} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[wl] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()
    print(f"# python {platform.python_version()} nproc {os.cpu_count()} "
          f"seed {args.seed}")
    if args.workload == "all":
        return _run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
