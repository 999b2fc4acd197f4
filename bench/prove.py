"""Repeat the benchmark over seeds and write the run record.

    python3 bench/prove.py --out bench/run_record.json

Each of two sets runs every workload in ``BENCHMARK.json`` once per seed
1-10, untraced, for its ``run_seconds``.  For every end-to-end metric it
reports the median and the distance between the first and third quartile
as a share of the median, and compares each set's median with the first
set's.  Each trace seed is traced once per ``PYTHONHASHSEED`` value in
``HASH_SEEDS``; every count and ratio must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
SETS = 2
TRACE_SEEDS = (1, 2)
HASH_SEEDS = ("0", "1", "4242")


def run(workload: str, seed: int, seconds: int, trace: int, hash_seed: str | None = None) -> dict:
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    detail = next(json.loads(x[len("detail "):]) for x in lines if x.startswith("detail "))
    result = json.loads(lines[-1])
    result["detail"] = detail
    return result


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "commit": commit}


def summarise(values: list[float]) -> dict:
    return {"median": statistics.median(values),
            "quartile_spread": metrics.quartile_spread(values),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the run record here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(whys)
    seconds = spec["run_seconds"]
    record = {"machine": _machine(), "run_seconds": seconds,
              "loadavg_start": list(os.getloadavg()), "workloads": {}}
    ok = True
    for wl in names:
        sets = []
        for k in range(SETS):
            runs = []
            for seed in SEEDS:
                t0 = time.perf_counter()
                r = run(wl, seed, seconds, 0)
                r["run_wall_s"] = time.perf_counter() - t0
                runs.append(r)
                print(f"{wl} set {k} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']} wall={r['run_wall_s']:.1f}s "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in r["metrics"].items()),
                      flush=True)
            per_metric = {n: summarise([r["metrics"][n]["value"] for r in runs])
                          for n in bounds}
            sets.append({
                "metrics": per_metric,
                "failed": sum(r["failed"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "run_wall_s": [r["run_wall_s"] for r in runs],
                "loadavg": [[r["detail"]["loadavg_start"], r["detail"]["loadavg_end"]]
                            for r in runs]})
        entry = {"why": whys.get(wl, ""), "sets": sets, "checks": []}
        for n, bound in bounds.items():
            first = sets[0]["metrics"][n]
            for k, s in enumerate(sets):
                spread = s["metrics"][n]["quartile_spread"]
                if spread > bound:
                    entry["checks"].append(f"set {k} {n}: spread {spread:.3f} > bound {bound}")
            for later in sets[1:]:
                m0, m1 = first["median"], later["metrics"][n]["median"]
                better_lower = next(m["better"] for m in spec["end_to_end"]
                                    if m["name"] == n) == "lower"
                worse = (m1 - m0) / m0 if better_lower else (m0 - m1) / m0
                if worse > bound:
                    entry["checks"].append(f"{n}: set median worse by {worse:.3f} > {bound}")
        ok = ok and not entry["checks"]
        entry["spread_above_a_third_of_bound"] = [
            f"set {k} {n}: {s['metrics'][n]['quartile_spread']:.3f}"
            for k, s in enumerate(sets) for n, bound in bounds.items()
            if s["metrics"][n]["quartile_spread"] > bound / 3]
        # failed operations are the program's, not the benchmark's: they are
        # reported next to the checks and do not decide whether it is steady
        entry["failed"] = [s["failed"] for s in sets]
        entry["attempted"] = [s["attempted"] for s in sets]
        record["workloads"][wl] = entry
        print(f"{wl:15s} failed {entry['failed']} of {entry['attempted']} operations")
        for n in bounds:
            print(f"{wl:15s} {n:12s} " + "  ".join(
                f"median {s['metrics'][n]['median']:.4g} spread {s['metrics'][n]['quartile_spread']:.3f}"
                for s in sets), flush=True)

    counters = {}
    for wl in names:
        for seed in TRACE_SEEDS:
            seen, overhead = {}, []
            for hs in HASH_SEEDS:
                r = run(wl, seed, seconds, 1, hash_seed=hs)
                seen[hs] = {n: m["value"] for n, m in r["metrics"].items()
                            if m["unit"] in ("count", "ratio")}
                overhead.append([r["metrics"]["trace.overhead_pct"]["value"],
                                 r["metrics"]["trace.overhead_iqr_pct"]["value"]])
                print(f"{wl} trace seed {seed} hash {hs}: correct={r['correct']} "
                      f"overhead={r['metrics']['trace.overhead_pct']['value']:.1f}%", flush=True)
            same = all(v == seen[HASH_SEEDS[0]] for v in seen.values())
            ok = ok and same
            counters[f"{wl}/seed{seed}"] = {"identical_across_hash_seeds": same,
                                            "overhead_pct_and_iqr": overhead,
                                            "counters": seen[HASH_SEEDS[0]]}
    record["counters"] = counters
    record["loadavg_end"] = list(os.getloadavg())
    record["steady"] = ok
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("steady: spreads, medians and counters within bounds" if ok else "NOT steady",
          flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
