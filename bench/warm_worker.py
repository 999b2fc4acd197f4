"""In-process worker of the ``warm-sweep`` workload.

Set-up imports the package and calls ``intersection_number`` once for
(0, 4) and once for (1, 2), which enumerates their 64 + 9 classes.  The
worker then prints one ``ready`` line and reads one JSON command:

    {"cmd": "stop"}
    {"cmd": "run", "seed": S, "seconds": T}     timed operations for T s
    {"cmd": "trace", "seed": S, "ops": K, "spans": PATH}
        the first K operations, each untraced and then traced

and answers with one JSON line.  Each operation is one
``intersection_number`` call for an E = 6 correlator at fresh perimeters.
"""

import json
import sys
import time
from fractions import Fraction

from workloads import E6_CORRELATORS, Query, peak_mb, queries

from ribboncells.intersect import intersection_number


def one_op(query) -> tuple[float, str | None]:
    """Latency of one query and why it failed, or None."""
    t0 = time.perf_counter()
    try:
        value = intersection_number(query.genus, query.exponents,
                                    query.perimeters).value
    except Exception as exc:  # any exception is a failed operation
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if str(value) != query.expected:
        return latency, f"value {value}, oracle {query.expected}"
    return latency, None


def run(seed: int, seconds: float) -> dict:
    latencies, failures = [], []
    start = time.perf_counter()
    for i, query in enumerate(queries(seed, E6_CORRELATORS)):
        if time.perf_counter() - start >= seconds:
            break
        latency, why = one_op(query)
        latencies.append(latency)
        if why is not None:
            failures.append({"op": i, "reason": why})
    return {"latencies": latencies, "failures": failures,
            "elapsed": time.perf_counter() - start, "peak_mb": peak_mb()}


def trace(seed: int, ops: int, spans_path: str) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    untraced, walls, failures = [], [], []
    for i, query in zip(range(ops), queries(seed, E6_CORRELATORS)):
        # each operation untraced and then traced, so a drifting host speed
        # falls on both sides of the overhead ratio
        latency, _ = one_op(query)
        untraced.append(latency)
        tracer.current_op = i
        tracer.install()
        latency, why = one_op(query)
        tracer.uninstall()
        walls.append(latency)
        if why is not None:
            failures.append({"op": i, "reason": why})
    tracer.dump(spans_path)
    return {"untraced": untraced, "op_walls": walls, "failures": failures,
            "missing": tracer.missing}


def main() -> int:
    setup_failures = []
    for genus, exponents in E6_CORRELATORS[:2]:
        primes = tuple(Fraction(x) for x in (3, 5, 7, 11)[:len(exponents)])
        _, why = one_op(Query(genus, exponents, primes))
        if why is not None:
            setup_failures.append({"op": "setup", "reason": why})
    print(json.dumps({"ready": True, "failures": setup_failures}), flush=True)
    command = json.loads(sys.stdin.readline() or '{"cmd": "stop"}')
    if command["cmd"] == "run":
        reply = run(command["seed"], command["seconds"])
    elif command["cmd"] == "trace":
        reply = trace(command["seed"], command["ops"], command["spans"])
    else:
        return 0
    print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
