"""Seeded inputs, single operations and output checks of the workloads.

The program sees only what is generated here: CLI arguments for the cold
workloads and ``(genus, exponents, perimeters)`` for the warm one.  Every
intersection value is checked against the independent Virasoro recursion
in ``tests/oracles.py``; a check pass counts only with exit code 0.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(ROOT / "tests"))
from oracles import tau  # noqa: E402  (independent oracle, imported not copied)

#: A seed no tuning run used: re-run a claim on it before quoting it.
HELD_OUT_SEED = 60221

#: The five correlators with E <= 6 edges: <tau0^3>_0, <tau1>_1,
#: <tau1 tau0^3>_0, <tau1^2>_1 and <tau2 tau0>_1, as (genus, exponents).
CORRELATORS = ((0, (0, 0, 0)), (1, (1,)), (0, (1, 0, 0, 0)), (1, (1, 1)),
               (1, (2, 0)))
#: The E = 6 ones, whose classes the warm workload enumerates in set-up.
E6_CORRELATORS = CORRELATORS[2:]
#: The cold rotation lists <tau1 tau0^3>_0 twice, so the fast E = 3 queries
#: and the slow (0, 4) ones are equally many and the median latency falls in
#: the middle of the (1, 2) queries rather than at the edge of a group.
COLD_ROTATION = (CORRELATORS[0], CORRELATORS[2], CORRELATORS[1],
                 CORRELATORS[3], CORRELATORS[2], CORRELATORS[4])


@dataclass(frozen=True)
class Query:
    genus: int
    exponents: tuple[int, ...]
    perimeters: tuple[Fraction, ...]

    @property
    def expected(self) -> str:
        """The value line the CLI must print, from the oracle."""
        return str(tau(*self.exponents))

    def argv(self) -> list[str]:
        return ["intersect", "--genus", str(self.genus),
                "--d", ",".join(map(str, self.exponents)),
                "--perimeters", ",".join(map(str, self.perimeters))]


def queries(seed: int, pool=CORRELATORS):
    """Endless queries cycling through ``pool``.  The seed decides which
    face carries each exponent and draws the perimeters as the
    ``p-independence`` suite does (numerators 3-60, denominators 1-5)."""
    rng = random.Random(seed)
    for i in itertools.count():
        genus, exponents = pool[i % len(pool)]
        d = list(exponents)
        rng.shuffle(d)
        p = tuple(Fraction(rng.randint(3, 60), rng.randint(1, 5)) for _ in d)
        yield Query(genus, tuple(d), p)


@dataclass(frozen=True)
class ColdOp:
    """One CLI invocation and what its output must be."""

    argv: tuple[str, ...]
    #: the last stdout line, or None when only the exit code is checked
    expected: str | None

    def failure(self, returncode: int | None, stdout: str) -> str | None:
        """Why the run does not count as verified, or None."""
        if returncode != 0:
            return f"exit code {returncode}"
        if self.expected is not None:
            lines = stdout.strip().splitlines()
            got = lines[-1] if lines else ""
            if got != self.expected:
                return f"value {got!r}, oracle {self.expected!r}"
        return None


def cold_ops(workload: str, seed: int):
    """Endless operations of a cold workload."""
    if workload == "cold-intersect":
        for q in queries(seed, COLD_ROTATION):
            yield ColdOp(tuple(q.argv()), q.expected)
    elif workload == "check-suites":
        rng = random.Random(seed)
        while True:
            s = rng.randrange(10 ** 6)
            yield ColdOp(("check", "--suite", "all", "--seed", str(s),
                          "--jobs", "1"), None)
    else:
        raise ValueError(f"not a cold workload: {workload}")


def child_env() -> dict[str, str]:
    """The environment of every program process: the package from
    ``src`` and no enumeration cache carried between operations."""
    env = {k: v for k, v in os.environ.items() if k != "RIBBONCELLS_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    return env


#: Marks the line in which ``CLI`` reports its peak resident memory.
PEAK_MARK = "bench-peak-kb "
#: ``python -m ribboncells.cli``, which also writes the process's VmHWM to
#: stderr at exit: its peak resident memory since the exec.  The harness
#: cannot use ru_maxrss, which also counts the spawning process's pages as
#: they were before the exec, so the harness's own size would floor it.
CLI = f"""\
import atexit, runpy, sys
def peak():
    with open('/proc/self/status') as fh:
        kb = [line.split()[1] for line in fh if line.startswith('VmHWM:')]
    sys.stderr.write({PEAK_MARK!r} + kb[0] + '\\n')
atexit.register(peak)
runpy.run_module('ribboncells.cli', run_name='__main__', alter_sys=True)
"""


def peak_mb() -> float:
    """VmHWM of this process, in MiB (see ``CLI``)."""
    with open("/proc/self/status") as fh:
        kb = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
    return int(kb[0]) / 1024


def spawn(cmd: list[str], timeout: float) -> tuple[int | None, str, float, float | None]:
    """Run ``cmd`` from the checkout root; ``(exit code, stdout, wall s,
    peak MiB)``.  The peak is None unless the command reports it, as
    ``CLI`` does.  A timed-out process is killed and waited for; its exit
    code is None."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    peaks = [int(line[len(PEAK_MARK):]) / 1024 for line in proc.stderr.splitlines()
             if line.startswith(PEAK_MARK)]
    return proc.returncode, proc.stdout, wall, (peaks[-1] if peaks else None)


def cli_command(argv) -> list[str]:
    return [sys.executable, "-c", CLI, *argv]


def traced_cli_command(spans_path: Path, op_id: int, argv) -> list[str]:
    return [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path),
            str(op_id), "--", *argv]
