"""What a cold ``intersect`` process loads.

Each probe is a fresh interpreter that runs the command line as
``python -m ribboncells.cli`` does and reports, at exit, the modules loaded
since the probe started.  A query must not load what only other subcommands
use, nor ``dataclasses``, whose import pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``; neither may ``cells``, which writes each cell's
H-description without ``polyform``.  The controls show the same probe
seeing a module that a command does load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """\
import atexit, runpy, sys
before = set(sys.modules)
atexit.register(lambda: sys.stderr.write(
    "\\nloaded " + " ".join(sorted(set(sys.modules) - before)) + "\\n"))
{body}
"""
RUN_CLI = "runpy.run_module('ribboncells.cli', run_name='__main__', alter_sys=True)"

OFF_THE_QUERY_PATH = {"dataclasses", "inspect", "json", "ribboncells.polyform",
                      "ribboncells.suites", "ribboncells.model0",
                      "ribboncells.sampling"}

QUERY = ["intersect", "--genus", "1", "--d", "1,1", "--perimeters", "3,7"]


def _probe(body: str, *argv: str) -> tuple[str, set[str]]:
    """The stdout of ``body`` run in a fresh interpreter with ``argv``,
    and the modules it loaded."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body), *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    last = run.stderr.splitlines()[-1].split()
    assert last[0] == "loaded", run.stderr
    return run.stdout, set(last[1:])


def _package(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "ribboncells"}


def test_cold_intersect_loads_only_the_query_path():
    out, loaded = _probe(RUN_CLI, *QUERY)
    assert out.strip() == "1/24"
    assert loaded & OFF_THE_QUERY_PATH == set()
    # ``cli`` imports every module the query runs, so importing it (what
    # the benchmark's set-up times) is the whole start-up of a query; run
    # as ``__main__``, ``cli`` itself is not listed under its name
    _, imported = _probe("import ribboncells.cli")
    assert _package(loaded) == _package(imported) - {"ribboncells.cli"}


def test_control_json_output_loads_json():
    out, loaded = _probe(RUN_CLI, *QUERY, "--format", "json")
    assert json.loads(out) == {"value": "1/24"}
    assert "json" in loaded


def test_cells_output_loads_neither_polyform_nor_dataclasses(tmp_path):
    # each cell's H-description is written straight from its chart
    out, loaded = _probe(RUN_CLI, "cells", "--genus", "1", "--faces", "1",
                         "--perimeters", "5", "--out", str(tmp_path / "c"))
    assert out.startswith("wrote ")
    assert "ribboncells.serialize" in loaded
    assert loaded & {"ribboncells.polyform", "dataclasses"} == set()


def test_control_check_loads_polyform():
    out, loaded = _probe(RUN_CLI, "check", "--suite", "omega", "--cases", "1")
    assert out.startswith("omega: 1 cases, ok")
    assert {"ribboncells.polyform", "dataclasses"} <= loaded
