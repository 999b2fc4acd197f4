"""Smoke test: every demo script runs to completion, and the demos of the
polytope kernels print their exact values."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: lines the triangulation, pullback and chain integration must reproduce
VALUE_LINES = {
    "04_forms_and_stokes.py": [
        "d(x dy) over the square: 1 = x dy over its boundary: 1",
        "volume of a 4-cube of side 2: 16"],
    "05_cells_and_curvature.py": [
        "chart volume: 18",
        "chain integral over one full fiber: -1"],
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in VALUE_LINES.get(script.name, []):
        assert line in lines


def test_value_lines_name_demos():
    assert set(VALUE_LINES) <= {p.name for p in DEMOS}
