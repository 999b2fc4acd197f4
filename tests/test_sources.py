"""Every Python source of the package, its tests and its demos compiles
with warnings as errors, so an invalid escape sequence in a string (a
``SyntaxWarning`` from Python 3.12, a ``DeprecationWarning`` before) is
caught on every supported interpreter."""

import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "demos")
                 for p in (ROOT / d).rglob("*.py"))


def test_sources_found():
    assert ROOT / "src" / "ribboncells" / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
