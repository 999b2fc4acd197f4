"""The benchmark's tracer finds every function it wraps.

``bench/tracer.py`` wraps named functions at fixed module paths; a moved or
renamed function would silently drop out of the per-layer metrics, so the
tracer is loaded by path and its lookup run here.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_is_found():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t._find_bindings()
    assert t.missing == []
    assert set(t.names) == {name for name, *_ in tracer.TARGETS}
