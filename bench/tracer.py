"""Per-layer tracing of ribboncells from outside the program.

Each traced function is replaced by a wrapper under every name a caller
looks it up by: the module attribute of every ``ribboncells`` module that
bound it (``from .linalg import solve_unique`` makes a second binding), or
the class attribute for methods.  The wrapper records one span per call.

A span is (name, start, end, parent span, operation id, count).  ``count``
carries the one number a layer reports per call (classes returned, vertices
found, 1 for an empty cell).  Spans stay in memory in flat arrays and are
written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

#: (layer metric name, defining module, attribute path) of every traced
#: public call.  Names follow ``<module>.<function>``.
TARGETS = (
    ("cli.main", "ribboncells.cli", "main"),
    ("enumeration.enumerate_trivalent", "ribboncells.enumeration", "enumerate_trivalent"),
    ("enumeration.canonical_key", "ribboncells.enumeration", "canonical_key"),
    ("enumeration.automorphisms", "ribboncells.enumeration", "automorphisms"),
    ("permgraph.validate", "ribboncells.permgraph", "validate"),
    ("stable.contract_edge", "ribboncells.stable", "contract_edge"),
    ("stable.contract_set", "ribboncells.stable", "contract_set"),
    ("stable.contractible_edges", "ribboncells.stable", "contractible_edges"),
    ("linalg.solve_affine", "ribboncells.linalg", "solve_affine"),
    ("linalg.solve_unique", "ribboncells.linalg", "solve_unique"),
    ("linalg.det", "ribboncells.linalg", "det"),
    ("polyform.Polytope.vertices", "ribboncells.polyform.geometry", "Polytope.vertices"),
    ("polyform.volume", "ribboncells.polyform.geometry", "volume"),
    ("polyform.Form.wedge", "ribboncells.polyform.forms", "Form.wedge"),
    ("polyform.stokes_check", "ribboncells.polyform.chains", "stokes_check"),
    ("cells.cell_polytope", "ribboncells.cells", "cell_polytope"),
    ("cells.polygon_bundle", "ribboncells.cells", "polygon_bundle"),
    ("cells.fiber_integral_alpha", "ribboncells.cells", "fiber_integral_alpha"),
    ("intersect.integrate_cell", "ribboncells.intersect", "integrate_cell"),
    ("intersect.orientation_sign", "ribboncells.intersect", "orientation_sign"),
    ("intersect.restrict_to_cell", "ribboncells.intersect", "restrict_to_cell"),
    ("intersect.omega", "ribboncells.intersect", "omega"),
    ("sampling.random_stable_graph", "ribboncells.sampling", "random_stable_graph"),
    ("model0.full_map", "ribboncells.model0", "full_map"),
    ("suites.run_suite", "ribboncells.suites", "run_suite"),
)

#: Suites whose ``run_suite`` spans get their own self time.
SUITES = ("contraction", "stokes", "alpha", "omega", "p-independence", "model0")


def _count_of(name):
    """What a span of ``name`` counts, from the call's result."""
    if name == "enumeration.enumerate_trivalent" or name == "polyform.Polytope.vertices":
        # a later version may return a generator; it is then not counted
        return lambda items: len(items) if hasattr(items, "__len__") else 0
    if name == "cells.cell_polytope":
        return lambda cell: int(cell.is_empty)
    return None


class Tracer:
    """Spans of one traced process, in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("i")
        self.current_op = 0
        self._stack: list[int] = []
        self._bindings: list[tuple] = []
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name: str, fn):
        """The traced version of ``fn``."""
        clock = time.perf_counter
        stack = self._stack
        count_of = _count_of(name)
        fixed_id = self._intern(name)
        per_suite = name == "suites.run_suite"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id
            if per_suite:
                suite = args[0] if args else kwargs.get("name")
                nid = self._intern(f"suites.run_suite:{suite}")
            idx = len(self.start)
            self.name_of.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.count.append(0)
            stack.append(idx)
            t0 = clock()
            self.start[idx] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count_of is not None:
                self.count[idx] = count_of(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target wherever ``ribboncells`` code looks it up."""
        if not self._bindings:
            self._bindings = self._find_bindings()
        for holder, key, _, wrapper in self._bindings:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Restore the original functions; spans recorded so far stay."""
        for holder, key, original, _ in self._bindings:
            setattr(holder, key, original)

    def _find_bindings(self) -> list[tuple]:
        """(holder, attribute, original, wrapper) for every name to rebind."""
        importlib.import_module("ribboncells.cli")
        bindings = []
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                # the raw class attribute: a property or staticmethod is not
                # a plain method and would break if rebound as a function
                original = inspect.getattr_static(holder, leaf)
            except (ImportError, AttributeError):
                original = None
            if not callable(original) or (owner and not inspect.isfunction(original)):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            if owner:
                bindings.append((holder, leaf, original, wrapper))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ribboncells"
                                       or mod_name.startswith("ribboncells.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        bindings.append((mod, key, original, wrapper))
        return bindings

    def dump(self, path: str) -> None:
        """Write every span as one JSON file."""
        payload = {"names": self.names, "missing": self.missing,
                   "name_of": self.name_of.tolist(),
                   "start": self.start.tolist(), "end": self.end.tolist(),
                   "parent": self.parent.tolist(), "op": self.op.tolist(),
                   "count": self.count.tolist()}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def load_spans(path: str) -> tuple[list[tuple], dict]:
    """Spans and the raw payload of a file written by :meth:`Tracer.dump`."""
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    spans = [(names[n], s, e, p, o, c) for n, s, e, p, o, c in zip(
        data["name_of"], data["start"], data["end"], data["parent"],
        data["op"], data["count"])]
    return spans, data


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children of one parent may overlap or arrive in any order; the covered
    part is the length of the union of their intervals, clipped to the
    parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict:
    """Per span name: calls, self seconds and summed counts, plus the
    vertices-per-solve ratio numerator and denominator."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for (name, *_rest, count), self_s in zip(spans, selfs):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["count"] += count
    under = 0
    for name, _, _, parent, *_ in spans:
        if name != "linalg.solve_unique":
            continue
        while parent >= 0:
            if spans[parent][0] == "polyform.Polytope.vertices":
                under += 1
                break
            parent = spans[parent][3]
    out["solve_unique_under_vertices"] = {"calls": under, "self_s": 0.0, "count": 0}
    return out


def merge(into: dict, other: dict) -> dict:
    """Add the per-name aggregates of ``other`` into ``into``."""
    for name, entry in other.items():
        acc = into.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0})
        for key in acc:
            acc[key] += entry[key]
    return into
