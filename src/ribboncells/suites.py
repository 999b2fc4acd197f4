"""Seeded property suites wiring the modules together.

Each suite draws its cases from one seeded generator, checks an exact
identity, and reports failures with a minimal reproducing input (graph
JSON plus parameters), so a failing case can be rerun standalone.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations

from . import permgraph
from .cells import (PolygonFiber, cell_polytope,
                    fiber_integral_alpha, polygon_bundle)
from .enumeration import canonical_key, enumerate_trivalent
from .intersect import check_p_independence, omega
from .model0 import PointConfig, QQi, full_map, full_maps_agree, mobius_apply
from .permgraph import faces
from .polyform import (AffineMap, Chain, Form, FormOnComplex, Gluing, HalfSpace,
                       Piece, Polynomial, PolytopalComplex, Polytope,
                       polytope_chain, stokes_check)
from .sampling import random_stable_graph
from .stable import ContractionError, contract_edge, contract_set, contractible_edges

SUITE_NAMES = ("contraction", "stokes", "alpha", "omega", "p-independence",
               "model0")


@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    failures: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"suite": self.suite, "cases": self.cases,
                "failures": self.failures,
                "wall_time": round(self.wall_time, 3)}


def run_suite(name: str, seed: int = 0, cases: int | None = None) -> list[SuiteReport]:
    """Run one property suite (or all of them); deterministic per seed.
    ``cases`` of ``None`` runs each suite's default count."""
    if cases is not None and cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    if name == "all":
        return [run_suite(s, seed, cases)[0] for s in SUITE_NAMES]
    runner = {
        "contraction": _suite_contraction,
        "stokes": _suite_stokes,
        "alpha": _suite_alpha,
        "omega": _suite_omega,
        "p-independence": _suite_p_independence,
        "model0": _suite_model0,
    }.get(name)
    if runner is None:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITE_NAMES + ('all',))}")
    report = SuiteReport(suite=name)
    t0 = time.monotonic()
    runner(report, random.Random(seed), cases)
    report.wall_time = time.monotonic() - t0
    return [report]


def _suite_contraction(report: SuiteReport, rng: random.Random, cases):
    cases = cases or 200
    for _ in range(cases):
        g = random_stable_graph(rng, max_edges=8)
        report.cases += 1
        before = (permgraph.genus(g), sorted(w.label for w in faces(g)))
        edges = contractible_edges(g)
        # each single contraction, reused as the first step of every pair
        once = {e: contract_edge(g, e) for e in edges}
        for e, h in once.items():
            after = (permgraph.genus(h), sorted(w.label for w in faces(h)))
            if after != before or h.num_edges != g.num_edges - 1:
                report.failures.append({
                    "law": "conservation", "edge": e,
                    "graph": permgraph.to_json_dict(g)})
        # the routes of a pair mostly build raw-equal graphs, so each
        # distinct graph of this draw is searched once; equality compares
        # the raw data, so a hit needs identical input
        key = cache(canonical_key)
        for e, f in combinations(edges, 2):
            try:
                bulk = contract_set(g, {e, f})
            except ContractionError:
                continue
            # e < f, so contracting e shifts f down by one
            a = contract_edge(once[e], f - 1)
            b = contract_edge(once[f], e)
            if not (key(a) == key(b) == key(bulk)):
                report.failures.append({
                    "law": "commutativity", "edges": [e, f],
                    "graph": permgraph.to_json_dict(g)})


def _random_poly(rng, nvars, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(nvars, terms)


def _random_form(rng, nvars, degree):
    comps = {}
    for idx in combinations(range(nvars), degree):
        if rng.random() < 0.75:
            comps[idx] = _random_poly(rng, nvars)
    return Form(nvars, degree, comps)


def _stokes_corpus():
    """Each complex of the corpus with the chain of its whole polytopes,
    triangulated once."""
    square = Polytope.from_bounds([(0, 1), (0, 1)])
    cube = Polytope.from_bounds([(0, 1)] * 3)
    tri = Polytope.create(2, [HalfSpace.create([1, 0], 0),
                              HalfSpace.create([0, 1], 0),
                              HalfSpace.create([-1, -1], 1)])
    right = Polytope.from_bounds([(0, 1), (0, 1)])
    left = Polytope.from_bounds([(-1, 0), (0, 1)])
    edge = Polytope.from_bounds([(0, 1)])
    two = PolytopalComplex(
        {"right": right, "left": left, "edge": edge},
        [Gluing("edge", "right", AffineMap.create([[0], [1]], [0, 0])),
         Gluing("edge", "left", AffineMap.create([[0], [1]], [0, 0]))])
    return {
        "square": (PolytopalComplex({"sq": square}, []),
                   polytope_chain("sq", square)),
        "cube": (PolytopalComplex({"cube": cube}, []),
                 polytope_chain("cube", cube)),
        "triangle": (PolytopalComplex({"tri": tri}, []),
                     polytope_chain("tri", tri)),
        "two-squares": (two, polytope_chain("right", right)
                        + polytope_chain("left", left)),
    }


def _suite_stokes(report: SuiteReport, rng: random.Random, cases):
    cases = cases or 200
    corpus = _stokes_corpus()
    names = sorted(corpus)
    for _ in range(cases):
        report.cases += 1
        name = names[rng.randrange(len(names))]
        cx, whole = corpus[name]
        if name == "two-squares":
            shared = _random_poly(rng, 1)
            lift = shared.subst([Polynomial.variable(1, 2)])
            form = FormOnComplex(cx, 1, {
                "right": Form(2, 1, {(0,): _random_poly(rng, 2), (1,): lift}),
                "left": Form(2, 1, {(0,): _random_poly(rng, 2), (1,): lift}),
                "edge": Form(1, 1, {(0,): shared})})
            chain = whole
        else:
            pname, poly = next(iter(cx.polytopes.items()))
            d = poly.dim
            deg = rng.randint(1, d)
            form = FormOnComplex(cx, deg - 1, {pname: _random_form(rng, d, deg - 1)})
            if deg == d:
                chain = whole
            else:
                # random simplicial pieces inside the polytope (for the
                # triangle, coordinates up to 1/2 keep the sum below 1)
                hi = 2 if pname == "tri" else 4
                pts = [tuple(Fraction(rng.randint(0, hi), 4) for _ in range(d))
                       for _ in range(deg + 1)]
                chain = Chain(deg, [(Fraction(1), Piece.create(pname, pts))])
        lhs, rhs, ok = stokes_check(cx, chain, form)
        if not ok:
            report.failures.append({
                "complex": name, "lhs": str(lhs), "rhs": str(rhs)})


def _suite_alpha(report: SuiteReport, rng: random.Random, cases):
    cases = cases or 300
    for _ in range(cases):
        g = random_stable_graph(rng, max_edges=7)
        ws = faces(g)
        w = ws[rng.randrange(len(ws))]
        lengths = [Fraction(rng.randint(1, 40), rng.randint(1, 8))
                   for _ in range(w.degree)]
        t = Fraction(rng.randint(0, 999), 1000) * sum(lengths)
        fib = PolygonFiber.create(w, lengths, t)
        report.cases += 1
        got = fiber_integral_alpha(fib)
        if got != -1:
            report.failures.append({
                "graph": permgraph.to_json_dict(g), "face": w.label,
                "lengths": [str(x) for x in lengths], "integral": str(got)})


def _suite_omega(report: SuiteReport, rng: random.Random, cases):
    """Draws cells until ``cases`` non-empty ones are checked; the (1,1)
    cell of the pool is never empty, so the draws end."""
    cases = cases or 8
    pool = list(enumerate_trivalent(0, 3)) + list(enumerate_trivalent(1, 1))
    while report.cases < cases:
        cls = pool[rng.randrange(len(pool))]
        p = [Fraction(rng.randint(2, 30), rng.randint(1, 3))
             for _ in range(cls.graph.num_faces)]
        cell = cell_polytope(cls.graph, p)
        if cell.is_empty:
            continue
        report.cases += 1
        for w in faces(cls.graph):
            pb = polygon_bundle(cell, w.label)
            da = pb.alpha.d()
            if any(da.forms[a].uses_variable(cell.dim) for a in pb.arc_names()):
                report.failures.append({
                    "law": "fiber direction present",
                    "graph": permgraph.to_json_dict(cls.graph),
                    "perimeters": [str(x) for x in p], "face": w.label})
                continue
            lift = omega_on_chart(omega(cell, w.label))
            mismatch = any(
                da.forms[a] != _lift_to_bundle(lift, cell.dim)
                for a in pb.arc_names())
            if mismatch:
                report.failures.append({
                    "law": "curvature mismatch",
                    "graph": permgraph.to_json_dict(cls.graph),
                    "perimeters": [str(x) for x in p], "face": w.label})


def omega_on_chart(m) -> Form:
    """The 2-form of an antisymmetric chart matrix, as a constant ``Form``
    on the cell's free-coordinate chart."""
    d = len(m)
    return Form(d, 2, {(j, k): Polynomial.constant(d, m[j][k])
                       for j in range(d) for k in range(j + 1, d)
                       if m[j][k] != 0})


def _lift_to_bundle(form: Form, d: int) -> Form:
    comps = {}
    for idx, poly in form.comps.items():
        lifted = poly.subst([Polynomial.variable(i, d + 1) for i in range(d)])
        comps[idx] = lifted
    return Form(d + 1, form.degree, comps)


def _suite_p_independence(report: SuiteReport, rng: random.Random, cases):
    cases = cases or 3
    queries = [(0, (0, 0, 0)), (1, (1,)), (0, (1, 0, 0, 0))]
    for genus, d in queries:
        trials = [[Fraction(rng.randint(3, 60), rng.randint(1, 5))
                   for _ in range(len(d))] for _ in range(max(2, cases))]
        report.cases += len(trials)
        try:
            check_p_independence(genus, d, trials)
        except ArithmeticError as exc:
            report.failures.append({
                "genus": genus, "exponents": list(d), "error": str(exc)})


def _rand_qqi(rng):
    return QQi.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def _rand_config(rng, n):
    pts = []
    while len(pts) < n:
        z = _rand_qqi(rng)
        if z not in pts:
            pts.append(z)
    return PointConfig.create(pts)


def _cross_ratio(z1, z2, z3, z4):
    return ((z1 - z3) * (z2 - z4)) / ((z1 - z4) * (z2 - z3))


def _suite_model0(report: SuiteReport, rng: random.Random, cases):
    cases = cases or 100
    for _ in range(cases):
        report.cases += 1
        cfg = _rand_config(rng, rng.randint(3, 5))
        while True:
            a, b, c, d = (_rand_qqi(rng) for _ in range(4))
            if not (a * d - b * c).is_zero():
                break
        moved = mobius_apply((a, b, c, d), cfg)
        image = full_map(cfg)
        if not full_maps_agree(image, full_map(moved)):
            report.failures.append({
                "law": "mobius invariance",
                "points": [str(p) for p in cfg.points]})
        if cfg.n == 4:
            other = _rand_config(rng, 4)
            same_cr = _cross_ratio(*cfg.points) == _cross_ratio(*other.points)
            if full_maps_agree(image, full_map(other)) != same_cr:
                report.failures.append({
                    "law": "cross-ratio separation",
                    "points": [str(p) for p in cfg.points],
                    "other": [str(p) for p in other.points]})
