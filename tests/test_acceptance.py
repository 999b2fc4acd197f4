"""Acceptance gate: every criterion checked exactly, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All equalities are exact rational identities; the only tolerances are the
wall-clock budgets stated inline.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from oracles import tau
from test_model0 import cross_ratio, rand_config, rand_mobius

from ribboncells.cells import PolygonFiber, cell_polytope, fiber_integral_alpha, polygon_bundle
from ribboncells.cli import main as cli_main
from ribboncells.enumeration import canonical_key, enumerate_cells
from ribboncells.intersect import intersection_number, omega
from ribboncells.suites import omega_on_chart
from ribboncells.model0 import full_map, full_maps_agree, mobius_apply
from ribboncells.permgraph import faces, genus, perimeters, to_json_dict
from ribboncells.polyform import (Form, Polynomial, Polytope, cone_homotopy,
                                  polytope_chain, stokes_check)
from ribboncells.sampling import random_stable_graph
from ribboncells.stable import (ContractionError, contract_edge, contract_set,
                                contractible_edges)
from ribboncells.suites import run_suite

F = Fraction


def _passed(num, text):
    print(f"criterion {num}: PASS - {text}")


def _cli_value(args):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(args)
    assert code == 0, f"CLI exited {code}"
    return json.loads(buf.getvalue())["value"]


GENERIC_SEED = 20608


def _generic_perimeters(rng, n):
    return ",".join(f"{rng.randint(17, 400)}/{rng.randint(1, 13)}"
                    for _ in range(n))


def test_criterion_1_tau0_cubed_via_cli():
    rng = random.Random(GENERIC_SEED)
    t0 = time.monotonic()
    for _ in range(3):
        p = _generic_perimeters(rng, 3)
        value = _cli_value(["intersect", "--genus", "0", "--d", "0,0,0",
                            "--perimeters", p, "--format", "json"])
        assert Fraction(value) == tau(0, 0, 0) == 1, \
            f"<tau_0^3> = {value} at p = {p}"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    _passed(1, f"<tau_0^3> = 1 at 3 generic perimeter vectors ({elapsed:.2f}s)")


def test_criterion_2_tau1_via_cli(tmp_path):
    rng = random.Random(GENERIC_SEED + 1)
    t0 = time.monotonic()
    for _ in range(2):
        p = _generic_perimeters(rng, 1)
        ledger_file = tmp_path / "ledger.json"
        value = _cli_value(["intersect", "--genus", "1", "--d", "1",
                            "--perimeters", p, "--format", "json",
                            "--ledger", str(ledger_file)])
        if Fraction(value) != tau(1):
            pytest.fail(
                "automorphism-convention discrepancy: <tau_1> = "
                f"{value} at p = {p}; full per-cell ledger:\n"
                + ledger_file.read_text())
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s (budget 10s)"
    _passed(2, f"<tau_1> = 1/24 at 2 generic perimeters ({elapsed:.2f}s)")


def test_criterion_3_tau1_tau0_cubed_permutation_invariant():
    rng = random.Random(GENERIC_SEED + 2)
    t0 = time.monotonic()
    p = [F(rng.randint(17, 400), rng.randint(1, 13)) for _ in range(4)]
    for slot in range(4):
        d = [0] * 4
        d[slot] = 1
        pp = p[slot:] + p[:slot]
        r = intersection_number(0, d, pp)
        assert r.value == tau(1, 0, 0, 0) == 1, \
            f"<tau_1 tau_0^3> = {r.value} with d={d}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s (budget 30s)"
    _passed(3, f"<tau_1 tau_0^3> = 1, invariant over the 4 slots ({elapsed:.2f}s)")


def test_criterion_4_p_independence():
    rng = random.Random(GENERIC_SEED + 3)
    for genus_, d in [(0, (0, 0, 0)), (1, (1,)), (0, (1, 0, 0, 0))]:
        values = set()
        for _ in range(2):
            p = [F(rng.randint(17, 500), rng.randint(1, 17))
                 for _ in range(len(d))]
            values.add(intersection_number(genus_, d, p).value)
        assert len(values) == 1, f"values differ for {(genus_, d)}: {values}"
    _passed(4, "all three queries agree exactly at independently drawn p")


def test_criterion_5_fiber_integrals():
    rng = random.Random(GENERIC_SEED + 4)
    checked = 0
    for (g, n) in [(0, 3), (0, 4), (1, 1)]:
        for cls in enumerate_cells(g, n).classes.values():
            ws = faces(cls.graph)
            for _ in range(100):
                w = ws[rng.randrange(len(ws))]
                lengths = [F(rng.randint(1, 60), rng.randint(1, 9))
                           for _ in range(w.degree)]
                t = F(rng.randint(0, 9999), 10000) * sum(lengths)
                fib = PolygonFiber.create(w, lengths, t)
                assert fiber_integral_alpha(fib) == -1, \
                    f"fiber integral != -1 on {to_json_dict(cls.graph)}"
                checked += 1
    _passed(5, f"{checked} fiber integrals over (0,3), (0,4), (1,1) cells, all -1")


def test_criterion_6_curvature_is_basic():
    checked = 0
    for (g, n) in [(0, 3), (1, 1)]:
        for cls in enumerate_cells(g, n).classes.values():
            graph = cls.graph
            # perimeters realized by unit lengths keep every cell non-empty
            p = perimeters(graph, [1] * graph.num_edges)
            cell = cell_polytope(graph, p)
            assert not cell.is_empty
            for w in faces(graph):
                pb = polygon_bundle(cell, w.label)
                da = pb.alpha.d()
                lift = _lift(omega_on_chart(omega(cell, w.label)), cell.dim)
                for name in pb.arc_names():
                    assert not da.forms[name].uses_variable(cell.dim), \
                        f"fiber differential in d(alpha) on {name}"
                    assert da.forms[name] == lift, \
                        f"d(alpha) != pullback of omega on {name} of " \
                        f"{to_json_dict(graph)}"
                checked += 1
    _passed(6, f"d(alpha) basic and equal to omega on {checked} face bundles")


def _lift(form, d):
    comps = {}
    for idx, poly in form.comps.items():
        comps[idx] = poly.subst([Polynomial.variable(i, d + 1) for i in range(d)])
    return Form(d + 1, form.degree, comps)


def _check_contraction_laws(graph):
    before = (genus(graph), sorted(w.label for w in faces(graph)))
    ce = contractible_edges(graph)
    for e in ce:
        h = contract_edge(graph, e)
        after = (genus(h), sorted(w.label for w in faces(h)))
        assert after == before, f"conservation fails on {to_json_dict(graph)}"
        assert h.num_edges == graph.num_edges - 1
    for e in ce:
        for f in ce:
            if e >= f:
                continue
            try:
                bulk = contract_set(graph, {e, f})
            except ContractionError:
                continue
            a = contract_edge(contract_edge(graph, e), f - 1 if f > e else f)
            b = contract_edge(contract_edge(graph, f), e - 1 if e > f else e)
            ka, kb, kc = canonical_key(a), canonical_key(b), canonical_key(bulk)
            assert ka == kb == kc, \
                f"commutativity fails at edges {(e, f)} on {to_json_dict(graph)}"


def test_criterion_7_contraction_laws():
    count = 0
    for (g, n) in [(0, 3), (0, 4), (1, 1), (1, 2)]:
        for cls in enumerate_cells(g, n).classes.values():
            _check_contraction_laws(cls.graph)
            count += 1
    rng = random.Random(GENERIC_SEED + 5)
    for _ in range(1000):
        _check_contraction_laws(random_stable_graph(rng, max_edges=8))
        count += 1
    _passed(7, f"contraction laws exact on {count} graphs "
               f"(4 closures + 1000 random)")


def test_criterion_8_stokes():
    # the piecewise two-square form, then the seeded random corpus
    from test_polyform import paper_one_form, two_squares_complex

    cx = two_squares_complex()
    w = paper_one_form(cx)
    chain = polytope_chain("right", cx.polytopes["right"]) + \
        polytope_chain("left", cx.polytopes["left"])
    lhs, rhs, ok = stokes_check(cx, chain, w)
    assert ok and lhs == rhs == 0
    (report,) = run_suite("stokes", seed=GENERIC_SEED + 6, cases=500)
    assert report.cases == 500
    assert report.ok, report.failures[:3]
    _passed(8, "two-square example plus 500 random form/chain pairs, all exact")


def test_criterion_9_poincare_homotopy():
    from test_polyform import random_form

    rng = random.Random(GENERIC_SEED + 7)
    box = Polytope.from_bounds([(-1, 1)] * 3)
    for _ in range(200):
        deg = rng.randint(1, 3)
        w = random_form(rng, 3, deg, max_deg=3)
        center = tuple(F(rng.randint(-2, 2), 3) for _ in range(3))
        hw = cone_homotopy(box, center, w)
        hdw = cone_homotopy(box, center, w.d())
        assert hw.d() + hdw == w
    _passed(9, "d(h w) + h(d w) = w for 200 random polynomial forms")


def test_criterion_10_model0():
    rng = random.Random(GENERIC_SEED + 8)
    for _ in range(100):
        cfg = rand_config(rng, rng.randint(3, 5), allow_inf=True)
        moved = mobius_apply(rand_mobius(rng), cfg)
        assert full_maps_agree(full_map(cfg), full_map(moved))
    for _ in range(100):
        a = rand_config(rng, 4, allow_inf=True)
        b = rand_config(rng, 4, allow_inf=True)
        same_cr = (cross_ratio(*a.points) - cross_ratio(*b.points)).is_zero()
        assert full_maps_agree(full_map(a), full_map(b)) == same_cr
    _passed(10, "100 coordinate changes invariant, 100 separation pairs "
                "match the cross-ratio oracle")
