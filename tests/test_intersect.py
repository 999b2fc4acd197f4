import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import make_graph
from oracles import tau, tau_genus0

from ribboncells.cells import cell_polytope
from ribboncells.enumeration import enumerate_trivalent
from ribboncells.intersect import (QueryError,
                                   check_p_independence, default_perimeters,
                                   integrate_cell, intersection_number,
                                   make_query, omega, orientation_sign,
                                   restrict_to_cell)

F = Fraction


class TestOracle:
    """The recursion oracle must reproduce the classical table before we
    trust it against the geometry."""

    def test_known_values(self):
        assert tau(0, 0, 0) == 1
        assert tau(1, 0, 0, 0) == 1
        assert tau(2, 0, 0, 0, 0) == 1
        assert tau(1, 1, 0, 0, 0) == 2
        assert tau(1) == F(1, 24)
        assert tau(2, 0) == F(1, 24)
        assert tau(1, 1) == F(1, 24)
        assert tau(3, 0, 0) == F(1, 24)
        assert tau(2, 1, 0) == F(1, 12)
        assert tau(1, 1, 1) == F(1, 12)
        assert tau(4) == F(1, 1152)
        assert tau(5, 0) == F(1, 1152)
        assert tau(4, 1) == F(1, 384)
        assert tau(3, 2) == F(29, 5760)

    def test_one_point_tower(self):
        # <tau_{3g-2}>_g = 1 / (24^g g!)
        from math import factorial

        for g in (1, 2, 3):
            assert tau(3 * g - 2) == F(1, 24 ** g * factorial(g))

    def test_genus_zero_closed_formula(self):
        rng = random.Random(51)
        for _ in range(20):
            n = rng.randint(3, 7)
            cuts = sorted(rng.randint(0, n - 3) for _ in range(n - 1))
            d = [b - a for a, b in zip([0] + cuts, cuts + [n - 3])]
            assert tau(*d) == tau_genus0(*d)


class TestOmega:
    def test_three_distinct_sides(self):
        # wedge over the first k-1 = 2 sides only
        g = make_graph([([(0, 5)], 1), ([(1, 2)], 1), ([(3, 4)], 1)])
        w = next(x for x in __import__("ribboncells").faces(g) if x.degree == 3)
        form = omega(g, w.label, default_perimeters(g.num_faces))
        assert len(form.pairs) == 1
        (pair, coeff), = form.pairs
        e1, e2 = w.edges[0], w.edges[1]
        expected_pair = (min(e1, e2), max(e1, e2))
        assert pair == expected_pair

    def test_single_side_face_is_zero(self, dumbbell):
        from ribboncells.permgraph import faces

        w = next(x for x in faces(dumbbell) if x.degree == 1)
        assert omega(dumbbell, w.label, default_perimeters(3)).pairs == ()

    def test_theta_repeated_edges(self, theta):
        # face word edges (0,2,1,0,2,1): repeated differentials cancel
        # their own terms, net coefficient 2/p^2 on dl0 ^ dl2
        form = omega(theta, 1, [12])
        assert form.pairs == (((0, 2), F(2, 144)),)

    def test_four_sides_with_repeated_edge(self, dumbbell):
        # the big dumbbell face has sides (e0, e2, e1, e2): the repeated
        # edge sits at position 4 = k, so the first three sides all pair;
        # expanded by hand: + dl0^dl2 + dl0^dl1 - dl1^dl2, over p^2
        from ribboncells.permgraph import faces

        w = next(x for x in faces(dumbbell) if x.degree == 4)
        assert sorted(w.edges) == [0, 1, 2, 2]
        p = [F(5)] * 3
        form = omega(dumbbell, w.label, p)
        first3 = w.edges[:3]
        expect = {}
        for a in range(3):
            for b in range(a + 1, 3):
                ea, eb = first3[a], first3[b]
                key, s = ((ea, eb), 1) if ea < eb else ((eb, ea), -1)
                expect[key] = expect.get(key, 0) + F(s, 25)
        assert dict(form.pairs) == expect

    def test_starting_side_independence_on_charts(self, theta):
        cell = cell_polytope(theta, [12])
        base = restrict_to_cell([omega(theta, 1, [12])], cell)
        for start in range(1, 6):
            rot = omega(theta, 1, [12], start_side=start)
            assert restrict_to_cell([rot], cell) == base

    def test_starting_side_independence_04(self):
        from ribboncells.suites import omega_on_chart
        from ribboncells.permgraph import faces

        p = default_perimeters(4)
        for c in enumerate_trivalent(0, 4):
            cell = cell_polytope(c.graph, p)
            if cell.is_empty:
                continue
            for w in faces(c.graph):
                base = omega_on_chart(omega(c.graph, w.label, p), cell)
                for start in range(1, w.degree):
                    rot = omega(c.graph, w.label, p, start_side=start)
                    assert omega_on_chart(rot, cell) == base


class TestRestrict:
    def test_zero_dim_empty_product(self):
        cls = enumerate_trivalent(0, 3)
        p = default_perimeters(3)
        for c in cls:
            cell = cell_polytope(c.graph, p)
            if not cell.is_empty:
                assert restrict_to_cell([], cell) == 1

    def test_theta_substitution(self, theta):
        cell = cell_polytope(theta, [12])
        val = restrict_to_cell([omega(theta, 1, [12])], cell)
        # dl0 = -dx0 - dx1 in the chart, so 2/p^2 dl0^dl2 = -2/p^2 dx0^dx1
        assert val == F(-2, 144)

    def test_degree_mismatch(self, theta):
        cell = cell_polytope(theta, [12])
        with pytest.raises(ValueError):
            restrict_to_cell([omega(theta, 1, [12])] * 2, cell)


class TestOrientation:
    def test_zero_dim_positive(self):
        p = default_perimeters(3)
        for c in enumerate_trivalent(0, 3):
            cell = cell_polytope(c.graph, p)
            if not cell.is_empty:
                assert orientation_sign(c.graph, p, cell) == 1

    def test_11_reference_nonzero(self):
        p = (F(7),)
        (c,) = enumerate_trivalent(1, 1)
        cell = cell_polytope(c.graph, p)
        assert orientation_sign(c.graph, p, cell) in (-1, 1)

    def test_contribution_chart_invariance_via_p_scaling(self):
        # scaling p rescales charts; contributions stay fixed
        (c,) = enumerate_trivalent(1, 1)
        a = integrate_cell(c, make_query(1, [1], [F(5)]))
        b = integrate_cell(c, make_query(1, [1], [F(40, 3)]))
        assert a.contribution == b.contribution == F(1, 24)


def _is_03_wall(p):
    """Some perimeter equals another, or the sum of the other two."""
    a, b, c = p
    return len(set(p)) < 3 or a == b + c or b == a + c or c == a + b


class TestWallPerimeters:
    """Perimeter vectors on which some closed cell touches ``l_e = 0``.
    Ties are broken by a symbolic perturbation; the value must not move."""

    def test_every_03_wall_up_to_8(self):
        walls = [p for p in product(range(1, 9), repeat=3) if _is_03_wall(p)]
        assert len(walls) == 248
        wrong = [p for p in walls
                 if intersection_number(0, [0, 0, 0], p).value != tau(0, 0, 0)]
        assert wrong == []

    def test_exactly_one_03_cell_survives_a_sum_wall(self):
        r = intersection_number(0, [0, 0, 0], [3, 22, 19])
        assert r.value == 1
        assert sum(1 for c in r.cells if not c.empty) == 1

    @pytest.mark.parametrize("p", [(5, 5, 7, 11), (3, 5, 8, 13), (3, 11, 7, 7),
                                   (2, 3, 4, 9), (1, 1, 2, 2), (1, 1, 1, 1)])
    def test_04_walls(self, p):
        for d in ((1, 0, 0, 0), (0, 0, 0, 1)):
            assert intersection_number(0, d, p).value == tau(*d)

    @pytest.mark.parametrize("p", [(5, 5), (3, 6), (6, 3), (2, 6), (1, 1)])
    def test_12_walls(self, p):
        for d in ((2, 0), (1, 1), (0, 2)):
            assert intersection_number(1, d, p).value == tau(*d)


class TestCellWithoutPolytopeGeometry:
    """Each cell's volume and wall rule come from one pass over the bases of
    its incidence matrix, so the intersection path needs no vertex
    enumeration, boundedness test or triangulation."""

    def test_values_with_polytope_geometry_disabled(self, monkeypatch):
        import ribboncells.polyform as polyform
        from ribboncells.polyform import geometry

        def forbidden(*args, **kwargs):
            raise AssertionError("intersection path used polytope geometry")

        monkeypatch.setattr(geometry.Polytope, "vertices", forbidden)
        monkeypatch.setattr(geometry.Polytope, "is_bounded", forbidden)
        for module in (geometry, polyform):
            monkeypatch.setattr(module, "triangulate", forbidden)
            monkeypatch.setattr(module, "volume", forbidden)
        for genus, d in [(0, (0, 0, 0)), (1, (1,)), (0, (1, 0, 0, 0)),
                         (1, (1, 1)), (1, (2, 0))]:
            assert intersection_number(genus, d).value == tau(*d)
        assert intersection_number(0, (0, 0, 0), (3, 22, 19)).value == 1

    def test_held_wall_point_counts_once(self):
        # the held point is empty at p, yet it is integrated: orientation
        # and coefficient of a zero-dimensional cell are 1
        q = make_query(0, [0, 0, 0], [3, 22, 19])
        held = []
        for c in enumerate_trivalent(0, 3):
            cell = cell_polytope(c.graph, q.perimeters)
            assert cell.is_empty
            if cell.chart_volume:
                held.append(integrate_cell(c, q))
        assert len(held) == 1
        assert (held[0].empty, held[0].orientation, held[0].coefficient,
                held[0].chart_volume) == (False, 1, 1, 1)

    def test_forms_refuse_cells_empty_at_p_plus_eps(self):
        p = (3, 22, 19)
        for c in enumerate_trivalent(0, 3):
            cell = cell_polytope(c.graph, p)
            if not cell.chart_volume:
                with pytest.raises(ValueError):
                    restrict_to_cell([], cell)
                with pytest.raises(ValueError):
                    orientation_sign(c.graph, p, cell)


class TestIntersectionNumbers:
    def test_tau0_cubed(self):
        r = intersection_number(0, [0, 0, 0])
        assert r.value == tau(0, 0, 0) == 1
        assert sum(1 for c in r.cells if not c.empty) == 1

    def test_tau1_once_punctured_torus(self):
        r = intersection_number(1, [1])
        assert r.value == tau(1) == F(1, 24)

    def test_tau1_four_points(self):
        r = intersection_number(0, [1, 0, 0, 0])
        assert r.value == tau(1, 0, 0, 0) == 1

    def test_12_numbers(self):
        assert intersection_number(1, [2, 0]).value == tau(2, 0) == F(1, 24)
        assert intersection_number(1, [1, 1]).value == tau(1, 1) == F(1, 24)

    def test_permutation_equivariance(self):
        p = default_perimeters(4)
        base = intersection_number(0, [1, 0, 0, 0], p).value
        for perm in permutations(range(4)):
            d = [(1, 0, 0, 0)[i] for i in perm]
            pp = [p[i] for i in perm]
            assert intersection_number(0, d, pp).value == base

    def test_p_independence(self):
        rng = random.Random(52)
        trials = [default_perimeters(4),
                  tuple(F(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(4)),
                  tuple(F(rng.randint(1, 90), rng.randint(1, 11)) for _ in range(4))]
        rs = check_p_independence(0, [1, 0, 0, 0], trials)
        assert all(r.value == 1 for r in rs)

    def test_ledger_sums_to_value(self):
        r = intersection_number(0, [1, 0, 0, 0])
        assert sum((c.contribution for c in r.cells), F(0)) == r.value
        assert len(r.cells) == len(enumerate_trivalent(0, 4))

    def test_chart_independence_under_relabelling(self):
        # relabelling edges permutes the columns fed to the elimination,
        # hence the chart; contributions must not move
        from ribboncells.permgraph import relabel
        from ribboncells.sampling import random_edge_relabelling

        rng = random.Random(53)
        p = default_perimeters(4)
        q = make_query(0, [1, 0, 0, 0], p)
        for c in enumerate_trivalent(0, 4)[:12]:
            base = integrate_cell(c, q).contribution
            for _ in range(3):
                psi = random_edge_relabelling(rng, c.graph.num_edges)
                moved = relabel(c.graph, psi)
                from ribboncells.enumeration import GraphClass

                got = integrate_cell(GraphClass(key=c.key, graph=moved), q)
                assert got.contribution == base

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(QueryError):
            intersection_number(0, [0, 0, 0, 0])
        with pytest.raises(QueryError):
            intersection_number(1, [2])

    def test_nine_edges(self):
        assert intersection_number(1, (1, 1, 1)).value == tau(1, 1, 1)

    def test_size_guard_propagates(self):
        from ribboncells.enumeration import SizeGuardError

        with pytest.raises(SizeGuardError):
            intersection_number(0, [3, 0, 0, 0, 0, 0])
