import random
from fractions import Fraction

import pytest

from ribboncells.cells import (PolygonFiber, boundary_cells, cell_polytope,
                               fiber_integral_alpha, incidence_matrix,
                               polygon_bundle, scaled_fiber)
from ribboncells.enumeration import enumerate_cells, enumerate_trivalent
from ribboncells.permgraph import faces, perimeters
from ribboncells.polyform import integrate, validate_form
from ribboncells.polyform.bundles import basic_descent, fiber_chain
from ribboncells.sampling import random_stable_graph

F = Fraction


class TestCellPolytope:
    def test_theta_two_dimensional(self, theta):
        cell = cell_polytope(theta, [12])
        assert cell.dim == 2 and not cell.is_empty
        assert cell.rank == 1
        assert incidence_matrix(theta) == ((2, 2, 2),)

    def test_perimeter_round_trip(self, theta):
        cell = cell_polytope(theta, [12])
        x = cell.interior_point()
        ls = cell.lengths_at(x)
        assert all(l > 0 for l in ls)
        assert perimeters(theta, ls) == (F(12),)

    def test_zero_perimeter_rejected(self, theta):
        with pytest.raises(ValueError):
            cell_polytope(theta, [0])

    def test_wrong_length_rejected(self, theta):
        with pytest.raises(ValueError):
            cell_polytope(theta, [3, 5])

    def test_03_partition_property(self):
        # for generic p exactly one labelled class covers it, and the cell
        # is a single positive point
        classes = enumerate_trivalent(0, 3)
        rng = random.Random(41)
        for _ in range(25):
            p = [F(rng.randint(1, 60), rng.randint(1, 7)) for _ in range(3)]
            nonempty = []
            for c in classes:
                cell = cell_polytope(c.graph, p)
                assert cell.dim == 0
                if not cell.is_empty:
                    nonempty.append(cell)
            if _generic_03(p):
                assert len(nonempty) == 1
                assert all(l > 0 for l in nonempty[0].lengths_at(()))

    def test_dimension_formula(self):
        for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2)]:
            for c in enumerate_trivalent(g, n):
                cell = cell_polytope(c.graph, _odd_primes(n))
                E = c.graph.num_edges
                assert cell.dim == E - cell.rank
                if not cell.is_empty:
                    assert cell.dim == 6 * g - 6 + 2 * n

    def test_round_trip_on_random_interior_points(self):
        rng = random.Random(42)
        for c in enumerate_trivalent(0, 4):
            p = _odd_primes(4)
            cell = cell_polytope(c.graph, p)
            if cell.is_empty:
                continue
            x = cell.interior_point()
            assert perimeters(c.graph, cell.lengths_at(x)) == p


def _odd_primes(n):
    out, x = [], 3
    while len(out) < n:
        if all(x % q for q in range(2, x)):
            out.append(F(x))
        x += 1
    return tuple(out)


def _generic_03(p):
    a, b, c = p
    vals = [a + b - c, a + c - b, b + c - a]
    return all(v != 0 for v in vals)


def random_fiber(rng, face):
    lengths = [F(rng.randint(1, 30), rng.randint(1, 6))
               for _ in range(face.degree)]
    total = sum(lengths)
    t = F(rng.randint(0, 999), 1000) * total
    return PolygonFiber.create(face, lengths, t)


class TestFiberIntegral:
    def test_single_side_polygon(self, dumbbell):
        w = next(x for x in faces(dumbbell) if x.degree == 1)
        fib = PolygonFiber.create(w, [F(7, 2)], F(1, 3))
        assert fiber_integral_alpha(fib) == -1

    def test_two_sides(self, single_edge_defects):
        w = faces(single_edge_defects)[0]
        fib = PolygonFiber.create(w, [1, 1], 0)
        assert fiber_integral_alpha(fib) == -1

    def test_random_fibers(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_stable_graph(rng, max_edges=6)
            for w in faces(g):
                fib = random_fiber(rng, w)
                assert fiber_integral_alpha(fib) == -1

    def test_scale_invariance(self, theta):
        rng = random.Random(44)
        w = faces(theta)[0]
        fib = random_fiber(rng, w)
        assert fiber_integral_alpha(scaled_fiber(fib, F(17, 5))) == -1

    def test_sorted_distances(self, theta):
        fib = PolygonFiber.create(faces(theta)[0], [1, 2, 3, 1, 2, 3], F(1, 2))
        phis = [phi for phi, _ in fib.vertex_distances()]
        assert phis == sorted(phis)
        assert all(0 <= phi < fib.perimeter for phi in phis)

    def test_distances_against_t_flip_the_sign(self, monkeypatch):
        # negative control: measuring the distances along t, not against
        # it, must change the integral, and the alpha suite must notice
        from ribboncells.suites import run_suite

        def along_t(self):
            p = self.perimeter
            lam = self.traversal_lengths()
            return tuple(sorted(((self.t - q) % p, lam[m])
                                for m, q in enumerate(self.vertex_positions())))

        rng = random.Random(45)
        fibers = [random_fiber(rng, w) for w in faces(random_stable_graph(rng))]
        monkeypatch.setattr(PolygonFiber, "vertex_distances", along_t)
        assert all(fiber_integral_alpha(fib) == 1 for fib in fibers)
        (report,) = run_suite("alpha", seed=3, cases=20)
        assert report.cases == 20 and len(report.failures) == 20


class TestPolygonBundle:
    def test_validates_as_a_form(self, theta):
        cell = cell_polytope(theta, [12])
        pb = polygon_bundle(cell, 1)
        assert validate_form(pb.complex, pb.alpha) is None
        assert len(pb.arc_names()) == 6

    def test_symbolic_fiber_integral(self, theta):
        cell = cell_polytope(theta, [12])
        pb = polygon_bundle(cell, 1)
        fc = fiber_chain(pb.projection, "cell", cell.interior_point(),
                         pb.fiber_directions)
        assert integrate(pb.alpha, fc) == -1

    def test_d_alpha_has_no_fiber_component(self, theta):
        cell = cell_polytope(theta, [12])
        pb = polygon_bundle(cell, 1)
        da = pb.alpha.d()
        t_index = cell.dim
        for name in pb.arc_names():
            assert not da.forms[name].uses_variable(t_index)

    def test_d_alpha_descends(self, theta):
        cell = cell_polytope(theta, [12])
        pb = polygon_bundle(cell, 1)
        omega = basic_descent(pb.projection, pb.alpha.d())
        assert omega.forms["cell"].degree == 2


class TestThreeArcBundle:
    def test_generic_three_sided_face(self):
        # a face of degree 3: the bundle decomposes into 3 arcs glued along
        # copies of the cell, and the piecewise form is compatible
        p = _odd_primes(4)
        for c in enumerate_trivalent(0, 4):
            cell = cell_polytope(c.graph, p)
            if cell.is_empty:
                continue
            w3 = next((w for w in faces(c.graph) if w.degree == 3), None)
            if w3 is None:
                continue
            pb = polygon_bundle(cell, w3.label)
            assert len(pb.arc_names()) == 3
            assert validate_form(pb.complex, pb.alpha) is None
            fc = fiber_chain(pb.projection, "cell", cell.interior_point(),
                             pb.fiber_directions)
            assert integrate(pb.alpha, fc) == -1
            return
        pytest.skip("no non-empty cell with a 3-sided face")


class TestBoundaryCells:
    def test_trivalent_03_boundaries(self):
        for c in enumerate_trivalent(0, 3):
            bnd = boundary_cells(c.graph)
            assert 0 < len(bnd) <= c.graph.num_edges
            keys = {k for _, _, k in bnd}
            closure = set(enumerate_cells(0, 3).classes)
            assert keys <= closure

    def test_all_edges_forbidden(self, single_edge_defects):
        assert boundary_cells(single_edge_defects) == []

    def test_boundary_of_boundary_in_closure(self):
        closure = set(enumerate_cells(1, 1).classes)
        for c in enumerate_trivalent(1, 1):
            for _, child, _ in boundary_cells(c.graph):
                for _, _, key2 in boundary_cells(child):
                    assert key2 in closure
