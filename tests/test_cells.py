import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import factorial, lcm

import pytest

from ribboncells.cells import (PolygonFiber, basis_volume, cell_polytope,
                               factorization, fiber_integral_alpha,
                               incidence_matrix, polygon_bundle, scaled_fiber)
from ribboncells.cli import main
from ribboncells.enumeration import (boundary_cells, enumerate_cells,
                                     enumerate_trivalent)
from ribboncells.intersect import intersection_number
from ribboncells.linalg import det, rank, row_reduce, solve_affine
from ribboncells.permgraph import faces, perimeters
from ribboncells.polyform import (HalfSpace, Polytope, geometry, integrate,
                                  validate_form, volume)
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


#: Perimeter vectors on walls of the (0,4) and (1,2) cells, as in
#: ``test_intersect.TestWallPerimeters``.
WALLS = {(0, 4): [(5, 5, 7, 11), (3, 5, 8, 13), (3, 11, 7, 7), (2, 3, 4, 9),
                  (1, 1, 2, 2), (1, 1, 1, 1)],
         (1, 2): [(5, 5), (3, 6), (6, 3), (2, 6), (1, 1)],
         # one face: every perimeter scales the same cells, no walls
         (2, 1): []}


def _reference_empty(graph, p):
    """Emptiness of ``{l > 0 : M l = p}`` by vertex enumeration: the
    closure must have vertices and their centroid, which lies in the
    relative interior of the closure, must be positive in every edge."""
    sol = solve_affine(incidence_matrix(graph), p)
    if sol is None:
        return True
    particular, basis, free = sol
    poly = Polytope(len(free), tuple(
        HalfSpace(tuple(b[e] for b in basis), particular[e], strict=True)
        for e in range(graph.num_edges)))
    vs = poly.vertices()
    if not vs:
        return True
    centroid = [sum((v[i] for v in vs), F(0)) / len(vs) for i in range(poly.dim)]
    return not all(h.value(centroid) > 0 for h in poly.halfspaces)


def _has_pinned_nonpositive_edge(cell):
    return any(const <= 0 and not any(coeffs)
               for coeffs, const in cell.edge_charts)


class TestBasisVolume:
    """The chart volume of one pass over the feasible bases of M."""

    @pytest.mark.parametrize("g, n", [(0, 4), (1, 2), (2, 1)])
    def test_equals_triangulated_volume(self, g, n):
        rng = random.Random(71)
        vectors = [_odd_primes(n)] + WALLS[g, n] + [
            tuple(F(rng.randint(1, 40), rng.randint(1, 5)) for _ in range(n))
            for _ in range(2)]
        checked = 0
        for p in vectors:
            for c in enumerate_trivalent(g, n):
                cell = cell_polytope(c.graph, p)
                if not cell.is_empty:
                    assert cell.chart_volume == volume(cell.polytope) > 0
                    checked += 1
        assert checked >= 2 * len(vectors)

    def test_theta_simplex(self, theta):
        # 2 (l0 + l1 + l2) = 12: the triangle l1 + l2 < 6 in the chart
        assert cell_polytope(theta, [12]).chart_volume == 18

    def test_held_wall_point_has_volume_one(self):
        # at 3 + 19 = 22 one (0,3) point sits on the wall l_e = 0; exactly
        # one class holds it at p + eps, though every cell is empty at p
        cells = [cell_polytope(c.graph, [3, 22, 19])
                 for c in enumerate_trivalent(0, 3)]
        assert sorted(c.chart_volume for c in cells) == [0] * (len(cells) - 1) + [1]
        assert all(c.is_empty for c in cells)

    def test_emptiness_matches_vertex_centroid_reference(self):
        counts = {"empty": 0, "non-empty": 0, "rank-deficient": 0}
        for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
            rng = random.Random(72 + 10 * g + n)
            # small entries put many vectors on walls
            seeded = [tuple(rng.randint(1, 6) for _ in range(n))
                      for _ in range(4)]
            seeded.append(tuple(F(rng.randint(1, 30), rng.randint(1, 4))
                                for _ in range(n)))
            for c in enumerate_cells(g, n).classes.values():
                unit = perimeters(c.graph, [1] * c.graph.num_edges)
                for p in seeded + [unit]:
                    cell = cell_polytope(c.graph, p)
                    assert cell.is_empty == _reference_empty(c.graph, p), \
                        (c.key.hex(), p)
                    counts["empty" if cell.is_empty else "non-empty"] += 1
                    counts["rank-deficient"] += cell.rank_deficient
        assert all(counts.values()), counts

    def test_pinned_edge_clause_is_needed(self):
        # negative control: without the pinned-edge clause, emptiness would
        # read "inconsistent or volume 0", and that rule is wrong on
        # closure cells where some l_e is identically 0, such as a (0,4)
        # closure cell at (4, 3, 2, 1)
        p = (4, 3, 2, 1)
        wrong = []
        for c in enumerate_cells(0, 4).classes.values():
            cell = cell_polytope(c.graph, p)
            without_clause = cell.chart_volume == 0
            if without_clause != _reference_empty(c.graph, p):
                wrong.append(cell)
        assert wrong
        assert all(c.is_empty and c.chart_volume > 0
                   and _has_pinned_nonpositive_edge(c) for c in wrong)

    @pytest.mark.parametrize("g, n", [(0, 3), (1, 1), (0, 4), (1, 2)])
    def test_trivalent_incidence_has_full_row_rank(self, g, n):
        """The pass reads every basis as n columns of M, so M needs rank n.
        For trivalent M it always has: a left null vector y has
        y_a + y_b = 0 across every edge between faces a and b, and the
        three corners of a trivalent vertex, in faces a, b and c, then
        force y_a = -y_b = y_c = -y_a, so y vanishes on every face."""
        for c in enumerate_trivalent(g, n):
            assert rank(incidence_matrix(c.graph)) == n


def _cramer_volume(graph, p):
    """Reference chart volume: the basis pass without a factorization.
    Every basis of the independent rows (the first ones, in label order)
    is tested with its own Cramer determinants, the ties read in label
    order (the cell pass before each matrix was factored once)."""
    M = incidence_matrix(graph)
    p = [F(x) for x in p]
    sol = solve_affine(M, p)
    if sol is None:
        return F(0)
    E = graph.num_edges
    pivots = [e for e in range(E) if e not in sol[2]]
    picked = row_reduce(list(zip(*M)))[2]
    rows = [list(M[i]) for i in picked]
    n, d = len(rows), E - len(rows)
    scale = lcm(*(p[i].denominator for i in picked))
    P = [int(p[i] * scale) for i in picked]
    w = [(2 ** n + 1) ** e for e in range(E)]

    def lex_positive(MB, j, D):
        for v in [P] + [[int(r == i) for r in range(n)] for i in range(n)]:
            x = det([row[:j] + [v[r]] + row[j + 1:]
                     for r, row in enumerate(MB)]).numerator
            if x:
                return (x > 0) == (D > 0)
        raise AssertionError("singular basis")

    total = F(0)
    for B in combinations(range(E), n):
        MB = [[row[j] for j in B] for row in rows]
        D = det(MB).numerator
        if not D or not all(lex_positive(MB, j, D) for j in range(n)):
            continue
        wB = [w[j] for j in B]
        y = [det(MB[:i] + [wB] + MB[i + 1:]).numerator for i in range(n)]
        den = abs(D)
        for k in set(range(E)) - set(B):
            den *= sum(yi * row[k] for yi, row in zip(y, rows)) - w[k] * D
        total += F(sum(yi * x for yi, x in zip(y, P)) ** d, den)
    chart = abs(det([[row[j] for j in pivots] for row in rows]).numerator)
    return total * chart / (factorial(d) * scale ** d)


def _factored_volume(graph, p, tie_order):
    """The program's basis pass on a trivalent class (all rows
    independent), with the ties read in label order (``"label"``) or, as a
    negative control, in the order of the sorted rows (``"sorted"``)."""
    M = incidence_matrix(graph)
    f = factorization(tuple(sorted(M)))
    at = {row: k for k, row in enumerate(f.rows)}
    q = [None] * len(M)
    for row, x in zip(M, p):
        q[at[row]] = F(x)
    order = [at[row] for row in M] if tie_order == "label" else range(len(M))
    return basis_volume(f, q, order)


#: Perimeter vectors of the reference comparison: on walls, then generic.
REFERENCE = {(0, 3): [(3, 22, 19), (2, 2, 4), (5, 3, 8)],
             (1, 1): [],
             (0, 4): WALLS[0, 4][:3] + [(1, 1, 1, 1)],
             (1, 2): WALLS[1, 2][:3] + [(1, 1)],
             (2, 1): [],
             (1, 3): [(3, 5, 8), (2, 2, 4)]}


class TestFactorization:
    """One factorization per sorted matrix gives what the per-basis
    Cramer pass gives, for every labelling."""

    @pytest.mark.parametrize("g, n", list(REFERENCE))
    def test_equals_cramer_reference(self, g, n):
        rng = random.Random(73 + 10 * g + n)
        generic = tuple(F(rng.randint(1, 40), rng.randint(1, 5))
                        for _ in range(n))
        vectors = REFERENCE[g, n] + [generic, (1,) * n]
        # every class with E <= 6 is in its closure; E = 9 takes the top
        classes = (enumerate_cells(g, n).classes.values()
                   if 3 * (2 * g - 2 + n) <= 6 else enumerate_trivalent(g, n))
        held = 0
        for c in classes:
            for p in vectors:
                cell = cell_polytope(c.graph, p)
                assert cell.chart_volume == _cramer_volume(c.graph, p), \
                    (c.key.hex(), p)
                held += cell.chart_volume > 0
        assert held

    @pytest.mark.parametrize("p", list(permutations((3, 22, 19))))
    def test_wall_point_held_once_in_every_label_order(self, p, capsys):
        # 22 = 3 + 19 in every order of the faces: exactly one of the two
        # labelled (0,3) classes holds the point at p + (eps, eps^2, ...)
        classes = enumerate_trivalent(0, 3)
        volumes = [cell_polytope(c.graph, p).chart_volume for c in classes]
        assert sorted(volumes) == [0] * (len(volumes) - 1) + [1]
        assert volumes == [_factored_volume(c.graph, p, "label")
                           for c in classes]
        assert main(["intersect", "--genus", "0", "--d", "0,0,0",
                     "--perimeters", ",".join(map(str, p))]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize("p", [(3, 19, 22), (19, 3, 22)])
    def test_ties_in_sorted_row_order_lose_the_point(self, p):
        # negative control: the sorted rows are the same for every
        # labelling, so reading the ties in their order instead of the
        # labels' drops the wall point from both classes
        assert all(_factored_volume(c.graph, p, "sorted") == 0
                   for c in enumerate_trivalent(0, 3))

    def test_cold_04_query_factors_six_matrices(self):
        # the 64 labelled (0,4) classes permute the rows of 6 matrices
        factorization.cache_clear()
        result = intersection_number(0, (1, 0, 0, 0))
        assert len(result.cells) == 64
        assert factorization.cache_info().misses == 6


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

        def along_t(self, t):
            p = self.perimeter
            lam = self.traversal_lengths()
            return tuple(sorted(((t - q) % p, lam[m])
                                for m, q in enumerate(self.vertex_positions)))

        rng = random.Random(45)
        fibers = [random_fiber(rng, w) for w in faces(random_stable_graph(rng))]
        monkeypatch.setattr(PolygonFiber, "vertex_distances", along_t)
        assert all(fiber_integral_alpha(fib) == 1 for fib in fibers)
        (report,) = run_suite("alpha", seed=3, cases=20)
        assert report.cases == 20 and len(report.failures) == 20


class TestPolygonBundle:
    def test_one_polytope_per_cell(self, theta, monkeypatch):
        # the H-description is built on first read and kept: every cut of
        # the bundle and the base of its projection are that one object,
        # so the cell's vertices are enumerated once
        computed = []
        real = Polytope.__dict__["_vertices"].func

        def counting(self):
            computed.append(self)
            return real(self)

        prop = cached_property(counting)
        prop.__set_name__(Polytope, "_vertices")
        monkeypatch.setattr(Polytope, "_vertices", prop)
        cell = cell_polytope(theta, [12])
        assert cell.polytope is cell.polytope
        pb = polygon_bundle(cell, 1)
        cuts = [q for name, q in pb.complex.polytopes.items()
                if name.startswith("cut")]
        assert len(cuts) == 6 and all(q is cell.polytope for q in cuts)
        assert pb.projection.target.polytopes["cell"] is cell.polytope
        cell.interior_point()
        assert [q for q in computed if q is cell.polytope] == [cell.polytope]

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

    def test_boundedness_decided_once_per_polytope(self, monkeypatch):
        # the cuts and the base share the cell's polytope, so the complex
        # and morphism checks search each distinct polytope once
        calls = []
        real = geometry.nullspace

        def counting(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(geometry, "nullspace", counting)
        p = _odd_primes(4)
        cell = next(cell for cell in (cell_polytope(c.graph, p)
                                      for c in enumerate_trivalent(0, 4))
                    if not cell.is_empty)
        pb = polygon_bundle(cell, 1)
        built = len(calls)
        distinct = {id(q): q for q in pb.complex.polytopes.values()}
        calls.clear()
        for q in distinct.values():
            assert Polytope(q.dim, q.halfspaces).is_bounded()
        assert built == len(calls) > 0


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
