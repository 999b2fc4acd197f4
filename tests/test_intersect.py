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


def _wedge(u, v):
    """Chart matrix of du ^ dv for chart rows u and v."""
    return [[a * y - x * b for x, y in zip(u, v)] for a, b in zip(u, v)]


def _pair_reference(cell, face_label, start_side=0, fewer=0):
    """The curvature form's chart matrix the long way: the edge-pair sum
    (1/p^2) sum_{a<b<=k-1} dl_{e_a} ^ dl_{e_b} over the face word rotated
    to ``start_side``, gathered per edge pair and pulled back through the
    chart rows one pair at a time.  ``fewer`` drops that many more sides
    from the end (a wrong form, for negative controls)."""
    from ribboncells.permgraph import faces

    word = next(w for w in faces(cell.graph) if w.label == face_label)
    k = word.degree
    edges = word.edges[start_side:] + word.edges[:start_side]
    scale = 1 / cell.perimeters[face_label - 1] ** 2
    acc = {}
    for a in range(k - 1 - fewer):
        for b in range(a + 1, k - 1 - fewer):
            ea, eb = edges[a], edges[b]
            if ea == eb:
                continue
            key, sgn = ((ea, eb), 1) if ea < eb else ((eb, ea), -1)
            acc[key] = acc.get(key, F(0)) + sgn * scale
    d = cell.dim
    m = [[F(0)] * d for _ in range(d)]
    for (a, b), c in acc.items():
        ca, cb = cell.edge_charts[a][0], cell.edge_charts[b][0]
        for j in range(d):
            for k in range(d):
                m[j][k] += c * (ca[j] * cb[k] - ca[k] * cb[j])
    return m


def _subset_sum(mats, exponents):
    """The cell coefficient by the ungrouped inclusion-exclusion over all
    2^D - 1 non-empty subsets of the D form copies."""
    from ribboncells.linalg import pfaffian

    copies = [m for m, k in zip(mats, exponents) for _ in range(k)]
    D, d = len(copies), len(mats[0])
    total = F(0)
    for mask in range(1, 1 << D):
        chosen = [m for i, m in enumerate(copies) if mask >> i & 1]
        pf = pfaffian([[sum((m[j][k] for m in chosen), F(0))
                        for k in range(d)] for j in range(d)])
        total += -pf if (D - len(chosen)) % 2 else pf
    return total


def _face_matrices(cell):
    return [omega(cell, i) for i in range(1, cell.graph.num_faces + 1)]


class TestOmega:
    def test_three_distinct_sides(self):
        # wedge over the first k-1 = 2 sides only
        from ribboncells.permgraph import faces, perimeters

        g = make_graph([([(0, 5)], 1), ([(1, 2)], 1), ([(3, 4)], 1)])
        cell = cell_polytope(g, perimeters(g, [1] * g.num_edges))
        assert cell.dim == 2
        for w in faces(g):
            assert w.degree == 3
            e1, e2 = w.edges[0], w.edges[1]
            u1, u2 = cell.edge_charts[e1][0], cell.edge_charts[e2][0]
            p2 = cell.perimeters[w.label - 1] ** 2
            expected = [[x / p2 for x in row] for row in _wedge(u1, u2)]
            assert omega(cell, w.label) == expected != [[0, 0], [0, 0]]

    def test_single_side_face_is_zero(self):
        from ribboncells.permgraph import faces

        p = default_perimeters(4)
        seen = 0
        for c in enumerate_trivalent(0, 4):
            cell = cell_polytope(c.graph, p)
            if not cell.chart_volume:
                continue
            for w in faces(c.graph):
                if w.degree == 1:
                    assert omega(cell, w.label) == [[0, 0], [0, 0]]
                    seen += 1
        assert seen > 0

    def test_theta_repeated_edges(self, theta):
        # face word edges (0,2,1,0,2,1): repeated differentials cancel
        # their own terms, net 2/p^2 dl0 ^ dl2; dl0 = -dx0 - dx1 in the
        # chart, so the matrix is -2/p^2 on dx0 ^ dx1
        cell = cell_polytope(theta, [12])
        assert omega(cell, 1) == [[0, F(-2, 144)], [F(2, 144), 0]]

    def test_four_sides_with_repeated_edge(self):
        # a five-sided face (a, b, c, b, x): the first four sides repeat b,
        # whose self-wedge cancels; expanded by hand:
        # + dla^dlb + dla^dlc + dla^dlb + dlb^dlc + dlc^dlb = 2 dla^dlb + dla^dlc
        from ribboncells.permgraph import faces

        p = default_perimeters(4)
        for c in enumerate_trivalent(0, 4):
            cell = cell_polytope(c.graph, p)
            if not cell.chart_volume:
                continue
            w = next((w for w in faces(c.graph) if w.degree == 5
                      and w.edges[1] == w.edges[3]
                      and len(set(w.edges)) == 4), None)
            if w is not None:
                break
        assert w is not None
        a, b, cc = (cell.edge_charts[e][0] for e in w.edges[:3])
        p2 = p[w.label - 1] ** 2
        expected = [[(2 * x + y) / p2 for x, y in zip(r1, r2)]
                    for r1, r2 in zip(_wedge(a, b), _wedge(a, cc))]
        assert cell.dim == 2
        assert omega(cell, w.label) == expected != [[0, 0], [0, 0]]

    def test_starting_side_independence_on_charts(self, theta):
        cell = cell_polytope(theta, [12])
        base = omega(cell, 1)
        for start in range(6):
            assert _pair_reference(cell, 1, start) == base

    def test_starting_side_independence_04(self):
        # the pair sum from every starting side pulls back to one matrix
        from ribboncells.permgraph import faces

        p = default_perimeters(4)
        for c in enumerate_trivalent(0, 4):
            cell = cell_polytope(c.graph, p)
            if not cell.chart_volume:
                continue
            for w in faces(c.graph):
                base = omega(cell, w.label)
                for start in range(1, w.degree):
                    assert _pair_reference(cell, w.label, start) == base

    @pytest.mark.parametrize("genus, n, wall", [
        (0, 3, (3, 22, 19)), (1, 1, (1,)), (0, 4, (5, 5, 7, 11)),
        (1, 2, (5, 5)), (2, 1, (1,)), (1, 3, (3, 3, 6))])
    def test_matches_pair_reference(self, genus, n, wall):
        # one-face cases have no wall; a second scale stands in for one
        from conftest import trivalent_classes
        from ribboncells.permgraph import faces

        for p in (default_perimeters(n), wall):
            checked = 0
            for c in trivalent_classes(genus, n):
                cell = cell_polytope(c.graph, p)
                if not cell.chart_volume:
                    continue
                for w in faces(c.graph):
                    base = omega(cell, w.label)
                    for start in range(w.degree):
                        assert _pair_reference(cell, w.label, start) == base
                checked += 1
            assert checked > 0


class TestRestrict:
    def test_zero_dim_empty_product(self):
        cls = enumerate_trivalent(0, 3)
        p = default_perimeters(3)
        for c in cls:
            cell = cell_polytope(c.graph, p)
            if not cell.is_empty:
                assert restrict_to_cell(_face_matrices(cell), (0, 0, 0)) == 1

    def test_theta_substitution(self, theta):
        cell = cell_polytope(theta, [12])
        # Pf of the theta matrix is its (0, 1) entry
        assert restrict_to_cell([omega(cell, 1)], (1,)) == F(-2, 144)

    def test_degree_mismatch(self, theta):
        cell = cell_polytope(theta, [12])
        with pytest.raises(ValueError):
            restrict_to_cell([omega(cell, 1)], (2,))

    @pytest.mark.parametrize("genus, d", [(2, (4,)), (1, (2, 1, 0)),
                                          (1, (1, 1))])
    def test_grouped_sum_matches_subset_sum(self, genus, d):
        from conftest import trivalent_classes

        p = default_perimeters(len(d))
        checked = 0
        for c in trivalent_classes(genus, len(d)):
            cell = cell_polytope(c.graph, p)
            if not cell.chart_volume:
                continue
            mats = _face_matrices(cell)
            assert restrict_to_cell(mats, d) == _subset_sum(mats, d)
            checked += 1
        assert checked > 0


class TestOrientation:
    def test_zero_dim_positive(self):
        p = default_perimeters(3)
        for c in enumerate_trivalent(0, 3):
            cell = cell_polytope(c.graph, p)
            if not cell.is_empty:
                assert orientation_sign(_face_matrices(cell), p) == 1

    def test_11_reference_nonzero(self):
        p = (F(7),)
        (c,) = enumerate_trivalent(1, 1)
        cell = cell_polytope(c.graph, p)
        assert orientation_sign(_face_matrices(cell), p) in (-1, 1)

    def test_odd_dimension_refused(self):
        from ribboncells.intersect import OrientationError

        with pytest.raises(OrientationError):
            orientation_sign([[[F(0)]]], (F(3),))

    def test_contribution_chart_invariance_via_p_scaling(self):
        # scaling p rescales charts; contributions stay fixed
        (c,) = enumerate_trivalent(1, 1)
        a = integrate_cell(c, make_query(1, [1], [F(5)]))
        b = integrate_cell(c, make_query(1, [1], [F(40, 3)]))
        assert a.contribution == b.contribution == F(1, 24)


class TestSharedMatrices:
    @pytest.mark.parametrize("genus, d, p", [
        (0, (0, 0, 0), (3, 22, 19)), (1, (1,), None), (0, (1, 0, 0, 0), None),
        (1, (1, 1), (5, 5))])
    def test_one_omega_per_face_per_cell(self, monkeypatch, genus, d, p):
        import ribboncells.intersect as intersect

        calls = []
        real = intersect.omega

        def counting(cell, face_label):
            calls.append(face_label)
            return real(cell, face_label)

        monkeypatch.setattr(intersect, "omega", counting)
        q = make_query(genus, d, p)
        for c in enumerate_trivalent(genus, len(d)):
            calls.clear()
            got = integrate_cell(c, q)
            expected = list(range(1, q.n + 1)) if got.chart_volume else []
            assert calls == expected


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
        refused = 0
        for c in enumerate_trivalent(0, 3):
            cell = cell_polytope(c.graph, p)
            if not cell.chart_volume:
                for i in (1, 2, 3):
                    with pytest.raises(ValueError):
                        omega(cell, i)
                refused += 1
        assert refused > 0


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


class TestMainLemma:
    r"""Kontsevich's main lemma (Comm. Math. Phys. 147, 1992, section 3) on
    every cell.  With Omega = sum_i p_i^2 omega_i, the form
    Omega^D / D! ^ dp_1 ^ ... ^ dp_n is one constant times
    dl_1 ^ ... ^ dl_E on every top cell of (g, n).  In the chart of the
    free edges x, dl = +-dx ^ dp / det M_P with M_P the incidence matrix on
    the pivot edges, and Omega^D / D! = Pf(sum_i p_i^2 A_i) dx, so
    |Pf(sum_i p_i^2 A_i)| |det M_P| is that constant.

    Here it is 2^(5g-5+2n) = 2^D 2^(2g-2+n), where Kontsevich states
    2^(2g-2+n).  The factor 2^D is the normalisation of Omega, and the
    Laplace transform of the lemma shows it.  Integrate
    exp(-sum_i lambda_i p_i) Omega^D / D! ^ dp over M_{g,n} x R_+^n.
    Since [omega_i] = psi_i and
    int_0^oo p^(2d) e^(-lambda p) dp / d! = 2^d (2d - 1)!! / lambda^(2d+1),
    the result is 2^D sum_d <tau_d> prod_i (2d_i - 1)!! / lambda_i^(2d_i+1).
    On a cell, sum_i lambda_i p_i = sum_e (lambda_e' + lambda_e'') l_e, so
    the cell gives its constant times prod_e 1 / (lambda_e' + lambda_e'').
    Kontsevich's identity pairs the (2d - 1)!! side without the 2^D with
    2^(-V) prod_e 2 / (lambda_e' + lambda_e''), that is 2^(E-V) with
    E - V = 2g - 2 + n.  So his Omega is half of this one, whose D-th power
    is 2^D times larger.  By hand at (1,1): over the first five sides of the
    face word l0 l1 l2 l0 l1 l2, p^2 omega = 2 dl_0 ^ dl_1, and
    Omega ^ dp = 2 dl_0 ^ dl_1 ^ 2 (dl_0 + dl_1 + dl_2) = 4 dl_0 ^ dl_1 ^ dl_2,
    which is 2^(5 - 5 + 2).
    """

    @staticmethod
    def _values(g, n, matrices, weights):
        """|Pf(sum_i w_i A_i)| |det M_P| over the non-empty cells of (g, n)
        at a seeded generic p, with ``matrices(cell)`` the A_i and
        ``weights(p)`` the w_i."""
        from ribboncells.linalg import det, pfaffian

        rng = random.Random(80 + 10 * g + n)
        p = tuple(F(rng.randint(20, 200), rng.randint(1, 6)) for _ in range(n))
        values = set()
        for c in enumerate_trivalent(g, n):
            cell = cell_polytope(c.graph, p)
            if cell.is_empty:
                continue
            pivots = [e for e in range(c.graph.num_edges)
                      if e not in cell.free_edges]
            chart = det([[row[e] for e in pivots] for row in cell.incidence])
            terms = list(zip(weights(p), matrices(cell)))
            total = [[sum((w * m[j][k] for w, m in terms), F(0))
                      for k in range(cell.dim)] for j in range(cell.dim)]
            values.add(abs(pfaffian(total) * chart))
        return values

    @pytest.mark.parametrize("g, n", [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1),
                                      (1, 3), (0, 5)])
    def test_one_constant_per_moduli_space(self, g, n):
        values = self._values(g, n, _face_matrices,
                              lambda p: [x * x for x in p])
        assert values == {2 ** (5 * g - 5 + 2 * n)}

    def test_weights_on_the_wrong_faces_break_it(self):
        # negative control: p_(i+1)^2 on face i
        values = self._values(0, 4, _face_matrices,
                              lambda p: [x * x for x in p[1:] + p[:1]])
        assert len(values) > 1

    def test_forms_from_one_side_fewer_break_it(self):
        # negative control: omega_i over the first k - 2 sides
        def short(cell):
            return [_pair_reference(cell, i, fewer=1)
                    for i in range(1, cell.graph.num_faces + 1)]

        values = self._values(1, 3, short, lambda p: [x * x for x in p])
        assert len(values) > 1
