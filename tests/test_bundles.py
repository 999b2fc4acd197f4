from fractions import Fraction

import pytest

from test_polyform import circle_complex, torus_complex

from ribboncells.polyform import (AffineMap, Form, FormOnComplex, Morphism,
                                  MorphismError, MorphismMap, Polynomial,
                                  PolytopalComplex, basic_descent,
                                  boundary_cancels, circle_bundle_chern,
                                  fiber_chain, integrate, polytope_chain,
                                  product_complex)

F = Fraction


def projection(total_dim, keep):
    rows = [[1 if j == i else 0 for j in range(total_dim)] for i in range(keep)]
    return AffineMap.create(rows, [0] * keep, in_dim=total_dim)


def trivial_circle_bundle():
    """The product of the torus complex with a circle, projected to the
    torus."""
    base = torus_complex()
    fiber = circle_complex()
    total = product_complex(base, fiber)
    maps = []
    for pname, poly in base.polytopes.items():
        for qname, qpoly in fiber.polytopes.items():
            src = f"{pname}*{qname}"
            total_dim = poly.dim + qpoly.dim
            proj = projection(total_dim, poly.dim)
            maps.append(MorphismMap(src, pname, proj))
            for g in base.gluings:
                if g.src == pname:
                    maps.append(MorphismMap(src, g.dst, g.embed.compose(proj)))
    morphism = Morphism(total, base, maps)
    return base, fiber, total, morphism


def angular_form(total, base, fiber):
    forms = {}
    for name, poly in total.polytopes.items():
        pname, qname = name.split("*")
        if qname == "arc":
            forms[name] = Form.dx(poly.dim - 1, poly.dim)
        else:
            forms[name] = Form(poly.dim, 1, {})
    return FormOnComplex(total, 1, forms)


class TestTrivialBundle:
    def test_morphism_closure_conditions_hold(self):
        trivial_circle_bundle()

    def test_fiber_is_closed_and_integrates_to_one(self):
        base, fiber, total, morphism = trivial_circle_bundle()
        alpha = angular_form(total, base, fiber)
        dirs = {f"{p}*arc": [0] * base.polytopes[p].dim + [1]
                for p in base.polytopes}
        fc = fiber_chain(morphism, "sq", (F(1, 3), F(1, 2)), dirs)
        assert not fc.is_zero()
        assert boundary_cancels(total, fc)
        assert integrate(alpha, fc) == 1

    def test_chern_number_zero(self):
        base, fiber, total, morphism = trivial_circle_bundle()
        alpha = angular_form(total, base, fiber)
        dirs = {f"{p}*arc": [0] * base.polytopes[p].dim + [1]
                for p in base.polytopes}
        samples = {"sq": (F(1, 3), F(1, 2)), "eh": (F(2, 5),), "ev": (F(1, 7),)}
        surface = polytope_chain("sq", base.polytopes["sq"])
        assert circle_bundle_chern(morphism, alpha, surface, dirs, samples, 1) == 0

    def test_fiber_constant_mismatch_is_an_error(self):
        base, fiber, total, morphism = trivial_circle_bundle()
        alpha = angular_form(total, base, fiber)
        dirs = {f"{p}*arc": [0] * base.polytopes[p].dim + [1]
                for p in base.polytopes}
        samples = {"sq": (F(1, 3), F(1, 2))}
        surface = polytope_chain("sq", base.polytopes["sq"])
        with pytest.raises(MorphismError, match="fiber integral"):
            circle_bundle_chern(morphism, alpha, surface, dirs, samples, 2)

    def test_cell_bundle_twisting_number(self):
        # the polygon bundle of face 1 over the orbifold fundamental cycle
        # of the four-face genus-zero top cells: the twisting number must
        # be an integer and equal minus the recursion value <tau_1 tau_0^3>
        from oracles import tau

        from ribboncells.cells import cell_polytope, polygon_bundle
        from ribboncells.enumeration import automorphisms, enumerate_trivalent
        from ribboncells.intersect import (default_perimeters, integer_curvature,
                                           orientation_sign)
        from ribboncells.polyform import Chain, Gluing, Morphism, PolytopalComplex

        p = default_perimeters(4)
        polys, gluings, maps, dirs, samples, forms = {}, [], [], {}, {}, {}
        base_polys = {}
        chain = Chain(2, [])
        for idx, cls in enumerate(enumerate_trivalent(0, 4)):
            cell = cell_polytope(cls.graph, p)
            if cell.is_empty:
                continue
            pb = polygon_bundle(cell, 1)
            pre = f"c{idx}_"
            for name, poly in pb.complex.polytopes.items():
                polys[pre + name] = poly
            for g in pb.complex.gluings:
                gluings.append(Gluing(pre + g.src, pre + g.dst, g.embed))
            for name, form in pb.alpha.forms.items():
                forms[pre + name] = form
            base_polys[pre + "cell"] = cell.polytope
            for m in pb.projection.maps:
                maps.append(MorphismMap(pre + m.src, pre + "cell", m.map))
            for name, v in pb.fiber_directions.items():
                dirs[pre + name] = v
            samples[pre + "cell"] = cell.interior_point()
            mats = [integer_curvature(cell, i) for i in range(1, 5)]
            weight = F(orientation_sign(mats),
                       automorphisms(cls.graph).order)
            chain = chain + polytope_chain(pre + "cell", cell.polytope) * weight
        total = PolytopalComplex(polys, gluings)
        base = PolytopalComplex(base_polys, [])
        morphism = Morphism(total, base, maps)
        alpha = FormOnComplex(total, 1, forms)
        got = circle_bundle_chern(morphism, alpha, chain, dirs, samples, -1)
        assert got == -tau(1, 0, 0, 0) == -1

    def test_non_basic_form_rejected(self):
        base, fiber, total, morphism = trivial_circle_bundle()
        # dt wedged against nothing is basic; t*dx is not: d(t dx) = dt^dx
        forms = {}
        for name, poly in total.polytopes.items():
            pname, qname = name.split("*")
            if qname == "arc" and pname == "sq":
                forms[name] = Form(3, 1, {(0,): Polynomial.variable(2, 3)})
            elif qname == "w" and pname == "sq":
                forms[name] = Form(2, 1, {(0,): Polynomial.constant(2, 0)})
            else:
                forms[name] = Form(poly.dim, 1, {})
        try:
            alpha = FormOnComplex(total, 1, forms)
        except Exception:
            pytest.skip("form not even well-defined on the complex")
        with pytest.raises(MorphismError):
            basic_descent(morphism, alpha.d())


class TestMorphismClosureConditions:
    """Each closure condition of a morphism, broken on the trivial circle
    bundle."""

    def test_polytope_without_a_map(self):
        base, fiber, total, morphism = trivial_circle_bundle()
        maps = [m for m in morphism.maps if m.src != "pt*w"]
        with pytest.raises(MorphismError, match=r"no map defined.*pt\*w"):
            Morphism(total, base, maps)

    def test_restriction_missing(self):
        base, fiber, total, morphism = trivial_circle_bundle()
        drop = next(m for m in morphism.maps
                    if (m.src, m.dst) == ("eh*arc", "sq"))
        maps = [m for m in morphism.maps if m is not drop]
        with pytest.raises(MorphismError, match=r"restriction of sq\*arc->sq "
                                                r"to face eh\*arc missing"):
            Morphism(total, base, maps)

    def test_factored_map_missing(self):
        base, fiber, total, morphism = trivial_circle_bundle()
        maps = [m for m in morphism.maps if (m.src, m.dst) != ("eh*arc", "eh")]
        with pytest.raises(MorphismError, match=r"eh\*arc->sq lands in face "
                                                r"eh but the factored map"):
            Morphism(total, base, maps)

    def test_unidentified_images(self):
        # without the torus gluings, a point of an edge and its image in
        # the square are different points
        base, fiber, total, morphism = trivial_circle_bundle()
        loose = PolytopalComplex(base.polytopes, [])
        with pytest.raises(MorphismError, match="unidentified images"):
            Morphism(total, loose, morphism.maps)


def _factor_reference(f, embed):
    """``_factor_through_face`` by the per-column route: one
    ``solve_unique`` for each column of g's matrix and one for its offset."""
    from ribboncells.linalg import solve_unique

    rows = [list(r) for r in embed.matrix]
    cols = []
    for j in range(f.source_dim):
        sol = solve_unique(rows, [f.matrix[i][j] for i in range(f.target_dim)])
        if sol is None:
            return None
        cols.append(sol)
    off = solve_unique(rows, [f.offset[i] - embed.offset[i]
                              for i in range(f.target_dim)])
    if off is None:
        return None
    return AffineMap.create([[c[i] for c in cols] for i in range(embed.source_dim)],
                            off, in_dim=f.source_dim)


def _section_reference(f):
    """``_affine_section`` by the per-column route: one ``solve_affine``
    for each unit vector and one for the offset."""
    from ribboncells.linalg import solve_affine

    rows = [list(r) for r in f.matrix]
    cols = []
    for i in range(f.target_dim):
        sol = solve_affine(rows, [F(int(j == i)) for j in range(f.target_dim)])
        if sol is None:
            return None
        cols.append(sol[0])
    base = solve_affine(rows, [-o for o in f.offset])
    if base is None:
        return None
    return AffineMap.create([[c[i] for c in cols] for i in range(f.source_dim)],
                            base[0], in_dim=f.target_dim)


def _random_map(rng, target, source):
    """A seeded affine map R^source -> R^target; a third of them repeat a
    scaled row and a third a scaled column, so rank deficits occur."""
    rows = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(source)]
            for _ in range(target)]
    kind = rng.randrange(3)
    if kind == 1 and target > 1:
        rows[-1] = [2 * x for x in rows[0]]
    elif kind == 2 and source > 1:
        for row in rows:
            row[-1] = -row[0]
    return AffineMap.create(rows, [F(rng.randint(-4, 4), rng.randint(1, 3))
                                   for _ in range(target)], in_dim=source)


class TestSolvesAgainstPerColumnRoute:
    """One elimination of each multi-column system gives what one solve per
    column gave, ``None`` included."""

    def test_factor_through_face(self):
        import random

        from ribboncells.polyform.bundles import _factor_through_face

        rng = random.Random(31)
        outcomes = []
        for _ in range(400):
            m = rng.randint(1, 4)
            embed = _random_map(rng, m, rng.randint(1, m))
            s = rng.randint(0, 3)
            # half of the maps are built to factor through embed
            built = rng.random() < 0.5
            f = (embed.compose(_random_map(rng, embed.source_dim, s))
                 if built else _random_map(rng, m, s))
            got = _factor_through_face(f, embed)
            assert got == _factor_reference(f, embed)
            if got is not None:
                assert embed.compose(got) == f
            outcomes.append((got is None, built, embed.is_injective()))
        # maps that factor, maps that do not, and maps that factor through
        # a non-injective embedding (so with no unique g) all occur
        assert {(False, True, True), (True, False, True),
                (True, True, False)} <= set(outcomes)

    def test_affine_section(self):
        import random

        from ribboncells.polyform.bundles import _affine_section

        rng = random.Random(32)
        outcomes = []
        for _ in range(400):
            f = _random_map(rng, rng.randint(1, 3), rng.randint(1, 4))
            got = _affine_section(f)
            assert got == _section_reference(f)
            if got is not None:
                assert f.compose(got) == AffineMap.identity(f.target_dim)
            outcomes.append(got is None)
        # surjective maps and non-surjective ones both occur
        assert set(outcomes) == {True, False}
