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
        from ribboncells.intersect import default_perimeters, omega, orientation_sign
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
            mats = [omega(cell, i) for i in range(1, 5)]
            weight = F(orientation_sign(mats, p),
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
