import random
from fractions import Fraction
from itertools import combinations

import pytest

from ribboncells.polyform import (AffineMap, Chain, Form, FormOnComplex,
                                  Gluing, HalfSpace, Piece, Polynomial,
                                  Polytope, PolytopalComplex, cone_homotopy,
                                  integrate, polytope_chain, product_complex,
                                  simplex_integral, stokes_check, triangulate,
                                  validate_form, volume)
from ribboncells.linalg import det
from ribboncells.polyform import chains as chains_module
from ribboncells.polyform import geometry

F = Fraction


def x(i, n):
    return Polynomial.variable(i, n)


def random_poly(rng, nvars, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(nvars, terms)


def random_form(rng, nvars, degree, max_deg=3):
    comps = {}
    idxs = list(combinations(range(nvars), degree))
    for idx in idxs:
        if rng.random() < 0.7:
            comps[idx] = random_poly(rng, nvars, max_deg)
    return Form(nvars, degree, comps)


def reference_pullback(form, phi):
    """The wedge-chain pullback that ``Form.pullback`` replaced, kept as an
    independent route to the same forms."""
    if phi.target_dim != form.nvars:
        raise ValueError("map target does not match the form's space")
    m = phi.source_dim
    coords = [Polynomial.affine(row, off)
              for row, off in zip(phi.matrix, phi.offset)]
    # dx_i pulls back to the constant 1-form sum_j matrix[i][j] dt_j
    dxs = [Form(m, 1, {(j,): Polynomial.constant(m, phi.matrix[i][j])
                       for j in range(m) if phi.matrix[i][j] != 0})
           for i in range(form.nvars)]
    out = Form.zero(m, form.degree)
    for idx, p in form.comps.items():
        factor = Form.function(p.subst(coords))
        for i in idx:
            factor = factor.wedge(dxs[i])
        if factor.degree == form.degree:
            out = out + factor
    return out


def reference_subst(poly, images):
    """Term-by-term substitution, one ``Polynomial`` per term and every
    power rebuilt: the route ``Polynomial.subst`` replaced."""
    n_out = images[0].nvars if images else 0
    out = Polynomial.constant(n_out, 0)
    for e, c in poly.terms.items():
        term = Polynomial.constant(n_out, c)
        for i, p in enumerate(e):
            if p:
                term = term * images[i] ** p
        out = out + term
    return out


def reference_minor_pullback(form, phi):
    """Cauchy-Binet with one substitution per component ``I``, each added
    into every ``J`` with a nonzero minor: the loop ``Form.pullback``
    replaced."""
    m = phi.source_dim
    coords = [Polynomial.affine(row, off)
              for row, off in zip(phi.matrix, phi.offset)]
    out = {}
    for idx, p in form.comps.items():
        composed = reference_subst(p, coords) if coords else \
            Polynomial.constant(m, p.eval(()))
        for cols in combinations(range(m), form.degree):
            minor = det([[phi.matrix[i][j] for j in cols] for i in idx])
            if minor:
                term = composed * minor
                out[cols] = out[cols] + term if cols in out else term
    return Form(m, form.degree, out)


def random_map(rng, nvars, m, singular):
    """A seeded affine map from R^m to R^nvars; with ``singular`` its
    second column repeats the first."""
    cols = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nvars)]
            for _ in range(m)]
    if singular and m >= 2:
        cols[1] = [2 * a for a in cols[0]]
    matrix = [[cols[j][i] for j in range(m)] for i in range(nvars)]
    return AffineMap.create(matrix, [F(rng.randint(-2, 2), rng.randint(1, 3))
                                     for _ in range(nvars)], in_dim=m)


class TestPolynomial:
    def test_arithmetic(self):
        p = x(0, 2) * x(0, 2) + 2 * x(1, 2)
        q = x(0, 2) - 1
        assert (p * q - q * p) == Polynomial.constant(2, 0)
        assert p.diff(0) == 2 * x(0, 2)
        assert p.eval([F(1, 2), F(3)]) == F(1, 4) + 6

    def test_subst(self):
        p = x(0, 1) ** 3
        image = [Polynomial.affine([2], 1)]  # x -> 2t + 1
        assert p.subst(image).eval([1]) == 27

    def test_subst_matches_term_by_term(self):
        rng = random.Random(37)
        for _ in range(200):
            nvars, n_out = rng.randint(0, 3), rng.randint(0, 3)
            p = random_poly(rng, nvars, max_deg=4) if nvars else \
                Polynomial.constant(0, F(rng.randint(-5, 5), 3))
            # with no variables there are no images, and the result has none
            images = [random_poly(rng, n_out, max_deg=2) if n_out else
                      Polynomial.constant(0, rng.randint(-3, 3))
                      for _ in range(nvars)]
            got = p.subst(images)
            assert got == reference_subst(p, images)
            assert got.nvars == (n_out if nvars else 0)

    def test_constant_hashes_as_its_value(self):
        # equal values must hash equally, and a constant equals its value
        three = Polynomial.constant(1, 3)
        assert three == 3 and hash(three) == hash(3)
        assert len({three, 3}) == 1
        assert {Polynomial.constant(2, F(1, 2)): "half"}[F(1, 2)] == "half"
        zero = Polynomial.constant(3, 0)
        assert zero == 0 and len({zero, 0, F(0)}) == 1
        assert x(0, 1) != 1 and len({x(0, 1), 1}) == 2

    def test_simplex_integral(self):
        # int over triangle {t1,t2>=0, t1+t2<=1} of t1*t2 = 1/24
        p = x(0, 2) * x(1, 2)
        assert simplex_integral(p) == F(1, 24)
        assert simplex_integral(Polynomial.constant(2, 1)) == F(1, 2)


class TestFormAlgebra:
    def test_d_of_x_dy(self):
        w = Form(2, 1, {(1,): x(0, 2)})
        assert w.d() == Form(2, 2, {(0, 1): Polynomial.constant(2, 1)})

    def test_wedge_self_is_zero(self):
        dx = Form.dx(0, 2)
        assert not dx.wedge(dx)

    def test_d_squared_zero(self):
        rng = random.Random(31)
        for nvars in (2, 3, 4):
            for deg in range(0, 3):
                w = random_form(rng, nvars, deg)
                assert not w.d().d()

    def test_leibniz(self):
        rng = random.Random(32)
        for _ in range(25):
            nvars = rng.choice([2, 3, 4])
            da = rng.randint(0, min(2, nvars))
            db = rng.randint(0, min(2, nvars - da))
            a = random_form(rng, nvars, da)
            b = random_form(rng, nvars, db)
            lhs = a.wedge(b).d()
            rhs = a.d().wedge(b) + (a.wedge(b.d()) * ((-1) ** da))
            assert lhs == rhs

    def test_wedge_overflow_is_zero(self):
        a = Form.dx(0, 2)
        b = Form.dx(1, 2)
        assert not a.wedge(b).wedge(a)

    def test_pullback_functorial(self):
        rng = random.Random(33)
        phi = AffineMap.create([[1, 2], [0, 1], [3, 0]], [1, 0, 2])  # R2->R3
        psi = AffineMap.create([[2, 0], [1, 1]], [0, 1])             # R2->R2
        for _ in range(10):
            w = random_form(rng, 3, 2)
            assert w.pullback(phi).pullback(psi) == w.pullback(phi.compose(psi))

    def test_pullback_matches_wedge_chain(self):
        # Cauchy-Binet minors against the wedge chain, on maps from R^0 to
        # R^3, injective or not
        rng = random.Random(36)
        checked = 0
        for _ in range(240):
            nvars, m = rng.randint(1, 3), rng.randint(0, 3)
            cols = [[F(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(nvars)] for _ in range(m)]
            if m >= 2 and rng.random() < 0.4:
                # a repeated direction: rank below the source dimension
                cols[1] = [2 * a for a in cols[0]]
            matrix = [[cols[j][i] for j in range(m)] for i in range(nvars)]
            phi = AffineMap.create(matrix, [rng.randint(-2, 2)
                                            for _ in range(nvars)], in_dim=m)
            w = random_form(rng, nvars, rng.randint(0, nvars))
            assert w.pullback(phi) == reference_pullback(w, phi)
            checked += not phi.is_injective()
        assert checked >= 50

    def test_pullback_matches_per_component_loop(self):
        # seeded forms and maps, from a point (m = 0) to R^3, of full rank
        # or singular, onto R^0 to R^3
        rng = random.Random(38)
        singular = 0
        for _ in range(240):
            nvars, m = rng.randint(0, 3), rng.randint(0, 3)
            phi = random_map(rng, nvars, m, rng.random() < 0.4)
            deg = rng.randint(0, nvars)
            w = random_form(rng, nvars, deg) if nvars else \
                Form.function(Polynomial.constant(0, rng.randint(-4, 4)))
            assert w.pullback(phi) == reference_minor_pullback(w, phi)
            singular += m > 0 and not phi.is_injective()
        assert singular >= 30

    def test_pullback_from_a_point(self):
        five = Form.function(Polynomial.constant(0, 5))
        assert five.pullback(AffineMap.create([], [], in_dim=1)) == \
            Form.function(Polynomial.constant(1, 5))
        # a 2-form on R^2 pulls back to the zero 2-form on a point or a line
        area = Form(2, 2, {(0, 1): x(0, 2) + 1})
        to_point = AffineMap.create([[], []], [1, 2], in_dim=0)
        assert area.pullback(to_point) == Form.zero(0, 2)
        to_line = AffineMap.create([[1], [2]], [0, 0])
        assert area.pullback(to_line) == Form.zero(1, 2)

    def test_pullback_commutes_with_d(self):
        rng = random.Random(34)
        phi = AffineMap.create([[1, 1], [0, 2], [1, 0]], [0, 1, 0])
        for deg in (0, 1, 2):
            w = random_form(rng, 3, deg)
            assert w.d().pullback(phi) == w.pullback(phi).d()


def unit_square(lo_x=0, hi_x=1):
    return Polytope.from_bounds([(lo_x, hi_x), (0, 1)])


def two_squares_complex():
    right = unit_square(0, 1)
    left = unit_square(-1, 0)
    edge = Polytope.from_bounds([(0, 1)])
    into_right = AffineMap.create([[0], [1]], [0, 0])
    into_left = AffineMap.create([[0], [1]], [0, 0])
    return PolytopalComplex(
        {"right": right, "left": left, "edge": edge},
        [Gluing("edge", "right", into_right), Gluing("edge", "left", into_left)])


def paper_one_form(cx):
    forms = {
        "right": Form(2, 1, {(0,): Polynomial.constant(2, 1),
                             (1,): Polynomial.constant(2, 1)}),
        "left": Form(2, 1, {(0,): Polynomial.constant(2, -2),
                            (1,): Polynomial.constant(2, 1)}),
        "edge": Form(1, 1, {(0,): Polynomial.constant(1, 1)}),
    }
    return FormOnComplex(cx, 1, forms)


class TestComplexValidation:
    def test_two_squares_compatible(self):
        cx = two_squares_complex()
        assert validate_form(cx, paper_one_form(cx)) is None

    def test_two_squares_incompatible(self):
        cx = two_squares_complex()
        w = paper_one_form(cx)
        w.forms["left"] = Form(2, 1, {(0,): Polynomial.constant(2, 1),
                                      (1,): Polynomial.constant(2, 2)})
        assert validate_form(cx, w) == ("edge", "left")

    def test_constant_zero_form_compatible(self):
        cx = two_squares_complex()
        w = FormOnComplex(cx, 0, {
            "right": Form.function(Polynomial.constant(2, 1)),
            "left": Form.function(Polynomial.constant(2, 1)),
            "edge": Form.function(Polynomial.constant(1, 1))})
        assert validate_form(cx, w) is None

    def test_gluing_must_hit_a_face(self):
        right = unit_square()
        edge = Polytope.from_bounds([(0, 1)])
        bad = AffineMap.create([[0], [1]], [F(1, 2), 0])  # interior segment
        with pytest.raises(Exception):
            PolytopalComplex({"right": right, "edge": edge},
                             [Gluing("edge", "right", bad)])


def single_square_complex():
    return PolytopalComplex({"sq": unit_square()}, [])


class TestIntegration:
    def test_area_form(self):
        cx = single_square_complex()
        w = FormOnComplex(cx, 2, {"sq": Form(2, 2, {(0, 1): Polynomial.constant(2, 1)})})
        c = polytope_chain("sq", cx.polytopes["sq"])
        assert integrate(w, c) == 1

    def test_boundary_of_x_dy(self):
        cx = single_square_complex()
        w = FormOnComplex(cx, 1, {"sq": Form(2, 1, {(1,): x(0, 2)})})
        c = polytope_chain("sq", cx.polytopes["sq"])
        assert integrate(w, c.boundary()) == 1

    def test_diagonal_piece(self):
        cx = single_square_complex()
        w = FormOnComplex(cx, 1, {"sq": Form(2, 1, {
            (0,): Polynomial.constant(2, 1), (1,): Polynomial.constant(2, 1)})})
        diag = Chain(1, [(F(1), Piece.create("sq", [(0, 0), (1, 1)]))])
        assert integrate(w, diag) == 2

    def test_boundary_squared_zero(self):
        cx = single_square_complex()
        c = polytope_chain("sq", cx.polytopes["sq"])
        assert c.boundary().boundary().is_zero()


def reference_boundary(chain):
    """The boundary before facets were sorted, kept verbatim as a second
    route: each facet keeps its vertex order, so a facet that two pieces
    share with opposite orientations does not cancel."""
    if chain.degree == 0:
        return Chain(0, [])
    out = []
    for coeff, piece in chain.terms:
        for i in range(len(piece.vertices)):
            face = piece.vertices[:i] + piece.vertices[i + 1:]
            out.append((coeff * (-1) ** i, Piece(piece.polytope, face)))
    return Chain(chain.degree - 1, out)


class TestBoundary:
    def test_interior_facets_cancel_on_the_corpus(self):
        from ribboncells import suites

        sizes = {name: len(chain.boundary().terms)
                 for name, (_, chain) in suites._stokes_corpus().items()}
        assert sizes == {"cube": 12, "square": 4, "triangle": 3,
                         "two-squares": 8}

    def test_boundary_squared_zero_in_any_vertex_order(self):
        rng = random.Random(26)
        grid = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        for _ in range(100):
            k = rng.randint(1, 3)
            chain = Chain(k, [(F(rng.randint(1, 3)),
                               Piece.create("box", rng.sample(grid, k + 1)))
                              for _ in range(rng.randint(1, 4))])
            assert not chain.boundary().is_zero()
            assert chain.boundary().boundary().is_zero()

    def test_integrals_match_reference_boundary(self):
        from ribboncells import suites

        corpus = suites._stokes_corpus()
        names = sorted(corpus)
        rng = random.Random(27)
        for _ in range(50):
            cx, chain = corpus[names[rng.randrange(len(names))]]
            k = chain.degree - 1
            form = FormOnComplex(cx, k, {name: random_form(rng, poly.dim, k)
                                         for name, poly in cx.polytopes.items()})
            assert integrate(form, chain.boundary()) == \
                integrate(form, reference_boundary(chain))


def reference_integrate(form, chain):
    """The route ``integrate`` replaced, kept as a second one: pull each
    local form back along the piece's chart and integrate the polynomial
    over the standard simplex."""
    total = F(0)
    for coeff, piece in chain.terms:
        pulled = form.forms[piece.polytope].pullback(piece.chart)
        poly = pulled.comps.get(tuple(range(chain.degree)))
        if poly is not None:
            total += coeff * simplex_integral(poly)
    return total


def box_complex(n):
    box = Polytope.from_bounds([(-2, 2)] * n) if n else Polytope.create(0, [])
    return PolytopalComplex({"box": box}, [])


def random_piece_cases(seed, count=240):
    """Seeded (form, chain) pairs on single pieces of degree 0-3 in ambient
    dimension up to 3, 0-pieces in dimension 0 included."""
    rng = random.Random(seed)
    shapes = [(k, n) for n in range(4) for k in range(n + 1)]
    cases = []
    for i in range(count):
        k, n = shapes[i % len(shapes)]
        pts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
               for _ in range(k + 1)]
        piece = Piece.create("box", pts)
        local = random_form(rng, n, k) if n else Form.function(
            Polynomial.constant(0, F(rng.randint(-5, 5), rng.randint(1, 4))))
        form = FormOnComplex(box_complex(n), k, {"box": local})
        cases.append((form, Chain(k, [(F(rng.randint(1, 3)), piece)])))
    return cases


class TestPieceIntegrals:
    def test_matches_pullback_route_on_random_pieces(self):
        cases = random_piece_cases(31)
        assert {c.degree for _, c in cases} == {0, 1, 2, 3}
        nonzero = 0
        for form, chain in cases:
            want = reference_integrate(form, chain)
            assert integrate(form, chain) == want
            nonzero += want != 0
        assert nonzero > len(cases) // 2

    def test_zero_pieces_evaluate(self):
        rng = random.Random(32)
        for n in range(4):
            point = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            f = random_poly(rng, n) if n else Polynomial.constant(0, F(7, 3))
            form = FormOnComplex(box_complex(n), 0, {"box": Form.function(f)})
            chain = Chain(0, [(F(2), Piece.create("box", [point]))])
            assert integrate(form, chain) == 2 * f.eval(point)

    def test_matches_pullback_route_on_the_corpus(self):
        from ribboncells import suites

        rng = random.Random(33)
        chains = 0
        for cx, whole in suites._stokes_corpus().values():
            for chain in (whole, whole.boundary()):
                for _ in range(10):
                    form = FormOnComplex(cx, chain.degree, {
                        name: random_form(rng, poly.dim, chain.degree)
                        for name, poly in cx.polytopes.items()})
                    assert integrate(form, chain) == \
                        reference_integrate(form, chain)
                chains += 1
        assert chains == 8

    def test_arity_mismatch_is_refused(self):
        cx = single_square_complex()
        w = FormOnComplex(cx, 1, {"sq": Form(2, 1, {(0,): x(1, 2)})})
        flat = Chain(1, [(F(1), Piece.create("sq", [(0, 0, 0), (1, 1, 1)]))])
        with pytest.raises(ValueError, match="form on 2 coordinates"):
            integrate(w, flat)

    def test_moments_and_minors_are_memoized(self, monkeypatch):
        cx = single_square_complex()
        chain = polytope_chain("sq", cx.polytopes["sq"])
        rng = random.Random(34)
        forms = [FormOnComplex(cx, 2, {"sq": random_form(rng, 2, 2)})
                 for _ in range(5)]
        want = [integrate(w, chain) for w in forms]
        # a second pass reads only the memos
        monkeypatch.setattr(chains_module, "simplex_integral", None)
        monkeypatch.setattr(chains_module, "det", None)
        assert [integrate(w, chain) for w in forms] == want

    def test_another_pieces_moments_change_the_value(self, monkeypatch):
        # negative control: the moments of the piece shifted by 1/2 along
        # the first coordinate
        real = Piece.moment

        def shifted(piece, e):
            moved = tuple((v[0] + F(1, 2),) + v[1:] for v in piece.vertices)
            return real(Piece(piece.polytope, moved), e)

        cases = [c for c in random_piece_cases(31) if c[1].terms[0][1].vertices[0]]
        want = [reference_integrate(form, chain) for form, chain in cases]
        monkeypatch.setattr(Piece, "moment", shifted)
        got = [integrate(form, chain) for form, chain in cases]
        assert sum(a != b for a, b in zip(got, want)) > len(cases) // 2

    def test_minors_of_transposed_columns_change_the_value(self, monkeypatch):
        # negative control: swapping the chart's first two columns flips
        # the sign of every minor of a piece of degree 2 or 3
        def transposed(piece, rows):
            a = piece.chart.matrix
            return det([(r[1], r[0]) + r[2:] for r in (a[i] for i in rows)])

        cases = [c for c in random_piece_cases(31) if c[1].degree >= 2]
        want = [reference_integrate(form, chain) for form, chain in cases]
        assert sum(w != 0 for w in want) > len(cases) // 2
        monkeypatch.setattr(Piece, "minor", transposed)
        for (form, chain), w in zip(cases, want):
            assert integrate(form, chain) == -w


class TestChainMemo:
    def test_chains_are_immutable(self):
        chain = polytope_chain("sq", unit_square())
        assert isinstance(chain.terms, tuple)
        with pytest.raises(AttributeError):
            chain.terms = ()
        with pytest.raises(AttributeError):
            chain.degree = 1
        assert chain.boundary() is chain.boundary()

    def test_stokes_suite_builds_each_boundary_once(self, monkeypatch):
        from functools import cached_property

        from ribboncells.suites import run_suite

        built = []
        real = Chain.__dict__["_boundary"].func

        def counting(chain):
            built.append(chain)  # kept alive, so no id is reused
            return real(chain)

        memo = cached_property(counting)
        memo.__set_name__(Chain, "_boundary")
        monkeypatch.setattr(Chain, "_boundary", memo)
        (report,) = run_suite("stokes", seed=5, cases=80)
        assert report.ok and report.cases == 80
        # the four corpus chains are built once per run, and about half
        # the cases integrate over one of them
        assert 0 < len(built) < 80
        assert len({id(c) for c in built}) == len(built)
        for chain in list(built):
            assert chain.boundary().boundary().is_zero()


class TestStokes:
    def test_unit_square_x_dy(self):
        cx = single_square_complex()
        w = FormOnComplex(cx, 1, {"sq": Form(2, 1, {(1,): x(0, 2)})})
        c = polytope_chain("sq", cx.polytopes["sq"])
        lhs, rhs, ok = stokes_check(cx, c, w)
        assert (lhs, rhs, ok) == (1, 1, True)

    def test_two_squares_piecewise_form(self):
        # both sides vanish here, but the point is their exact equality
        # across the piecewise form; value frozen from a hand computation
        cx = two_squares_complex()
        w = paper_one_form(cx)
        c = polytope_chain("right", cx.polytopes["right"]) + \
            polytope_chain("left", cx.polytopes["left"])
        lhs, rhs, ok = stokes_check(cx, c, w)
        assert ok
        assert lhs == rhs == 0

    def test_closed_chain(self):
        cx = single_square_complex()
        sq = cx.polytopes["sq"]
        c = polytope_chain("sq", sq)
        closed = c.boundary()
        w = FormOnComplex(cx, 0, {"sq": Form.function(x(0, 2) ** 2 * x(1, 2))})
        lhs, rhs, ok = stokes_check(cx, closed, w)
        assert ok and rhs == 0 and lhs == 0

    def test_random_forms_and_chains(self):
        rng = random.Random(35)
        cx = corpus_complexes()
        for _ in range(120):
            name, cxx, gen = cx[rng.randrange(len(cx))]
            form, chain = gen(rng)
            lhs, rhs, ok = stokes_check(cxx, chain, form)
            assert ok, f"stokes failed on {name}"


def corpus_complexes():
    """(name, complex, generator) triples; each generator returns a valid
    random (form, chain) pair for a Stokes check."""
    out = []

    sq_cx = single_square_complex()

    def gen_square(rng):
        deg = rng.choice([1, 2])
        form = FormOnComplex(sq_cx, deg - 1,
                             {"sq": random_form(rng, 2, deg - 1)})
        if deg == 2:
            chain = polytope_chain("sq", sq_cx.polytopes["sq"])
        else:
            pts = [(F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 4))
                   for _ in range(2)]
            chain = Chain(1, [(F(1), Piece.create("sq", pts))])
        return form, chain

    out.append(("square", sq_cx, gen_square))

    two_cx = two_squares_complex()

    def gen_two(rng):
        # piecewise 1-forms: tangential part shared on the middle edge
        g_poly = random_poly(rng, 1)
        lift = [Polynomial.variable(1, 2)]
        shared = g_poly.subst(lift)
        fr = random_poly(rng, 2)
        fl = random_poly(rng, 2)
        forms = {
            "right": Form(2, 1, {(0,): fr, (1,): shared}),
            "left": Form(2, 1, {(0,): fl, (1,): shared}),
            "edge": Form(1, 1, {(0,): g_poly}),
        }
        # the dy coefficients agree on x = 0 only if they are equal as
        # functions of y there; we chose a shared one, so compatibility
        # holds exactly
        w = FormOnComplex(two_cx, 1, forms)
        assert validate_form(two_cx, w) is None
        chain = polytope_chain("right", two_cx.polytopes["right"]) + \
            polytope_chain("left", two_cx.polytopes["left"])
        return w, chain

    out.append(("two-squares", two_cx, gen_two))

    cube = Polytope.from_bounds([(0, 1)] * 3)
    cube_cx = PolytopalComplex({"cube": cube}, [])

    def gen_cube(rng):
        deg = rng.choice([2, 3])
        form = FormOnComplex(cube_cx, deg - 1,
                             {"cube": random_form(rng, 3, deg - 1, max_deg=2)})
        if deg == 3:
            chain = polytope_chain("cube", cube)
        else:
            pts = [tuple(F(rng.randint(0, 3), 3) for _ in range(3))
                   for _ in range(3)]
            chain = Chain(2, [(F(1), Piece.create("cube", pts))])
        return form, chain

    out.append(("cube", cube_cx, gen_cube))

    tri = Polytope.create(2, [
        HalfSpace.create([1, 0], 0), HalfSpace.create([0, 1], 0),
        HalfSpace.create([-1, -1], 1)])
    tri_cx = PolytopalComplex({"tri": tri}, [])

    def gen_tri(rng):
        form = FormOnComplex(tri_cx, 1, {"tri": random_form(rng, 2, 1)})
        chain = polytope_chain("tri", tri)
        return form, chain

    out.append(("triangle", tri_cx, gen_tri))
    return out


class TestConeHomotopy:
    def test_dy_from_origin(self):
        sq = unit_square()
        w = Form.dx(1, 2)
        h = cone_homotopy(sq, (0, 0), w)
        assert h == Form.function(x(1, 2))

    def test_area_form_from_origin(self):
        sq = unit_square()
        w = Form(2, 2, {(0, 1): Polynomial.constant(2, 1)})
        h = cone_homotopy(sq, (0, 0), w)
        expected = Form(2, 1, {(1,): x(0, 2) * F(1, 2), (0,): x(1, 2) * F(-1, 2)})
        assert h == expected
        assert h.d() == w

    def test_exact_zero_form_derivative(self):
        sq = unit_square()
        w = Form.function(x(0, 2) ** 2).d()
        h = cone_homotopy(sq, (0, 0), w)
        assert h.d() == w
        assert h == Form.function(x(0, 2) ** 2)

    def test_homotopy_identity_random(self):
        rng = random.Random(36)
        box = Polytope.from_bounds([(-1, 1)] * 3)
        for _ in range(40):
            deg = rng.randint(1, 3)
            w = random_form(rng, 3, deg, max_deg=3)
            center = tuple(F(rng.randint(-2, 2), 3) for _ in range(3))
            hw = cone_homotopy(box, center, w)
            hdw = cone_homotopy(box, center, w.d())
            assert hw.d() + hdw == w

    def test_center_outside_rejected(self):
        sq = unit_square()
        with pytest.raises(ValueError):
            cone_homotopy(sq, (5, 5), Form.dx(0, 2))


class TestGeometry:
    def test_square_vertices(self, monkeypatch):
        square = unit_square()
        vs = square.vertices()
        assert sorted(vs) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # enumerated once per polytope; a caller's edits do not reach the memo
        vs.clear()
        monkeypatch.setattr(geometry, "solve_unique", None)
        assert sorted(square.vertices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_volume_cube(self):
        for d in (1, 2, 3, 4):
            box = Polytope.from_bounds([(0, 2)] * d)
            assert volume(box) == 2 ** d

    def test_volume_simplex(self):
        tri = Polytope.create(3, [
            HalfSpace.create([1, 0, 0], 0), HalfSpace.create([0, 1, 0], 0),
            HalfSpace.create([0, 0, 1], 0), HalfSpace.create([-1, -1, -1], 1)])
        assert volume(tri) == F(1, 6)

    def test_unbounded_detected(self):
        ray = Polytope.create(2, [HalfSpace.create([1, 0], 0),
                                  HalfSpace.create([0, 1], 0)])
        assert not ray.is_bounded()
        with pytest.raises(ValueError):
            volume(ray)

    @pytest.mark.parametrize("bounds", [[(0, 1), (0, None)],
                                        [(0, None), (0, None)]],
                             ids=["half-strip", "quadrant"])
    def test_unbounded_refused_everywhere(self, bounds):
        hs = [HalfSpace.create([1 if j == i else 0 for j in range(2)], -lo)
              for i, (lo, _) in enumerate(bounds)]
        hs += [HalfSpace.create([-1 if j == i else 0 for j in range(2)], hi)
               for i, (_, hi) in enumerate(bounds) if hi is not None]
        poly = Polytope.create(2, hs)
        assert poly.vertices()
        for kernel in (triangulate, volume,
                       lambda p: polytope_chain("p", p)):
            with pytest.raises(ValueError, match="unbounded"):
                kernel(poly)

    def test_boundedness_decided_once(self, monkeypatch):
        calls = []
        real = geometry.nullspace

        def counting(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(geometry, "nullspace", counting)
        cube = Polytope.from_bounds([(0, 1)] * 3)
        assert cube.is_bounded()
        searched = len(calls)
        assert searched > 0
        assert cube.is_bounded() and len(calls) == searched

    def test_zero_dim_convention(self):
        assert volume(Polytope.create(0, [])) == 1

    def test_unbounded_polytopes_in_complexes(self):
        # representable, with gluings validated symbolically only
        quadrant = Polytope.create(2, [HalfSpace.create([1, 0], 0),
                                       HalfSpace.create([0, 1], 0)])
        ray = Polytope.create(1, [HalfSpace.create([1], 0)])
        cx = PolytopalComplex(
            {"quad": quadrant, "ray": ray},
            [Gluing("ray", "quad", AffineMap.create([[1], [0]], [0, 0]))])
        w = FormOnComplex(cx, 1, {
            "quad": Form(2, 1, {(0,): x(1, 2)}),
            "ray": Form(1, 1, {}),
        })
        assert validate_form(cx, w) is None

    def test_triangulation_covers(self):
        rng = random.Random(37)
        box = Polytope.from_bounds([(0, 1), (0, 2), (0, 3)])
        total = F(0)
        from ribboncells.linalg import det

        for s in triangulate(box):
            v0 = s[0]
            rows = [[a - b for a, b in zip(v, v0)] for v in s[1:]]
            total += abs(det(rows))
        assert total / 6 == 6


    def test_chain_pieces_positively_oriented(self):
        from conftest import trivalent_classes

        from ribboncells import suites
        from ribboncells.cells import cell_polytope
        from ribboncells.intersect import default_perimeters
        from ribboncells.linalg import det

        chains = [polytope_chain("box", Polytope.from_bounds(
            [(0, 1), (-1, 2), (F(1, 2), 3)][:d])) for d in (1, 2, 3)]
        chains += [chain for _, chain in suites._stokes_corpus().values()]
        p = default_perimeters(4)
        for c in trivalent_classes(0, 4):
            cell = cell_polytope(c.graph, p)
            if not cell.is_empty:
                chains.append(polytope_chain("cell", cell.polytope))
        pieces = [piece for chain in chains for _, piece in chain.terms]
        assert len(pieces) > 30
        for piece in pieces:
            v0 = piece.vertices[0]
            assert det([[a - b for a, b in zip(v, v0)]
                        for v in piece.vertices[1:]]) > 0


class TestProductComplex:
    def test_torus_times_circle_shape(self):
        torus, circle = torus_complex(), circle_complex()
        prod = product_complex(torus, circle)
        assert len(prod.polytopes) == len(torus.polytopes) * len(circle.polytopes)


def torus_complex():
    sq = unit_square()
    seg = Polytope.from_bounds([(0, 1)])
    pt = Polytope.create(0, [])
    emb = AffineMap.create
    gl = [
        Gluing("eh", "sq", emb([[1], [0]], [0, 0])),
        Gluing("eh", "sq", emb([[1], [0]], [0, 1])),
        Gluing("ev", "sq", emb([[0], [1]], [0, 0])),
        Gluing("ev", "sq", emb([[0], [1]], [1, 0])),
        Gluing("pt", "eh", emb([[]], [0])),
        Gluing("pt", "eh", emb([[]], [1])),
        Gluing("pt", "ev", emb([[]], [0])),
        Gluing("pt", "ev", emb([[]], [1])),
    ]
    for cx, cy in ((0, 0), (0, 1), (1, 0), (1, 1)):
        gl.append(Gluing("pt", "sq", emb([[], []], [cx, cy])))
    return PolytopalComplex({"sq": sq, "eh": seg, "ev": seg, "pt": pt}, gl)


def circle_complex():
    seg = Polytope.from_bounds([(0, 1)])
    pt = Polytope.create(0, [])
    return PolytopalComplex(
        {"arc": seg, "w": pt},
        [Gluing("w", "arc", AffineMap.create([[]], [0])),
         Gluing("w", "arc", AffineMap.create([[]], [1]))])
