"""Morphisms of polytopal complexes and circle-bundle curvature numbers.

A morphism is a set of affine maps between polytopes subject to four
closure conditions: every source polytope carries at least one map,
restrictions to faces stay in the set, maps into faces stay in the set,
and any two images of one point are identified by target gluings.

For a morphism whose fibers are circles, a connection 1-form with constant
fiber integral and basic exterior derivative determines a curvature 2-form
downstairs; integrating it over a 2-cycle and dividing by the fiber
constant gives the bundle's twisting number, which must be an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .chains import Chain, Piece, integrate
from .complexes import FormOnComplex, PolytopalComplex, validate_form
from .forms import Form
from .geometry import AffineMap, Polytope
from ..linalg import solve_affine, solve_unique


class MorphismError(ValueError):
    pass


@dataclass(frozen=True)
class MorphismMap:
    src: str
    dst: str
    map: AffineMap


class Morphism:
    """A set of affine maps X -> Y between two complexes."""

    def __init__(self, source: PolytopalComplex, target: PolytopalComplex,
                 maps: Sequence[MorphismMap]):
        self.source = source
        self.target = target
        self.maps = list(maps)
        self._check()

    def _check(self):
        covered = {m.src for m in self.maps}
        missing = set(self.source.polytopes) - covered
        if missing:
            raise MorphismError(f"no map defined on polytopes {sorted(missing)}")
        have = {(m.src, m.dst, m.map) for m in self.maps}
        for m in self.maps:
            # restrictions to faces of the source polytope stay in the set
            for g in self.source.gluings:
                if g.dst != m.src:
                    continue
                restricted = m.map.compose(g.embed)
                if (g.src, m.dst, restricted) not in have:
                    raise MorphismError(
                        f"restriction of {m.src}->{m.dst} to face {g.src} missing")
            # if the image lies in a face of the target, the map to that
            # face polytope must also be present
            for g in self.target.gluings:
                if g.dst != m.dst:
                    continue
                lifted = _factor_through_face(m.map, g.embed)
                if lifted is not None:
                    if (m.src, g.src, lifted) not in have:
                        raise MorphismError(
                            f"map {m.src}->{m.dst} lands in face {g.src} but the "
                            f"factored map is missing")
        # two images of one point must be identified by target gluings;
        # identification is an equivalence, so each map's images are
        # compared with those of the first map on its source polytope
        first: dict[str, tuple[MorphismMap, list]] = {}
        for m in self.maps:
            poly = self.source.polytopes[m.src]
            if not poly.is_bounded():
                continue
            images = [self.target.canonical_point(m.dst, m.map.apply(v))
                      for v in poly.vertices()]
            a, expected = first.setdefault(m.src, (m, images))
            if images != expected:
                raise MorphismError(
                    f"maps on {m.src} send a point to unidentified "
                    f"images in {a.dst} and {m.dst}")


def _factor_through_face(f: AffineMap, embed: AffineMap) -> AffineMap | None:
    """Solve embed . g = f for g, exactly; None when f does not factor."""
    # columns of g's matrix and its offset each solve a linear system
    rows = [list(r) for r in embed.matrix]
    cols = []
    for j in range(f.source_dim):
        rhs = [f.matrix[i][j] for i in range(f.target_dim)]
        sol = solve_unique(rows, rhs)
        if sol is None:
            return None
        cols.append(sol)
    rhs0 = [f.offset[i] - embed.offset[i] for i in range(f.target_dim)]
    off = solve_unique(rows, rhs0)
    if off is None:
        return None
    matrix = [[cols[j][i] for j in range(f.source_dim)]
              for i in range(embed.source_dim)]
    return AffineMap.create(matrix, off, in_dim=f.source_dim)


def fiber_chain(morphism: Morphism, base_polytope: str, base_point,
                fiber_directions: Mapping[str, Sequence]) -> Chain:
    """The fiber over an interior point of a target polytope, as an
    oriented 1-chain of segments.

    ``fiber_directions[src]`` declares the positive fiber direction inside
    each source polytope whose image is ``base_polytope``.
    """
    y0 = tuple(Fraction(x) for x in base_point)
    pieces = []
    for m in morphism.maps:
        if m.dst != base_polytope or m.src not in fiber_directions:
            continue
        src = morphism.source.polytopes[m.src]
        # slice {x in closure(src) : m.map(x) = y0}
        eqs = []
        for i in range(m.map.target_dim):
            coeffs = list(m.map.matrix[i])
            const = m.map.offset[i] - y0[i]
            eqs.append((coeffs, const))
        seg = _solve_segment(src, eqs)
        if seg is None:
            continue
        a, b = seg
        direction = [Fraction(x) for x in fiber_directions[m.src]]
        dot = sum((bb - aa) * dd for aa, bb, dd in zip(a, b, direction))
        if dot == 0:
            continue
        if dot < 0:
            a, b = b, a
        pieces.append((Fraction(1), Piece.create(m.src, (a, b))))
    return Chain(1, pieces)


def _solve_segment(poly: Polytope, eqs):
    """Vertices of {x in closure(poly) : affine equations hold}; expects a
    segment (two endpoints) or nothing."""
    if not eqs:
        origin = [Fraction(0)] * poly.dim
        basis = [[Fraction(1) if j == i else Fraction(0) for j in range(poly.dim)]
                 for i in range(poly.dim)]
    else:
        rows = [c for c, _ in eqs]
        rhs = [-k for _, k in eqs]
        sol = solve_affine(rows, rhs)
        if sol is None:
            return None
        origin, basis, _ = sol
    if len(basis) != 1:
        return None
    direction = basis[0]
    # 1-parameter family origin + t*direction: clip to the polytope
    lo, hi = None, None
    for h in poly.halfspaces:
        a = sum((c * d for c, d in zip(h.coeffs, direction)), Fraction(0))
        b = h.value(origin)
        if a == 0:
            if b < 0:
                return None
            continue
        bound = -b / a
        if a > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is None or hi is None or lo >= hi:
        return None
    pa = tuple(o + lo * d for o, d in zip(origin, direction))
    pb = tuple(o + hi * d for o, d in zip(origin, direction))
    return pa, pb


def basic_descent(morphism: Morphism, two_form: FormOnComplex) -> FormOnComplex:
    """Express a 2-form on the total space as the pullback of a 2-form on
    the base, or raise when it is not basic.

    For each representative map an affine section recovers the candidate;
    the pullback identity is then verified exactly for every map.
    """
    target = morphism.target
    candidates: dict[str, Form] = {}
    for m in morphism.maps:
        section = _affine_section(m.map)
        if section is None:
            continue
        cand = two_form.forms[m.src].pullback(section)
        if m.dst in candidates:
            if candidates[m.dst] != cand:
                raise MorphismError(f"inconsistent descent candidates on {m.dst}")
        else:
            candidates[m.dst] = cand
    if not candidates:
        raise MorphismError("no map of the morphism admits an affine section")
    # fill faces by pulling back along gluings, parents before faces
    for name in sorted(target.polytopes,
                       key=lambda nm: -target.polytopes[nm].dim):
        if name in candidates:
            continue
        for g in target.gluings:
            if g.src == name and g.dst in candidates:
                candidates[name] = candidates[g.dst].pullback(g.embed)
                break
        else:
            candidates[name] = Form.zero(target.polytopes[name].dim, 2)
    omega = FormOnComplex(target, 2, candidates)
    bad = validate_form(target, omega)
    if bad is not None:
        raise MorphismError(f"descended form incompatible on gluing {bad}")
    for m in morphism.maps:
        if omega.forms[m.dst].pullback(m.map) != two_form.forms[m.src]:
            raise MorphismError(
                f"form is not basic: pullback mismatch on {m.src}->{m.dst}")
    return omega


def _affine_section(f: AffineMap) -> AffineMap | None:
    """A right inverse s with f . s = id, when f is surjective."""
    rows = [list(r) for r in f.matrix]
    cols = []
    for i in range(f.target_dim):
        rhs = [Fraction(1) if j == i else Fraction(0) for j in range(f.target_dim)]
        sol = solve_affine(rows, rhs)
        if sol is None:
            return None
        cols.append(sol[0])
    base = solve_affine(rows, [-o for o in f.offset])
    if base is None:
        return None
    matrix = [[cols[j][i] for j in range(f.target_dim)]
              for i in range(f.source_dim)]
    return AffineMap.create(matrix, base[0], in_dim=f.target_dim)


def circle_bundle_chern(morphism: Morphism, alpha: FormOnComplex,
                        surface_cycle: Chain,
                        fiber_directions: Mapping[str, Sequence],
                        sample_points: Mapping[str, Sequence],
                        expected_fiber_integral) -> int:
    """Twisting number of an oriented circle bundle from its connection.

    Verifies that the integral of ``alpha`` over each sample fiber equals
    ``expected_fiber_integral`` (a fixed nonzero constant) and that
    ``d alpha`` descends to the base; then returns the integral of the
    descended 2-form over ``surface_cycle`` divided by the constant,
    asserting integrality.
    """
    c = Fraction(expected_fiber_integral)
    if c == 0:
        raise MorphismError("fiber integral constant must be nonzero")
    for base_name, pt in sample_points.items():
        fiber = fiber_chain(morphism, base_name, pt, fiber_directions)
        if fiber.is_zero():
            raise MorphismError(f"empty fiber over sample point in {base_name}")
        got = integrate(alpha, fiber)
        if got != c:
            raise MorphismError(
                f"fiber integral over {base_name} is {got}, expected {c}")
    omega = basic_descent(morphism, alpha.d())
    total = integrate(omega, surface_cycle) / c
    if total.denominator != 1:
        raise MorphismError(f"curvature integral {total} is not an integer")
    return int(total)
