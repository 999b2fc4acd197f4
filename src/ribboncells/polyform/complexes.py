"""Polytopal complexes: polytopes glued along faces by affine injections,
and differential forms defined polytope-wise.

A gluing identifies a polytope with a face of another polytope.  A form on
the complex assigns a form to every polytope so that pulling back along
each gluing reproduces the form on the face; :func:`validate_form` checks
all of these identities symbolically and reports the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .forms import Form
from .geometry import AffineMap, HalfSpace, Polytope
from ..linalg import rank, solve_affine


class ComplexError(ValueError):
    pass


@dataclass(frozen=True)
class Gluing:
    """``embed`` identifies polytope ``src`` with a face of ``dst``."""

    src: str
    dst: str
    embed: AffineMap


class PolytopalComplex:
    """Finite set of named polytopes plus face gluings.

    Checked on construction: each gluing is an affine injection whose image
    lies in the closure of the target and is cut out by turning some
    non-strict inequalities into equalities; gluings compose (face of a
    face is a face, commutatively); no two polytopes are glued to the same
    face of one polytope.
    """

    def __init__(self, polytopes: Mapping[str, Polytope], gluings=()):
        self.polytopes = dict(polytopes)
        self.gluings = list(gluings)
        self._check()

    def _check(self):
        seen_faces: dict[tuple[str, frozenset], str] = {}
        for g in self.gluings:
            if g.src not in self.polytopes or g.dst not in self.polytopes:
                raise ComplexError(f"gluing {g.src}->{g.dst} names unknown polytopes")
            src, dst = self.polytopes[g.src], self.polytopes[g.dst]
            if g.embed.source_dim != src.dim or g.embed.target_dim != dst.dim:
                raise ComplexError(f"gluing {g.src}->{g.dst} has wrong dimensions")
            if not g.embed.is_injective():
                raise ComplexError(f"gluing {g.src}->{g.dst} is not injective")
            tight = self._tight_set(g)
            ntight = len(tight)
            rows = [list(dst.halfspaces[i].coeffs) for i in tight]
            if rows and rank(rows) != dst.dim - src.dim:
                raise ComplexError(
                    f"gluing {g.src}->{g.dst}: image is not a face of codimension "
                    f"{dst.dim - src.dim}")
            if not rows and src.dim != dst.dim:
                raise ComplexError(f"gluing {g.src}->{g.dst}: image not a proper face")
            # bounded targets: the image must exhaust the face
            if src.is_bounded() and dst.is_bounded():
                face_verts = sorted(
                    v for v in dst.vertices()
                    if all(dst.halfspaces[i].value(v) == 0 for i in tight))
                image_verts = sorted(g.embed.apply(v) for v in src.vertices())
                if face_verts != image_verts:
                    raise ComplexError(
                        f"gluing {g.src}->{g.dst}: image does not equal the face")
            key = (g.dst, frozenset(tight))
            if key in seen_faces and seen_faces[key] != g.src:
                raise ComplexError(
                    f"polytopes {seen_faces[key]} and {g.src} are both glued to "
                    f"the same face of {g.dst}")
            seen_faces[key] = g.src
        self._check_composition()

    def _tight_set(self, g: Gluing) -> tuple[int, ...]:
        """Indices of target halfspaces vanishing identically on the image."""
        dst = self.polytopes[g.dst]
        src = self.polytopes[g.src]
        tight = []
        for i, h in enumerate(dst.halfspaces):
            # h(embed(t)) as an affine functional of t
            coeffs = [sum((h.coeffs[r] * g.embed.matrix[r][c]
                           for r in range(dst.dim)), Fraction(0))
                      for c in range(src.dim)]
            const = h.value(g.embed.offset)
            if all(c == 0 for c in coeffs):
                if const == 0:
                    tight.append(i)
                elif const < 0:
                    raise ComplexError(
                        f"gluing {g.src}->{g.dst}: image violates a constraint")
            else:
                # must be nonnegative on src: check on vertices when bounded
                if src.is_bounded():
                    for v in src.vertices():
                        if sum((a * b for a, b in zip(coeffs, v)), Fraction(0)) + const < 0:
                            raise ComplexError(
                                f"gluing {g.src}->{g.dst}: image leaves the target")
        return tuple(tight)

    def _check_composition(self):
        by_pair = {}
        for g in self.gluings:
            by_pair.setdefault((g.src, g.dst), []).append(g.embed)
        for g1 in self.gluings:
            for g2 in self.gluings:
                if g1.dst != g2.src:
                    continue
                comp = g2.embed.compose(g1.embed)
                maps = by_pair.get((g1.src, g2.dst), [])
                if not any(m == comp for m in maps):
                    raise ComplexError(
                        f"face-of-face gluing {g1.src}->{g1.dst}->{g2.dst} has no "
                        f"matching direct gluing (no commutative diagram)")

    # -- points ---------------------------------------------------------

    def canonical_point(self, name: str, point) -> tuple[str, tuple[Fraction, ...]]:
        """Pull a point back to the minimal polytope representing it."""
        point = tuple(Fraction(x) for x in point)
        changed = True
        while changed:
            changed = False
            for g in self.gluings:
                if g.dst != name:
                    continue
                src = self.polytopes[g.src]
                pre = self._preimage(g.embed, point)
                if pre is not None and src.contains(pre):
                    name, point = g.src, pre
                    changed = True
                    break
        return name, point

    @staticmethod
    def _preimage(embed: AffineMap, point):
        rows = [list(r) for r in embed.matrix]
        rhs = [Fraction(p) - o for p, o in zip(point, embed.offset)]
        sol = solve_affine(rows, rhs)
        if sol is None or sol[1]:
            return None
        return tuple(sol[0])


class FormOnComplex:
    """A differential form given polytope-wise."""

    def __init__(self, complex_: PolytopalComplex, degree: int,
                 forms: Mapping[str, Form]):
        self.complex = complex_
        self.degree = degree
        self.forms = dict(forms)
        for name, poly in complex_.polytopes.items():
            if name not in self.forms:
                raise ComplexError(f"no form assigned on polytope {name}")
            f = self.forms[name]
            if f.degree != degree or f.nvars != poly.dim:
                raise ComplexError(f"form on {name} has wrong degree or arity")

    def d(self) -> "FormOnComplex":
        return FormOnComplex(self.complex, self.degree + 1,
                             {n: f.d() for n, f in self.forms.items()})

    def wedge(self, other: "FormOnComplex") -> "FormOnComplex":
        if other.complex is not self.complex:
            raise ComplexError("forms on different complexes")
        return FormOnComplex(self.complex, self.degree + other.degree,
                             {n: f.wedge(other.forms[n]) for n, f in self.forms.items()})

    def __add__(self, other: "FormOnComplex") -> "FormOnComplex":
        return FormOnComplex(self.complex, self.degree,
                             {n: f + other.forms[n] for n, f in self.forms.items()})

    def __mul__(self, scalar) -> "FormOnComplex":
        return FormOnComplex(self.complex, self.degree,
                             {n: f * scalar for n, f in self.forms.items()})

    __rmul__ = __mul__


def product_polytope(a: Polytope, b: Polytope) -> Polytope:
    hs = []
    for h in a.halfspaces:
        hs.append(HalfSpace(h.coeffs + (Fraction(0),) * b.dim, h.const, h.strict))
    for h in b.halfspaces:
        hs.append(HalfSpace((Fraction(0),) * a.dim + h.coeffs, h.const, h.strict))
    return Polytope(a.dim + b.dim, tuple(hs))


def product_map(f: AffineMap, g: AffineMap) -> AffineMap:
    rows = []
    for i, row in enumerate(f.matrix):
        rows.append(row + (Fraction(0),) * g.source_dim)
    for i, row in enumerate(g.matrix):
        rows.append((Fraction(0),) * f.source_dim + row)
    return AffineMap(tuple(rows), f.offset + g.offset,
                     f.in_dim + g.in_dim)


def product_complex(a: PolytopalComplex, b: PolytopalComplex) -> PolytopalComplex:
    """The product complex: polytopes P*Q with all products of gluings
    (including identity factors, so that composite face relations close)."""
    polys = {}
    for pa, qa in a.polytopes.items():
        for pb, qb in b.polytopes.items():
            polys[f"{pa}*{pb}"] = product_polytope(qa, qb)
    gluings = []
    a_maps = [(g.src, g.dst, g.embed) for g in a.gluings] + \
             [(n, n, AffineMap.identity(p.dim)) for n, p in a.polytopes.items()]
    b_maps = [(g.src, g.dst, g.embed) for g in b.gluings] + \
             [(n, n, AffineMap.identity(p.dim)) for n, p in b.polytopes.items()]
    for sa, da, ma in a_maps:
        for sb, db, mb in b_maps:
            if sa == da and sb == db:
                continue
            gluings.append(Gluing(f"{sa}*{sb}", f"{da}*{db}",
                                  product_map(ma, mb)))
    return PolytopalComplex(polys, gluings)


def validate_form(complex_: PolytopalComplex, form: FormOnComplex):
    """Check every gluing pullback identity symbolically.

    Returns ``None`` when compatible, else the offending ``(src, dst)``
    pair of polytope names.
    """
    for g in complex_.gluings:
        pulled = form.forms[g.dst].pullback(g.embed)
        if pulled != form.forms[g.src]:
            return (g.src, g.dst)
    return None
