"""Chains of simplicial pieces, integration, boundary, Stokes.

A k-piece is an affine map from the standard k-simplex into a polytope of
a complex, recorded by the images of the simplex vertices.  A chain is a
formal rational combination of pieces; the boundary operator is the usual
alternating sum of facets, and integration pulls the form back to the
standard simplex where monomials integrate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .complexes import FormOnComplex, PolytopalComplex
from .geometry import AffineMap, Polytope, triangulate
from .poly import simplex_integral
from ..linalg import det


@dataclass(frozen=True)
class Piece:
    """Affine image of the standard k-simplex inside one polytope."""

    polytope: str
    vertices: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def create(polytope: str, vertices) -> "Piece":
        return Piece(polytope,
                     tuple(tuple(Fraction(x) for x in v) for v in vertices))

    @property
    def degree(self) -> int:
        return len(self.vertices) - 1

    def chart(self) -> AffineMap:
        """The affine map (t_1..t_k) -> v_0 + sum t_i (v_i - v_0)."""
        v0 = self.vertices[0]
        cols = [[vi - a for vi, a in zip(v, v0)] for v in self.vertices[1:]]
        k = self.degree
        ambient = len(v0)
        matrix = [[cols[j][i] for j in range(k)] for i in range(ambient)]
        return AffineMap.create(matrix, v0, in_dim=k)


class Chain:
    """Formal rational combination of k-pieces of one degree."""

    def __init__(self, degree: int, terms: Sequence[tuple[Fraction, Piece]] = ()):
        self.degree = degree
        combined: dict[Piece, Fraction] = {}
        for coeff, piece in terms:
            if piece.degree != degree:
                raise ValueError(f"piece of degree {piece.degree} in a "
                                 f"degree-{degree} chain")
            combined[piece] = combined.get(piece, Fraction(0)) + Fraction(coeff)
        self.terms = [(c, p) for p, c in combined.items() if c != 0]
        self.terms.sort(key=lambda t: (t[1].polytope, t[1].vertices))

    def __add__(self, other: "Chain") -> "Chain":
        if other.degree != self.degree:
            raise ValueError("degrees differ")
        return Chain(self.degree, self.terms + other.terms)

    def __neg__(self) -> "Chain":
        return Chain(self.degree, [(-c, p) for c, p in self.terms])

    def __mul__(self, scalar) -> "Chain":
        s = Fraction(scalar)
        return Chain(self.degree, [(c * s, p) for c, p in self.terms])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def boundary(self) -> "Chain":
        """The alternating sum of facets, each written in sorted vertex
        order with the sign of the sorting permutation, so that a facet
        two pieces share with opposite orientations cancels."""
        if self.degree == 0:
            return Chain(0, [])
        out = []
        for coeff, piece in self.terms:
            for i in range(len(piece.vertices)):
                face = piece.vertices[:i] + piece.vertices[i + 1:]
                inversions = sum(a > b for j, a in enumerate(face)
                                 for b in face[j + 1:])
                out.append((coeff * (-1) ** (i + inversions),
                            Piece(piece.polytope, tuple(sorted(face)))))
        return Chain(self.degree - 1, out)


def polytope_chain(name: str, poly: Polytope) -> Chain:
    """Triangulate a bounded polytope into a chain of simplicial pieces,
    each oriented positively for the standard coordinate orientation: a
    simplex of negative determinant has its last two vertices swapped."""
    pieces = []
    for simplex in triangulate(poly):
        v0 = simplex[0]
        if det([[x - b for x, b in zip(v, v0)] for v in simplex[1:]]) < 0:
            simplex = simplex[:-2] + (simplex[-1], simplex[-2])
        pieces.append((Fraction(1), Piece.create(name, simplex)))
    return Chain(poly.dim, pieces)


def integrate(form: FormOnComplex, chain: Chain) -> Fraction:
    """Exact integral of a k-form over a k-chain."""
    if form.degree != chain.degree:
        raise ValueError(f"degree mismatch: form {form.degree}, chain {chain.degree}")
    total = Fraction(0)
    for coeff, piece in chain.terms:
        local = form.forms[piece.polytope]
        pulled = local.pullback(piece.chart())
        k = chain.degree
        poly = pulled.coefficient(tuple(range(k)))
        total += coeff * simplex_integral(poly)
    return total


def stokes_check(complex_: PolytopalComplex, chain: Chain,
                 form: FormOnComplex) -> tuple[Fraction, Fraction, bool]:
    """Return (integral of d(form) over chain, integral of form over the
    chain's boundary, exact equality)."""
    if form.degree != chain.degree - 1:
        raise ValueError("form degree must be one below the chain degree")
    lhs = integrate(form.d(), chain)
    rhs = integrate(form, chain.boundary())
    return lhs, rhs, lhs == rhs


def boundary_cancels(complex_: PolytopalComplex, chain: Chain) -> bool:
    """Whether the boundary vanishes after identifying glued points (only
    meaningful for chains of 1-pieces, whose boundaries are points)."""
    if chain.degree != 1:
        raise ValueError("only 1-chains supported")
    acc: dict[tuple, Fraction] = {}
    for coeff, piece in chain.boundary().terms:
        key = complex_.canonical_point(piece.polytope, piece.vertices[0])
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return all(v == 0 for v in acc.values())
