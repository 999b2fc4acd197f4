"""Chains of simplicial pieces, integration, boundary, Stokes.

A k-piece is an affine map from the standard k-simplex into a polytope of
a complex, recorded by the images of the simplex vertices.  A chain is a
formal rational combination of pieces; the boundary operator is the usual
alternating sum of facets.  Integration is linear in the form, so a piece
keeps the minors of its chart and the integrals of monomials over it, and
a k-form integrates as a weighted sum of those (see :meth:`Piece.integral`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .complexes import FormOnComplex, PolytopalComplex
from .forms import Form
from .geometry import AffineMap, Polytope, triangulate
from .poly import Polynomial, simplex_integral
from ..linalg import det


@dataclass(frozen=True)
class Piece:
    """Affine image of the standard k-simplex inside one polytope.

    What every integral over the piece shares is memoized on the instance,
    each entry on first use: the :attr:`chart`, its k x k :meth:`minor` per
    row set and the monomial :meth:`moment` per exponent.  They read only
    the vertices, which a frozen instance cannot change."""

    polytope: str
    vertices: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def create(polytope: str, vertices) -> "Piece":
        return Piece(polytope,
                     tuple(tuple(Fraction(x) for x in v) for v in vertices))

    @property
    def degree(self) -> int:
        return len(self.vertices) - 1

    @cached_property
    def chart(self) -> AffineMap:
        """The affine map (t_1..t_k) -> v_0 + sum t_i (v_i - v_0)."""
        v0 = self.vertices[0]
        cols = [[vi - a for vi, a in zip(v, v0)] for v in self.vertices[1:]]
        k = self.degree
        ambient = len(v0)
        matrix = [[cols[j][i] for j in range(k)] for i in range(ambient)]
        return AffineMap.create(matrix, v0, in_dim=k)

    @cached_property
    def _minors(self) -> dict[tuple[int, ...], Fraction]:
        return {}

    @cached_property
    def _powers(self) -> dict[tuple[int, ...], Polynomial]:
        return {(0,) * len(self.vertices[0]): Polynomial.constant(self.degree, 1)}

    @cached_property
    def _moments(self) -> dict[tuple[int, ...], Fraction]:
        return {}

    def minor(self, rows: tuple[int, ...]) -> Fraction:
        """det(A[rows, 0..k-1]) of the chart's matrix A; 1 on a 0-piece."""
        m = self._minors.get(rows)
        if m is None:
            a = self.chart.matrix
            m = self._minors[rows] = det([a[i] for i in rows])
        return m

    def _power(self, e: tuple[int, ...]) -> Polynomial:
        """The polynomial prod_i phi_i(t)^e_i, phi the chart: the power one
        lower in the first non-zero exponent e_i, times phi_i."""
        pw = self._powers.get(e)
        if pw is None:
            i = next(i for i, a in enumerate(e) if a)
            lower = e[:i] + (e[i] - 1,) + e[i + 1:]
            pw = self._powers[e] = self._power(lower) * self.chart.coordinates[i]
        return pw

    def moment(self, e: tuple[int, ...]) -> Fraction:
        """M(e), the integral of prod_i phi_i(t)^e_i over the standard
        k-simplex, phi the chart; on a 0-piece the value at its point."""
        m = self._moments.get(e)
        if m is None:
            m = self._moments[e] = simplex_integral(self._power(e))
        return m

    def integral(self, form: Form) -> Fraction:
        """Exact integral of a k-form on the piece's ambient space, k the
        piece's degree (:func:`integrate` checks it).

        The pullback along the chart phi(t) = v_0 + A t has the single
        component ``sum_I det(A[I, 0..k-1]) w_I(phi(t))`` (Cauchy-Binet),
        and the standard-simplex integral is linear, so with
        ``w_I = sum_e c_{I,e} x^e``

            int_piece w = sum_I det(A[I, 0..k-1]) sum_e c_{I,e} M(e).

        Nothing is substituted: a form only reads the memoized minors and
        moments, so a piece that many forms meet pays for each once."""
        if form.nvars != len(self.vertices[0]):
            raise ValueError(f"form on {form.nvars} coordinates over a piece "
                             f"in {len(self.vertices[0])}")
        total = Fraction(0)
        for rows, poly in form.comps.items():
            minor = self.minor(rows)
            if minor:
                total += minor * sum(c * self.moment(e)
                                     for e, c in poly.terms.items())
        return total


class Chain:
    """Formal rational combination of k-pieces of one degree.

    A chain is immutable: ``terms`` is a sorted tuple of (coefficient,
    piece) with distinct pieces and non-zero coefficients, and assigning an
    attribute raises ``AttributeError``.  So its :meth:`boundary` is built
    once per instance, with the boundary pieces (and their memos) shared by
    every integral over it."""

    def __init__(self, degree: int, terms: Sequence[tuple[Fraction, Piece]] = ()):
        combined: dict[Piece, Fraction] = {}
        for coeff, piece in terms:
            if piece.degree != degree:
                raise ValueError(f"piece of degree {piece.degree} in a "
                                 f"degree-{degree} chain")
            combined[piece] = combined.get(piece, Fraction(0)) + Fraction(coeff)
        kept = sorted(((c, p) for p, c in combined.items() if c != 0),
                      key=lambda t: (t[1].polytope, t[1].vertices))
        self.__dict__.update(degree=degree, terms=tuple(kept))

    def __setattr__(self, name, value):
        raise AttributeError(f"Chain is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Chain is immutable; cannot delete {name!r}")

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
        two pieces share with opposite orientations cancels.  Built once
        per chain."""
        return self._boundary

    @cached_property
    def _boundary(self) -> "Chain":
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
    """Exact integral of a k-form over a k-chain: the coefficient-weighted
    sum of :meth:`Piece.integral` of the local form on each piece, which
    reads the piece's memoized minors and moments.  On 0-pieces it is the
    weighted sum of the 0-form's values at their points."""
    if form.degree != chain.degree:
        raise ValueError(f"degree mismatch: form {form.degree}, chain {chain.degree}")
    return sum((coeff * piece.integral(form.forms[piece.polytope])
                for coeff, piece in chain.terms), Fraction(0))


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
