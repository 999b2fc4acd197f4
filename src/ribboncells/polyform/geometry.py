"""Affine maps and convex polytopes with exact rational data.

A polytope is an intersection of open or closed half-spaces with nonempty
interior, so it is always full-dimensional in its ambient space.  A face
is the set of its cached vertices that are tight on some half-spaces, and
the triangulation is a fan over these tight-vertex sets.  Vertex
enumeration, boundedness tests, triangulation, and volume are all exact
and sized for desk-scale instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial
from typing import Sequence

from .poly import Polynomial
from ..linalg import det, nullspace, rank, solve_unique


def _fr_tuple(xs) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in xs)


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset, with matrix shape (target, source).

    ``in_dim`` keeps the source arity explicit so that maps to or from
    zero-dimensional spaces (empty matrices) still compose correctly.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    offset: tuple[Fraction, ...]
    in_dim: int

    @staticmethod
    def create(matrix, offset, in_dim: int | None = None) -> "AffineMap":
        mat = tuple(_fr_tuple(r) for r in matrix)
        if in_dim is None:
            if not mat:
                raise ValueError("in_dim required for maps from row-less matrices")
            in_dim = len(mat[0])
        if any(len(r) != in_dim for r in mat):
            raise ValueError("ragged matrix")
        return AffineMap(mat, _fr_tuple(offset), in_dim)

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap.create(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], [0] * n, n)

    @cached_property
    def coordinates(self) -> tuple[Polynomial, ...]:
        """The target coordinates as affine polynomials in the source."""
        return tuple(Polynomial.affine(row, off)
                     for row, off in zip(self.matrix, self.offset))

    @property
    def source_dim(self) -> int:
        return self.in_dim

    @property
    def target_dim(self) -> int:
        return len(self.matrix)

    def apply(self, x: Sequence) -> tuple[Fraction, ...]:
        xi = _fr_tuple(x)
        if len(xi) != self.in_dim:
            raise ValueError("point has wrong dimension")
        return tuple(
            sum((a * b for a, b in zip(row, xi)), Fraction(0)) + c
            for row, c in zip(self.matrix, self.offset))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner."""
        if inner.target_dim != self.source_dim:
            raise ValueError("dimension mismatch in composition")
        mat = tuple(
            tuple(sum((self.matrix[i][k] * inner.matrix[k][j]
                       for k in range(self.source_dim)), Fraction(0))
                  for j in range(inner.source_dim))
            for i in range(self.target_dim))
        off = self.apply(inner.offset)
        return AffineMap(mat, off, inner.in_dim)

    def is_injective(self) -> bool:
        return rank([list(r) for r in self.matrix]) == self.source_dim


@dataclass(frozen=True)
class HalfSpace:
    """The condition coeffs . x + const >= 0 (or > 0 when strict)."""

    coeffs: tuple[Fraction, ...]
    const: Fraction
    strict: bool = False

    @staticmethod
    def create(coeffs, const, strict=False) -> "HalfSpace":
        return HalfSpace(_fr_tuple(coeffs), Fraction(const), strict)

    def value(self, x: Sequence) -> Fraction:
        return sum((a * Fraction(b) for a, b in zip(self.coeffs, x)),
                   Fraction(0)) + self.const


@dataclass(frozen=True)
class Polytope:
    dim: int
    halfspaces: tuple[HalfSpace, ...]

    @staticmethod
    def create(dim: int, halfspaces) -> "Polytope":
        return Polytope(dim, tuple(halfspaces))

    @staticmethod
    def from_bounds(bounds: Sequence[tuple]) -> "Polytope":
        """Axis-aligned box: bounds[i] = (lo, hi)."""
        dim = len(bounds)
        hs = []
        for i, (lo, hi) in enumerate(bounds):
            e = [0] * dim
            e[i] = 1
            hs.append(HalfSpace.create(e, -Fraction(lo)))
            e2 = [0] * dim
            e2[i] = -1
            hs.append(HalfSpace.create(e2, Fraction(hi)))
        return Polytope(dim, tuple(hs))

    def contains(self, x: Sequence) -> bool:
        """Membership in the closure."""
        return all(h.value(x) >= 0 for h in self.halfspaces)

    def vertices(self) -> list[tuple[Fraction, ...]]:
        """Vertices of the closure, by exhausting dim-subsets of tight
        constraints; exact and quadratic-ish in the constraint count.
        Enumerated once per instance; each call returns a fresh list."""
        return list(self._vertices)

    @cached_property
    def _vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        d = self.dim
        if d == 0:
            return ((),)
        out = []
        seen = set()
        for subset in combinations(range(len(self.halfspaces)), d):
            rows = [list(self.halfspaces[i].coeffs) for i in subset]
            rhs = [-self.halfspaces[i].const for i in subset]
            x = solve_unique(rows, rhs)
            if x is None:
                continue
            key = tuple(x)
            if key in seen:
                continue
            if all(h.value(x) >= 0 for h in self.halfspaces):
                seen.add(key)
                out.append(key)
        return tuple(sorted(out))

    def is_bounded(self) -> bool:
        """The recession cone of the closure is trivial.  Decided once per
        instance."""
        return self._bounded

    @cached_property
    def _bounded(self) -> bool:
        d = self.dim
        if d == 0:
            return True
        rows = [list(h.coeffs) for h in self.halfspaces]
        # any nonzero direction in the lineality space keeps it unbounded
        if nullspace(rows):
            return False
        for subset in combinations(range(len(rows)), d - 1):
            sub = [rows[i] for i in subset] if subset else [[Fraction(0)] * d]
            for v in nullspace(sub):
                if any(x != 0 for x in v):
                    for w in (v, [-x for x in v]):
                        if all(sum(a * b for a, b in zip(row, w)) >= 0
                               for row in rows):
                            return False
        return True


def triangulate(poly: Polytope) -> list[tuple[tuple[Fraction, ...], ...]]:
    """Exact triangulation of a bounded polytope's closure into simplices
    given as vertex tuples: the pulling triangulation (De Loera, Rambau and
    Santos, *Triangulations*, 2010) for the sorted vertex order.

    A face is the set of the polytope's vertices tight on some halfspaces.
    Each face is a fan from its least vertex over the triangulations of
    its facets that miss that vertex; the facets of a face F are the
    maximal proper nonempty sets F & T, for T the tight-vertex set of one
    halfspace.  Every simplex lists its vertices in increasing order.
    """
    if not poly.is_bounded():
        raise ValueError("triangulation of an unbounded polytope")
    verts = poly.vertices()
    if not verts:
        return []
    tight = {frozenset(v for v in verts if h.value(v) == 0)
             for h in poly.halfspaces}
    return _pull(frozenset(verts), tight)


def _pull(face: frozenset, tight) -> list[tuple]:
    apex = min(face)
    if len(face) == 1:
        return [(apex,)]
    cuts = {face & t for t in tight} - {face, frozenset()}
    return [(apex,) + simplex
            for facet in cuts
            if apex not in facet and not any(facet < c for c in cuts)
            for simplex in _pull(facet, tight)]


def volume(poly: Polytope) -> Fraction:
    """Exact Euclidean volume of a bounded polytope (its closure); an
    unbounded one raises ``ValueError`` in ``triangulate``.

    Zero-dimensional polytopes get the point-mass convention ``1``.
    """
    if poly.dim == 0:
        return Fraction(1)
    total = Fraction(0)
    for simplex in triangulate(poly):
        v0 = simplex[0]
        rows = [[x - b for x, b in zip(v, v0)] for v in simplex[1:]]
        total += abs(det(rows))
    return total / factorial(poly.dim)
