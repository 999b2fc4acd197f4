r"""Cells of the graph complex over fixed face perimeters.

For a graph class G with incidence matrix M (multiplicity of each edge in
each face), the cell over a perimeter vector p is the solution set
``{l > 0 : M l = p}``, carried here in an exact chart: solve the linear
system once, keep the free edge coordinates, and express every edge length
as an affine function of the chart.

Each face of G also carries its polygon bundle: the boundary polygon with
a distinguished point at arc-length coordinate t.  The connection 1-form

    alpha = sum_i (lambda_i / p) d(phi_i / p)

uses the sorted distances phi_i from the distinguished point to the
polygon vertices and the length lambda_i of the edge following the i-th
vertex; the distances are measured in the traversal direction of t, which
runs against the face word.  Its fiber integral is exactly -1 and its
exterior derivative descends to the cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .enumeration import canonical_key
from .linalg import solve_affine
from .permgraph import FaceWord, StableRibbonGraph, faces
from .polyform import (AffineMap, Form, FormOnComplex, Gluing, HalfSpace,
                       Morphism, MorphismMap, Polynomial, Polytope,
                       PolytopalComplex)
from .stable import contract_edge, contractible_edges


@dataclass(frozen=True)
class CellPolytope:
    """The fiber of a graph cell over fixed perimeters, in an exact chart.

    ``edge_charts[e]`` is ``(coeffs, const)`` with
    ``l_e(x) = coeffs . x + const`` over the free coordinates; empty cells
    keep their chart data but have ``polytope = None``.
    """

    graph: StableRibbonGraph
    perimeters: tuple[Fraction, ...]
    incidence: tuple[tuple[int, ...], ...]
    free_edges: tuple[int, ...]
    edge_charts: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    polytope: Polytope | None
    rank: int

    @property
    def dim(self) -> int:
        return len(self.free_edges)

    @property
    def is_empty(self) -> bool:
        return self.polytope is None

    @property
    def rank_deficient(self) -> bool:
        return self.rank < len(self.perimeters)

    def lengths_at(self, x: Sequence) -> tuple[Fraction, ...]:
        xs = [Fraction(v) for v in x]
        return tuple(
            sum((c * v for c, v in zip(coeffs, xs)), Fraction(0)) + const
            for coeffs, const in self.edge_charts)

    def interior_point(self) -> tuple[Fraction, ...]:
        """Centroid of the chart vertices; strictly positive when the cell
        is non-empty."""
        if self.polytope is None:
            raise ValueError("empty cell")
        if self.dim == 0:
            return ()
        vs = self.polytope.vertices()
        n = len(vs)
        return tuple(sum((v[i] for v in vs), Fraction(0)) / n
                     for i in range(self.dim))


def incidence_matrix(g: StableRibbonGraph) -> tuple[tuple[int, ...], ...]:
    """Rows indexed by face label, columns by edge; entries are the 0/1/2
    multiplicities."""
    rows = []
    for w in faces(g):
        row = [0] * g.num_edges
        for e in w.edges:
            row[e] += 1
        rows.append(tuple(row))
    return tuple(rows)


def cell_polytope(g: StableRibbonGraph, perimeters: Sequence) -> CellPolytope:
    """Exact chart and H-description of ``{l > 0 : M l = p}``.

    Emptiness is decided exactly: the closure must have vertices and some
    point of it must be strictly positive in every edge.  A single point
    on a wall (some ``l_e = 0``) is empty here; :func:`holds_wall_point`
    decides which top cell counts it.
    """
    g.require_valid()
    p = [Fraction(x) for x in perimeters]
    if len(p) != g.num_faces:
        raise ValueError(f"expected {g.num_faces} perimeters, got {len(p)}")
    if any(x <= 0 for x in p):
        raise ValueError("perimeters must be strictly positive")
    M = incidence_matrix(g)
    E = g.num_edges
    sol = solve_affine([list(r) for r in M], p)
    rank = E if sol is None else E - len(sol[1])
    if sol is None:
        return CellPolytope(g, tuple(p), M, (), (), None, rank)
    particular, basis, free = sol
    charts = tuple(
        (tuple(b[e] for b in basis), particular[e]) for e in range(E))
    halfspaces = tuple(
        HalfSpace(coeffs, const, strict=True) for coeffs, const in charts)
    poly = Polytope(len(free), halfspaces)
    nonempty = not poly.is_empty_interior()
    return CellPolytope(g, tuple(p), M, tuple(free), charts,
                        poly if nonempty else None, rank)


def holds_wall_point(cell: CellPolytope) -> bool:
    """Whether an empty zero-dimensional cell, whose point has some
    ``l_e = 0`` and none negative, holds that point at perimeters
    ``p + (eps, eps^2, ...)``.  Each tied length takes the sign of its
    first non-zero response to the unit perimeter directions (simulation
    of simplicity, Edelsbrunner-Muecke 1990), so exactly one of the cells
    meeting at a wall counts the point."""
    consts = [const for _, const in cell.edge_charts]
    if not cell.is_empty or cell.dim or not consts or min(consts) < 0:
        return False
    tied = {e for e, const in enumerate(consts) if const == 0}
    n = len(cell.incidence)
    for i in range(n):
        sol = solve_affine(cell.incidence, [int(j == i) for j in range(n)])
        if sol is None:  # the perturbed perimeters leave the image of M
            return False
        if any(sol[0][e] < 0 for e in tied):
            return False
        tied = {e for e in tied if sol[0][e] == 0}
        if not tied:
            return True
    return False


@dataclass(frozen=True)
class PolygonFiber:
    """The boundary polygon of one face with given side lengths and a
    distinguished point at coordinate ``t``.

    Sides are listed in face-word order; ``t`` runs around the polygon in
    the opposite direction, from 0 to the perimeter.
    """

    face: FaceWord
    side_lengths: tuple[Fraction, ...]
    t: Fraction = Fraction(0)

    @staticmethod
    def create(face: FaceWord, side_lengths, t=0) -> "PolygonFiber":
        f = PolygonFiber(face, tuple(Fraction(x) for x in side_lengths),
                         Fraction(t))
        if len(f.side_lengths) != face.degree:
            raise ValueError("need one side length per face-word entry")
        if any(x <= 0 for x in f.side_lengths):
            raise ValueError("side lengths must be positive")
        if not (0 <= f.t < f.perimeter):
            raise ValueError("distinguished point out of range")
        return f

    @property
    def degree(self) -> int:
        return len(self.side_lengths)

    @property
    def perimeter(self) -> Fraction:
        return sum(self.side_lengths, Fraction(0))

    def traversal_lengths(self) -> tuple[Fraction, ...]:
        """Side lengths in the direction of increasing t (the reversed
        face word)."""
        return tuple(reversed(self.side_lengths))

    def vertex_positions(self) -> tuple[Fraction, ...]:
        """t-coordinates of the polygon vertices, starting at 0."""
        lam = self.traversal_lengths()
        out = [Fraction(0)]
        for x in lam[:-1]:
            out.append(out[-1] + x)
        return tuple(out)

    def vertex_distances(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Sorted pairs (phi_i, following side length) as seen from the
        distinguished point."""
        p = self.perimeter
        lam = self.traversal_lengths()
        qs = self.vertex_positions()
        pairs = [((q - self.t) % p, lam[m]) for m, q in enumerate(qs)]
        pairs.sort()
        return tuple(pairs)


def fiber_integral_alpha(fiber: PolygonFiber) -> Fraction:
    """Exact integral of the connection form over the polygon fiber, by
    piecewise integration of the t-component over each arc.

    Between two consecutive vertices the sorted order of the distances is
    fixed and each distance phi_j is affine in t, so its rate is read off
    :meth:`PolygonFiber.vertex_distances` at two points inside the arc."""
    p = fiber.perimeter
    qs = list(fiber.vertex_positions()) + [p]
    total = Fraction(0)
    for lo, hi in zip(qs, qs[1:]):
        # the t-component of alpha is sum_j lambda_j phi_j' / p^2; with t1
        # and t2 at a quarter and three quarters of the arc, its integral
        # over the arc is 2 sum_j lambda_j (phi_j(t2) - phi_j(t1)) / p^2
        quarter = (hi - lo) / 4
        at1 = replace(fiber, t=lo + quarter).vertex_distances()
        at2 = replace(fiber, t=hi - quarter).vertex_distances()
        total += sum((lam * (phi2 - phi1) for (phi1, lam), (phi2, _)
                      in zip(at1, at2)), Fraction(0))
    return 2 * total / p ** 2


def scaled_fiber(fiber: PolygonFiber, scale) -> PolygonFiber:
    s = Fraction(scale)
    return PolygonFiber.create(fiber.face,
                               [s * x for x in fiber.side_lengths],
                               s * fiber.t)


@dataclass(frozen=True)
class PolygonBundle:
    """The polygon bundle of one face over a cell: a polytopal complex in
    coordinates (chart of the cell, t) with the connection form, plus the
    projection morphism to the cell."""

    cell: CellPolytope
    face: FaceWord
    complex: PolytopalComplex
    alpha: FormOnComplex
    base: PolytopalComplex
    projection: Morphism
    fiber_directions: dict

    def arc_names(self) -> list[str]:
        return [n for n in self.complex.polytopes if n.startswith("arc")]


def _side_charts(cell: CellPolytope, face: FaceWord):
    """Affine (coeffs, const) of each face-word side in the cell chart."""
    return [cell.edge_charts[e] for e in face.edges]


def polygon_bundle(cell: CellPolytope, face_label: int) -> PolygonBundle:
    """Build the fiber-times-cell region of one face, decomposed by which
    side carries the distinguished point, with the connection form on it."""
    if cell.is_empty:
        raise ValueError("cannot build a bundle over an empty cell")
    face = next(w for w in faces(cell.graph) if w.label == face_label)
    d = cell.dim
    k = face.degree
    p = cell.perimeters[face_label - 1]

    sides = _side_charts(cell, face)
    lam = list(reversed(sides))  # traversal order of t
    # vertex positions q_m(x), affine in the chart; q_{k+1} = p exactly
    qs = [(tuple(Fraction(0) for _ in range(d)), Fraction(0))]
    for coeffs, const in lam[:-1]:
        prev_c, prev_k = qs[-1]
        qs.append((tuple(a + b for a, b in zip(prev_c, coeffs)), prev_k + const))
    q_top = tuple(
        sum((lam[m][0][j] for m in range(k)), Fraction(0)) for j in range(d))
    q_top_const = sum((lam[m][1] for m in range(k)), Fraction(0))
    if any(c != 0 for c in q_top) or q_top_const != p:
        raise AssertionError("side lengths do not add up to the perimeter")
    qs.append(((Fraction(0),) * d, p))

    cell_hs = list(cell.polytope.halfspaces)
    lifted = [HalfSpace(h.coeffs + (Fraction(0),), h.const, h.strict)
              for h in cell_hs]

    polys = {}
    gluings = []
    embeds = {}
    for m in range(1, k + 1):
        lo_c, lo_k = qs[m - 1]
        hi_c, hi_k = qs[m]
        hs = list(lifted)
        # q_{m-1}(x) <= t <= q_m(x)
        hs.append(HalfSpace(tuple(-c for c in lo_c) + (Fraction(1),), -lo_k))
        hs.append(HalfSpace(hi_c + (Fraction(-1),), hi_k))
        polys[f"arc{m}"] = Polytope(d + 1, tuple(hs))
    for m in range(1, k + 1):
        polys[f"cut{m}"] = cell.polytope
        c, const = qs[m - 1]
        rows = [[Fraction(1) if j == i else Fraction(0) for j in range(d)]
                for i in range(d)]
        rows.append(list(c))
        embed = AffineMap.create(rows, [Fraction(0)] * d + [const], in_dim=d)
        embeds[(m, "lo")] = embed
        gluings.append(Gluing(f"cut{m}", f"arc{m}", embed))
        prev = m - 1 if m > 1 else k
        c2, const2 = qs[m - 1] if m > 1 else qs[k]
        rows2 = [[Fraction(1) if j == i else Fraction(0) for j in range(d)]
                 for i in range(d)]
        rows2.append(list(c2))
        embed2 = AffineMap.create(rows2, [Fraction(0)] * d + [const2], in_dim=d)
        embeds[(m, "hi")] = embed2
        gluings.append(Gluing(f"cut{m}", f"arc{prev}", embed2))
    total = PolytopalComplex(polys, gluings)

    # the connection form, arc by arc, from the sorted-distance definition
    forms = {}
    for m in range(1, k + 1):
        acc = Form.zero(d + 1, 1)
        for j in range(1, k + 1):
            lam_c, lam_k = lam[j - 1]
            q_c, q_k = qs[j - 1]
            # phi_j = q_j - t (+ p when the vertex is behind the point);
            # the wrap constant has zero differential at fixed perimeter
            dphi = Form(d + 1, 1, dict(
                [((i,), Polynomial.constant(d + 1, q_c[i]))
                 for i in range(d) if q_c[i] != 0]
                + [((d,), Polynomial.constant(d + 1, -1))]))
            coeff = Polynomial.affine(list(lam_c) + [Fraction(0)], lam_k)
            acc = acc + dphi * coeff * Fraction(1, p * p)
        forms[f"arc{m}"] = acc
    for m in range(1, k + 1):
        forms[f"cut{m}"] = forms[f"arc{m}"].pullback(embeds[(m, "lo")])
    alpha = FormOnComplex(total, 1, forms)

    base = PolytopalComplex({"cell": cell.polytope}, [])
    proj = AffineMap.create(
        [[Fraction(1) if j == i else Fraction(0) for j in range(d + 1)]
         for i in range(d)], [Fraction(0)] * d, in_dim=d + 1)
    maps = []
    for m in range(1, k + 1):
        maps.append(MorphismMap(f"arc{m}", "cell", proj))
        maps.append(MorphismMap(f"cut{m}", "cell", AffineMap.identity(d)))
    projection = Morphism(total, base, maps)
    dirs = {f"arc{m}": [0] * d + [1] for m in range(1, k + 1)}
    return PolygonBundle(cell=cell, face=face, complex=total, alpha=alpha,
                         base=base, projection=projection,
                         fiber_directions=dirs)


def boundary_cells(g: StableRibbonGraph) -> list[tuple[int, StableRibbonGraph, bytes]]:
    """All admissible single-edge contractions with the face-label
    preserving identification, as (edge, contracted graph, class key)."""
    out = []
    for e in contractible_edges(g):
        child = contract_edge(g, e)
        out.append((e, child, canonical_key(child)))
    return out
