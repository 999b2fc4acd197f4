r"""Cells of the graph complex over fixed face perimeters.

For a graph class G with incidence matrix M (multiplicity of each edge in
each face), the cell over a perimeter vector p is the solution set
``{l > 0 : M l = p}``, carried here in an exact chart: solve the linear
system once, keep the free edge coordinates, and express every edge length
as an affine function of the chart.  What a cell contributes, and whether
it is empty, is decided by one pass over the bases of M
(:func:`basis_volume`).

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

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from math import factorial, lcm
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .linalg import adjugate, gauss_jordan, independent_rows
from .permgraph import FaceWord, StableRibbonGraph, face_word, faces

if TYPE_CHECKING:
    from .polyform import FormOnComplex, Morphism, PolytopalComplex, Polytope


class CellPolytope:
    """The fiber of a graph cell over fixed perimeters, in an exact chart.

    Over the free coordinates x, ``l_e(x) = directions[e] . x / delta +
    offsets[e] / (delta scale)`` on integers, delta = |det M_P| and scale
    the perimeters' common denominator; ``edge_charts[e]`` is its
    ``Fraction`` view ``(coeffs, const)``.  Empty cells keep their chart
    data but have ``polytope = None``.  ``chart_volume`` is the
    :func:`basis_volume` of the cell at ``p + (eps, eps^2, ...)``; it is
    what the cell contributes to an integral, and it can be non-zero on an
    empty cell whose point the perturbed perimeters hold.
    """

    def __init__(self, graph: StableRibbonGraph,
                 perimeters: tuple[Fraction, ...],
                 incidence: tuple[tuple[int, ...], ...],
                 free_edges: tuple[int, ...],
                 directions: tuple[tuple[int, ...], ...], delta: int,
                 offsets: Sequence[int], scale: int,
                 is_empty: bool, rank: int, chart_volume: Fraction):
        self.graph = graph
        self.perimeters = perimeters
        self.incidence = incidence
        self.free_edges = free_edges
        self.directions = directions
        self.delta = delta
        self.offsets = offsets
        self.scale = scale
        self.is_empty = is_empty
        self.rank = rank
        self.chart_volume = chart_volume

    @cached_property
    def edge_charts(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        d = self.delta
        return tuple((tuple(Fraction(c, d) for c in u), Fraction(k, d * self.scale))
                     for u, k in zip(self.directions, self.offsets))

    @cached_property
    def polytope(self) -> Polytope | None:
        """The H-description ``l_e > 0`` over the chart, or None on an
        empty cell; built on first read, so a cell that is only integrated
        or written as JSON never loads :mod:`ribboncells.polyform`."""
        if self.is_empty:
            return None
        from .polyform import HalfSpace, Polytope

        return Polytope(self.dim, tuple(
            HalfSpace(coeffs, const, strict=True)
            for coeffs, const in self.edge_charts))

    @property
    def dim(self) -> int:
        return len(self.free_edges)

    @property
    def rank_deficient(self) -> bool:
        return self.rank < len(self.perimeters)

    def interior_point(self) -> tuple[Fraction, ...]:
        """Centroid of the chart vertices; strictly positive when the cell
        is non-empty."""
        if self.polytope is None:
            raise ValueError("empty cell")
        if self.dim == 0:
            return ()
        vs = self.polytope.vertices()
        return tuple(sum(c, Fraction(0)) / len(vs) for c in zip(*vs))


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

    Emptiness at p is exact: the cell is empty when ``M l = p`` is
    inconsistent, when its :func:`basis_volume` is 0 (the closure is void
    or lower-dimensional), or when some edge length is a constant ``<= 0``
    on the whole chart; otherwise the closure is full-dimensional and its
    interior is positive in every edge.  So a single point on a wall (some
    ``l_e = 0``) is empty here even when the perturbed perimeters hold it
    and its chart volume is 1.

    Everything that depends neither on p nor on the face labels is read
    from the :func:`factorization` of the independent rows of M (the first
    maximal independent set in label order), sorted.  Relabelling the faces
    only permutes those rows, so every labelling of a structure shares one
    factorization; :func:`basis_volume` says why a row permutation changes
    nothing but the tie-break.  The cell then costs, in integers, ``T L p``,
    a check that the dependent rows hold at it, and one evaluation of the
    basis table, in which only the eps tie-break reads the labels.
    """
    g.require_valid()
    p = [Fraction(x) for x in perimeters]
    if len(p) != g.num_faces:
        raise ValueError(f"expected {g.num_faces} perimeters, got {len(p)}")
    if any(x <= 0 for x in p):
        raise ValueError("perimeters must be strictly positive")
    scale = lcm(*(x.denominator for x in p))
    P = [x.numerator * (scale // x.denominator) for x in p]
    M = incidence_matrix(g)
    E = g.num_edges
    rows = independent_rows(M)
    f = factorization(tuple(sorted(M[i] for i in rows)))
    at = {row: k for k, row in enumerate(f.rows)}
    order = [at[M[i]] for i in rows]
    q = [P[i] for _, i in sorted(zip(order, rows))]  # P on the sorted rows
    offsets = [0] * E  # the particular solution times delta L
    for col, t in zip(f.pivots, f.transform):
        offsets[col] = sum(a * b for a, b in zip(t, q))
    # every other row is a combination of the independent ones, so the
    # system is consistent exactly when those rows hold at the particular
    # solution too
    if any(sum(m * x for m, x in zip(M[i], offsets)) != P[i] * f.chart_det
           for i in range(len(M)) if i not in rows):
        return CellPolytope(g, tuple(p), M, (), (), 1, (), 1, True, E, Fraction(0))
    vol = basis_volume(f, q, scale, order)
    empty = vol == 0 or any(
        k <= 0 and not any(u) for u, k in zip(f.directions, offsets))
    return CellPolytope(g, tuple(p), M, f.free, f.directions, f.chart_det,
                        offsets, scale, empty, len(rows), vol)


class Factorization(NamedTuple):
    """The part of the cell pass that depends only on a matrix of
    independent incidence rows, shared by every labelling and perimeter
    vector whose independent rows sort to ``rows``.

    ``pivots`` and ``free`` are the basic and free columns of the reduced
    row echelon form ``R = T rows``.  ``transform`` is T and
    ``directions[e]`` the coefficients of ``l_e`` over the free coordinates,
    both as integer rows over ``chart_det = |det M_P|`` on the pivots.
    Each entry of ``bases`` belongs to one non-singular basis B and holds
    ``(adj, positive, y, weight)``: the integer adjugate of ``M_B``, whether
    ``D = det M_B > 0``, ``y = w_B adj`` and ``weight = denominator / den``
    with ``den = |D| prod_k (-r_k D)`` (see :func:`basis_volume`)."""

    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    free: tuple[int, ...]
    transform: tuple[tuple[int, ...], ...]
    directions: tuple[tuple[int, ...], ...]
    chart_det: int
    bases: tuple[tuple, ...]
    denominator: int


@lru_cache(maxsize=None)
def factorization(rows: tuple[tuple[int, ...], ...]) -> Factorization:
    """The :class:`Factorization` of linearly independent integer rows,
    computed once per distinct tuple.

    The weight ``w_e = K^e`` is generic: ``r_k D`` is ``w.z`` for the
    integer vector z with ``z_k = D``, ``z_B = -adj(M_B) M_k``, whose
    entries are n x n minors of columns of M.  A column of M has entries
    >= 0 summing to at most 2, so by Hadamard every minor is at most
    ``2^n < K`` in size, and ``sum_e z_e K^e = 0`` forces z = 0, which
    ``z_k = D != 0`` rules out."""
    n, E = len(rows), len(rows[0])
    # fraction-free Gauss-Jordan of [rows | I] ends with [a R | a T], a the
    # last pivot, which is +-det M_P (see gauss_jordan); keep both over |a|
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, delta, _ = gauss_jordan(m, E)
    if delta < 0:
        m, delta = [[-x for x in row] for row in m], -delta
    free = tuple(e for e in range(E) if e not in pivots)
    directions = [[0] * len(free) for _ in range(E)]
    for k, fc in enumerate(free):
        directions[fc][k] = delta
        for r, col in zip(m, pivots):
            directions[col][k] = -r[fc]
    K = 2 ** n + 1
    w = [K ** e for e in range(E)]
    bases = []
    for B in combinations(range(E), n):
        D, adj = adjugate([[row[j] for j in B] for row in rows])
        if not D:
            continue
        y = tuple(sum(w[j] * a[i] for j, a in zip(B, adj)) for i in range(n))
        den = abs(D)
        for k in range(E):
            if k not in B:
                den *= sum(yi * row[k] for yi, row in zip(y, rows)) - w[k] * D
        bases.append((tuple(map(tuple, adj)), D > 0, y, den))
    denominator = lcm(*(abs(den) for *_, den in bases))
    return Factorization(
        rows, tuple(pivots), free, tuple(tuple(r[E:]) for r in m),
        tuple(map(tuple, directions)), delta,
        tuple((adj, positive, y, denominator // den)
              for adj, positive, y, den in bases),
        denominator)


def basis_volume(f: Factorization, P: Sequence[int], scale: int,
                 order: Sequence[int]) -> Fraction:
    r"""Volume of ``{l >= 0 : M l = p}`` in the chart of the free edges,
    from the feasible bases of ``M`` at ``p + (eps, eps^2, ...)``.

    ``P`` are the integer perimeters ``L p``, L = ``scale``, of the rows
    of ``f`` in their sorted order; ``order`` lists the position in
    ``f.rows`` of each independent row in label order.  A basis B
    (|B| = n columns with ``D = det M_B != 0``) is feasible when every
    ``l_j = (M_B^{-1} (p + eps))_j`` is lexicographically positive: by its
    sign at p, and on a tie by its first non-zero response to the unit
    perimeter directions in label order (simulation of simplicity,
    Edelsbrunner-Muecke 1990).  Every feasible basis is then a simple
    vertex, and Lawrence's signed vertex formula (Math. Comp. 57, 1991) in
    the nonbasic coordinates of each vertex gives the volume

        sum_B (w.l_B)^d |det M_P| / (d! |det M_B| prod_{k notin B} (-r_k))

    with d = E - n, the reduced costs ``r_k = w_k - w_B M_B^{-1} M_k`` of
    a weight w, and ``|det M_P| / |det M_B|`` (``f.chart_det / |D|``) the
    Jacobian from the nonbasic to the chart coordinates.  Each term is
    taken at eps = 0, so by continuity the sum is the exact volume at p.  It is 1 for a
    zero-dimensional cell whose point is held and 0 when no basis is
    feasible; in every other case it is the volume of the closure at p.

    Only the tie-break reads the labels.  Permuting the rows of M_B by pi
    (and p alike) multiplies D by sign(pi) and permutes the columns of
    ``adj(M_B) = D M_B^{-1}`` by pi, times sign(pi).  So ``l_B = adj p / D``
    is unchanged, and so are ``w_B M_B^{-1}`` and every reduced cost; the
    term below has d factors ``-r_k D`` and the power ``(y.p)^d``, so the
    two sign(pi)^d cancel.  The response of ``l_j`` to the unit direction
    of a face is the entry of adj in that face's column, which is why the
    tie-break reads the columns through ``order``.

    Everything runs on integers (the volume at P is L^d that at p).  With
    ``D = det M_B``, ``l_B = adj P / D``, ``w.l_B = y.P / D`` with
    ``y = w_B adj``, and ``-r_k D = y.M_k - w_k D``, so each term is
    ``(y.P)^d / den`` with ``den = |D| prod_k (-r_k D)``, read over the
    common denominator of the factorization.
    """
    n, E = len(f.rows), len(f.rows[0])
    d = E - n
    total = 0
    for adj, positive, y, weight in f.bases:
        for row in adj:
            v = sum(a * x for a, x in zip(row, P))
            if not v:
                # adj is invertible, so each of its rows has a non-zero entry
                v = next(row[k] for k in order if row[k])
            if (v > 0) != positive:
                break
        else:
            total += sum(yi * x for yi, x in zip(y, P)) ** d * weight
    return Fraction(total * f.chart_det,
                    f.denominator * factorial(d) * scale ** d)


class PolygonFiber:
    """The boundary polygon of one face with given side lengths and a
    distinguished point at coordinate ``t``.

    Sides are listed in face-word order; ``t`` runs around the polygon in
    the opposite direction, from 0 to the perimeter.
    """

    def __init__(self, face: FaceWord, side_lengths: tuple[Fraction, ...],
                 t: Fraction = Fraction(0)):
        self.face = face
        self.side_lengths = side_lengths
        self.t = t

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

    @cached_property
    def perimeter(self) -> Fraction:
        return sum(self.side_lengths, Fraction(0))

    def traversal_lengths(self) -> tuple[Fraction, ...]:
        """Side lengths in the direction of increasing t (the reversed
        face word)."""
        return tuple(reversed(self.side_lengths))

    @cached_property
    def vertex_positions(self) -> tuple[Fraction, ...]:
        """t-coordinates of the polygon vertices, starting at 0."""
        return tuple(accumulate(self.traversal_lengths()[:-1],
                                initial=Fraction(0)))

    def vertex_distances(self, t: Fraction | None = None
                         ) -> tuple[tuple[Fraction, Fraction], ...]:
        """Sorted pairs (phi_i, following side length) as seen from the
        distinguished point, or from the point at ``t`` when given.  The
        vertex positions increase from 0, so in sorted order the distances
        start at the first vertex at or past the point and wrap around."""
        p = self.perimeter
        t = (self.t if t is None else t) % p
        qs, lam = self.vertex_positions, self.traversal_lengths()
        i = bisect_left(qs, t)
        wrapped = t - p
        return tuple([(q - t, x) for q, x in zip(qs[i:], lam[i:])]
                     + [(q - wrapped, x) for q, x in zip(qs[:i], lam[:i])])


def fiber_integral_alpha(fiber: PolygonFiber) -> Fraction:
    """Exact integral of the connection form over the polygon fiber, in one
    pass over the vertices.

    Number the vertices by their positions ``q_m`` and let ``phi_m(t)`` be
    the distance from the point at t to vertex m, and ``lambda_m`` the side
    that follows it.  Measured against t (as
    :meth:`PolygonFiber.vertex_distances` does) it is ``(q_m - t) mod p``,
    measured along t ``(t - q_m) mod p``; either way it changes at one rate
    ``r_m`` (-1 or +1) and jumps by ``p`` at ``t = q_m``, where the point
    passes the vertex, so on each arc between consecutive vertices it is
    affine with rate ``r_m``.  The sorted order of the distances is fixed
    on an arc, and each sorted pair ``(phi_i, lambda_i)`` belongs to one
    vertex, so on every arc the t-component of alpha is

        sum_i lambda_i phi_i' / p^2 = sum_m lambda_m r_m / p^2,

    the same constant: a later arc only rotates the sorted order.  The form
    is integrated piecewise over the arcs, so the jumps add nothing, and
    over the whole fiber, of length p, the integral is
    ``sum_m lambda_m r_m / p``.  The rates are read from
    :meth:`PolygonFiber.vertex_distances` at a quarter and three quarters
    of the first arc, ``[q_0, q_1]``: two calls, O(k) work."""
    p = fiber.perimeter
    qs = fiber.vertex_positions + (p,)
    quarter = qs[1] / 4
    at1 = fiber.vertex_distances(quarter)
    at2 = fiber.vertex_distances(qs[1] - quarter)
    # each rate is (phi(t2) - phi(t1)) / (2 quarter)
    total = sum((lam * (phi2 - phi1) for (phi1, lam), (phi2, _)
                 in zip(at1, at2)), Fraction(0))
    return total / (2 * quarter * p)


class PolygonBundle(NamedTuple):
    """The polygon bundle of one face over a cell: a polytopal complex in
    coordinates (chart of the cell, t) with the connection form, plus the
    projection morphism to the cell, whose target is the base complex."""

    cell: CellPolytope
    face: FaceWord
    complex: PolytopalComplex
    alpha: FormOnComplex
    projection: Morphism
    fiber_directions: dict

    def arc_names(self) -> list[str]:
        return [n for n in self.complex.polytopes if n.startswith("arc")]


def polygon_bundle(cell: CellPolytope, face_label: int) -> PolygonBundle:
    """Build the fiber-times-cell region of one face, decomposed by which
    side carries the distinguished point, with the connection form on it.
    Every piece that is the cell itself is ``cell.polytope``, one object,
    so its vertices are enumerated once."""
    from .polyform import (AffineMap, Form, FormOnComplex, Gluing, HalfSpace,
                           Morphism, MorphismMap, Polynomial, Polytope,
                           PolytopalComplex)

    if cell.is_empty:
        raise ValueError("cannot build a bundle over an empty cell")
    face = face_word(cell.graph, face_label)
    d = cell.dim
    k = face.degree
    p = cell.perimeters[face_label - 1]

    # side lengths in traversal order of t, affine in the chart
    lam = [cell.edge_charts[e] for e in reversed(face.edges)]
    # vertex positions q_0 = 0, ..., q_k = p, affine in the chart
    qs = [((Fraction(0),) * d, Fraction(0))]
    for coeffs, const in lam:
        prev_c, prev_k = qs[-1]
        qs.append((tuple(a + b for a, b in zip(prev_c, coeffs)), prev_k + const))
    if qs[k] != ((Fraction(0),) * d, p):
        raise AssertionError("side lengths do not add up to the perimeter")
    # the cell at t = q_j(x), one embedding per vertex position
    eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    at = [AffineMap.create(eye + [list(c)], [Fraction(0)] * d + [const], in_dim=d)
          for c, const in qs]

    lifted = tuple(HalfSpace(h.coeffs + (Fraction(0),), h.const, h.strict)
                   for h in cell.polytope.halfspaces)
    polys = {}
    gluings = []
    for m in range(1, k + 1):
        (lo_c, lo_k), (hi_c, hi_k) = qs[m - 1], qs[m]
        # q_{m-1}(x) <= t <= q_m(x)
        polys[f"arc{m}"] = Polytope(d + 1, lifted + (
            HalfSpace(tuple(-c for c in lo_c) + (Fraction(1),), -lo_k),
            HalfSpace(hi_c + (Fraction(-1),), hi_k)))
    for m in range(1, k + 1):
        polys[f"cut{m}"] = cell.polytope
        gluings.append(Gluing(f"cut{m}", f"arc{m}", at[m - 1]))
        # the cut closing arc m - 1, or arc k at t = p
        prev = m - 1 if m > 1 else k
        gluings.append(Gluing(f"cut{m}", f"arc{prev}", at[prev]))
    total = PolytopalComplex(polys, gluings)

    # the connection form from the sorted-distance definition; it is the
    # same on every arc, since the wrap constant has zero differential
    connection = Form.zero(d + 1, 1)
    for (lam_c, lam_k), (q_c, _) in zip(lam, qs):
        # phi_j = q_j - t (+ p when the vertex is behind the point)
        dphi = Form(d + 1, 1, dict(
            [((i,), Polynomial.constant(d + 1, q_c[i]))
             for i in range(d) if q_c[i] != 0]
            + [((d,), Polynomial.constant(d + 1, -1))]))
        coeff = Polynomial.affine(list(lam_c) + [Fraction(0)], lam_k)
        connection = connection + dphi * coeff * Fraction(1, p * p)
    forms = {f"arc{m}": connection for m in range(1, k + 1)}
    for m in range(1, k + 1):
        forms[f"cut{m}"] = connection.pullback(at[m - 1])
    alpha = FormOnComplex(total, 1, forms)

    proj = AffineMap.create([row + [Fraction(0)] for row in eye],
                            [Fraction(0)] * d, in_dim=d + 1)
    maps = []
    for m in range(1, k + 1):
        maps.append(MorphismMap(f"arc{m}", "cell", proj))
        maps.append(MorphismMap(f"cut{m}", "cell", AffineMap.identity(d)))
    projection = Morphism(
        total, PolytopalComplex({"cell": cell.polytope}, []), maps)
    dirs = {f"arc{m}": [0] * d + [1] for m in range(1, k + 1)}
    return PolygonBundle(cell=cell, face=face, complex=total, alpha=alpha,
                         projection=projection, fiber_directions=dirs)
