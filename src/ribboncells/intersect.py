r"""Curvature 2-forms on cells, orientation, and exact intersection numbers.

Each face i of a graph class carries the constant 2-form

    omega_i = (1/p_i^2) sum_{a<b<=k-1} dl_{e_a} ^ dl_{e_b}

over the first k-1 sides of its face word (an edge bordering the face
twice contributes the same differential twice, killing its own wedge
terms).  Restricted to a top cell over fixed perimeters, the product
``omega_1^{d_1} ... omega_n^{d_n}`` is a constant multiple of the chart
volume form; summing ``sign * coefficient * volume / |Aut|`` over all
trivalent classes yields the intersection number, independent of the
perimeters chosen.  The volume is the cell's ``chart_volume``, taken at
``p + (eps, eps^2, ...)`` so that on a wall exactly one of the cells
meeting there counts each point; no vertex enumeration or triangulation
is involved.

Every omega_i is constant, so in the 2D-dimensional chart it is an
antisymmetric matrix A_i, and (sum_i t_i omega_i)^D / D! =
Pf(sum_i t_i A_i) dx_1 ... dx_2D (Kontsevich 1992, section 2).  The cell
coefficient is the multilinear part of that Pfaffian, and no polynomial
algebra is needed.

Cells are oriented so that ``(sum_i p_i^2 omega_i)^D``, that is the
Pfaffian of ``sum_i p_i^2 A_i``, is positive; the overall normalization
makes the (0, 3) number equal to 1 and is then fixed once and for all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cells import CellPolytope, cell_polytope
from .enumeration import GraphClass, automorphisms, enumerate_trivalent
from .linalg import pfaffian
from .permgraph import StableRibbonGraph, faces


class QueryError(ValueError):
    pass


class OrientationError(ValueError):
    """The reference volume form vanished on a cell; the orientation
    convention cannot decide a sign and guessing is not allowed."""


@dataclass(frozen=True)
class OmegaForm:
    """Constant curvature 2-form of one face, as an antisymmetric edge-pair
    matrix scaled by the inverse squared perimeter."""

    face_label: int
    num_edges: int
    pairs: tuple[tuple[tuple[int, int], Fraction], ...]


def omega(g: StableRibbonGraph, face_label: int, perimeters: Sequence,
          start_side: int = 0) -> OmegaForm:
    """The curvature form of one face; ``start_side`` rotates which side of
    the face word is taken first (the restriction to any cell chart is
    independent of that choice, modulo the perimeter relation)."""
    g.require_valid()
    p = [Fraction(x) for x in perimeters]
    if len(p) != g.num_faces:
        raise ValueError(f"expected {g.num_faces} perimeters")
    word = next(w for w in faces(g) if w.label == face_label)
    k = word.degree
    edges = word.edges[start_side:] + word.edges[:start_side]
    scale = Fraction(1) / (p[face_label - 1] ** 2)
    acc: dict[tuple[int, int], Fraction] = {}
    for a in range(k - 1):
        for b in range(a + 1, k - 1):
            ea, eb = edges[a], edges[b]
            if ea == eb:
                continue
            key, sgn = ((ea, eb), 1) if ea < eb else ((eb, ea), -1)
            acc[key] = acc.get(key, Fraction(0)) + sgn * scale
    pairs = tuple(sorted((k2, v) for k2, v in acc.items() if v != 0))
    return OmegaForm(face_label=face_label, num_edges=g.num_edges, pairs=pairs)


def chart_matrix(form: OmegaForm, cell: CellPolytope) -> list[list[Fraction]]:
    """The antisymmetric d x d matrix A of the 2-form in the cell's
    free-coordinate chart, ``form = sum_{j<k} A[j][k] dx_j ^ dx_k``, from
    the chart differentials dl_e = sum_j coeffs[e][j] dx_j."""
    d = cell.dim
    m = [[Fraction(0)] * d for _ in range(d)]
    for (a, b), c in form.pairs:
        ca, cb = cell.edge_charts[a][0], cell.edge_charts[b][0]
        for j in range(d):
            for k in range(d):
                m[j][k] += c * (ca[j] * cb[k] - ca[k] * cb[j])
    return m


def _matrix_sum(mats) -> list[list[Fraction]]:
    """Entrywise sum of equally sized matrices."""
    return [[sum(xs, Fraction(0)) for xs in zip(*rows)] for rows in zip(*mats)]


def restrict_to_cell(forms: Sequence[OmegaForm], cell: CellPolytope) -> Fraction:
    """Top coefficient of the wedge product of the given 2-forms in the
    cell's free-coordinate chart.

    With A_k the chart matrix of the k-th of D forms, the product is the
    coefficient of t_1 ... t_D in (sum_k t_k omega_k)^D / D! =
    Pf(sum_k t_k A_k) dx_1 ... dx_2D.  By inclusion-exclusion that
    multilinear coefficient is the sum, over the subsets S of the factors,
    of (-1)^(D-|S|) Pf(sum_{k in S} A_k)."""
    if not cell.chart_volume:
        raise ValueError("cell is empty at p + (eps, eps^2, ...)")
    d = cell.dim
    D = len(forms)
    if 2 * D != d:
        raise ValueError(
            f"product of {D} two-forms has degree {2 * D}, "
            f"cell dimension is {d}")
    if cell.rank_deficient:
        raise ValueError("rank-deficient incidence matrix over these perimeters")
    if not forms:
        return Fraction(1)
    mats = {f: chart_matrix(f, cell) for f in set(forms)}
    total = Fraction(0)
    # the empty subset contributes Pf(0) = 0
    for mask in range(1, 1 << D):
        chosen = [mats[f] for k, f in enumerate(forms) if mask >> k & 1]
        pf = pfaffian(_matrix_sum(chosen))
        total += -pf if (D - len(chosen)) % 2 else pf
    return total


def orientation_sign(g: StableRibbonGraph, perimeters: Sequence,
                     cell: CellPolytope | None = None) -> int:
    """Sign of ``(sum_i p_i^2 omega_i)^D / D! = Pf(sum_i p_i^2 A_i)`` in the
    cell chart; +1 for zero-dimensional cells by convention."""
    if cell is None:
        cell = cell_polytope(g, perimeters)
    if not cell.chart_volume:
        raise ValueError("a cell empty at p + (eps, eps^2, ...) has no orientation")
    if cell.dim % 2 != 0:
        raise OrientationError("odd-dimensional cell cannot be oriented here")
    if cell.dim == 0:
        return 1
    if cell.rank_deficient:
        raise ValueError("rank-deficient incidence matrix over these perimeters")
    # p_i^2 omega_i is the curvature form at unit perimeters
    unit = [1] * g.num_faces
    pf = pfaffian(_matrix_sum([chart_matrix(omega(g, i, unit), cell)
                               for i in range(1, g.num_faces + 1)]))
    if pf == 0:
        raise OrientationError(
            "reference form degenerate on this cell; refusing to guess a sign")
    return 1 if pf > 0 else -1


@dataclass(frozen=True)
class IntersectionQuery:
    genus: int
    exponents: tuple[int, ...]
    perimeters: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.exponents)


def make_query(genus: int, exponents: Sequence[int],
               perimeters: Sequence | None = None) -> IntersectionQuery:
    d = tuple(int(x) for x in exponents)
    n = len(d)
    if n < 1 or any(x < 0 for x in d):
        raise QueryError("exponents must be non-negative, one per face")
    target = 3 * genus - 3 + n
    if sum(d) != target:
        raise QueryError(
            f"exponents sum to {sum(d)}, expected 3g-3+n = {target}")
    p = tuple(Fraction(x) for x in perimeters) if perimeters is not None \
        else default_perimeters(n)
    if len(p) != n or any(x <= 0 for x in p):
        raise QueryError("need one positive perimeter per face")
    return IntersectionQuery(genus, d, p)


def default_perimeters(n: int) -> tuple[Fraction, ...]:
    """Distinct primes, to stay clear of boundary coincidences."""
    primes = []
    x = 3
    while len(primes) < n:
        if all(x % q for q in range(2, x)):
            primes.append(Fraction(x))
        x += 1
    return tuple(primes)


@dataclass(frozen=True)
class CellContribution:
    key: bytes
    aut_order: int
    empty: bool
    orientation: int
    coefficient: Fraction
    chart_volume: Fraction
    contribution: Fraction


@dataclass(frozen=True)
class IntersectionResult:
    query: IntersectionQuery
    value: Fraction
    cells: tuple[CellContribution, ...]


@lru_cache(maxsize=None)
def _trivalent_classes(genus: int, n: int) -> tuple[GraphClass, ...]:
    return tuple(enumerate_trivalent(genus, n))


def integrate_cell(cls: GraphClass, query: IntersectionQuery) -> CellContribution:
    """Exact contribution of one trivalent class to the query.  The chart
    volume is the cell's at ``p + (eps, eps^2, ...)``, so on a wall exactly
    one of the cells meeting there counts each point; a cell of volume 0
    is reported empty."""
    g = cls.graph
    cell = cell_polytope(g, query.perimeters)
    aut = automorphisms(g).order
    vol = cell.chart_volume
    if vol == 0:
        return CellContribution(cls.key, aut, True, 1,
                                Fraction(0), Fraction(0), Fraction(0))
    form_list = []
    for i, d_i in enumerate(query.exponents, start=1):
        form_list.extend([omega(g, i, query.perimeters)] * d_i)
    sign = orientation_sign(g, query.perimeters, cell)
    coeff = restrict_to_cell(form_list, cell)
    contribution = sign * coeff * vol / aut
    return CellContribution(cls.key, aut, False, sign, coeff, vol, contribution)


def intersection_number(genus: int, exponents: Sequence[int],
                        perimeters: Sequence | None = None) -> IntersectionResult:
    """Sum of the top-cell integrals: the exact rational intersection
    number of the query, with the per-cell ledger."""
    query = make_query(genus, exponents, perimeters)
    classes = _trivalent_classes(genus, query.n)
    cells = tuple(integrate_cell(c, query) for c in classes)
    total = sum((c.contribution for c in cells), Fraction(0))
    return IntersectionResult(query=query, value=total, cells=cells)


def check_p_independence(genus: int, exponents: Sequence[int],
                         trials: Sequence[Sequence] ) -> list[IntersectionResult]:
    """Evaluate the same query at several perimeter vectors; the values
    must agree exactly."""
    results = [intersection_number(genus, exponents, p) for p in trials]
    values = {r.value for r in results}
    if len(values) != 1:
        raise ArithmeticError(
            f"intersection number depends on perimeters: {sorted(values)}")
    return results
