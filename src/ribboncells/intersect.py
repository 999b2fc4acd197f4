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
antisymmetric matrix A_i, and (sum_i t_i omega_i)^D / D! = Pf(sum_i t_i
A_i) dx_1 ... dx_2D (Kontsevich 1992, section 2).  With the chart rows
integers over delta = |det M_P|, B_i = (delta p_i)^2 A_i is an integer
matrix that does not depend on p, built once per cell from a prefix sum
over the face word.  The cell coefficient is the multilinear part of
Pf(sum_i t_i B_i), grouped by copies per face, over delta^2D prod p_i^2d_i.

Cells are oriented so that ``(sum_i p_i^2 omega_i)^D``, the Pfaffian of
the p-free sum_i B_i over delta^2D, is positive; the overall normalization
makes the (0, 3) number equal to 1 and is then fixed once and for all.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod
from typing import NamedTuple, Sequence

from .cells import CellPolytope, cell_polytope
from .enumeration import (GraphClass, automorphisms, enumerate_trivalent,
                          require_enumerable, require_stable)
from .linalg import pfaffian
from .permgraph import face_word


class QueryError(ValueError):
    pass


class OrientationError(ValueError):
    """The reference volume form vanished on a cell; the orientation
    convention cannot decide a sign and guessing is not allowed."""


def integer_curvature(cell: CellPolytope, face_label: int) -> list[list[int]]:
    """The integer matrix ``B = (delta p)^2 A`` of one face's curvature
    form ``omega = sum_{j<k} A[j][k] dx_j ^ dx_k`` in the cell chart.

    With u_b the integer chart row of side b and U_b the sum of the rows
    before it, B = sum_{b<k-1} (U_b u_b^T - u_b U_b^T), so one prefix sum
    over the face word suffices.  B does not depend on p, nor on which side
    is taken first, because the rows of all k sides sum to 0 on the chart."""
    if not cell.chart_volume:
        raise ValueError("cell is empty at p + (eps, eps^2, ...)")
    word = face_word(cell.graph, face_label)
    d = cell.dim
    prefix = [0] * d
    # half[j][k] = sum_b U_b[j] u_b[k]; B is its antisymmetric part
    half = [[0] * d for _ in range(d)]
    for e in word.edges[:-1]:
        nonzero = [(k, c) for k, c in enumerate(cell.directions[e]) if c]
        for row, x in zip(half, prefix):
            if x:
                for k, c in nonzero:
                    row[k] += x * c
        for k, c in nonzero:
            prefix[k] += c
    return [[half[j][k] - half[k][j] for k in range(d)] for j in range(d)]


def omega(cell: CellPolytope, face_label: int) -> list[list[Fraction]]:
    """The ``Fraction`` matrix ``A = B / (delta p)^2`` of one face's
    curvature form, B from :func:`integer_curvature`."""
    B = integer_curvature(cell, face_label)  # first, so a bad label raises
    scale = 1 / (cell.delta * cell.perimeters[face_label - 1]) ** 2
    return [[x * scale for x in row] for row in B]


def _combination(mats, weights) -> list[list]:
    """``sum_i weights[i] * mats[i]``, skipping zero weights."""
    d = len(mats[0])
    out = [[0] * d for _ in range(d)]
    for w, m in zip(weights, mats):
        if w:
            out = [[a + w * x for a, x in zip(ra, rm)] for ra, rm in zip(out, m)]
    return out


def restrict_to_cell(mats: Sequence, exponents: Sequence[int]) -> Fraction:
    """Top coefficient of ``prod_i omega_i^{d_i}`` in the cell chart, from
    the chart matrices A_i of the faces and the exponents d_i.

    The product of D = sum d_i forms is the coefficient of t_1 ... t_D in
    (sum_k t_k omega_k)^D / D! = Pf(sum_k t_k A_k) dx_1 ... dx_2D, one
    factor per copy.  By inclusion-exclusion that multilinear coefficient
    is the sum, over the subsets of the copies, of
    (-1)^(D-|S|) Pf(sum_{k in S} A_k); a subset holding s_i copies of face
    i stands for prod_i C(d_i, s_i) of them, so only prod_i (d_i + 1)
    Pfaffians are taken.  The coefficient is linear in each copy, so the
    integer matrices ``B_i = (delta p_i)^2 A_i`` give
    ``delta^2D prod_i p_i^(2 d_i)`` times it (see :func:`integrate_cell`)."""
    d = len(mats[0])
    D = sum(exponents)
    if 2 * D != d:
        raise ValueError(
            f"product of {D} two-forms has degree {2 * D}, "
            f"cell dimension is {d}")
    total = Fraction(0)
    for s in product(*(range(k + 1) for k in exponents)):
        term = prod(comb(k, j) for k, j in zip(exponents, s)) \
            * pfaffian(_combination(mats, s))
        total += -term if (D - sum(s)) % 2 else term
    return total


def orientation_sign(mats: Sequence) -> int:
    """Sign of ``(sum_i p_i^2 omega_i)^D / D! = Pf(sum_i p_i^2 A_i)`` from
    the integer matrices ``B_i = (delta p_i)^2 A_i``; +1 on a
    zero-dimensional cell, whose Pfaffian is that of the empty matrix.  An
    odd-dimensional cell has Pfaffian 0 and, like any other degenerate one,
    raises.  No perimeters are needed: ``p_i^2 omega_i = sum_{a<b<=k-1}
    dl_a ^ dl_b`` is p-free, with matrix ``B_i / delta^2``."""
    pf = pfaffian(_combination(mats, [1] * len(mats)))
    if pf == 0:
        raise OrientationError(
            "reference form degenerate on this cell; refusing to guess a sign")
    return 1 if pf > 0 else -1


class IntersectionQuery(NamedTuple):
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
    # a malformed list is a usage error, like a malformed perimeter list
    # below; only a well-formed list with the wrong sum is a QueryError
    if n < 1 or any(x < 0 for x in d):
        raise ValueError("need one non-negative exponent per face")
    # an unstable (g, n) is refused as such, whatever the exponents sum to
    require_stable(genus, n)
    target = 3 * genus - 3 + n
    if sum(d) != target:
        raise QueryError(
            f"exponents sum to {sum(d)}, expected 3g-3+n = {target}")
    require_enumerable(genus, n)
    p = tuple(Fraction(x) for x in perimeters) if perimeters is not None \
        else default_perimeters(n)
    # a usage error, as in ``cell_polytope``, not a QueryError
    if len(p) != n or any(x <= 0 for x in p):
        raise ValueError("need one positive perimeter per face")
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


class CellContribution(NamedTuple):
    key: bytes
    aut_order: int
    empty: bool
    orientation: int
    coefficient: Fraction
    chart_volume: Fraction
    contribution: Fraction


class IntersectionResult(NamedTuple):
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
    if cell.rank_deficient:
        raise ValueError("rank-deficient incidence matrix over these perimeters")
    mats = [integer_curvature(cell, i) for i in range(1, g.num_faces + 1)]
    sign = orientation_sign(mats)
    coeff = restrict_to_cell(mats, query.exponents) / (
        cell.delta ** cell.dim
        * prod(p ** (2 * d) for p, d in zip(query.perimeters, query.exponents)))
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
