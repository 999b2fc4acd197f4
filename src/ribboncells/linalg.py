"""Exact linear algebra over the rationals: elimination, solving,
nullspaces, independent rows, determinants, integer adjugates and
Pfaffians.  Matrices are lists of lists of Fractions (of ints for
:func:`adjugate`); nothing here is meant for large systems."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _as_matrix(rows: Sequence[Sequence]) -> Matrix:
    """A fresh copy of ``rows``, which the callers mutate; ``Fraction``
    entries are immutable and kept as they are, others converted."""
    return [[x if type(x) is Fraction else Fraction(x) for x in row]
            for row in rows]


def row_reduce(rows: Sequence[Sequence], rhs: Sequence[Sequence] | None = None):
    """Reduced row echelon form of ``rows`` (and the same operations applied
    to ``rhs``).  Returns (rref, rhs', pivot column list)."""
    m = _as_matrix(rows)
    r = _as_matrix(rhs) if rhs is not None else [[] for _ in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        r[row], r[piv] = r[piv], r[row]
        f = m[row][col]
        m[row] = [x / f for x in m[row]]
        r[row] = [x / f for x in r[row]]
        for i in range(nrows):
            if i != row and m[i][col] != 0:
                g = m[i][col]
                m[i] = [a - g * b for a, b in zip(m[i], m[row])]
                r[i] = [a - g * b for a, b in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, r, pivots


def solve_affine(rows: Sequence[Sequence], rhs: Sequence):
    """Solve ``rows . x = rhs`` exactly.

    Returns ``None`` when inconsistent, else ``(particular, basis, free)``:
    a particular solution, a basis of the homogeneous nullspace, and the
    indices of the free columns.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    m, r, pivots = row_reduce(rows, [[Fraction(x)] for x in rhs])
    rank = len(pivots)
    for i in range(rank, nrows):
        if r[i] and r[i][0] != 0:
            return None
    free = [c for c in range(ncols) if c not in pivots]
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = r[i][0]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -m[i][fc]
        basis.append(vec)
    return particular, basis, free


def solve_unique(rows: Sequence[Sequence], rhs: Sequence) -> Vector | None:
    """Solution of a system expected to pin every variable; ``None`` when
    inconsistent or underdetermined."""
    sol = solve_affine(rows, rhs)
    if sol is None or sol[1]:
        return None
    return sol[0]


def nullspace(rows: Sequence[Sequence]) -> list[Vector]:
    sol = solve_affine(rows, [Fraction(0)] * len(rows))
    return sol[1]


def independent_rows(rows: Sequence[Sequence]) -> list[int]:
    """Indices of the first maximal set of linearly independent rows, in
    row order: a row is kept when it is not a combination of the kept rows
    before it.  Each row is eliminated against the echelon form of the kept
    ones by cross-multiplication, with no division, so integer rows stay
    integers."""
    echelon: list[tuple[int, list]] = []
    kept = []
    for i, row in enumerate(rows):
        v = list(row)
        for c, b in echelon:
            if v[c]:
                v = [b[c] * x - v[c] * y for x, y in zip(v, b)]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            echelon.append((c, v))
            kept.append(i)
    return kept


def rank(rows: Sequence[Sequence]) -> int:
    return len(independent_rows(rows))


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free elimination (Bareiss, Math. Comp. 22,
    1968).  Each row is scaled to integers by the least common multiple of
    its denominators, the integer matrix is eliminated with exact integer
    divisions, and the product of the row scales is divided back out."""
    m = []
    scale = 1
    for row in rows:
        xs = [x if isinstance(x, (int, Fraction)) else Fraction(x)
              for x in row]
        k = lcm(*(x.denominator for x in xs))
        m.append([x.numerator * (k // x.denominator) for x in xs])
        scale *= k
    n = len(m)
    sign, prev = 1, 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        top = m[col]
        a = top[col]
        # every entry of the trailing block is a minor of the input, so
        # the division by the previous pivot is exact
        for row in m[col + 1:]:
            b = row[col]
            for j in range(col + 1, n):
                row[j] = (a * row[j] - b * top[j]) // prev
        prev = a
    return Fraction(sign * prev, scale)


def adjugate(rows: Sequence[Sequence[int]]
             ) -> tuple[int, list[list[int]] | None]:
    """Determinant and adjugate of a square integer matrix S, so that
    ``S adj = adj S = det I``, by fraction-free Gauss-Jordan elimination
    of ``[S | I]``; the adjugate is ``None`` when ``det = 0``.

    Step k takes a non-zero pivot a_k in column k at or below row k (a row
    swap flips the sign) and replaces every other row by
    ``(a_k row - row[k] pivot_row) / a_{k-1}``, with a_{-1} = 1.  The
    division is exact.  A swap at step k exchanges two rows that every
    earlier step treated alike, so the run is that of a swap-free
    elimination of ``Q [S | I]`` for one row permutation Q.  For that
    matrix, after step k, entry (i, j) is the minor on rows {0..k, i} and
    columns {0..k, j} when i > k (Sylvester's identity, as in Bareiss's
    determinant), and for i <= k it is the minor on rows {0..k} and
    columns {0..k} with column i replaced by column j (Cramer's rule on
    the leading block).  Both are integer determinants.  At the end the
    left block is ``a I`` with ``a = det(Q S)``, and the right block is
    the row-operation product itself, ``a (Q S)^-1 Q = a S^-1``; the
    sign of Q turns a into det S and the block into adj S."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        a = top[k]
        for i, row in enumerate(m):
            if i != k:
                b = row[k]
                m[i] = [(a * x - b * y) // prev for x, y in zip(row, top)]
        prev = a
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def pfaffian(rows: Sequence[Sequence]) -> Fraction:
    """Pfaffian of an antisymmetric matrix by skew elimination (exact,
    cubic in the size; 0 for odd sizes).

    Step k splits off the 2x2 block at ``k, k+1`` with pivot
    ``a = A[k][k+1]``: Pf(A) = a * Pf(B + (y x^T - x y^T) / a), where x and
    y are rows k and k+1 past the block and B is the trailing block.  When
    the pivot is 0, index k+1 is swapped with a later index whose entry in
    row k is not, which flips the sign."""
    m = _as_matrix(rows)
    n = len(m)
    if n % 2:
        return Fraction(0)
    out = Fraction(1)
    for k in range(0, n, 2):
        piv = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k + 1:
            m[k + 1], m[piv] = m[piv], m[k + 1]
            for row in m:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            out = -out
        a = m[k][k + 1]
        out *= a
        x, y = m[k], m[k + 1]
        for i in range(k + 2, n):
            yi, xi = y[i] / a, x[i] / a
            if yi == 0 and xi == 0:
                continue
            row = m[i]
            for j in range(k + 2, n):
                row[j] += yi * x[j] - xi * y[j]
    return out
