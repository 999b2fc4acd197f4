"""Exact linear algebra by integer, fraction-free elimination: echelon
forms, solving, nullspaces, independent rows, determinants, integer
adjugates and Pfaffians.  Rows are scaled to integers by the least common
multiple of their denominators, each step divides exactly by the previous
pivot (Bareiss, Math. Comp. 22, 1968), and results are ``Fraction``s (ints
from :func:`adjugate`).  Nothing here is meant for large systems."""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

Vector = list[Fraction]


def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Each row times the least common multiple of its denominators, as a
    fresh integer matrix, and those multipliers."""
    m, scales = [], []
    for row in rows:
        xs = [x if isinstance(x, (int, Fraction)) else Fraction(x)
              for x in row]
        k = lcm(*(x.denominator for x in xs))
        m.append([x.numerator * (k // x.denominator) for x in xs])
        scales.append(k)
    return m, scales


def gauss_jordan(m: list[list[int]], ncols: int
                  ) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer matrix ``m``
    in place, pivoting in its first ``ncols`` columns.  Returns the pivot
    columns, the last pivot and the sign of the row swaps.

    Step k takes the next column c with a non-zero entry at or below row k
    (columns with none are skipped), swaps that row up to row k, and
    replaces every other row by ``(a_k row - row[c] pivot_row) / a_{k-1}``,
    with a_k = m[k][c] and a_{-1} = 1.  A swap at step k exchanges two rows
    that every earlier step treated alike, so the run is that of a
    swap-free elimination of ``Q m`` for a row permutation Q.  For that
    matrix, after step k, with P the pivot columns so far, entry (i, j) is
    the minor on rows {0..k, i} and columns P + {j} when i > k (Sylvester's
    identity), and for i <= k it is the minor on rows {0..k} and columns P
    with the i-th of them replaced by column j (Cramer's rule).  Both are
    integers, so every division is exact.  At the end each pivot row holds
    the last pivot a at its own pivot column and 0 at the others, and
    ``sign * a`` is the determinant of a square matrix of full rank."""
    nrows = len(m)
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        k = len(pivots)
        piv = next((i for i in range(k, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        a = top[col]
        for i, row in enumerate(m):
            if i != k:
                b = row[col]
                m[i] = [(a * x - b * y) // prev for x, y in zip(row, top)]
        pivots.append(col)
        prev = a
    return pivots, prev, sign


def row_reduce(rows: Sequence[Sequence], rhs: Sequence[Sequence] | None = None):
    """Reduced row echelon form of ``rows`` (and the same operations applied
    to ``rhs``).  Returns (rref, rhs', pivot column list).  Past the rank,
    a row of rhs' is the exact residual times its row's integer scale, so
    it is fit only for a zero test."""
    ncols = len(rows[0]) if rows else 0
    if rhs is not None:
        rows = [list(a) + list(b) for a, b in zip(rows, rhs)]
    m, _ = _integer_rows(rows)
    pivots, a, _ = gauss_jordan(m, ncols)
    rref = [[Fraction(x, a) for x in row] for row in m]
    return ([row[:ncols] for row in rref], [row[ncols:] for row in rref],
            pivots)


def solve_affine(rows: Sequence[Sequence], rhs: Sequence):
    """Solve ``rows . x = rhs`` exactly.

    Returns ``None`` when inconsistent, else ``(particular, basis, free)``:
    a particular solution, a basis of the homogeneous nullspace, and the
    indices of the free columns.
    """
    ncols = len(rows[0]) if rows else 0
    m, r, pivots = row_reduce(rows, [[x] for x in rhs])
    if any(row[0] for row in r[len(pivots):]):
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
    sol = solve_affine(rows, [0] * len(rows))
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
    """Determinant of a square matrix: that of its rows scaled to
    integers, divided by the product of the row scales."""
    m, scales = _integer_rows(rows)
    pivots, a, sign = gauss_jordan(m, len(m))
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction(sign * a, prod(scales))


def adjugate(rows: Sequence[Sequence[int]]
             ) -> tuple[int, list[list[int]] | None]:
    """Determinant and adjugate of a square integer matrix S, so that
    ``S adj = adj S = det I``; the adjugate is ``None`` when ``det = 0``.

    Gauss-Jordan elimination of ``[S | I]`` ends with the left block
    ``a I``, ``a = det(Q S)`` for the row permutation Q of its swaps, and
    the right block is the row-operation product itself,
    ``a (Q S)^-1 Q = a S^-1``; the sign of Q turns a into det S and the
    block into adj S."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    pivots, a, sign = gauss_jordan(m, n)
    if len(pivots) < n:
        return 0, None
    return sign * a, [[sign * x for x in row[n:]] for row in m]


def pfaffian(rows: Sequence[Sequence]) -> Fraction:
    """Pfaffian of an antisymmetric matrix A by fraction-free skew
    elimination (0 for odd sizes).

    Row and column i are scaled by the least common multiple k_i of the
    denominators in row i: Pf is multiplied by prod k_i and A becomes an
    integer matrix.  Step k pivots on ``a = A[k][k+1]``; when that is 0,
    index k+1 is swapped, row and column, with a later j where A[k][j] is
    not, which flips the sign.  Each trailing entry (i, j > k+1) becomes
    ``(a A[i][j] - A[k][i] A[k+1][j] + A[k][j] A[k+1][i]) / a_prev``, with
    a_prev the previous pivot (1 at first).  Write Pf(S) for the Pfaffian
    of the principal minor on the ordered indices S, and I for 0..k-1.
    Before step k entry (i, j) is Pf(I+ij) for i, j >= k and a_prev is
    Pf(I), so by the Pfaffian expansion
    ``Pf(I) Pf(I+abij) = Pf(I+ab) Pf(I+ij) - Pf(I+ai) Pf(I+bj)
    + Pf(I+aj) Pf(I+bi)``, a, b = k, k+1, the new entry is the integer
    Pf(I+abij).  So every division is exact, and the last pivot is Pf of
    the permuted matrix.  The trailing block is Pf(I) times the Schur
    complement of the block on I, so a row k that is 0 past k makes Pf 0."""
    if len(rows) % 2:
        return Fraction(0)
    m, scales = _integer_rows(rows)
    m = [[x * k for x, k in zip(row, scales)] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(0, n, 2):
        x = m[k]
        piv = next((j for j in range(k + 1, n) if x[j]), None)
        if piv is None:
            return Fraction(0)
        if piv != k + 1:
            m[k + 1], m[piv] = m[piv], m[k + 1]
            for row in m:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            sign = -sign
        y = m[k + 1]
        a = x[k + 1]
        for i in range(k + 2, n):
            row, xi, yi = m[i], x[i], y[i]
            for j in range(k + 2, n):
                row[j] = (a * row[j] - xi * y[j] + x[j] * yi) // prev
        prev = a
    return Fraction(sign * prev, prod(scales))
