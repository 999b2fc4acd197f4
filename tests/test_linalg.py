import random
from fractions import Fraction as F

from ribboncells.linalg import (adjugate, det, independent_rows, pfaffian,
                                rank, row_reduce)


def random_antisymmetric(rng, n):
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # some zero entries, so the pivot search is exercised too
            x = F(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.7 else F(0)
            m[i][j], m[j][i] = x, -x
    return m


def symplectic(n):
    m = [[F(0)] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        m[2 * k][2 * k + 1], m[2 * k + 1][2 * k] = F(1), F(-1)
    return m


class TestPfaffian:
    def test_square_is_determinant(self):
        rng = random.Random(61)
        for n in range(9):
            for _ in range(12):
                m = random_antisymmetric(rng, n)
                assert pfaffian(m) ** 2 == det(m)

    def test_odd_sizes_vanish(self):
        rng = random.Random(62)
        for n in (1, 3, 5, 7):
            assert pfaffian(random_antisymmetric(rng, n)) == 0

    def test_empty_matrix(self):
        assert pfaffian([]) == 1

    def test_standard_symplectic_form(self):
        for n in range(1, 5):
            assert pfaffian(symplectic(n)) == 1

    def test_block_diagonal_is_product(self):
        rng = random.Random(63)
        a, b = random_antisymmetric(rng, 4), random_antisymmetric(rng, 6)
        m = [row + [F(0)] * 6 for row in a] + [[F(0)] * 4 + row for row in b]
        assert pfaffian(m) == pfaffian(a) * pfaffian(b)

    def test_zero_first_pivot(self):
        # A[0][1] = 0: Pf = a01 a23 - a02 a13 + a03 a12 = -a02 a13 + a03 a12
        a02, a03, a12, a13, a23 = F(2), F(3, 2), F(-5), F(7), F(11)
        m = [[0, 0, a02, a03],
             [0, 0, a12, a13],
             [-a02, -a12, 0, a23],
             [-a03, -a13, -a23, 0]]
        assert pfaffian(m) == -a02 * a13 + a03 * a12
        # the swap still finds the one pivot in row 0 at the last index
        assert pfaffian([[0, 0, 0, 1], [0, 0, 1, 0],
                         [0, -1, 0, 0], [-1, 0, 0, 0]]) == 1

    def test_zero_row_vanishes(self):
        m = symplectic(2)
        m[0][1] = m[1][0] = F(0)
        assert pfaffian(m) == 0


def cofactor_det(m):
    """Laplace expansion along the first row."""
    if not m:
        return F(1)
    return sum((-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:]
                                                   for row in m[1:]])
               for j in range(len(m)) if m[0][j])


class TestDet:
    def test_integer_matrices(self):
        rng = random.Random(64)
        for n in range(7):
            for _ in range(15):
                # small entries with zeros make pivots vanish and rows swap
                m = [[rng.choice([0, 0, 1, 2, -1, 3]) for _ in range(n)]
                     for _ in range(n)]
                assert det(m) == cofactor_det(m)

    def test_rational_matrices(self):
        rng = random.Random(65)
        for n in range(7):
            for _ in range(15):
                m = [[F(rng.randint(-9, 9), rng.randint(1, 6))
                      if rng.random() < 0.7 else F(0) for _ in range(n)]
                     for _ in range(n)]
                assert det(m) == cofactor_det(m)

    def test_singular_and_swapped(self):
        assert det([[1, 2], [2, 4]]) == 0
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        # a rank-two 3 x 3 whose second pivot vanishes after elimination
        assert det([[1, 1, 1], [1, 1, 2], [2, 2, 3]]) == 0

    def test_mixed_entries(self):
        assert det([["1/2", 3], [F(2, 3), 4]]) == F(0)
        assert det([[F(1, 2), 2], [3, F(4, 3)]]) == F(-16, 3)


class TestAdjugate:
    def test_against_cofactors(self):
        # adj[i][j] is the (j, i) cofactor; small entries with zeros make
        # pivots vanish, so rows swap and every division is exercised
        rng = random.Random(66)
        for n in range(1, 6):
            for _ in range(20):
                m = [[rng.choice([0, 0, 1, 2, -1, 3]) for _ in range(n)]
                     for _ in range(n)]
                D, adj = adjugate(m)
                assert D == cofactor_det(m)
                if not D:
                    assert adj is None
                    continue
                for i in range(n):
                    for j in range(n):
                        minor = [row[:i] + row[i + 1:]
                                 for r, row in enumerate(m) if r != j]
                        assert adj[i][j] == (-1) ** (i + j) * cofactor_det(minor)

    def test_singular_and_swapped(self):
        assert adjugate([[1, 2], [2, 4]]) == (0, None)
        assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
        assert adjugate([[2]]) == (2, [[1]])


class TestIndependentRows:
    def test_against_transpose_pivots(self):
        # the first maximal independent rows are the pivot columns of the
        # transpose; repeated and summed rows make some rows dependent
        rng = random.Random(26)
        for _ in range(200):
            cols = rng.randint(1, 6)
            m = [[rng.choice([0, 0, 1, 2, -1]) for _ in range(cols)]
                 for _ in range(rng.randint(1, 5))]
            if len(m) > 1 and rng.random() < 0.5:
                m.insert(rng.randint(0, len(m)),
                         [a + b for a, b in zip(m[0], m[-1])])
            expected = row_reduce(list(zip(*m)))[2]
            assert independent_rows(m) == expected
            assert rank(m) == len(expected)

    def test_rational_rows(self):
        assert independent_rows([[F(1, 2), 1], [1, 2], [0, F(1, 3)]]) == [0, 2]
        assert rank([]) == 0
