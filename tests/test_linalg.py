import random
from fractions import Fraction as F

import pytest

from endoapprox import linalg


def test_rank_det_solve():
    a = linalg.mat([[1, 2], [2, 4]])
    assert linalg.rank(a) == 1
    assert linalg.det(a) == 0
    b = linalg.mat([[1, 2], [3, 4]])
    assert linalg.det(b) == -2
    sol = linalg.solve(b, linalg.mat([[1], [1]]))
    assert sol == [[F(-1)], [F(1)]]
    assert linalg.solve(a, linalg.mat([[1], [3]])) is None


def test_adjugate_int():
    m = [[2, 1], [1, 3]]
    adj, d = linalg.adjugate_int(m)
    assert d == 5
    prod = linalg.mat_mul(linalg.mat(adj), linalg.mat(m))
    assert prod == [[F(5), F(0)], [F(0), F(5)]]


def test_charpoly_and_eigen_lower():
    eye = linalg.identity(3)
    p = linalg.charpoly(eye)
    # (x-1)^3 = -1 + 3x - 3x^2 + x^3
    assert p == [F(-1), F(3), F(-3), F(1)]
    assert linalg.min_eigenvalue_lower(eye) == 1
    assert linalg.min_eigenvalue_lower(linalg.mat([[2, 0], [0, 3]])) == 2
    assert linalg.min_eigenvalue_lower(linalg.mat([[7]])) == 7
    # irrational least eigenvalue: [[2,1],[1,2]] has 1 and 3 (rational);
    # [[1,1],[1,3]] has 2 +- sqrt(2): bound must sit below 2 - sqrt(2)
    g = linalg.mat([[1, 1], [1, 3]])
    lb = linalg.min_eigenvalue_lower(g)
    assert 0 < lb
    assert (2 - lb) ** 2 >= 2  # lb <= 2 - sqrt(2)
    assert (F(2) - lb - F(1, 10**6)) ** 2 <= 2  # and is tight to ~1e-6
    # entries around 1e9: [[a+c, c], [c, a+c]] has eigenvalues a and a+2c
    a, c = 10**9 + 7, 10**9 + 9
    assert linalg.min_eigenvalue_lower(linalg.mat([[a + c, c], [c, a + c]])) == a
    # irrational least eigenvalue: p(x) = x^2 - tr*x + det is >= 0 at and
    # below it, and < 0 just above it
    g = linalg.mat([[10**9 + 1, 12345], [12345, 2 * 10**9 + 3]])
    tr, d = g[0][0] + g[1][1], linalg.det(g)
    lb = linalg.min_eigenvalue_lower(g)
    assert 0 < lb <= tr / 2 and lb * lb - tr * lb + d >= 0
    up = lb * (1 + F(1, 10**6))
    assert up * up - tr * up + d < 0
    # not positive-definite: eigenvalues -1, 2, 5 (2 is the min diagonal),
    # and the singular 0, 2
    for bad in ([[2, 3, 0], [3, 2, 0], [0, 0, 2]], [[1, 1], [1, 1]]):
        with pytest.raises(ArithmeticError):
            linalg.min_eigenvalue_lower(linalg.mat(bad))


def test_eigen_lower_is_valid_quadratic_bound():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        b = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        # gram = b^T b + I is symmetric positive-definite
        bt = [list(col) for col in zip(*b)]
        btb = linalg.mat_mul(bt, b)
        g = [[x + (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(btb)]
        lb = linalg.min_eigenvalue_lower(g)
        assert lb > 0
        for _ in range(20):
            v = [F(rng.randint(-5, 5)) for _ in range(n)]
            quad = sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))
            norm2 = sum(x * x for x in v)
            assert quad >= lb * norm2
