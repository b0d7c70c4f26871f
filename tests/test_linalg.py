import hashlib
import random
from fractions import Fraction as F

import pytest

from endoapprox import linalg, model, morphisms, rings


def test_rank_det_solve():
    a = linalg.mat([[1, 2], [2, 4]])
    assert linalg.rank(a) == 1
    assert linalg.det(a) == 0
    b = linalg.mat([[1, 2], [3, 4]])
    assert linalg.det(b) == -2
    sol = linalg.solve(b, linalg.mat([[1], [1]]))
    assert sol == [[F(-1)], [F(1)]]
    assert linalg.solve(a, linalg.mat([[1], [3]])) is None


def test_rank_and_solve_exact_on_plain_ints():
    # a float pivot inverse would read 1/49 * 98 as not quite 2
    a = [[49, 1], [98, 2]]
    assert linalg.rank(a) == 1
    sol = linalg.solve(a, [[1], [2]])
    assert sol == [[F(1, 49)], [F(0)]]
    assert all(type(x) is F for row in sol for x in row)
    assert linalg.solve(a, [[1], [3]]) is None


def test_mat_mul_keeps_ints_and_fractions():
    a, b = [[1, 2], [3, 4]], [[0, 1], [1, 0]]
    prod = linalg.mat_mul(a, b)
    assert prod == [[2, 1], [4, 3]]
    assert all(type(x) is int for row in prod for x in row)
    prod = linalg.mat_mul(linalg.mat(a), [[F(1, 2), 0], [0, 1]])
    assert prod == [[F(1, 2), 2], [F(3, 2), 4]]
    assert all(type(x) is F for row in prod for x in row)
    with pytest.raises(ValueError):
        linalg.mat_mul([[1, 2]], [[1, 2]])


def test_adjugate_int():
    m = [[2, 1], [1, 3]]
    adj, d = linalg.adjugate_int(m)
    assert d == 5
    prod = linalg.mat_mul(linalg.mat(adj), linalg.mat(m))
    assert prod == [[F(5), F(0)], [F(0), F(5)]]


def test_eigen_lower():
    eye = linalg.identity(3)
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


def test_definite_zero_pivots():
    # [[3,1,1],[1,3,1],[1,1,3]] has eigenvalues 2, 2, 5: G - 2I is all ones,
    # whose second and third pivots are zero with zero columns
    g = linalg.mat([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
    ones = [[1] * 3 for _ in range(3)]
    assert linalg._definite(ones, False) and not linalg._definite(ones, True)
    assert linalg.min_eigenvalue_lower(g) == 2
    # [[2,1],[1,2]] shifted by 2: a zero pivot with a nonzero column
    assert not linalg._definite([[0, 1], [1, 0]], False)
    assert linalg.min_eigenvalue_lower(linalg.mat([[2, 1], [1, 2]])) == 1


def _orbit_grams(tag: str, count: int, seed: int):
    """Orbit Gram matrices of random 2-slot free generator points over one
    reference ring, drawn as the benchmark's generators workload draws them."""
    rng = random.Random(seed)
    spec = rings.reference_rings()[tag]
    space = model.ModelSpace(morphisms.AmbientSpec(rings.ProductRingSpec((spec,)), (2,)), (2,))
    out = []
    while len(out) < count:
        free = [[[rng.randint(-2, 2) for _ in range(spec.rank)] for _ in range(2)] for _ in range(2)]
        point = space.point([[space.slot(0, free=f) for f in free]])
        try:
            model.GeneratorSet(space, point)
        except model.ModelError:
            continue  # not free: draw again
        orbit = [v for slot in point.slots[0] for v in model.slot_orbit(spec, slot)]
        out.append([[model.free_inner(spec, u, v) for v in orbit] for u in orbit])
    return out


def _pinned_matrices():
    """Seeded symmetric positive-definite matrices of sizes 1-8: integer
    B^T B + I, rational B^T B + D, aI + cJ (least eigenvalue a, repeated)
    and 8x8 orbit Gram matrices over Hq."""
    rng = random.Random(2024)
    out = []
    for n in range(1, 9):
        for _ in range(13):
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            out.append(
                [[F(sum(b[k][i] * b[k][j] for k in range(n)) + (i == j)) for j in range(n)] for i in range(n)]
            )
            b = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            d = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)]
            out.append(
                [
                    [sum((b[k][i] * b[k][j] for k in range(n)), F(0)) + (d[i] if i == j else 0) for j in range(n)]
                    for i in range(n)
                ]
            )
            a, c = F(rng.randint(1, 30), rng.randint(1, 7)), F(rng.randint(0, 30), rng.randint(1, 7))
            out.append([[a * (i == j) + c for j in range(n)] for i in range(n)])
    return out + _orbit_grams("Hq", 3, 7)


# sha256 of repr() of the bounds on _pinned_matrices(); recorded from the
# characteristic-polynomial (Sturm chain) search, which the definiteness
# bisection must match exactly
PINNED_BOUNDS_DIGEST = "6202da2f39789425966e3f3e30df5152acb7393f3e2b2ac8f1e16bca11d852c3"


def test_eigen_lower_pinned_outputs():
    mats = _pinned_matrices()
    assert len(mats) >= 300 and {len(g) for g in mats} == set(range(1, 9))
    bounds = [linalg.min_eigenvalue_lower(g) for g in mats]
    assert hashlib.sha256(repr(bounds).encode()).hexdigest() == PINNED_BOUNDS_DIGEST
