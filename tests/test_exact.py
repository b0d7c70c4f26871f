import random
from fractions import Fraction as F

import pytest

from endoapprox.exact import (
    ceil_sqrt,
    floor_nth_root,
    floor_sqrt,
    le_linear_sqrt,
    le_linear_sqrt_int,
    pow_bounds,
    sqrt_bounds,
)


def test_floor_ceil_sqrt():
    assert floor_sqrt(F(0)) == 0
    assert floor_sqrt(F(9, 4)) == 1
    assert floor_sqrt(F(25, 4)) == 2
    assert ceil_sqrt(F(25, 4)) == 3
    assert ceil_sqrt(F(4)) == 2


def test_sqrt_bounds_exact_for_squares():
    lo, hi = sqrt_bounds(F(49, 9))
    assert lo == hi == F(7, 3)
    assert sqrt_bounds(F(0)) == (F(0), F(0))
    lo, hi = sqrt_bounds(F(2))
    assert lo < hi
    with pytest.raises(ValueError):
        sqrt_bounds(F(-1))


def test_sqrt_bounds_bracket():
    rng = random.Random(1)
    for _ in range(200):
        x = F(rng.randint(1, 10**6), rng.randint(1, 997))
        lo, hi = sqrt_bounds(x)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= F(1, 10**20)


def test_nth_root():
    assert floor_nth_root(0, 3) == 0
    assert floor_nth_root(26, 3) == 2
    assert floor_nth_root(27, 3) == 3
    assert floor_nth_root(10**30, 5) == 10**6
    big = 7**40
    assert floor_nth_root(big, 8) == 7**5
    assert floor_nth_root(big - 1, 8) == 7**5 - 1


def test_pow_bounds_directions():
    rng = random.Random(2)
    for _ in range(100):
        x = F(rng.randint(1, 500), rng.randint(1, 500))
        e = F(rng.randint(-7, 7), rng.randint(1, 5))
        lo, hi = pow_bounds(x, e)
        assert lo <= hi
        p, q = e.numerator, e.denominator
        # lo^q <= x^p <= hi^q for positive p (reversed handled by construction)
        if p >= 0:
            assert lo**q <= x**p <= hi**q
        else:
            assert lo**q <= x**p <= hi**q


def test_pow_bounds_exact_cases():
    assert pow_bounds(F(1), F(3, 7)) == (F(1), F(1))
    assert pow_bounds(F(8), F(1, 3)) == (F(2), F(2))
    assert pow_bounds(F(16, 81), F(3, 4)) == (F(8, 27), F(8, 27))


def test_surd_comparisons():
    # 1 + 2 sqrt(2) vs 0 and friends
    assert le_linear_sqrt(F(1), F(1), F(2))  # 1 <= sqrt(2)
    assert not le_linear_sqrt(F(3, 2), F(1), F(2))  # 1.5 > sqrt(2)
    assert le_linear_sqrt(F(-5), F(-3), F(2))  # -5 <= -3 sqrt(2)
    assert not le_linear_sqrt(F(1), F(-1), F(2))


def test_le_linear_sqrt_sandwich():
    rng = random.Random(3)
    for _ in range(300):
        c = F(rng.randint(-400, 400), rng.randint(1, 40))
        s = F(rng.randint(0, 400), rng.randint(1, 40))
        # floor(c sqrt(s)) from the integer square roots of c^2 s
        got = floor_sqrt(c * c * s) if c >= 0 else -ceil_sqrt(c * c * s)
        x = float(c) * float(s) ** 0.5
        assert abs(got - x) < 1.001  # floor is within 1 of the real value
        # exact sandwich: got <= c sqrt(s) < got + 1
        assert le_linear_sqrt(F(got), c, s)
        assert not le_linear_sqrt(F(got + 1), c, s)


def test_le_linear_sqrt_int_boundaries():
    # u = v * sqrt(s) holds with equality on each side of v = 0: -2 = -1 * sqrt(4/1)
    assert le_linear_sqrt_int(-2, -1, 4, 1)
    assert le_linear_sqrt_int(-3, -1, 4, 1)
    assert not le_linear_sqrt_int(-1, -1, 4, 1)
    assert le_linear_sqrt_int(2, 1, 4, 1)
    assert not le_linear_sqrt_int(3, 1, 4, 1)
    assert le_linear_sqrt_int(-1, -2, 1, 4)  # -1 = -2 * sqrt(1/4)
    assert not le_linear_sqrt_int(-1, -3, 1, 4)
