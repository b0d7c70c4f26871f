"""Certified rational arithmetic: square roots, n-th roots, fractional
powers and quadratic-surd comparisons, all with exact directional bounds.

Nothing in here ever produces a float.  Quantities of the form x + y*sqrt(s)
with rational x, y, s are compared by sign analysis and squaring, so every
comparison in the package is decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

ROOT_DIGITS = 24  # decimals of every inexact root bound


def floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for rational x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    # floor(sqrt(x)) == isqrt(floor(x)) for x >= 0
    return isqrt(x.numerator // x.denominator)


def ceil_sqrt(x: Fraction) -> int:
    """Smallest integer q with q*q >= x, for rational x >= 0."""
    r = floor_sqrt(x)
    return r if Fraction(r * r) >= x else r + 1


def sqrt_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational bounds lo <= sqrt(x) <= hi, exact for rational squares."""
    if x < 0:
        raise ValueError("negative radicand")
    return _root_bounds(x, 2)


def sqrt_lower(x: Fraction) -> Fraction:
    return sqrt_bounds(x)[0]


def sqrt_upper(x: Fraction) -> Fraction:
    return sqrt_bounds(x)[1]


def floor_nth_root(n: int, k: int) -> int:
    """floor(n**(1/k)) for integers n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("floor_nth_root needs n >= 0, k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # Newton iteration on integers, seeded from the bit length.
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def _root_bounds(x: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """Certified bounds on x**(1/k) for x >= 0, k >= 1, with ROOT_DIGITS
    decimals; exact when numerator and denominator are perfect k-th powers."""
    n, d = x.numerator, x.denominator
    rn, rd = floor_nth_root(n, k), floor_nth_root(d, k)
    if rn ** k == n and rd ** k == d:
        exact = Fraction(rn, rd)
        return exact, exact
    scale = 10 ** ROOT_DIGITS
    # x**(1/k) = (n * d**(k-1))**(1/k) / d
    root = floor_nth_root(n * d ** (k - 1) * scale ** k, k)
    return Fraction(root, d * scale), Fraction(root + 1, d * scale)


def pow_bounds(x: Fraction, e: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational bounds lo <= x**e <= hi for x > 0 and rational e.

    The direction of rounding is handled uniformly: callers pick the side
    they need (lower bounds for quantities that must not be overstated,
    upper bounds for the reverse).
    """
    if x <= 0:
        raise ValueError("pow_bounds needs a positive base")
    p, q = e.numerator, e.denominator
    if p == 0:
        return Fraction(1), Fraction(1)
    if p < 0:
        lo, hi = pow_bounds(x, -e)
        # reciprocal flips the bounds; lo > 0 is guaranteed by construction
        return 1 / hi, 1 / lo
    y = x ** p  # exact rational
    if q == 1:
        return y, y
    return _root_bounds(y, q)


def pow_lower(x: Fraction, e: Fraction) -> Fraction:
    return pow_bounds(x, e)[0]


def pow_upper(x: Fraction, e: Fraction) -> Fraction:
    return pow_bounds(x, e)[1]


# -- quadratic surds -------------------------------------------------------
#
# u <= v*sqrt(s) is decided exactly, with u, v, s rational and s >= 0,
# by sign analysis and squaring.


def le_linear_sqrt(u: Fraction, v: Fraction, s: Fraction) -> bool:
    """Decide u <= v*sqrt(s) exactly, for rationals or integers."""
    return le_linear_sqrt_int(
        u.numerator * v.denominator, v.numerator * u.denominator, s.numerator, s.denominator
    )


def le_linear_sqrt_int(u: int, v: int, s_num: int, s_den: int) -> bool:
    """Decide u <= v*sqrt(s_num/s_den) exactly on integers, s_den > 0."""
    if s_num < 0:
        raise ValueError("negative radicand")
    if v >= 0:
        if u <= 0:
            return True
        return u * u * s_den <= v * v * s_num
    # v < 0: rhs <= 0
    if u > 0:
        return False
    return u * u * s_den >= v * v * s_num
