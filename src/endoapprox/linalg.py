"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction.  Everything here is dense and
small (ranks up to a few dozen), so plain Gaussian elimination is plenty;
determinants clear denominators and run fraction-free in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, lcm

Matrix = list[list[Fraction]]


def mat(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def zeros(m: int, n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k, "shape mismatch"
    out = zeros(n, m)
    for i in range(n):
        for j in range(m):
            out[i][j] = sum((a[i][p] * b[p][j] for p in range(k)), Fraction(0))
    return out


def clear_denominators(values) -> tuple[list[int], int]:
    """(nums, den) with values[i] == nums[i] / den, den the least common
    denominator of the rationals (or integers) in values."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _rref(m: Matrix, cols: int) -> list[int]:
    """Bring m to reduced row echelon form in place, pivoting on its first
    `cols` columns; the k-th returned pivot column has its pivot in row k."""
    rows = len(m)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def rank(a: Matrix) -> int:
    """Rank by exact Gaussian elimination."""
    if not a:
        return 0
    return len(_rref([row[:] for row in a], len(a[0])))


def det(a: Matrix) -> Fraction:
    """Determinant: each row is cleared of its denominators, the integer
    determinant is taken and divided once by the product of the row
    denominators."""
    assert all(len(row) == len(a) for row in a), "determinant of non-square matrix"
    rows, den = [], 1
    for row in a:
        nums, d = clear_denominators(row)
        rows.append(nums)
        den *= d
    return Fraction(_det_int(rows), den)


def _det_int(a: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss's fraction-free
    elimination: every division is exact."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for c in range(n - 1):
        if m[c][c] == 0:
            piv = next((i for i in range(c + 1, n) if m[i][c] != 0), None)
            if piv is None:
                return 0
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        p, pivot_row = m[c][c], m[c]
        for i in range(c + 1, n):
            row, f = m[i], m[i][c]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - f * pivot_row[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1] if n else 1


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a @ x = b exactly; None if the system is inconsistent.

    `a` may be rectangular; for underdetermined consistent systems the
    free variables are set to zero (deterministic canonical solution).
    """
    if not a:
        return [[] for _ in b] if all(all(x == 0 for x in row) for row in b) else None
    rows, cols = len(a), len(a[0])
    width = len(b[0]) if b else 0
    aug = [a[i][:] + b[i][:] for i in range(rows)]
    pivots = _rref(aug, cols)
    for i in range(len(pivots), rows):
        if any(x != 0 for x in aug[i][cols:]):
            return None
    x = zeros(cols, width)
    for i, c in enumerate(pivots):
        for j in range(width):
            x[c][j] = aug[i][cols + j]
    return x


def adjugate_int(a: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj(a), det(a)) for an integer matrix, with adj(a) @ a == det(a) * I."""
    n = len(a)
    adj = [
        [
            (-1) ** (i + j)
            * _det_int([[a[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return adj, _det_int(a)


def charpoly(a: Matrix) -> list[Fraction]:
    """Characteristic polynomial of a square matrix, coefficients low->high.

    Faddeev-LeVerrier: exact over the rationals, monic of degree n.
    """
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    c = Fraction(1)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        tr = sum((m[i][i] for i in range(n)), Fraction(0))
        c = -tr / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


# -- polynomial helpers for Sturm root isolation ---------------------------


def poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [c * k for k, c in enumerate(p)][1:] or [Fraction(0)]


def poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """(q, r) with a == q*b + r and deg r < deg b, for nonzero b."""
    b = poly_trim(b)
    r = poly_trim(a[:])
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 1)
    while len(r) >= len(b) and r[-1] != 0:
        k = len(r) - len(b)
        f = r[-1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r = poly_trim(r[:-1]) if len(r) > 1 else [Fraction(0)]
    return q, r


def poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = poly_trim(a), poly_trim(b)
    while any(c != 0 for c in b):
        a, b = b, poly_divmod(a, b)[1]
    if a[-1] != 0:
        a = [c / a[-1] for c in a]
    return a


def sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [poly_trim(p), poly_trim(poly_deriv(p))]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if all(c == 0 for c in r):
            break
        chain.append([-c for c in r])
    return chain


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


_BISECTION_STEPS = 64


def min_eigenvalue_lower(g: Matrix) -> Fraction:
    """Certified rational lower bound on the least eigenvalue of a symmetric
    positive-definite rational matrix; ArithmeticError if it is not
    positive-definite.

    One Sturm chain of the square-free characteristic polynomial drives a
    bisection of (0, min diagonal] that keeps no root in (0, lo] and at
    least one in (lo, hi].  Every rational root is a multiple of 1/L, L the
    lcm of the coefficient denominators, so once hi - lo < 1/L the only
    possible rational least eigenvalue is floor(hi*L)/L; it is returned when
    it is one, else lo after at least 64 steps and lo > 0.
    """
    n = len(g)
    if n == 0:
        raise ValueError("empty matrix")
    p = charpoly(g)
    den = lcm(*(c.denominator for c in p))
    chain = sturm_chain(poly_divmod(p, poly_gcd(p, poly_deriv(p)))[0])
    at_zero = _sign_changes(q[0] for q in chain)

    def roots_upto(x: Fraction) -> int:
        """Distinct roots in (0, x]."""
        return at_zero - _sign_changes(poly_eval(q, x) for q in chain)

    lo, hi = Fraction(0), min(g[i][i] for i in range(n))  # lambda_min <= min diagonal
    # no root in (-inf, 0], and the root the bisection converges to in (0, hi]
    at_minus_inf = _sign_changes(q[-1] if len(q) % 2 else -q[-1] for q in chain)
    if at_minus_inf != at_zero or roots_upto(hi) == 0:
        raise ArithmeticError("matrix is not positive-definite")
    steps, lo_stop, tested = 0, None, False
    while lo_stop is None or not tested:
        if not tested and (hi - lo) * den < 1:
            tested = True
            k = Fraction(floor(hi * den), den)
            if k > lo and poly_eval(p, k) == 0 and roots_upto(k) == 1:
                return k
            continue
        mid = (lo + hi) / 2
        if roots_upto(mid) >= 1:
            hi = mid
        else:
            lo = mid
        steps += 1
        if lo_stop is None and lo > 0 and steps >= _BISECTION_STEPS:
            lo_stop = lo
    return lo_stop
