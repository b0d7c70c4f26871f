"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction or of plain ints.  Everything
here is dense and small (ranks up to a few dozen), so plain Gaussian
elimination is plenty; determinants and definiteness tests clear
denominators and run fraction-free in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, lcm
from operator import mul

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


def mat_mul(a, b):
    """Product of two matrices of ints or Fractions: an integer product
    stays in ints, any Fraction entry makes the result rational."""
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


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
        inv = Fraction(1) / m[r][c]  # 1 / int would be a float
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
    if any(len(row) != len(a) for row in a):
        raise ValueError("determinant of non-square matrix")
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


def _definite(a: list[list[int]], strict: bool) -> bool:
    """Whether the symmetric integer matrix a is positive-definite (strict)
    or positive-semidefinite.

    Fraction-free symmetric elimination without row swaps: each pivot is a
    leading principal minor of the rows kept so far, so every division is
    exact (Bareiss).  A negative pivot means no; a zero pivot is allowed only
    when not strict and the rest of its column is zero, and that row and
    column are then dropped.
    """
    m = [list(row) for row in a]
    n, prev = len(m), 1
    for c in range(n):
        p, pivot_row = m[c][c], m[c]
        if p == 0 and not strict and not any(pivot_row[c + 1 :]):
            continue
        if p <= 0:
            return False
        for i in range(c + 1, n):
            row, f = m[i], m[i][c]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - f * pivot_row[j]) // prev
        prev = p
    return True


def _integer_matrix(a: Matrix) -> tuple[list[list[int]], int]:
    """(A, L) with A == L * a an integer square matrix, L the lcm of the
    entry denominators."""
    n = len(a)
    nums, den = clear_denominators([x for row in a for x in row])
    return [nums[i * n : (i + 1) * n] for i in range(n)], den


def positive_definite(g: Matrix) -> bool:
    """Whether the symmetric rational matrix g is positive-definite."""
    return _definite(_integer_matrix(g)[0], True)


_BISECTION_STEPS = 64


def min_eigenvalue_lower(g: Matrix) -> Fraction:
    """Certified rational lower bound on the least eigenvalue of a symmetric
    positive-definite rational matrix; ArithmeticError if it is not
    positive-definite.

    A bisection of (0, min diagonal] keeps G - lo*I positive-definite and
    G - hi*I not.  L*G is an integer matrix, L the lcm of the entry
    denominators, so every rational eigenvalue is a multiple of 1/L; once
    hi - lo < 1/L the only possible rational least eigenvalue is
    floor(hi*L)/L.  It is returned when it is one, else lo after at least 64
    steps and lo > 0.
    """
    n = len(g)
    if n == 0:
        raise ValueError("empty matrix")
    a, den = _integer_matrix(g)

    def shifted(x: Fraction) -> list[list[int]]:
        """q*L*(G - x*I) for x = p/q."""
        p, q = x.numerator * den, x.denominator
        return [[q * v - p if i == j else q * v for j, v in enumerate(row)] for i, row in enumerate(a)]

    if not _definite(a, True):
        raise ArithmeticError("matrix is not positive-definite")
    lo, hi = Fraction(0), min(g[i][i] for i in range(n))  # lambda_min <= min diagonal
    steps, lo_stop, tested = 0, None, False
    while lo_stop is None or not tested:
        if not tested and (hi - lo) * den < 1:
            tested = True
            k = Fraction(floor(hi * den), den)
            at_k = shifted(k)
            if _definite(at_k, False) and not _definite(at_k, True):
                return k
            continue
        mid = (lo + hi) / 2
        if _definite(shifted(mid), True):
            lo = mid
        else:
            hi = mid
        steps += 1
        if lo_stop is None and lo > 0 and steps >= _BISECTION_STEPS:
            lo_stop = lo
    return lo_stop
