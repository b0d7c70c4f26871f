"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction or of plain ints, dense and small.
One elimination does all the work: `_echelon`, Bareiss's fraction-free
elimination of integer rows, every division exact, on input cleared of its
denominators.  `rank` is its number of pivots, `det` the sign of its row
permutation times its last pivot; `solve` back-substitutes in integers
after it, and `adjugate_int` is det(A) * A^-1 from that solve; definiteness
is the signs of its pivots without row swaps, the leading principal minors.
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


def _echelon(m: list[list[int]], cols: int, swap: bool = True):
    """Bareiss's fraction-free elimination of the integer rows m, in place,
    on their first `cols` columns, carrying later entries (a right-hand
    side) along.  Yields (c, p, sign) for each column c before eliminating
    with p, so a reader may stop at any column: p the pivot, 0 if there is
    none, and the sign of the row permutation so far.  The k-th pivot lies
    in row k and is the determinant of the permuted rows' k x k submatrix on
    the pivot columns so far, so each division by the previous pivot is
    exact; rows are cleared below and left of each pivot.  Without swaps the
    pivot of column c must lie in row c: a column with no pivot drops that
    row too, and one whose pivot lies lower ends the run with p = None.
    """
    rows, r, sign, prev = len(m), 0, 1, 1
    for c in range(cols):
        piv = r if r < rows and m[r][c] else next((i for i in range(r + 1, rows) if m[i][c]), None)
        if piv is None:
            if not swap:
                r += 1
            yield c, 0, sign
            continue
        if piv != r:
            if not swap:
                yield c, None, sign
                return
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p, pivot_row = m[r][c], m[r]
        yield c, p, sign
        for i in range(r + 1, rows):
            row, f = m[i], m[i][c]
            row[c] = 0
            for j in range(c + 1, len(row)):
                row[j] = (row[j] * p - f * pivot_row[j]) // prev
        r, prev = r + 1, p


def rank(a: Matrix) -> int:
    """Rank: the number of pivots, each row cleared of its denominators."""
    if not a:
        return 0
    rows = [clear_denominators(row)[0] for row in a]
    return sum(1 for _, p, _ in _echelon(rows, len(rows[0])) if p)


def det(a: Matrix) -> Fraction:
    """Determinant: the sign times the last pivot of L * a, over L^n."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("determinant of non-square matrix")
    m, den = _integer_matrix(a)
    last = 1
    for _, p, sign in _echelon(m, len(m)):
        if not p:
            return Fraction(0)
        last = sign * p
    return Fraction(last, den ** len(m))


def _solve_int(aug: list[list[int]], cols: int) -> tuple[list[int], list[list[int]], int] | None:
    """Eliminate the integer system [A | B] in aug, A its first `cols`
    columns: (pivots, Y, d), X = Y / d solving A X = B with row k of Y for
    the k-th pivot column and free variables zero; None if inconsistent.
    d, the sign times the last pivot, is the determinant of the pivot rows on
    the pivot columns, so Y = d X is integral: one exact division an entry.
    """
    pivots, d = [], 1
    for c, p, sign in _echelon(aug, cols):
        if p:
            pivots.append(c)
            d = sign * p
    if any(any(row[cols:]) for row in aug[len(pivots) :]):
        return None
    y: list[list[int]] = []  # rows of Y from the last pivot up
    for i in reversed(range(len(pivots))):
        row, later = aug[i], pivots[i + 1 :]
        y.insert(0, [
            (d * b - sum(row[c] * yc[j] for c, yc in zip(later, y))) // row[pivots[i]]
            for j, b in enumerate(row[cols:])
        ])
    return pivots, y, d


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a @ x = b exactly; None if the system is inconsistent.

    `a` may be rectangular; for underdetermined consistent systems the
    free variables are set to zero (deterministic canonical solution).
    """
    if not a:
        return [[] for _ in b] if all(all(x == 0 for x in row) for row in b) else None
    cols = len(a[0])
    width = len(b[0]) if b else 0
    solved = _solve_int([clear_denominators([*a[i], *b[i]])[0] for i in range(len(a))], cols)
    if solved is None:
        return None
    pivots, y, d = solved
    x = zeros(cols, width)
    for c, row in zip(pivots, y):
        x[c] = [Fraction(v, d) for v in row]
    return x


def adjugate_int(a: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj(a), det(a)) for an invertible integer matrix, with adj(a) @ a ==
    det(a) * I: adj(a) = det(a) * a^-1, read from the integer solve of
    a X = I.  ValueError if a is singular."""
    n = len(a)
    solved = _solve_int([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)], n)
    if solved is None:
        raise ValueError("adjugate of a singular matrix")
    return solved[1], solved[2]


def _definite(a: list[list[int]], strict: bool) -> bool:
    """Whether the symmetric integer matrix a is positive-definite (strict)
    or semidefinite, from the pivots of a run without row swaps (leading
    principal minors).  It stops at the first pivot that fails: a negative
    one, or a zero one unless the test is not strict and the rest of its
    column is zero (that row and column are then dropped)."""
    for _, p, _ in _echelon([list(row) for row in a], len(a), swap=False):
        if p is None or p < 0 or (strict and p == 0):
            return False
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
