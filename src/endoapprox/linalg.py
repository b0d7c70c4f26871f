"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction or of plain ints, dense and small.
One elimination does all the work: `_echelon`, Bareiss's fraction-free
elimination of integer rows, every division exact, on input cleared of its
denominators.  `rank` is its number of pivots, `det` the sign of its row
permutation times its last pivot; `solve` back-substitutes in integers
after it, and `adjugate_int` is det(A) * A^-1 from that solve; definiteness
is the signs of its pivots without row swaps, the leading principal minors.
The least-eigenvalue bound is the point of a bisection grid where that test
turns: a Rayleigh quotient from integer inverse and Rayleigh-quotient
iteration predicts the grid cell, two exact definiteness tests confirm it,
and the bisection runs only where the prediction misses.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    denominator of the rationals (or integers) in values; integers come
    back at once over 1."""
    if all(type(v) is int for v in values):
        return list(values), 1
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


def _pivot_sign(a: list[list[int]], strict: bool) -> int:
    """The pivot signs of a run without row swaps on a copy of the symmetric
    integer matrix a (its leading principal minors): 1 if every pivot is
    positive (a is positive-definite), 0 if the run passed a zero pivot whose
    column is zero, dropping that row and column (a is semidefinite and
    singular), -1 at the first pivot that fails: a negative one, one lying
    lower, or a zero one when the test is strict."""
    sign = 1
    for _, p, _ in _echelon([list(row) for row in a], len(a), swap=False):
        if p is None or p < 0 or (strict and p == 0):
            return -1
        if p == 0:
            sign = 0
    return sign


def _definite(a: list[list[int]], strict: bool) -> bool:
    """Whether the symmetric integer matrix a is positive-definite (strict)
    or semidefinite, from the pivot signs of one run without row swaps."""
    sign = _pivot_sign(a, strict)
    return sign > 0 if strict else sign >= 0


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


def _shifted(a: list[list[int]], p: int, s: int) -> list[list[int]]:
    """2^s * a - p * I for the square integer matrix a."""
    return [[(v << s) - p if i == k else v << s for k, v in enumerate(row)] for i, row in enumerate(a)]


def _fixed(y: list[int], bits: int) -> list[int]:
    """The nonzero integer vector y times a power of two, rounded down, so
    that its largest entry has `bits` bits: a fixed-point direction."""
    drop = max(map(abs, y)).bit_length() - bits
    return [v >> drop for v in y] if drop >= 0 else [v << -drop for v in y]


def _rayleigh_estimate(a: list[list[int]], top: int, level: int) -> tuple[int, int]:
    """(num, den) with num / den the Rayleigh quotient x.a.x / x.x of an
    integer vector x, for the symmetric positive-definite integer matrix a
    with least diagonal entry top.  By Rayleigh-Ritz it is never below the
    least eigenvalue of a; once x has found that eigenvalue's direction it is
    normally within a quarter of top / 2^level above it.

    x starts as the column of adj(a) = det(a) * a^-1 with the largest
    diagonal entry, the column weighing the least eigenvalue's direction
    most, then takes two inverse-iteration steps through adj(a).
    Rayleigh-quotient iteration follows (Parlett, ch. 4): each round solves
    (a - sigma I) y = x in integers and keeps y to a fixed precision, sigma
    the last quotient rounded down to a multiple of top / 2^s.  s grows with
    convergence, 8 bits beyond the quotient's estimated accuracy and at most
    level + 16: on the benchmark's matrices about 20, then 40 to 75.  The
    rounds stop once |a x - mu x|^2 / (x.x) <= top^2 / 2^(level + 4), which
    puts mu within a quarter of top / 2^level of its eigenvalue when the
    gap to the next is at least top / 4 (mu - lambda <= |r|^2 / gap), or
    after eight rounds.  A shift that makes the system singular is an
    eigenvalue of a and is returned itself.
    """
    n = len(a)
    adj, _ = adjugate_int(a)
    c = max(range(n), key=lambda i: adj[i][i])
    x = _fixed([row[c] for row in adj], 24)
    for _ in range(2):
        x = _fixed([sum(map(mul, row, x)) for row in adj], 24)
    for _ in range(8):
        ax = [sum(map(mul, row, x)) for row in a]
        num, den = sum(map(mul, x, ax)), sum(v * v for v in x)
        residual, scale = sum(v * v for v in ax) * den - num * num, (den * top) ** 2
        if residual << (level + 4) <= scale:
            break
        s = min(level + 16, max(16, scale.bit_length() - residual.bit_length() + 8))
        p = top * ((num << s) // (den * top))  # sigma = p / 2^s
        solved = _solve_int([[*row, xi] for row, xi in zip(_shifted(a, p, s), x)], n)
        if solved is None or len(solved[0]) < n:
            return p, 1 << s
        x = _fixed([row[0] for row in solved[1]], s + 8)
    return num, den


def min_eigenvalue_lower(g: Matrix) -> Fraction:
    """Certified rational lower bound on the least eigenvalue of a symmetric
    positive-definite rational matrix; ArithmeticError if it is not
    positive-definite.

    The bound is that of a bisection of (0, h], h the least diagonal entry
    (lambda_min <= h), which keeps G - lo*I positive-definite and G - hi*I
    not.  After s steps it holds the level-s grid cell
    (h*j_s/2^s, h*(j_s+1)/2^s] containing lambda_min, j_s the largest index
    whose point passes the strict definiteness test.  L*G is an integer
    matrix, L the lcm of the entry denominators, so every rational
    eigenvalue is a multiple of 1/L.  At the first level s_test whose cell
    is narrower than 1/L, k = floor(hi*L)/L is the only possible rational
    least eigenvalue, and it is returned when it is one: when G - k*I is
    semidefinite and singular.  Otherwise the bound is lo at the first level
    from 64 on with lo > 0.  Both depend on lambda_min alone.

    The cells are found without walking down the grid.  A Rayleigh quotient
    mu >= lambda_min (`_rayleigh_estimate`) predicts the cell at a level S
    of at least 64 and s_test whose point h*(j+1)/2^S is the first at or
    above mu, so that point is confirmed not below lambda_min by
    Rayleigh-Ritz, and one exact strict test confirms the point h*j/2^S
    below it; with the test of G itself, that is two exact definiteness
    tests.  Every coarser cell is then a prefix of this one, and k needs its
    test only when it lies inside the confirmed cell.  Where the prediction
    misses, or lambda_min lies below the first cell at S, the bisection's
    own steps run, skipping every one whose answer the tests so far imply,
    so that at most one more exact test runs than the bisection alone would.
    The prediction decides only how many tests run, never the bound; the
    bound returned always passed an exact test, or lies below a point that
    did.
    """
    n = len(g)
    if n == 0:
        raise ValueError("empty matrix")
    a, den = _integer_matrix(g)
    if not _definite(a, True):
        raise ArithmeticError("matrix is not positive-definite")
    # Work on A = L*G, whose eigenvalues are L times G's: the grid point
    # (s, j) is top*j/2^s, top = L*h.
    top = min(a[i][i] for i in range(n))
    s_test = top.bit_length()
    level = max(_BISECTION_STEPS, s_test)
    mu_num, mu_den = _rayleigh_estimate(a, top, level)
    while mu_num << level <= top * mu_den:  # lambda_min may lie below the first cell
        level += 1

    def below(j: int, s: int) -> bool:
        """Whether the grid point (s, j) lies below lambda_min(A)."""
        return _definite(_shifted(a, top * j, s), True)

    # Grid points t below lambda_min(A) and f not, as indices at `level`:
    # j + 1 is the first point at or above mu (or top itself, >= lambda_min).
    j = min(((mu_num << level) - 1) // (mu_den * top), (1 << level) - 1)
    t, f = (j, j + 1) if below(j, level) else (0, j)

    def index(s: int) -> int:
        """The bisection's index j_s at level s.  j at `level` lies in
        [t, f - 1], so it is read off where t and f - 1 share their prefix;
        where they part, the bisection's own midpoint there is tested."""
        nonlocal t, f, level
        if s > level:
            t, f, level = t << (s - level), f << (s - level), s
        while (common := level - (t ^ (f - 1)).bit_length()) < s:
            mid = (t >> (level - common - 1)) | 1
            if below(mid, common + 1):
                t = mid << (level - common - 1)
            else:
                f = mid << (level - common - 1)
        return t >> (level - s)

    k = (top * (index(s_test) + 1)) >> s_test  # floor(hi * L): L times the candidate
    if top * t < k << level <= top * f and _pivot_sign(_shifted(a, k, 0), False) == 0:
        return Fraction(k, den)
    stop = _BISECTION_STEPS
    while not index(stop):
        stop += 1
    return Fraction(top * index(stop), den << stop)
