"""Simultaneous Diophantine approximation with a guaranteed exhaustive
backend and an independent feasibility oracle.

For rational targets alpha and an integer Q >= 2 the classical box
argument guarantees some denominator 1 <= b < Q**m with every
|alpha_i * b - beta_i| <= 1/Q; the exhaustive scan returns the smallest
such b.  Rounding ties (alpha_i * b exactly half-integral) go to even.

Both scans run on integers: the targets are cleared to numerators n_i over
one common denominator D, so alpha_i * b lies within r/D of an integer,
r = min(n_i * b mod D, D - (n_i * b mod D)), and b = D is always exact.
The least feasible b is therefore at most D, and the scan never passes
min(Q**m - 1, D), the count the budget is checked against.  The scan
visits only the b where the first non-integral target's residue (the lead)
is within D // Q of 0, and multiplies out the other residues there:
- The first visit is a record of the lead's distance to the nearest
  integer, so a continued-fraction convergent denominator of the lead
  over D (Khinchin, *Continued Fractions*, ch. II); the scan walks the
  convergents to it.  With one non-integral target it is the answer.
- Two consecutive visits differ by a step g whose lead residue is within
  2 * (D // Q) of 0.  The scan keeps a table of every such g up to its
  largest, extends it by stepping one b at a time only when no entry
  lands in the window, and so stays exact; by the three-gap theorem
  (Slater, 1967) the table stays short.
`Fraction` appears only in the returned errors; the feasibility oracle's
table is integers over D.
"""

from __future__ import annotations

from fractions import Fraction

from .base import EndoapproxError, Record, set_field
from .linalg import clear_denominators


class DirichletError(EndoapproxError, ValueError):
    pass


class BudgetError(EndoapproxError, RuntimeError):
    pass


DEFAULT_BUDGET = 2_000_000


class ApproxResult(Record):
    """A denominator b with its numerators and error, 1 <= b < bound (the
    exclusive denominator bound Q**m); construction checks the range.
    Immutable."""

    __slots__ = ("denominator", "numerators", "error", "bound")

    def __init__(self, denominator: int, numerators: tuple[int, ...], error: Fraction, bound: int):
        if not (1 <= denominator < bound):
            raise DirichletError("denominator outside the guaranteed range")
        set_field(self, "denominator", denominator)
        set_field(self, "numerators", numerators)
        set_field(self, "error", error)
        set_field(self, "bound", bound)


def _cleared(alpha, q: int) -> tuple[list[int], int]:
    """The targets as (numerators, common denominator D)."""
    alpha = [Fraction(a) for a in alpha]
    if not alpha:
        raise DirichletError("empty target vector")
    if q < 2:
        raise DirichletError("modulus must be at least 2")
    return clear_denominators(alpha)


def _round_div(n: int, d: int) -> int:
    """n / d rounded to the nearest integer for d > 0; exact ties go to even."""
    t, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and t % 2):
        t += 1
    return t


def dirichlet_approx(alpha, q: int, budget: int = DEFAULT_BUDGET) -> ApproxResult:
    """Smallest denominator b with max_i |alpha_i*b - beta_i| <= 1/q."""
    nums, den = _cleared(alpha, q)
    bound = q ** len(nums)
    last = min(bound - 1, den)
    if last > budget:
        raise BudgetError(f"scan of {last} denominators exceeds budget {budget}")
    # integral targets meet every tolerance; the others are kept as residues,
    # the first of which leads the scan
    residues = [n % den for n in nums if n % den]
    # q * min(r, D - r) <= D  <=>  r <= D // q  or  r >= D - D // q
    lo = den // q
    b = _first_hit(residues, den, lo) if residues else 1
    worst = max((min(x, den - x) for x in (n * b % den for n in residues)), default=0)
    return ApproxResult(
        denominator=b,
        numerators=tuple(_round_div(n * b, den) for n in nums),
        error=Fraction(worst, den),
        bound=bound,
    )


def _first_convergent(lead: int, den: int, lo: int) -> int:
    """The least b with lead * b mod D within lo of 0, for 0 < lead < D: a
    record of ||b * lead / D||, hence a convergent denominator of lead / D.
    The last convergent denominator leaves residue 0, so the walk ends."""
    num, rem = den, lead  # lead / D = [0; a_1, a_2, ...], a_k = num // rem
    prev, b = 0, 1
    while True:
        r = lead * b % den
        if r <= lo or r >= den - lo:
            return b
        a, rem, num = num // rem, num % rem, rem
        prev, b = b, a * b + prev


def _first_hit(residues: list[int], den: int, lo: int) -> int:
    """The least b with every n * b mod D within lo of 0, visiting only the
    b where the lead residue is, the first of them a convergent denominator.
    Between two such b the lead residue moves by at most 2 * lo, so the step
    is an entry of `gaps`: every g with g * lead mod D within 2 * lo of 0,
    in increasing g, complete up to its largest entry and extended by
    stepping past it when no entry lands."""
    lead, *rest = residues
    hi = den - lo
    near = 2 * lo
    far = den - near
    gaps: list[tuple[int, int]] = []  # (g, g * lead mod D)
    top = top_r = 0  # the table holds every qualifying g <= top
    b = _first_convergent(lead, den, lo)
    r = lead * b % den
    while True:
        for n in rest:
            if lo < n * b % den < hi:
                break
        else:
            return b
        for g, rg in gaps:
            x = r + rg
            if x >= den:
                x -= den
            if x <= lo or x >= hi:
                break
        else:
            g, rg = top, top_r
            while True:
                g += 1
                rg += lead
                if rg >= den:
                    rg -= den
                if rg <= near or rg >= far:
                    gaps.append((g, rg))
                    x = r + rg
                    if x >= den:
                        x -= den
                    if x <= lo or x >= hi:
                        break
            top, top_r = g, rg
        b += g
        r = x


def feasibility_oracle(alpha, q: int, budget: int = DEFAULT_BUDGET) -> tuple[int, list[int]]:
    """The full table of best errors for every 1 <= b < q**m, on integers:
    (D, worst) with worst[b - 1] = max_i min(r_i, D - r_i), r_i = n_i * b mod
    D, so the best error at b is worst[b - 1] / D and b is feasible exactly
    when q * worst[b - 1] <= D.

    Independent provenance source: every row is computed directly from the
    numerators, with no reference to the tolerance test or the residue
    stepping used by dirichlet_approx.
    """
    nums, den = _cleared(alpha, q)
    bound = q ** len(nums)
    if bound - 1 > budget:
        raise BudgetError(f"table of {bound - 1} rows exceeds budget {budget}")
    half = den // 2  # min(r, D - r) is r exactly when r <= D // 2
    worst = None
    for n in nums:
        errors = [r if r <= half else den - r for r in [n * b % den for b in range(1, bound)]]
        worst = errors if worst is None else list(map(max, worst, errors))
    return den, worst
