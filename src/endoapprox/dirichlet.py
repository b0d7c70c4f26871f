"""Simultaneous Diophantine approximation with a guaranteed exhaustive
backend and an independent feasibility oracle.

For rational targets alpha and an integer Q >= 2 the classical box
argument guarantees some denominator 1 <= b < Q**m with every
|alpha_i * b - beta_i| <= 1/Q; the exhaustive scan returns the smallest
such b.  Rounding ties (alpha_i * b exactly half-integral) go to even.

Both scans run on integers: the targets are cleared to numerators n_i over
one common denominator D, so alpha_i * b lies within r/D of an integer,
r = min(n_i * b mod D, D - (n_i * b mod D)), and b = D is always exact.
The least feasible b is therefore at most D, and the scan stops at
min(Q**m - 1, D).  The scan advances the first non-integral target's
residue by one addition per b (subtracting D when it reaches D) and
multiplies out the other residues only at the b where that one is within
tolerance.  `Fraction` appears only in the returned errors; the
feasibility oracle's table is integers over D.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import clear_denominators


class DirichletError(ValueError):
    pass


class BudgetError(RuntimeError):
    pass


DEFAULT_BUDGET = 2_000_000


_set = object.__setattr__


class ApproxResult:
    """A denominator b with its numerators and error, 1 <= b < bound (the
    exclusive denominator bound Q**m); construction checks the range.
    Immutable."""

    __slots__ = ("denominator", "numerators", "error", "bound")

    def __init__(self, denominator: int, numerators: tuple[int, ...], error: Fraction, bound: int):
        if not (1 <= denominator < bound):
            raise DirichletError("denominator outside the guaranteed range")
        _set(self, "denominator", denominator)
        _set(self, "numerators", numerators)
        _set(self, "error", error)
        _set(self, "bound", bound)

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self) -> tuple:
        return (self.denominator, self.numerators, self.error, self.bound)

    def __eq__(self, other):
        if other.__class__ is not ApproxResult:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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
    # the first of which (0 when every target is integral) leads the scan
    lead, *rest = [n % den for n in nums if n % den] or [0]
    # q * min(r, D - r) <= D  <=>  r <= D // q  or  r >= D - D // q
    lo = den // q
    hi = den - lo
    r = 0  # lead * b mod D, advanced by one addition per b
    for b in range(1, last + 1):
        r += lead
        if r >= den:
            r -= den
        if lo < r < hi:
            continue
        for n in rest:
            if lo < n * b % den < hi:
                break
        else:
            residues = [r] + [n * b % den for n in rest]
            worst = max(min(x, den - x) for x in residues)
            return ApproxResult(
                denominator=b,
                numerators=tuple(_round_div(n * b, den) for n in nums),
                error=Fraction(worst, den),
                bound=bound,
            )
    raise AssertionError("box principle violated; unreachable for q >= 2")


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
