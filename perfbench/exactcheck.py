"""Checks made apart from the program: minimal-denominator scans in integer
arithmetic, an exact LDL^T test for positive semi-definiteness, and the
number checks on chain reports.

Nothing here imports `endoapprox`; every predicate is written again from
its definition so a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


class CheckError(AssertionError):
    pass


# -- simultaneous approximation of rationals --------------------------------


def common_denominator(alpha) -> tuple[list[int], int]:
    """alpha_i = nums[i] / den with one positive integer den."""
    den = 1
    for a in alpha:
        den = lcm(den, Fraction(a).denominator)
    return [int(Fraction(a) * den) for a in alpha], den


def rational_feasible(nums: list[int], den: int, q: int, b: int) -> bool:
    """max_i dist(b * nums[i] / den, Z) <= 1/q, decided on integers."""
    for n in nums:
        r = (n * b) % den
        if q * min(r, den - r) > den:
            return False
    return True


def rational_min_denominator(nums: list[int], den: int, q: int, limit: int) -> int | None:
    """Least b in [1, limit] that is feasible, or None."""
    for b in range(1, limit + 1):
        if rational_feasible(nums, den, q, b):
            return b
    return None


def check_rational_answer(alpha, q: int, b: int, numerators) -> None:
    """b is the least feasible denominator and the numerators meet 1/q."""
    nums, den = common_denominator(alpha)
    if len(numerators) != len(nums):
        raise CheckError("numerator count differs from the target count")
    for n, beta in zip(nums, numerators):
        # |n*b/den - beta| <= 1/q  <=>  q*|n*b - beta*den| <= den
        if q * abs(n * b - beta * den) > den:
            raise CheckError(f"numerator {beta} misses the 1/{q} tolerance at b={b}")
    if rational_min_denominator(nums, den, q, b) != b:
        raise CheckError(f"a denominator below {b} already meets the 1/{q} tolerance")


# -- direction approximation: targets c_i / sqrt(s) --------------------------


class SurdTargets:
    """Targets y_i = c_i / sqrt(s) for integers c_i and rational s > 0.

    With z_i = q*b*c_i/sqrt(s), z_i^2 = (q*b*c_i)^2 * sd / sn, so every
    comparison of |z_i| with an integer is a comparison of integers.
    """

    def __init__(self, coords, s: Fraction, q: int):
        self.coords = [int(c) for c in coords]
        self.sn, self.sd = s.numerator, s.denominator
        self.q = q

    def _z_sq_num(self, c: int, b: int) -> int:
        x = self.q * b * c
        return x * x * self.sd  # z^2 = this / sn

    def _coord_ok(self, c: int, b: int) -> tuple[bool, bool]:
        """(within 1/q of an integer, nearest integer is nonzero)."""
        if c == 0:
            return True, False
        zn, sn, q = self._z_sq_num(c, b), self.sn, self.q
        f = isqrt(zn // sn)  # floor(|z|)
        k0 = (f // q) * q    # the multiple of q at or below |z|
        near_low = zn <= (k0 + 1) ** 2 * sn
        near_high = zn >= (k0 + q - 1) ** 2 * sn
        if not (near_low or near_high):
            return False, False
        # for q >= 3 a feasible coordinate rounds to zero iff |z| <= 1
        return True, zn > sn

    def feasible_nonzero(self, b: int) -> bool:
        nonzero = False
        for c in self.coords:
            ok, nz = self._coord_ok(c, b)
            if not ok:
                return False
            nonzero = nonzero or nz
        return nonzero

    def min_denominator(self, limit: int) -> int | None:
        for b in range(1, limit + 1):
            if self.feasible_nonzero(b):
                return b
        return None

    def check_answer(self, b: int, betas) -> None:
        """b is least, and |c_i*b - beta_i*sqrt(s)| <= sqrt(s)/q for each i."""
        q, sn = self.q, self.sn
        for c, beta in zip(self.coords, betas):
            # |z - q*beta| <= 1 with z = q*b*c/sqrt(s); compare on squares
            lo, hi = q * beta - 1, q * beta + 1
            if not (_surd_ge(self._z_sq_num(c, b), sn, c, lo)
                    and _surd_le(self._z_sq_num(c, b), sn, c, hi)):
                raise CheckError(f"coordinate {beta} misses the 1/{q} tolerance at b={b}")
        if not any(betas):
            raise CheckError("approximation is zero")
        if self.min_denominator(b) != b:
            raise CheckError(f"a denominator below {b} already meets the tolerance")


def _surd_le(zn: int, sn: int, sign: int, k: int) -> bool:
    """z <= k, where z has the sign of `sign` and z^2 = zn / sn."""
    if sign >= 0:
        return k >= 0 and zn <= k * k * sn
    return k >= 0 or zn >= k * k * sn


def _surd_ge(zn: int, sn: int, sign: int, k: int) -> bool:
    """z >= k, where z has the sign of `sign` and z^2 = zn / sn."""
    return _surd_le(zn, sn, -sign, -k)


# -- positive semi-definiteness -------------------------------------------


def psd_by_ldl(g: list[list[Fraction]]) -> bool:
    """Exact symmetric elimination: True iff g is positive semi-definite.

    A negative pivot refutes it; a zero pivot is allowed only when the rest
    of its column is zero (the matrix is then PSD on that direction)."""
    a = [[Fraction(x) for x in row] for row in g]
    n = len(a)
    for k in range(n):
        piv = a[k][k]
        if piv < 0:
            return False
        if piv == 0:
            if any(a[i][k] != 0 for i in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return True


def shifted(g: list[list[Fraction]], lam: Fraction) -> list[list[Fraction]]:
    return [[x - (lam if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(g)]


# -- chain reports -------------------------------------------------------


def rat(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def check_pipeline_report(rep: dict) -> None:
    if not rep.get("ok"):
        raise CheckError("pipeline report is not ok")
    fam = rep["family"]
    if rat(fam["max_norm_sq"]) > rat(fam["bound_sq"]):
        raise CheckError("family max_norm_sq exceeds bound_sq")
    stages = 0
    for row in rep["witnesses"]:
        if not row.get("ok"):
            raise CheckError(f"witness {row.get('witness')} is not ok")
        for st in row["stages"]:
            if st["stage"] != "approx_special":
                continue
            stages += 1
            q, m, big_m, b = st["Q"], st["m"], st["M"], st["denominator"]
            if big_m != q**m:
                raise CheckError("approx_special stage has M != Q^m")
            if not (1 <= b < big_m):
                raise CheckError("approx_special denominator outside [1, M)")
            if rat(st["norm_sq"]) > rat(st["family_bound_sq"]):
                raise CheckError("approx_special norm exceeds its family bound")
    if stages == 0:
        raise CheckError("pipeline report has no approx_special stage")


def check_reduce_report(rep: dict) -> None:
    if not rep.get("ok"):
        raise CheckError("reduce report is not ok")
    for row in rep["witnesses"]:
        if row.get("round_trip_same_point") is not True:
            raise CheckError(f"witness {row.get('witness')} does not round-trip")


def check_ok_report(rep: dict) -> None:
    if not rep.get("ok"):
        raise CheckError(f"{rep.get('kind')} report is not ok")


def check_verify_report(rep: dict) -> None:
    if not rep.get("ok"):
        raise CheckError("verify report is not ok")
    for suite in rep["suites"]:
        if suite["failures"] != 0:
            raise CheckError(f"suite {suite['suite']} reports {suite['failures']} failures")
