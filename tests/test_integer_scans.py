"""Differential tests: the integer-residue scans of `dirichlet_approx`,
`feasibility_oracle` and `approx_vector` against Fraction references
written here.  `dirichlet_approx` advances its first non-integral residue
by addition, so the cases below put an integral target first, a negative
numerator first, every target integral, and the benchmark's shape. The references round and compare as the Fraction scans did:
round-half-even of alpha_i * b with the tolerance |alpha_i b - beta_i| <= 1/q,
and, for the direction scan, the nearest integer to c*b/sqrt(s) with the
tolerance decided on u <= v*sqrt(s)."""

import random
from fractions import Fraction as F

import pytest

from endoapprox import dirichlet
from endoapprox.approx import approx_vector, derive_ledger
from endoapprox.dirichlet import ApproxResult, dirichlet_approx, feasibility_oracle
from endoapprox.pipeline import check_dirichlet
from endoapprox.exact import ceil_sqrt, floor_sqrt, le_linear_sqrt
from endoapprox.rings import ProductRingSpec

import reference
from reference import oracle_rows


def ref_dirichlet(alpha, q):
    """(b, numerators, error) at the least feasible b < q^m."""
    tol = F(1, q)
    for b in range(1, q ** len(alpha)):
        nums, worst = [], F(0)
        for a in alpha:
            scaled = a * b
            beta = round(scaled)  # Fraction rounds exact halves to even
            err = abs(scaled - beta)
            if err > tol:
                break
            worst = max(worst, err)
            nums.append(beta)
        else:
            return b, tuple(nums), worst
    return None


def ref_oracle(alpha, q):
    return [(b, max(abs(a * b - round(a * b)) for a in alpha)) for b in range(1, q ** len(alpha))]


def ref_round_mul_sqrt(c, s):
    """Nearest integer to c*sqrt(s), exact ties to even, decided on surds."""
    if c == 0 or s == 0:
        return 0
    f = floor_sqrt(c * c * s) if c > 0 else -ceil_sqrt(c * c * s)
    half = F(2 * f + 1)
    # a tie is 2f + 1 == 2c*sqrt(s): equal signs and equal squares
    if (half > 0) == (c > 0) and half * half == 4 * c * c * s:
        return f if f % 2 == 0 else f + 1
    return f + 1 if le_linear_sqrt(half, 2 * c, s) else f


def ref_vector_scan(elements, q, bound):
    """(b, betas) at the least b < bound whose nonzero betas meet
    |c*b - beta*sqrt(s)| <= sqrt(s)/q in every coordinate."""
    s = max(e.norm_sq() for e in elements)
    coords = [c for e in elements for c in e.coords()]
    for b in range(1, bound):
        betas = []
        for c in coords:
            beta = ref_round_mul_sqrt(c * b / s, s) if c else 0
            # c^2 b^2 + beta^2 s - s/q^2 <= 2 c b beta sqrt(s)
            u = c * c * b * b + beta * beta * s - s / (q * q)
            if not le_linear_sqrt(u, 2 * c * b * beta, s):
                break
            betas.append(beta)
        else:
            if any(betas):
                return b, betas
    return None


def _rand_target(rng):
    """1 to 3 coordinates, each integral, an exact half or a rational, signs mixed."""
    alpha = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            alpha.append(F(rng.randint(-20, 20)))
        elif kind == 1:
            alpha.append(F(2 * rng.randint(-10, 10) + 1, 2))
        else:
            alpha.append(F(rng.randint(-500, 500), rng.randint(2, 120)))
    return alpha, rng.randint(2, 8)


def _got(res):
    return res.denominator, res.numerators, res.error


def test_rational_scan_and_oracle_match_reference():
    rng = random.Random(20261018)
    for _ in range(300):
        alpha, q = _rand_target(rng)
        res = dirichlet_approx(alpha, q)
        assert _got(res) == ref_dirichlet(alpha, q), (alpha, q)
        assert res.bound == q ** len(alpha)
        table = feasibility_oracle(alpha, q)
        assert oracle_rows(table) == ref_oracle(alpha, q) == reference.feasibility_oracle(alpha, q), (alpha, q)
        assert all(type(w) is int for w in table[1])


def ref_check_dirichlet(alpha, q, res):
    """The Fraction decisions of `check_dirichlet` on the Fraction-row oracle:
    which check, if any, refuses the result."""
    b, tol = res.denominator, F(1, q)
    if not 1 <= b < q ** len(alpha) or res.error > tol or any(
        abs(a * b - beta) > tol for a, beta in zip(alpha, res.numerators)
    ):
        return "contract failed"
    table = reference.feasibility_oracle(alpha, q)
    feasible = [c for c, err in table if err <= tol]
    if not feasible or b != feasible[0]:
        return "not the minimal feasible denominator"
    if res.error != dict(table)[b]:
        return "error differs from the oracle's"
    return None


def _planted_results(rng, alpha, q, res):
    """The true result and faulty ones: another row's denominator and error,
    a numerator one off, and an error nudged either way or past the tolerance."""
    b, err = rng.choice(reference.feasibility_oracle(alpha, q))
    out = [res, ApproxResult(b, tuple(round(a * b) for a in alpha), err, res.bound)]
    i = rng.randrange(len(alpha))
    nums = list(res.numerators)
    nums[i] += rng.choice((-1, 1))
    out.append(ApproxResult(res.denominator, tuple(nums), res.error, res.bound))
    out.append(ApproxResult(res.denominator, res.numerators, res.error + F(1, 997), res.bound))
    out.append(ApproxResult(res.denominator, res.numerators, F(1, q) + F(1, 10**6), res.bound))
    if res.error > 0:
        out.append(ApproxResult(res.denominator, res.numerators, res.error - F(1, 10**6), res.bound))
    return out


# b = 1 meets the tolerance with equality: 1/2 at q = 2, 1/3 at q = 3
BOUNDARY_TARGETS = [([F(1, 2), F(1, 4)], 2), ([F(1, 3), F(2, 9)], 3), ([F(-5, 2)], 2)]


def test_check_dirichlet_decides_as_the_fraction_reference(monkeypatch):
    rng = random.Random(611)
    planted = {}
    monkeypatch.setattr(dirichlet, "dirichlet_approx", lambda alpha, q, budget: planted["res"])
    kinds = set()
    for alpha, q in BOUNDARY_TARGETS + [_rand_target(rng) for _ in range(150)]:
        res = dirichlet_approx(alpha, q)
        planted_rows = []
        if (alpha, q) in BOUNDARY_TARGETS:  # every row of the table, in turn
            planted_rows = [ApproxResult(b, tuple(round(a * b) for a in alpha), err, res.bound)
                            for b, err in reference.feasibility_oracle(alpha, q)]
        for res in planted_rows + _planted_results(rng, alpha, q, res):
            planted["res"] = res
            want = ref_check_dirichlet(alpha, q, res)
            got = check_dirichlet(alpha, q, 2_000_000)
            assert (got is None) == (want is None), (alpha, q, res)
            if want is not None:
                assert got == f"{want} at alpha={alpha} q={q}"
            kinds.add(want)
    assert kinds == {None, "contract failed", "not the minimal feasible denominator",
                     "error differs from the oracle's"}


@pytest.mark.parametrize("alpha, expected", [
    ([F(3, 2), F(5, 2)], (1, (2, 2), F(1, 2))),
    ([F(-3, 2), F(5, 2)], (1, (-2, 2), F(1, 2))),
    ([F(1, 2), F(7)], (1, (0, 7), F(1, 2))),
])
def test_rational_half_ties(alpha, expected):
    # at q = 2 an exact half is within the closed tolerance, and rounds to even
    assert _got(dirichlet_approx(alpha, 2)) == expected == ref_dirichlet(alpha, 2)
    assert oracle_rows(feasibility_oracle(alpha, 2)) == ref_oracle(alpha, 2)


def _least_feasible(table, q):
    return next((b for b, err in oracle_rows(table) if err <= F(1, q)), None)


@pytest.mark.parametrize("alpha, q", [
    ([F(3), F(5, 7), F(-2, 9)], 4),      # the first target is integral: the next one leads
    ([F(4), F(-6), F(11, 13)], 3),
    ([F(-5, 7), F(2, 9)], 5),            # the first numerator is negative
    ([F(-13, 11), F(-1, 3), F(7)], 3),
    ([F(3), F(-2), F(0)], 2),            # every target integral: b = 1
    ([F(-8), F(5)], 7),
])
def test_scan_lead_residue_cases(alpha, q):
    res = dirichlet_approx(alpha, q)
    assert _got(res) == ref_dirichlet(alpha, q), (alpha, q)
    table = feasibility_oracle(alpha, q)
    assert oracle_rows(table) == ref_oracle(alpha, q)
    assert res.denominator == _least_feasible(table, q)
    if all(a.denominator == 1 for a in alpha):
        assert _got(res) == (1, tuple(int(a) for a in alpha), 0)


def test_scan_matches_oracle_on_benchmark_shape():
    # two targets with denominators 10^4 to 10^5, so D is near 10^9, at q = 240
    rng = random.Random(20)
    checked = 0
    while checked < 3:
        alpha = [F(rng.randint(-10**6, 10**6), rng.randint(10**4, 10**5)) for _ in range(2)]
        res = dirichlet_approx(alpha, 240)
        if res.denominator < 50:
            continue
        assert _got(res) == ref_dirichlet(alpha, 240), alpha
        assert res.denominator == _least_feasible(feasibility_oracle(alpha, 240), 240)
        checked += 1


def _vector_case(rings, tag, coords):
    spec = rings[tag]
    product = ProductRingSpec((spec,))
    elements = [product.from_coords([F(c) for c in part]) for part in coords]
    return product, elements


def _check_vector(product, elements, q, ledger=None):
    va = approx_vector(product, elements, q, ledger=ledger)
    got = (va.denominator, [int(c) for e in va.approximation for c in e.coords()])
    assert got == tuple(ref_vector_scan(elements, q, va.bound)), (elements, q)
    return got


@pytest.mark.parametrize("coords", [[[1], [2]], [[-1], [2]], [[F(1, 2)], [-1]]])
def test_vector_half_tie_on_square_norm(rings, coords):
    # over Z, s = max c_i^2 is a square and c_1 b / sqrt(s) = +-1/2 at b = 1:
    # the tie rounds to 0 (even), within 1/2 of it at q = 2
    product, elements = _vector_case(rings, "Z", coords)
    b, betas = _check_vector(product, elements, 2)
    assert b == 1 and betas[0] == 0 and abs(betas[1]) == 1


@pytest.mark.parametrize("tag", ["Z", "Zi", "Zw", "Hq"])
def test_vector_scan_matches_reference(rings, tag):
    spec = rings[tag]
    product = ProductRingSpec((spec,))
    ledger = derive_ledger(product)
    q0 = int(ledger.value("Q0"))
    rng = random.Random("vector-" + tag)
    checked = 0
    for k in range(60):
        n = 1 if spec.rank > 2 else rng.randint(1, 2)
        elements = [
            product.from_coords([F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(spec.rank)])
            for _ in range(n)
        ]
        if all(e.is_zero() for e in elements):
            continue
        _check_vector(product, elements, q0 + k % 4, ledger)
        checked += 1
    assert checked >= 50
