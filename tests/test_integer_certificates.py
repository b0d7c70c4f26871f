"""Differential tests: `approx_vector` and `approx_weighted`, which decide
their certificates on integer norms over one denominator, against the
`Fraction` versions they replaced, kept here verbatim as `ref_*` oracles
(with the `Fraction` surd comparison they called).  Both must return equal
results on a seeded sweep of rational inputs over Z, Zi, Zw, Hq and Zw x Hq,
and raise the same `CertificationError` message when a ledger constant is
altered so that a certified bound no longer holds."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from endoapprox import dirichlet
from endoapprox.approx import (
    ApproxError,
    CertificationError,
    VectorApprox,
    WeightedApprox,
    _weighted_l_positions,
    approx_vector,
    approx_weighted,
    derive_ledger,
)
from endoapprox.exact import sqrt_lower, sqrt_upper
from endoapprox.ledger import ConstantLedger
from endoapprox.linalg import clear_denominators
from endoapprox.morphisms import BlockMorphism, WeightedCertificate, is_weighted
from endoapprox.rings import ProductRingSpec, reference_rings
from reference import product_inner


# -- the Fraction versions, verbatim ------------------------------------


def ref_le_linear_sqrt(u: Fraction, v: Fraction, s: Fraction) -> bool:
    """Decide u <= v*sqrt(s) exactly."""
    if s < 0:
        raise ValueError("negative radicand")
    if v >= 0:
        if u <= 0:
            return True
        return u * u <= v * v * s
    # v < 0: rhs <= 0
    if u > 0:
        return False
    return u * u >= v * v * s


def ref_round_sqrt_within(num: int, den: int, q: int) -> int | None:
    """The nearest integer k to w = sqrt(num/den), exact ties to even, or
    None when |w - k| > 1/q; every comparison is made on squares."""
    f = isqrt(num // den)  # floor(w)
    half = den * (2 * f + 1) ** 2  # 4 w^2 against (2f + 1)^2
    if 4 * num > half or (4 * num == half and f % 2):
        k = f + 1  # w < k: w >= k - 1/q
        return k if num * q * q >= den * (k * q - 1) ** 2 else None
    # f <= w: w <= f + 1/q
    return f if num * q * q <= den * (f * q + 1) ** 2 else None


def ref_approx_vector(
    product: ProductRingSpec,
    elements,
    q: int,
    ledger: ConstantLedger | None = None,
    budget: int = dirichlet.DEFAULT_BUDGET,
) -> VectorApprox:
    """Approximate the direction of a nonzero ring vector by b_bar / b.

    Scans denominators in increasing order; feasibility of each candidate
    is the per-coordinate Dirichlet bound for the target alpha/|a_bar|,
    decided exactly by integer comparisons of squares against |a_bar|^2.
    Candidates whose rounded vector is zero are skipped (the lower
    comparability conclusion needs a nonzero approximation; with the
    normalized lattices configured here the guarantee is unaffected).
    """
    elements = list(elements)
    if ledger is None:
        ledger = derive_ledger(product)
    q0 = int(ledger.value("Q0"))
    if q < q0:
        raise ApproxError(f"modulus {q} below the ring threshold Q0={q0}")
    if not elements or all(e.is_zero() for e in elements):
        raise ApproxError("vector approximation needs a nontrivial vector")

    s = max(e.norm_sq() for e in elements)  # |a_bar|^2, rational
    t = product.rank
    n = len(elements)
    bound = q ** (n * t)
    if bound - 1 > budget:
        raise dirichlet.BudgetError(f"scan of {bound - 1} denominators exceeds budget {budget}")

    # w = c*b/sqrt(s) has w^2 = (cn^2 sd) b^2 / (cd^2 sn) over the common
    # denominator cd of the coordinates, so beta = round(w) and the tolerance
    # |c*b - beta*sqrt(s)| <= sqrt(s)/q, i.e. |w - beta| <= 1/q, are decided
    # on integers
    nums, cd = clear_denominators([c for e in elements for c in e.coords()])
    w_den = cd * cd * s.numerator
    w_nums = [n * n * s.denominator for n in nums]

    chosen = None
    for b in range(1, bound):
        betas = []
        for n, w_num in zip(nums, w_nums):
            k = ref_round_sqrt_within(w_num * b * b, w_den, q) if n else 0
            if k is None:
                break
            betas.append(k if n > 0 else -k)
        else:
            if any(betas):
                chosen = (b, betas)
                break
    if chosen is None:
        raise ApproxError("no feasible denominator with nonzero approximation below Q^(nt)")

    b, betas = chosen
    approx = []
    at = 0
    for _ in elements:
        approx.append(product.from_coords([Fraction(x) for x in betas[at : at + t]]))
        at += t

    # conclusion (ii): |b_bar|^2 <= C_a^2 b^2 and b^2 <= C_b^2 |b_bar|^2
    bbar_sq = max(e.norm_sq() for e in approx)
    c_a_sq = ledger.value("C_a_sq")
    c_b_sq = ledger.value("C_b_sq")
    if bbar_sq > c_a_sq * b * b:
        raise CertificationError("approximation norm exceeds the certified upper constant")
    if Fraction(b * b) > c_b_sq * bbar_sq:
        raise CertificationError("denominator exceeds the certified multiple of the norm")

    # conclusion (iii), cross-multiplied: per element,
    # ||a_k b - b_bar_k sqrt(s)||^2 <= C_c^2 s / q^2
    c_c_sq = ledger.value("C_c_sq")
    rhs = c_c_sq * s / Fraction(q * q)
    for a_k, b_k in zip(elements, approx):
        u = Fraction(b * b) * a_k.norm_sq() + s * b_k.norm_sq() - rhs
        v = 2 * b * product_inner(a_k, b_k)
        if not ref_le_linear_sqrt(u, v, s):
            raise CertificationError("direction error exceeds the certified constant")

    checks = {
        "denominator_bound": bound,
        "norm_sq": s,
        "upper_sq": c_a_sq,
        "lower_sq": c_b_sq,
        "direction_sq": c_c_sq,
    }
    return VectorApprox(denominator=b, approximation=tuple(approx), bound=bound, checks=checks)


def ref_approx_weighted(
    phi: BlockMorphism,
    cert: WeightedCertificate,
    q: int,
    ledger: ConstantLedger,
    budget: int = dirichlet.DEFAULT_BUDGET,
    exponent: int | None = None,
) -> WeightedApprox:
    """A weighted morphism psi with small norm close in direction to phi.

    The off-pattern entries are approximated relative to the weighted
    scale: the Dirichlet targets are the rational coordinate vectors of
    the entries divided by a, and the identity pattern of psi carries the
    Dirichlet denominator itself, so psi o i_r = [b] holds exactly.
    """
    if cert.morphism != phi:
        raise ApproxError("weighted certificate is for another morphism")
    q0 = int(ledger.value("Q0"))
    if q < max(q0, 2):
        raise ApproxError(f"modulus {q} below the ring threshold Q0={q0}")
    t = phi.product.rank
    r_total = sum(phi.target)
    g_total = sum(phi.source)
    m = exponent if exponent is not None else t * (r_total * g_total - r_total**2 + 1)
    modulus = q**m
    a = cert.scale

    if phi.norm_sq() <= Fraction(modulus) ** 2 and a < modulus:
        checks = {"branch": "identity", "norm_sq": phi.norm_sq()}
        return WeightedApprox(
            morphism=phi,
            denominator=a,
            certificate=cert,
            modulus=modulus,
            exponent=m,
            approximated=False,
            checks=checks,
        )

    # the Dirichlet vector is (a, L entries) normalized by the scale a; its
    # first component is the identity of the product ring, coordinate 1 at
    # each factor's identity position, so its approximation at denominator
    # b is forced to b exactly and the rebuilt pattern is b * I
    positions = list(_weighted_l_positions(phi, cert))
    targets: list[Fraction] = []
    unit_len = 0
    for spec in phi.product.factors:
        targets.extend(spec.one().coords)
        unit_len += spec.rank
    for (i, r, c) in positions:
        targets.extend(Fraction(x, a) for x in phi.blocks[i][r][c].coords)
    result = dirichlet.dirichlet_approx(targets, q, budget=budget)
    b = result.denominator
    beta = list(result.numerators[unit_len:])
    at = 0
    for spec in phi.product.factors:
        unit_beta = result.numerators[at : at + spec.rank]
        if list(unit_beta) != [b] + [0] * (spec.rank - 1):
            raise CertificationError("identity slot did not round to the denominator")
        at += spec.rank

    if not (1 <= b < modulus):
        raise CertificationError("denominator escaped the certified range")

    blocks = [
        [[spec.zero() for _ in range(phi.source[i])] for _ in range(phi.target[i])]
        for i, spec in enumerate(phi.product.factors)
    ]
    for i in range(len(blocks)):
        for j, c in enumerate(cert.columns[i]):
            blocks[i][j][c] = phi.product.factors[i].integer(b)
    at = 0
    for (i, r, c) in positions:
        spec = phi.product.factors[i]
        blocks[i][r][c] = spec.element([Fraction(x) for x in beta[at : at + spec.rank]])
        at += spec.rank
    psi = BlockMorphism(phi.product, phi.source, phi.target, blocks)

    # (iv) the section identity psi o i_r = [b] is psi_cert's a*I column
    # check, made when psi_cert is built
    psi_cert = WeightedCertificate(
        morphism=psi,
        scale=b,
        columns=cert.columns,
        slack_sq=max(Fraction(1), psi.norm_sq() / Fraction(b * b)),
    )

    # (ii) |psi|^2 <= C_psi^2 b^2 with the ledger formula
    c_w_up = sqrt_upper(cert.slack_sq)
    c0_low = sqrt_lower(ledger.value("c0_sq"))
    s_up = ledger.value("tau_sum_upper")
    c_psi = max(
        sqrt_upper(ledger.value("one_norm_sq_max")),
        s_up * (c_w_up / c0_low + Fraction(1, q0)),
    )
    c_psi_sq = c_psi * c_psi
    if psi.norm_sq() > c_psi_sq * b * b:
        raise CertificationError("approximated morphism norm exceeds its certified bound")

    # (iii), scale-normalized and cross-multiplied:
    # per entry, ||a*psi_e - b*phi_e||^2 <= C'^2 a^2 / q^2 with C' = sum|tau|
    c_prime_sq = ledger.value("C_c_sq")
    rhs = c_prime_sq * Fraction(a * a, q * q)
    for i, block in enumerate(psi.blocks):
        for r, row in enumerate(block):
            for c, e in enumerate(row):
                diff = e.scale(a) - phi.blocks[i][r][c].scale(b)
                if diff.norm_sq() > rhs:
                    raise CertificationError("direction error exceeds the certified constant")

    checks = {
        "branch": "approximated",
        "c_psi_sq": c_psi_sq,
        "c_prime_sq": c_prime_sq,
        "norm_sq": psi.norm_sq(),
    }
    return WeightedApprox(
        morphism=psi,
        denominator=b,
        certificate=psi_cert,
        modulus=modulus,
        exponent=m,
        approximated=True,
        checks=checks,
    )


# -- the sweep ----------------------------------------------------------------

REF = reference_rings()
PRODUCTS = {
    "Z": (REF["Z"],),
    "Zi": (REF["Zi"],),
    "Zw": (REF["Zw"],),
    "Hq": (REF["Hq"],),
    "Zw x Hq": (REF["Zw"], REF["Hq"]),
}


def _outcome(fn, *args, **kwargs):
    """The result, or the error's type and message."""
    try:
        return fn(*args, **kwargs)
    except (ApproxError, CertificationError) as err:
        return f"{type(err).__name__}: {err}"


def _altered(ledger, name, value):
    out = ConstantLedger(dict(ledger.entries))
    out.define(name, value, "altered for the test")
    return out


def _same(fn, ref, *args, **kwargs):
    got = _outcome(fn, *args, **kwargs)
    assert got == _outcome(ref, *args, **kwargs), args
    return got


def _rand_coords(rng, count, nonzero):
    """count rational coordinates, at most `nonzero` of them nonzero, so the
    scans stay short on the wide products."""
    coords = [Fraction(0)] * count
    for at in rng.sample(range(count), min(count, nonzero)):
        coords[at] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5)))
    return coords


BIG_BUDGET = 10**40  # the scans end at the least feasible denominator, far below

VECTOR_FAILURES = {
    "CertificationError: approximation norm exceeds the certified upper constant",
    "CertificationError: denominator exceeds the certified multiple of the norm",
    "CertificationError: direction error exceeds the certified constant",
}


@pytest.mark.parametrize("name", list(PRODUCTS))
def test_vector_matches_fraction_reference(name):
    product = ProductRingSpec(PRODUCTS[name])
    ledger = derive_ledger(product)
    q0 = int(ledger.value("Q0"))
    t = product.rank
    rng = random.Random("certificates-vector-" + name)
    approximated = 0
    messages = set()
    for k in range(60):
        n = 1 + k % 3
        coords = _rand_coords(rng, n * t, rng.randint(1, 4))
        elements = [product.from_coords(coords[at : at + t]) for at in range(0, n * t, t)]
        q = q0 + rng.randrange(3)
        got = _same(approx_vector, ref_approx_vector, product, elements, q, ledger, BIG_BUDGET)
        if not isinstance(got, VectorApprox):
            continue
        approximated += 1
        # each constant shrunk, and C_a^2, C_b^2 set to the exact ratios they
        # bound, where the non-strict inequalities still hold, and just below
        b = got.denominator
        bbar_sq = max(e.norm_sq() for e in got.approximation)
        upper, lower = bbar_sq / (b * b), Fraction(b * b) / bbar_sq
        for const, value, holds in [
            ("C_a_sq", upper, True),
            ("C_a_sq", upper * Fraction(99, 100), False),
            ("C_b_sq", lower, True),
            ("C_b_sq", lower * Fraction(99, 100), False),
            ("C_c_sq", ledger.value("C_c_sq") / rng.choice((2, 10, 100, 10**4)), None),
            ("c0_sq", ledger.value("c0_sq") / 100, True),
        ]:
            led = _altered(ledger, const, value)
            altered = _same(approx_vector, ref_approx_vector, product, elements, q, led, BIG_BUDGET)
            if holds is not None:
                assert isinstance(altered, VectorApprox) == holds, (const, altered)
            if isinstance(altered, str):
                messages.add(altered)
    assert approximated >= 50
    assert messages == VECTOR_FAILURES


def _rand_weighted(rng, product, q):
    """(phi, cert, exponent): phi = (a*I | L) in each factor, with one row
    per factor and L over the order, in the approximated branch.  The
    exponent is the Dirichlet target count, so the box principle keeps b
    below q^m."""
    t = product.rank
    m = 2 * t
    a = rng.randint(q**m, 2 * q**m)
    coords = _rand_coords(rng, t, rng.randint(1, 3))
    blocks = []
    at = 0
    for spec in product.factors:
        # integral: the coordinates' numerators, each times a draw in [1, a]
        entry = [x.numerator * rng.randint(1, a) for x in coords[at : at + spec.rank]]
        blocks.append([[spec.integer(a), spec.element(entry)]])
        at += spec.rank
    counts = (1,) * product.n_factors
    phi = BlockMorphism(product, tuple(2 for _ in counts), counts, blocks)
    return phi, is_weighted(phi), m


WEIGHTED_FAILURES = {
    "CertificationError: approximated morphism norm exceeds its certified bound",
    "CertificationError: direction error exceeds the certified constant",
}


@pytest.mark.parametrize("name", list(PRODUCTS))
def test_weighted_matches_fraction_reference(name):
    product = ProductRingSpec(PRODUCTS[name])
    ledger = derive_ledger(product)
    q0 = max(int(ledger.value("Q0")), 2)
    rng = random.Random("certificates-weighted-" + name)
    approximated = 0
    messages = set()
    for _ in range(40):
        q = q0 + rng.randrange(2)
        phi, cert, m = _rand_weighted(rng, product, q)
        got = _same(approx_weighted, ref_approx_weighted, phi, cert, q, ledger, BIG_BUDGET, exponent=m)
        if not (isinstance(got, WeightedApprox) and got.approximated):
            continue
        approximated += 1
        # C_psi shrinks as c0^2 grows or sum|tau| shrinks; C' is C_c
        for const, factor in [
            ("C_c_sq", Fraction(1, rng.choice((2, 10, 100, 10**4)))),
            ("c0_sq", Fraction(rng.choice((4, 100, 10**4)))),
            ("c0_sq", Fraction(1, 100)),
            ("tau_sum_upper", Fraction(1, rng.choice((2, 10, 100)))),
            ("one_norm_sq_max", Fraction(1, 100)),
        ]:
            led = _altered(ledger, const, ledger.value(const) * factor)
            altered = _same(approx_weighted, ref_approx_weighted, phi, cert, q, led, BIG_BUDGET, exponent=m)
            if isinstance(altered, str):
                messages.add(altered)
    assert approximated >= 36
    assert messages == WEIGHTED_FAILURES

