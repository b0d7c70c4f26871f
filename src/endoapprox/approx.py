"""The approximation chain: ring vectors, weighted morphisms, special
morphisms with witness transport.

Every output is self-certifying: the stated inequalities are checked by
exact arithmetic (rational, or rational plus a single square root
handled by cross-multiplication) before the result is returned, with all
multiplicative constants drawn from a ConstantLedger.  Certificates
check themselves when they are built, so each is checked once.  The
vector and weighted approximations decide their certificates on
integers: coordinates are cleared to numerators over one denominator,
each norm and inner product is one integer over that denominator's
square times gd (the lcm of the factors' `gram_den`, each factor's
`form_int` weighted by gd // gram_den), and every bound is compared by
cross-multiplication.

One deliberate normalization choice, recorded in the ledger: for weighted
morphisms the closeness conclusion is checked against phi/a (a the
weighted scale) rather than phi/|phi|.  The scale-normalized form is what
makes the exact section identity psi o i_r = [b] compatible with the
closeness bound; the witness-transport estimate is re-derived for it and
its constants are in the ledger.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, NamedTuple

from . import dirichlet
from .base import EndoapproxError
from .exact import ceil_sqrt, le_linear_sqrt_int, sqrt_lower, sqrt_upper
from .ledger import ConstantLedger, op_constant_sq
from .model import apply_morphism, concat_points, divide
from .morphisms import (
    BlockMorphism,
    SpecialCertificate,
    WeightedCertificate,
    embedding_ir,
)
from .reduction import InclusionWitness
from .rings import (
    ProductElement,
    ProductRingSpec,
    RingSpec,
    product_constants,
    q0_from_constants,
)


class ApproxError(EndoapproxError, ValueError):
    pass


class CertificationError(EndoapproxError, AssertionError):
    """An output failed its own re-verification; indicates a real bug."""


def derive_ledger(product: ProductRingSpec) -> ConstantLedger:
    """All ring-level constants the approximation chain draws on.

    Irrational inputs (norms of basis elements, square roots of eigenvalue
    bounds) enter through certified rational bounds in the valid direction.
    """
    led = ConstantLedger()
    consts = product_constants(product)
    c0_sq = consts["c0_sq"]
    tau_sum_up = consts["tau_norm_sum_upper"]
    led.define("c0_sq", c0_sq, "least-eigenvalue lower bound of the block Gram form")
    led.define("c1_sq", consts["c1_sq"], "entry sum of |G| over all factors")
    led.define("lambda_sq", consts["lambda_sq"], "least squared norm of a nonzero lattice element")
    led.define("tau_sum_upper", tau_sum_up, "upper bound on sum of basis-element norms")
    led.define("one_norm_sq_max", max([Fraction(1)] + [f.gram[0][0] for f in product.factors]),
               "largest squared norm of a factor identity (at least 1)")
    led.define("c_sub_sq", consts["c_sub_sq"],
               "submultiplicativity: |e*c|^2 <= c_sub_sq |e|^2 |c|^2",
               t2="sum of basis-product norm bounds", c0_sq=str(c0_sq))

    q0 = q0_from_constants(consts)
    led.define("Q0", Fraction(q0), "2*max(1, 1/c0, sum|tau|/lambda), certified ceiling")

    c0_low = sqrt_lower(c0_sq)
    c_a = tau_sum_up * (1 / c0_low + Fraction(1, q0))
    led.define("C_a_sq", c_a * c_a,
               "vector approximation upper constant: (sum|tau| (1/c0 + 1/Q0))^2")
    led.define("C_b_sq", Fraction(9, 4),
               "vector approximation lower constant: b <= (3/2)|b_bar| via the lambda step")
    led.define("C_c_sq", tau_sum_up * tau_sum_up,
               "direction-error constant: (sum|tau|)^2")
    return led


# -- vectors over the product ring ----------------------------------------


class VectorApprox(NamedTuple):
    denominator: int
    approximation: tuple[ProductElement, ...]
    bound: int  # exclusive bound Q**(n*t)
    checks: dict


def _gram_weights(product: ProductRingSpec) -> tuple[list[tuple[RingSpec, int, int]], int]:
    """(layout, gd): gd the lcm of the factors' gram_den, and per factor
    (ring, offset of its coordinates in a product element, gd // gram_den),
    so gd times the product Gram form is one integer sum over the factors."""
    gd = lcm(*(f.gram_den for f in product.factors))
    layout = []
    at = 0
    for f in product.factors:
        layout.append((f, at, gd // f.gram_den))
        at += f.rank
    return layout, gd


def _element_forms(layout, t: int, x: list[int], y: list[int]) -> list[int]:
    """gd times the product Gram form of x and y, per element of t coordinates,
    on integer coordinate vectors holding the elements one after another."""
    return [
        sum(w * f.form_int(x[k + at : k + at + f.rank], y[k + at : k + at + f.rank])
            for f, at, w in layout)
        for k in range(0, len(x), t)
    ]


def approx_vector(
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
    The coordinates are cleared to numerators over one denominator cd, so
    every norm and inner product is one integer over cd^2 * gd (gd the lcm
    of the factors' gram_den) and the conclusions are decided on integers.
    """
    elements = list(elements)
    if ledger is None:
        ledger = derive_ledger(product)
    q0 = int(ledger.value("Q0"))
    if q < q0:
        raise ApproxError(f"modulus {q} below the ring threshold Q0={q0}")
    parts = [p for e in elements for p in e.parts]
    cd = lcm(*(p.den for p in parts))
    nums = [x * (cd // p.den) for p in parts for x in p.nums]
    if not any(nums):
        raise ApproxError("vector approximation needs a nontrivial vector")

    t = product.rank
    n = len(elements)
    layout, gd = _gram_weights(product)
    norms = _element_forms(layout, t, nums, nums)  # |a_k|^2 = norms[k] / s_den
    s_num = max(norms)  # s = |a_bar|^2 = s_num / s_den
    s_den = cd * cd * gd
    bound = q ** (n * t)
    if bound - 1 > budget:
        raise dirichlet.BudgetError(f"scan of {bound - 1} denominators exceeds budget {budget}")

    # w = |c|*b/sqrt(s) has w^2 = num / s_num with num = x^2 gd b^2 for the
    # numerator x of the coordinate c, so beta = round(w), exact ties to even,
    # and the tolerance |c*b - beta*sqrt(s)| <= sqrt(s)/q, i.e.
    # |w - beta| <= 1/q, are decided on squares of integers; per coordinate,
    # (x, x^2 gd, 4 x^2 gd, x^2 gd q^2) times b^2 give num, 4 num and num q^2
    qq = q * q
    scaled = [(x, x * x * gd, 4 * x * x * gd, x * x * gd * qq) for x in nums]

    chosen = None
    for b in range(1, bound):
        bb = b * b
        betas = []
        for x, w, w4, wq in scaled:
            if not x:
                betas.append(0)
                continue
            f = isqrt(w * bb // s_num)  # floor(w)
            half = s_num * (2 * f + 1) ** 2  # 4 w^2 against (2f + 1)^2
            if w4 * bb > half or (w4 * bb == half and f % 2):
                f += 1  # w < f: w >= f - 1/q
                if wq * bb < s_num * (f * q - 1) ** 2:
                    break
            elif wq * bb > s_num * (f * q + 1) ** 2:  # f <= w: w <= f + 1/q
                break
            betas.append(f if x > 0 else -f)
        else:
            if any(betas):
                chosen = (b, betas)
                break
    if chosen is None:
        raise ApproxError("no feasible denominator with nonzero approximation below Q^(nt)")

    b, betas = chosen
    approx = [product.from_coords(betas[k : k + t]) for k in range(0, n * t, t)]

    # conclusion (ii): |b_bar|^2 <= C_a^2 b^2 and b^2 <= C_b^2 |b_bar|^2,
    # with |b_bar_k|^2 = bbar_norms[k] / gd
    bbar_norms = _element_forms(layout, t, betas, betas)
    bbar = max(bbar_norms)
    c_a_sq = ledger.value("C_a_sq")
    c_b_sq = ledger.value("C_b_sq")
    if bbar * c_a_sq.denominator > c_a_sq.numerator * b * b * gd:
        raise CertificationError("approximation norm exceeds the certified upper constant")
    if b * b * gd * c_b_sq.denominator > c_b_sq.numerator * bbar:
        raise CertificationError("denominator exceeds the certified multiple of the norm")

    # conclusion (iii), cross-multiplied: per element,
    # ||a_k b - b_bar_k sqrt(s)||^2 <= C_c^2 s / q^2, i.e. u <= v sqrt(s) with
    # u = b^2 |a_k|^2 + s |b_bar_k|^2 - C_c^2 s / q^2 and v = 2b <a_k, b_bar_k>,
    # both times s_den * gd * q^2 * den(C_c^2); <a_k, b_bar_k> = inners[k] / (cd gd)
    c_c_sq = ledger.value("C_c_sq")
    qc = q * q * c_c_sq.denominator
    inners = _element_forms(layout, t, nums, betas)
    for a_sq, b_sq, inner in zip(norms, bbar_norms, inners):
        u = qc * (b * b * a_sq * gd + s_num * b_sq) - c_c_sq.numerator * s_num * gd
        v = 2 * b * inner * cd * gd * qc
        if not le_linear_sqrt_int(u, v, s_num, s_den):
            raise CertificationError("direction error exceeds the certified constant")

    checks = {
        "denominator_bound": bound,
        "norm_sq": Fraction(s_num, s_den),
        "upper_sq": c_a_sq,
        "lower_sq": c_b_sq,
        "direction_sq": c_c_sq,
    }
    return VectorApprox(denominator=b, approximation=tuple(approx), bound=bound, checks=checks)


# -- weighted morphisms -----------------------------------------------------


class WeightedApprox(NamedTuple):
    morphism: BlockMorphism
    denominator: int
    certificate: WeightedCertificate
    modulus: int
    exponent: int
    approximated: bool
    checks: dict


def _weighted_l_positions(phi: BlockMorphism, cert: WeightedCertificate):
    for i in range(len(phi.blocks)):
        selected = set(cert.columns[i])
        for r in range(phi.target[i]):
            for c in range(phi.source[i]):
                if c not in selected:
                    yield (i, r, c)


def approx_weighted(
    phi: BlockMorphism,
    cert: WeightedCertificate,
    q: int,
    ledger: ConstantLedger,
    budget: int = dirichlet.DEFAULT_BUDGET,
    exponent: int | None = None,
) -> WeightedApprox:
    """A weighted morphism psi with small norm close in direction to phi.

    The off-pattern entries are approximated relative to the weighted
    scale: the Dirichlet targets are the integer coordinate vectors of
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
    targets = [x for spec in phi.product.factors for x in spec.one().nums]
    unit_len = len(targets)
    for (i, r, c) in positions:
        e = phi.blocks[i][r][c]
        targets.extend(Fraction(x, a) for x in e.nums)
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

    # psi's entries as integer coordinate vectors: b at the certificate's
    # identity pattern, the Dirichlet numerators at the L positions, 0 elsewhere
    factors = phi.product.factors
    coords = [
        [[[0] * spec.rank for _ in range(phi.source[i])] for _ in range(phi.target[i])]
        for i, spec in enumerate(factors)
    ]
    for i, cols in enumerate(cert.columns):
        for j, c in enumerate(cols):
            coords[i][j][c][0] = b
    at = 0
    for (i, r, c) in positions:
        coords[i][r][c] = beta[at : at + factors[i].rank]
        at += factors[i].rank
    psi = BlockMorphism.from_coords(phi.product, phi.source, phi.target, coords)
    # |psi|^2 = psi_norm / gd, gd the lcm of the factors' gram_den
    layout, gd = _gram_weights(phi.product)
    psi_norm = max(
        (w * spec.form_int(x, x)
         for (spec, _, w), block in zip(layout, coords) for row in block for x in row),
        default=0,
    )
    psi_norm_sq = Fraction(psi_norm, gd)

    # (iv) the section identity psi o i_r = [b] is psi_cert's a*I column
    # check, made when psi_cert is built
    psi_cert = WeightedCertificate(
        morphism=psi,
        scale=b,
        columns=cert.columns,
        slack_sq=max(Fraction(1), psi_norm_sq / Fraction(b * b)),
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
    if psi_norm * c_psi_sq.denominator > c_psi_sq.numerator * b * b * gd:
        raise CertificationError("approximated morphism norm exceeds its certified bound")

    # (iii), scale-normalized and cross-multiplied: per entry,
    # ||a*psi_e - b*phi_e||^2 <= C'^2 a^2 / q^2 with C' = sum|tau|; both
    # entries lie in the order, so d = a*psi_e - b*phi_e is an integer vector
    # with ||d||^2 = form_int(d, d) / gram_den
    c_prime_sq = ledger.value("C_c_sq")
    rhs_num = c_prime_sq.numerator * a * a
    rhs_den = c_prime_sq.denominator * q * q
    for spec, block, phi_block in zip(factors, coords, phi.blocks):
        for row, phi_row in zip(block, phi_block):
            for x, phi_e in zip(row, phi_row):
                d = [a * xi - b * yi for xi, yi in zip(x, phi_e.nums)]
                if spec.form_int(d, d) * rhs_den > rhs_num * spec.gram_den:
                    raise CertificationError("direction error exceeds the certified constant")

    checks = {
        "branch": "approximated",
        "c_psi_sq": c_psi_sq,
        "c_prime_sq": c_prime_sq,
        "norm_sq": psi_norm_sq,
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


# -- special morphisms and witness transport --------------------------------


class SpecialApprox(NamedTuple):
    morphism: BlockMorphism
    certificate: SpecialCertificate
    denominator: int
    q: int
    exponent: int
    modulus: int
    eps_prime_sq_cap: Fraction  # epsilon'^2 <= C_eps^2 * eps^2, this is the cap
    family_bound_sq: Fraction   # |psi_tilde|^2 <= family_bound_sq * M^2
    approximated: bool
    transform: Callable[[InclusionWitness], InclusionWitness]


def special_moduli(
    product: ProductRingSpec,
    ledger: ConstantLedger,
    eps_sq: Fraction,
    k0_sq: Fraction,
    p_height_sq: Fraction,
    r_total: int,
    source_total: int,
) -> tuple[int, int]:
    """(Q, m) for a special morphism of target rank r and source rank g + s:
    Q = max(Q0, ceil((K0 + |p|)/eps), 2) computed on squares through
    (K0+|p|)^2 <= 2(K0^2+|p|^2), and m = t(r(g+s) - r^2 + n_factors)."""
    q0 = int(ledger.value("Q0"))
    q = max(q0, ceil_sqrt(2 * (k0_sq + p_height_sq) / eps_sq), 2)
    m = product.rank * (r_total * source_total - r_total**2 + product.n_factors)
    return q, m


def approx_special(
    cert: SpecialCertificate,
    eps_sq: Fraction,
    k0_sq: Fraction,
    p_height_sq: Fraction,
    ledger: ConstantLedger,
    budget: int = dirichlet.DEFAULT_BUDGET,
) -> SpecialApprox:
    """A bounded special morphism plus the transformer carrying witnesses
    from the kernel of phi_tilde = cert.morphism to the output kernel:
    transform(w) takes a pair witness for phi_tilde, checks the
    eps/M ball and the K0 height bound, and returns the transported
    witness with xi_bound_sq = eps_prime_sq_cap / |psi_tilde|^2.

    Q and m come from `special_moduli`; the morphism family emitted over
    any scenario is finite because |psi_tilde|^2 <= C^2 M^2 with M = Q^m.
    """
    if eps_sq <= 0:
        raise ApproxError("positive ball radius required")
    phi_tilde = cert.morphism
    q, m = special_moduli(
        phi_tilde.product, ledger, eps_sq, k0_sq, p_height_sq,
        sum(phi_tilde.target), sum(phi_tilde.source),
    )
    modulus = q**m

    c_w_sq = cert.weighted.slack_sq
    c_s_sq = cert.slack_sq
    c_op_sq = op_constant_sq(ledger, sum(phi_tilde.source))
    s_up_sq = ledger.value("C_c_sq")  # (sum|tau|)^2

    if phi_tilde.norm_sq() <= Fraction(modulus) ** 2:
        psi_tilde = phi_tilde
        out_cert = cert
        b = cert.weighted.scale
        section = None
        approximated = False
        c_psi_sq = Fraction(1)
        family_bound_sq = Fraction(1)
    else:
        wide_cert = WeightedCertificate(
            morphism=phi_tilde,
            scale=cert.weighted.scale,
            columns=cert.weighted.columns,
            slack_sq=max(Fraction(1), phi_tilde.norm_sq() / Fraction(cert.weighted.scale ** 2)),
        )
        wa = approx_weighted(phi_tilde, wide_cert, q, ledger, budget=budget, exponent=m)
        psi_tilde = wa.morphism
        b = wa.denominator
        psi_left, _ = psi_tilde.split_columns(cert.left_counts)
        left_cert = WeightedCertificate(
            morphism=psi_left,
            scale=b,
            columns=cert.weighted.columns,
            slack_sq=max(Fraction(1), psi_left.norm_sq() / Fraction(b * b)),
        )
        out_cert = SpecialCertificate(
            morphism=psi_tilde,
            weighted=left_cert,
            slack_sq=max(Fraction(1), psi_tilde.norm_sq() / psi_left.norm_sq()),
        )
        section = embedding_ir(left_cert)
        approximated = True
        c_psi_sq = wa.checks["c_psi_sq"]
        family_bound_sq = c_psi_sq

    if psi_tilde.norm_sq() > family_bound_sq * Fraction(modulus) ** 2:
        raise CertificationError("emitted morphism escapes the certified family bound")

    c_eps_sq = max(
        Fraction(1),
        c_op_sq * (s_up_sq + 2 * c_s_sq * c_w_sq) * c_psi_sq,
    )
    eps_prime_sq_cap = c_eps_sq * eps_sq

    def transform(w: InclusionWitness) -> InclusionWitness:
        if w.p is None or w.y is not None or w.morphism != phi_tilde:
            raise ApproxError("input witness is not a pair witness for this special morphism")
        if w.xi.height() * Fraction(modulus) ** 2 > eps_sq:
            raise ApproxError("input perturbation is not inside the eps/M ball")
        if w.x.height() > k0_sq:
            raise ApproxError("witness point exceeds the configured height bound")
        xi_prime = w.xi
        if approximated:
            image = apply_morphism(psi_tilde, concat_points(w.x, w.p))
            xi_prime = concat_points(
                apply_morphism(section, divide(-image, b)), w.p.space.zero()
            )
        return InclusionWitness(
            morphism=psi_tilde,
            x=w.x,
            p=w.p,
            xi=xi_prime,
            xi_bound_sq=eps_prime_sq_cap / psi_tilde.norm_sq(),
            weighted=out_cert.weighted,
            special=out_cert,
        )

    return SpecialApprox(
        morphism=psi_tilde,
        certificate=out_cert,
        denominator=b,
        q=q,
        exponent=m,
        modulus=modulus,
        eps_prime_sq_cap=eps_prime_sq_cap,
        family_bound_sq=family_bound_sq,
        approximated=approximated,
        transform=transform,
    )
