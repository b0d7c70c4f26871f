"""The end-to-end chain (weightify, specialize, bounded approximation,
threshold classification) over a scenario's witnesses, and the seeded
property suites for every module.

Reports are plain dicts of JSON-safe values with rationals as num/den
string pairs; two runs with the same scenario and seed produce identical
bytes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import dirichlet
from .base import EndoapproxError
from .approx import (
    ApproxError,
    CertificationError,
    approx_special,
    approx_vector,
    approx_weighted,
    derive_ledger,
    special_moduli,
)
from .exact import le_linear_sqrt
from .geomnum import (
    GeomNumError,
    PointConstants,
    inflate_generators,
    morphism_lower_bound_check,
    point_lower_constants,
)
from .ledger import op_constant_sq
from .linalg import det
from .model import (
    GeneratorSet,
    ModelPoint,
    ModelSpace,
    apply_morphism,
    divide,
    slot_from_nums,
    torsion_count,
    torsion_matrices,
    torsion_widths,
)
from .morphisms import (
    AmbientSpec,
    BlockMorphism,
    MorphismError,
    embedding_ir,
    gauss_reduce,
    is_weighted,
    isogeny_extension,
    off_scalar,
    rank_and_codim,
    rationalize_block,
    weightify,
)
from .reduction import (
    gamma_embed,
    point_project,
    specialize,
    weighted_witness,
)
from .rings import (
    ProductRingSpec,
    RingElement,
    RingSpec,
    lambda_min_nonzero,
    norm_equivalence_constants,
)
from .scenario import (
    Scenario,
    morphism_to_json,
    point_to_json,
    rat_to_json,
    report_envelope,
    witness_to_json,
)
from .thresholds import ThresholdError, kernel_degree

# -- the proof chain ---------------------------------------------------------


def run_pipeline(scenario: Scenario) -> dict:
    ledger = derive_ledger(scenario.product)
    gamma, inflation = inflate_generators(scenario.gamma, scenario.k0_sq, scenario.k0_sq)
    p_height = gamma.point.height()
    moduli = _moduli_table(scenario, ledger, p_height)

    family: dict = {}
    rows = []
    ok = True
    for spec in scenario.witness_specs:
        row = {"witness": spec.name, "stages": []}
        try:
            witness = scenario.witness(spec)
            row["stages"].append({"stage": "input", "checked": True})

            witness, weightified = weighted_witness(witness, scenario.ambient)
            if weightified:
                row["stages"].append(
                    {"stage": "weightify", "scale": witness.weighted.scale,
                     "morphism": morphism_to_json(witness.morphism)}
                )
            else:
                row["stages"].append({"stage": "weighted", "scale": witness.weighted.scale})

            pair = specialize(witness, gamma, scenario.k0_sq)
            row["stages"].append(
                {"stage": "specialize", "N": pair.group_data[0],
                 "morphism": morphism_to_json(pair.morphism)}
            )

            sa = approx_special(
                pair.special,
                scenario.eps_sq,
                scenario.k0_sq,
                p_height,
                ledger,
                budget=scenario.budget,
            )
            transported = sa.transform(pair)
            row["stages"].append(
                {
                    "stage": "approx_special",
                    "Q": sa.q,
                    "m": sa.exponent,
                    "M": sa.modulus,
                    "approximated": sa.approximated,
                    "denominator": sa.denominator,
                    "norm_sq": rat_to_json(sa.morphism.norm_sq()),
                    "family_bound_sq": rat_to_json(sa.family_bound_sq * Fraction(sa.modulus) ** 2),
                    "c_eps_sq": rat_to_json(sa.eps_prime_sq_cap / scenario.eps_sq),
                    "eps_prime_sq_cap": rat_to_json(sa.eps_prime_sq_cap),
                    "witness": witness_to_json(transported),
                }
            )
            entry = family.setdefault(
                sa.morphism,
                {
                    "norm_sq": sa.morphism.norm_sq(),
                    "bound_sq": sa.family_bound_sq * Fraction(sa.modulus) ** 2,
                },
            )
            if sa.morphism.norm_sq() > entry["bound_sq"]:
                raise CertificationError("family norm bound violated")

            psi_left = sa.certificate.weighted.morphism
            _, codim = rank_and_codim(psi_left, scenario.ambient)
            if scenario.card and scenario.oracle and scenario.targets:
                if codim < scenario.card.dim_d + 1:
                    raise ThresholdError(
                        f"codimension {codim} below dim V + 1 = {scenario.card.dim_d + 1}"
                    )
                thr = scenario.thresholds()
                case = thr.classify(psi_left.norm_sq())
                row["stages"].append(
                    {
                        "stage": "threshold",
                        "codim": codim,
                        "m_upper": rat_to_json(thr.m_upper),
                        "eps1_star_sq": rat_to_json(thr.eps1_star_sq),
                        "case": case.case,
                        "at_boundary": case.at_boundary,
                        "ball_radius_sq": rat_to_json(case.ball_radius_sq),
                    }
                )
            row["ok"] = True
        except EndoapproxError as err:
            row["ok"] = False
            row["diagnostic"] = f"{type(err).__name__}: {err}"
            ok = False
        rows.append(row)

    family_report = {
        "distinct": len(family),
        "max_norm_sq": rat_to_json(
            max((e["norm_sq"] for e in family.values()), default=Fraction(0))
        ),
        "bound_sq": rat_to_json(
            max((e["bound_sq"] for e in family.values()), default=Fraction(0))
        ),
    }
    return {
        **report_envelope("pipeline", scenario),
        "gamma_inflation": inflation,
        "gamma": point_to_json(gamma.point),
        "p_height_sq": rat_to_json(p_height),
        "moduli": moduli,
        "ledger": ledger.to_jsonable(),
        "witnesses": rows,
        "family": family_report,
        "ok": ok,
    }


def _moduli_table(scenario: Scenario, ledger, p_height: Fraction) -> list[dict]:
    """Q and M = Q^m for every admissible target rank, independent of the
    witness list (the bounded-family modulus exists before any witness)."""
    source_total = scenario.ambient.total + scenario.gamma.space.ambient.total
    table = []
    ranges = [range(0, c + 1) for c in scenario.ambient.counts]
    for target in itertools.product(*ranges):
        r_total = sum(target)
        if r_total == 0:
            continue
        q, m = special_moduli(
            scenario.product, ledger, scenario.eps_sq, scenario.k0_sq, p_height,
            r_total, source_total,
        )
        table.append({"target": list(target), "Q": q, "m": m, "M": q**m})
    return table


# -- random data for the suites ---------------------------------------------


def _rand_element(rng, spec: RingSpec, limit: int) -> RingElement:
    """An integral element, its coordinates in [-limit, limit] and over 1,
    which is lowest terms."""
    return RingElement(spec, tuple([rng.randint(-limit, limit) for _ in range(spec.rank)]), 1)


def rand_full_rank(rng, spec: RingSpec) -> list[list]:
    """A full-rank square block of size 1 to 3 with entries in [-4, 4]."""
    n = rng.randint(1, 3)
    while True:
        block = [[_rand_element(rng, spec, 4) for _ in range(n)] for _ in range(n)]
        if det(rationalize_block(spec, block)) != 0:
            return block


def rand_row_morphism(rng, space: ModelSpace) -> BlockMorphism:
    """One row on each factor that has slots, entries in [-3, 3]."""
    targets = tuple(min(c, 1) for c in space.counts)
    blocks = [
        [[_rand_element(rng, spec, 3) for _ in range(space.counts[i])] for _ in range(targets[i])]
        for i, spec in enumerate(space.product.factors)
    ]
    return BlockMorphism(space.product, space.counts, targets, blocks)


def rand_dirichlet_target(rng, limit: int) -> tuple[list[Fraction], int]:
    """1 to 3 targets, numerators in [-limit, limit] over 1 to 100, and q in 2 to 8."""
    m = rng.randint(1, 3)
    q = rng.randint(2, 8)
    return [Fraction(rng.randint(-limit, limit), rng.randint(1, 100)) for _ in range(m)], q


def rand_lower_bound_case(rng, gamma: GeneratorSet, factor: int, consts: PointConstants):
    """A row in [-20, 20] on one factor's generators and a perturbation xi on
    a rational grid; None for a zero row or an xi outside the eps0 ball."""
    space = gamma.space
    spec = space.product.factors[factor]
    row = [_rand_element(rng, spec, 20) for _ in gamma.point.slots[factor]]
    if all(e.is_zero() for e in row):
        return None
    den = rng.randint(2, 6)
    xi_slots: list = [[] for _ in space.counts]
    for k, spec_k in enumerate(space.product.factors):
        no_torsion = (0,) * (2 * spec_k.dimension)
        for _ in range(space.counts[k]):
            free = []
            for _ in range(space.free_ranks[k]):
                coeff = [0] * spec_k.rank
                num = rng.randint(-den, den)  # the value is drawn before its position
                coeff[rng.randrange(spec_k.rank)] = num
                free.append(coeff)
            xi_slots[k].append(slot_from_nums(no_torsion, 1, free, den * den))
    xi = space.point(xi_slots)
    if any(xi.slot_height(k, j) > consts.eps0_sq for k, c in enumerate(space.counts) for j in range(c)):
        return None
    return row, xi


def _rand_point(rng, space: ModelSpace) -> ModelPoint:
    """Torsion on the (1/4)-grid and integral free coefficients in [-3, 3]."""
    slots = []
    for i, spec in enumerate(space.product.factors):
        fac = []
        for _ in range(space.counts[i]):
            torsion = [rng.randrange(4) for _ in range(2 * spec.dimension)]
            free = [
                [rng.randint(-3, 3) for _ in range(spec.rank)]
                for _ in range(space.free_ranks[i])
            ]
            fac.append(slot_from_nums(torsion, 4, free, 1))
        slots.append(fac)
    return space.point(slots)


# -- shared properties -------------------------------------------------------
# Each check judges one case and returns a failure message, or None when the
# case holds.  The suites below and the tests call the same checks, each with
# its own seeds, trial counts and budgets.


def check_norm_sandwich(a: RingElement, c0_sq: Fraction, c1_sq: Fraction) -> str | None:
    """c0^2 |a|_inf^2 <= |a|^2 <= c1^2 |a|_inf^2, and the involution keeps |a|^2."""
    sup = a.sup_coord()
    n = a.norm_sq()
    if not c0_sq * sup * sup <= n <= c1_sq * sup * sup:
        return f"{a.ring.tag}: norm equivalence failed at {a.coords}"
    if a.conj().norm_sq() != n:
        return f"{a.ring.tag}: involution changed the norm at {a.coords}"
    return None


def check_gauss_identity(spec: RingSpec, block) -> str | None:
    """gauss_reduce of a full-rank block gives a scale a >= 1 and an
    integral reduced block with reduced * block = a I, decided in integers."""
    try:
        reduced, a = gauss_reduce(spec, block)
    except MorphismError as err:
        return f"{spec.tag}: gauss failed: {err}"
    if a < 1:
        return f"{spec.tag}: non-positive scale"
    if not all(e.is_integral() for row in reduced for e in row):
        return f"{spec.tag}: reduced block leaves the order"
    left = [[e.nums for e in row] for row in reduced]
    right = [[e.nums for e in row] for row in block]
    at = off_scalar(spec, left, right, a)
    if at is not None:
        return f"{spec.tag}: reduced * block != {a} I at {at}"
    return None


TORSION_LEVEL = 4  # highest torsion level the kernel-inclusion check enumerates


def _kills(m: list[list[int]], k: tuple[int, ...], level: int) -> bool:
    """Whether the torsion matrix m kills the level-`level` point with numerators k."""
    return all(sum(a * b for a, b in zip(row, k)) % level == 0 for row in m)


def _escapes(a: list[list[int]], b: list[list[int]], width: int, level: int) -> bool:
    """Whether some k in [0, level)^width has a k = 0 and b k != 0 mod `level`.

    The walk visits k in `itertools.product(range(level), repeat=width)`
    order and keeps the residues of a k and b k as one running integer.
    Each step changes a run of trailing digits j, j+1, ...: digit j goes up
    by one and the ones after it wrap from level - 1 to 0, which is also +1
    mod `level`, so the step adds step[j], the sum of columns j onwards.
    k = 0 is skipped: b kills it.

    The residues sit in fields of w bits, those of a k lowest.  step[j] is
    added with its entries reduced mod `level`, so a field then holds some
    s < 2 * level, and s >= level exactly when s + 2^(w-1) - level sets the
    field's top bit; `level` is taken off those fields.  No field overflows
    into the next, because 2^(w-1) >= 2 * level."""
    rows = [*a, *b]
    w = level.bit_length() + 2
    ones = sum(1 << (w * i) for i in range(len(rows)))
    top_bits = ones << (w - 1)
    offset = top_bits - level * ones
    step = [
        sum((sum(row[j:]) % level) << (w * i) for i, row in enumerate(rows)) for j in range(width)
    ]
    a_mask = (1 << (w * len(a))) - 1
    res = 0
    digits = [0] * width
    last = level - 1
    while True:
        j = width - 1
        while j >= 0 and digits[j] == last:
            digits[j] = 0
            j -= 1
        if j < 0:
            return False
        digits[j] += 1
        res += step[j]
        res -= (((res + offset) & top_bits) >> (w - 1)) * level
        if not res & a_mask and res > a_mask:
            return True


def check_kernel_inclusion(
    psi: BlockMorphism, phi: BlockMorphism, space: ModelSpace, budget: int
) -> str | None:
    """Every torsion point of level 1 to TORSION_LEVEL that psi kills, phi kills too.

    Decided on integer residue vectors k in [0, level)^N through each
    morphism's `torsion_matrices`, one factor at a time (`_escapes`): both
    morphisms are block-diagonal, so the inclusion holds on the space
    exactly when it holds on every factor. A level whose count over the
    whole space exceeds `budget` raises `BudgetError`."""
    for f in (psi, phi):
        if f.source != space.counts or f.product != space.product:
            raise MorphismError("morphism does not act on the torsion space")
    m_psi, m_phi = torsion_matrices(psi), torsion_matrices(phi)
    for level in range(1, TORSION_LEVEL + 1):
        torsion_count(space, level, budget)
        for a, b, width in zip(m_psi, m_phi, torsion_widths(space)):
            if _escapes(a, b, width, level):
                return f"kernel escaped at torsion level {level}"
    return None


def check_dirichlet(alpha: list[Fraction], q: int, budget: int) -> str | None:
    """dirichlet_approx against the exhaustive oracle: b in [1, q^m), every
    |alpha_i b - beta_i| <= 1/q, the least feasible b and the oracle's error at b.
    Decided on integers: with alpha_i = n_i / d_i, |n_i b - beta_i d_i| q <= d_i;
    the oracle's table is worst-residue numerators w over its denominator D,
    b is feasible exactly when q w_b <= D, and the error at b is w_b / D."""
    res = dirichlet.dirichlet_approx(alpha, q, budget=budget)
    b, err = res.denominator, res.error
    if not 1 <= b < q ** len(alpha) or err.numerator * q > err.denominator or any(
        abs(a.numerator * b - beta * a.denominator) * q > a.denominator
        for a, beta in zip(alpha, res.numerators)
    ):
        return f"contract failed at alpha={alpha} q={q}"
    den, worst = dirichlet.feasibility_oracle(alpha, q, budget=budget)
    if q * worst[b - 1] > den or q * min(worst[: b - 1], default=den) <= den:
        return f"not the minimal feasible denominator at alpha={alpha} q={q}"
    if err.numerator * den != worst[b - 1] * err.denominator:
        return f"error differs from the oracle's at alpha={alpha} q={q}"
    return None


def check_kernel_degree(spec: RingSpec, a: int, budget: int) -> str | None:
    """kernel_degree(a) against the count of level-a torsion points that [a]
    kills on one slot of a dimension-1 factor, counted on residue vectors
    through `torsion_matrices`; over `budget` raises `BudgetError`."""
    single = ProductRingSpec((spec,))
    space = ModelSpace(AmbientSpec(single, (1,)), (1,))
    (m,) = torsion_matrices(BlockMorphism.scalar(single, (1,), a))
    expected = kernel_degree(a, (1,), (1,))
    (width,) = torsion_widths(space)
    torsion_count(space, a, budget)
    seen = sum(_kills(m, k, a) for k in itertools.product(range(a), repeat=width))
    if expected != seen:
        return f"kernel degree {expected} != enumerated {seen} at a={a}"
    return None


def _suite(name: str, trials: int, failures: list[str]) -> dict:
    return {
        "suite": name,
        "trials": trials,
        "failures": len(failures),
        "first_failures": failures[:5],
    }


# -- module suites -----------------------------------------------------------


def suite_rings(product: ProductRingSpec, trials: int, rng: random.Random) -> dict:
    failures: list[str] = []
    count = 0
    for spec in product.factors:
        c0_sq, c1_sq = norm_equivalence_constants(spec)
        lam = lambda_min_nonzero(spec)
        if lam.witness.norm_sq() != lam.value_sq:
            failures.append(f"{spec.tag}: lambda witness does not attain the minimum")
        for _ in range(trials):
            count += 1
            a = _rand_element(rng, spec, 9)
            failure = check_norm_sandwich(a, c0_sq, c1_sq)
            if failure:
                failures.append(failure)
                continue
            b = _rand_element(rng, spec, 9)
            if not spec.rho_respects_product(a.nums, b.nums):
                failures.append(f"{spec.tag}: lattice representation broke on a product")
    return _suite("rings", count, failures)


def suite_morphisms(product: ProductRingSpec, trials: int, rng: random.Random) -> dict:
    failures: list[str] = []
    count = 0
    for spec in product.factors:
        for _ in range(trials):
            count += 1
            failure = check_gauss_identity(spec, rand_full_rank(rng, spec))
            if failure:
                failures.append(failure)
    # embedding + extension identities on random weighted morphisms
    for _ in range(trials):
        count += 1
        single = ProductRingSpec((product.factors[0],))
        spec = single.factors[0]
        g, r = 2, 1
        a = rng.randint(1, 6)
        l_entry = _rand_element(rng, spec, 5)
        phi = BlockMorphism(
            single, (g,), (r,), [[[spec.integer(a), l_entry]]]
        )
        cert = is_weighted(phi)
        if cert is None:
            failures.append("weighted pattern not found on (aI|L)")
            continue
        ir = embedding_ir(cert)
        if phi.compose(ir) != BlockMorphism.scalar(single, (r,), cert.scale):
            failures.append("embedding identity failed")
            continue
        ext = isogeny_extension(cert)
        top = BlockMorphism(single, ext.source, phi.target, [ext.blocks[0][:r]])
        if top != phi:
            failures.append("extension does not preserve the first rows")
    return _suite("morphisms", count, failures)


def suite_weightify_torsion(scenario: Scenario, trials: int, rng: random.Random) -> dict:
    """Kernel inclusion through weightify, checked on every torsion point of
    levels 1 to TORSION_LEVEL; skipped when that level's count exceeds the
    scenario's torsion budget."""
    failures: list[str] = []
    count = 0
    space = scenario.space
    try:
        torsion_count(space, TORSION_LEVEL, scenario.torsion_budget)
    except dirichlet.BudgetError:
        return _suite("weightify_torsion", 0, [])
    for _ in range(trials):
        count += 1
        psi = rand_row_morphism(rng, space)
        try:
            ranks, _ = rank_and_codim(psi, scenario.ambient)
            if ranks != psi.target:
                continue
            phi = weightify(psi, scenario.ambient)[1].morphism
        except MorphismError:
            continue
        failure = check_kernel_inclusion(psi, phi, space, scenario.torsion_budget)
        if failure:
            failures.append(failure)
    return _suite("weightify_torsion", count, failures)


def suite_model(scenario: Scenario, trials: int, rng: random.Random) -> dict:
    failures: list[str] = []
    space = scenario.space
    c_op_sq = op_constant_sq(derive_ledger(scenario.product), sum(space.counts))
    count = 0
    for _ in range(trials):
        count += 1
        x = _rand_point(rng, space)
        y = _rand_point(rng, space)
        z = _rand_point(rng, space)
        xy = x + y  # shared by the group law, the triangle and additivity
        if xy + z != x + (y + z) or xy != y + x or not (x - x).is_zero():
            failures.append("group law failed")
            continue
        hx, hy, hxy = x.height(), y.height(), xy.height()
        # h(x+y) <= h(x) + h(y) + 2 sqrt(h(x) h(y)), decided exactly
        if not le_linear_sqrt(hxy - hx - hy, Fraction(2), hx * hy):
            failures.append("height triangle inequality failed")
            continue
        n = rng.randint(1, 5)
        if x.int_mul(n).height() != Fraction(n * n) * hx:
            failures.append("height homogeneity failed")
            continue
        b = rng.randint(1, 5)
        if divide(x, b).int_mul(b) != x:
            failures.append("divide/multiply identity failed")
            continue
        phi = rand_row_morphism(rng, space)
        phi_x = apply_morphism(phi, x)  # shared by additivity and the height bound
        if apply_morphism(phi, xy) != phi_x + apply_morphism(phi, y):
            failures.append("morphism additivity failed")
            continue
        image_h = phi_x.height()
        if hx == 0:
            if image_h != 0:
                failures.append("torsion points must map to torsion")
        elif image_h > c_op_sq * phi.norm_sq() * hx:
            failures.append("operator height bound failed")
    return _suite("model", count, failures)


def suite_dirichlet(trials: int, rng: random.Random, budget: int) -> dict:
    failures: list[str] = []
    count = 0
    for _ in range(trials):
        count += 1
        alpha, q = rand_dirichlet_target(rng, 300)
        try:
            failure = check_dirichlet(alpha, q, budget)
        except dirichlet.BudgetError:
            continue
        if failure:
            failures.append(failure)
    return _suite("dirichlet", count, failures)


def suite_approx(product: ProductRingSpec, trials: int, rng: random.Random, budget: int) -> dict:
    failures: list[str] = []
    ledger = derive_ledger(product)
    q0 = int(ledger.value("Q0"))
    count = 0
    for _ in range(trials):
        count += 1
        n = rng.randint(1, 2) if product.rank <= 2 else 1
        vec = []
        for _ in range(n):
            vec.append(product.from_coords([rng.randint(-9, 9) for _ in range(product.rank)]))
        if all(e.is_zero() for e in vec):
            continue
        q = q0 + rng.randint(0, 3)
        try:
            approx_vector(product, vec, q, ledger=ledger, budget=budget)
        except dirichlet.BudgetError:
            continue
        except (ApproxError, CertificationError) as err:
            failures.append(f"vector approx failed: {err}")
    single = ProductRingSpec((product.factors[0],))
    led1 = derive_ledger(single)
    q0_1 = int(led1.value("Q0"))
    spec = single.factors[0]
    for _ in range(trials):
        count += 1
        a = rng.randint(1, 50)
        l_entry = _rand_element(rng, spec, 50)
        phi = BlockMorphism(single, (2,), (1,), [[[spec.integer(a), l_entry]]])
        cert = is_weighted(phi)
        q = q0_1 + rng.randint(0, 3)
        try:
            wa = approx_weighted(phi, cert, q, led1, budget=budget, exponent=2)
        except dirichlet.BudgetError:
            continue
        except (ApproxError, CertificationError) as err:
            failures.append(f"weighted approx failed: {err}")
            continue
        ir = embedding_ir(wa.certificate)
        if wa.morphism.compose(ir) != BlockMorphism.scalar(single, (1,), wa.denominator):
            failures.append("psi o i_r != [b]")
    return _suite("approx", count, failures)


def suite_geomnum(scenario: Scenario, trials: int, rng: random.Random) -> dict:
    """Falsification search for the certified point constants."""
    failures: list[str] = []
    gamma = scenario.gamma
    count = 0
    if gamma.point.space.ambient.total == 0:
        return _suite("geomnum", 0, [])
    for i, slots in enumerate(gamma.point.slots):
        if not slots:
            continue
        consts = point_lower_constants(gamma.point, i)
        for _ in range(trials):
            count += 1
            case = rand_lower_bound_case(rng, gamma, i, consts)
            if case is None:
                continue
            row, xi = case
            try:
                ok = morphism_lower_bound_check(gamma.point, i, row, xi, consts)
            except GeomNumError:
                continue
            if not ok:
                failures.append(f"factor {i}: lower bound violated at {[e.coords for e in row]}")
    return _suite("geomnum", count, failures)


def suite_thresholds(scenario: Scenario) -> dict:
    failures: list[str] = []
    count = 0
    # kernel degree against torsion enumeration on a dimension-1 factor, up
    # to the first level over the torsion budget (the later ones cost more)
    for spec, g_i in zip(scenario.product.factors, scenario.space.counts):
        if spec.dimension != 1 or g_i < 1:
            continue
        for a in (1, 2, 3):
            try:
                failure = check_kernel_degree(spec, a, scenario.torsion_budget)
            except dirichlet.BudgetError:
                break
            count += 1
            if failure:
                failures.append(failure)
        break
    if scenario.card and scenario.oracle and scenario.targets:
        count += 1
        try:
            thr = scenario.thresholds()
            boundary = thr.m_upper * thr.m_upper
            case = thr.classify(boundary)
            if not case.at_boundary:
                failures.append("boundary classification missed")
            if thr.eps1_star_sq <= 0 or thr.m_upper < 1:
                failures.append("degenerate thresholds")
        except ThresholdError as err:
            failures.append(f"thresholds failed: {err}")
    return _suite("thresholds", count, failures)


def suite_reduction(scenario: Scenario) -> dict:
    failures: list[str] = []
    ledger = derive_ledger(scenario.product)
    count = 0
    embedded = {}
    for spec in scenario.witness_specs:
        count += 1
        try:
            w = scenario.witness(spec)
        except EndoapproxError as err:
            failures.append(f"{spec.name}: witness failed: {err}")
            continue
        try:
            pw = gamma_embed(w, scenario.gamma, scenario.k0_sq, scenario.ambient)
            embedded[spec.name] = (w, pw)
        except EndoapproxError as err:
            failures.append(f"{spec.name}: embed failed: {err}")
    keys = list(embedded)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            wi, pi = embedded[keys[i]]
            wj, pj = embedded[keys[j]]
            if wi.x != wj.x and pi.x == pj.x:
                failures.append(f"injectivity broken between {keys[i]} and {keys[j]}")
    for name, (w, pw) in embedded.items():
        if w.xi_bound_sq != 0 or not pw.xi.is_torsion():
            continue
        count += 1
        try:
            back = point_project(pw, scenario.k0_sq, scenario.ambient, ledger)
            if back.x != w.x:
                failures.append(f"{name}: round trip changed the point")
            elif not back.xi.is_torsion():
                failures.append(f"{name}: round trip produced a non-torsion perturbation")
        except EndoapproxError as err:
            failures.append(f"{name}: projection failed: {err}")
    return _suite("reduction", count, failures)


def run_property_suites(scenario: Scenario, trials: int = 60) -> dict:
    rng = random.Random(scenario.seed)
    suites = [
        suite_rings(scenario.product, trials, rng),
        suite_morphisms(scenario.product, max(trials // 2, 5), rng),
        suite_weightify_torsion(scenario, max(trials // 10, 3), rng),
        suite_model(scenario, trials, rng),
        suite_dirichlet(max(trials // 2, 5), rng, scenario.budget),
        suite_approx(scenario.product, max(trials // 4, 5), rng, scenario.budget),
        suite_geomnum(scenario, trials, rng),
        suite_thresholds(scenario),
        suite_reduction(scenario),
    ]
    ok = all(s["failures"] == 0 for s in suites)
    return {
        **report_envelope("verify", scenario),
        "suites": suites,
        "ok": ok,
    }
