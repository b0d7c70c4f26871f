"""Differential tests: the integer kernels of ring multiplication, the
lattice representation, the Gram form, the orbit Gram, the involution, the
ring laws, Gauss reduction, the model's slot arithmetic and action, the
torsion-kernel checks and determinants against plain Fraction references
written here, on the four reference rings and on two-factor products
(`rho_act_int`, the action without the matrix, also on skewed bases); the
ring constants each ring derives once against their per-call derivations;
and `linalg`'s one fraction-free elimination (rank, solve, det, adjugate)
against the separate elimination loops it replaced, kept here as
references."""

import copy
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from endoapprox import linalg
from endoapprox.dirichlet import BudgetError
from endoapprox.model import (
    ModelError,
    ModelSpace,
    apply_morphism,
    divide,
    orbit_gram,
    torsion_enum,
    torsion_matrices,
)
from endoapprox.morphisms import (
    AmbientSpec,
    BlockMorphism,
    MorphismError,
    gauss_reduce,
    rank_and_codim,
    weightify,
)
from endoapprox.pipeline import (
    TORSION_LEVEL,
    check_gauss_identity,
    check_kernel_degree,
    check_kernel_inclusion,
    rand_full_rank,
    rand_row_morphism,
)
from endoapprox.exact import sqrt_upper
from endoapprox.rings import (
    LambdaMin,
    ProductRingSpec,
    RingError,
    RingSpec,
    eisenstein_ring,
    enumerate_short_vectors,
    lambda_min_nonzero,
    norm_equivalence_constants,
    quaternion_ring,
    reference_rings,
    submultiplicativity_sq,
)
from endoapprox.scenario import load_scenario
from endoapprox.thresholds import kernel_degree

import reference

KINDS = ("integral", "rational", "large")


@pytest.fixture(scope="module")
def two_factor(scenario_paths):
    path = next(p for p in scenario_paths if p.stem == "two-factor")
    return load_scenario(path).product


@pytest.fixture(scope="module")
def mixed():
    return ProductRingSpec((eisenstein_ring("Zw2"), quaternion_ring("Hq2")))


def _coords(rng, kind, n):
    if kind == "integral":
        return [rng.randint(-50, 50) for _ in range(n)]
    if kind == "rational":
        return [F(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n)]
    # around 10^12, some integral and some rational, with zeros mixed in
    return [
        rng.choice((0, 1, -1, 1, -1)) * F(10**12 + rng.randint(-999, 999), rng.choice((1, 1, 3, 7)))
        for _ in range(n)
    ]


def _all_fractions(values) -> bool:
    return all(type(v) is F for v in values)


# -- Fraction references ----------------------------------------------------


def ref_mul(spec, a, b):
    out = [F(0)] * spec.rank
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            for l, c in enumerate(spec.mul_table[j][k]):
                out[l] += F(x) * F(y) * c
    return out


def ref_rho(spec, coords):
    n = 2 * spec.dimension
    return [
        [sum((F(c) * m[r][k] for c, m in zip(coords, spec.lattice_rep)), F(0)) for k in range(n)]
        for r in range(n)
    ]


def ref_act(spec, coords, slot):
    """(torsion before mod 1, free) of one ring element acting on a slot."""
    m = ref_rho(spec, coords)
    tors = [sum((x * t for x, t in zip(row, slot.torsion)), F(0)) for row in m]
    return tors, [ref_mul(spec, coords, coeff) for coeff in slot.free]


def ref_apply(phi, x):
    out = []
    for i, spec in enumerate(phi.product.factors):
        fac = []
        for row in phi.blocks[i]:
            tors = [F(0)] * (2 * spec.dimension)
            free = [[F(0)] * spec.rank for _ in range(x.space.free_ranks[i])]
            for e, slot in zip(row, x.slots[i]):
                t, f = ref_act(spec, e.coords, slot)
                tors = [a + b for a, b in zip(tors, t)]
                free = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(free, f)]
            fac.append((tuple(v % 1 for v in tors), tuple(tuple(r) for r in free)))
        out.append(fac)
    return out


def ref_conj(spec, coords):
    return [sum((F(r) * F(c) for r, c in zip(row, coords)), F(0)) for row in spec.involution]


def ref_free_inner(spec, a, b):
    return sum((reference.gram_form(spec, x, y) for x, y in zip(a, b)), F(0))


def ref_height(p):
    """The largest slot height, each the free part's Fraction form with itself."""
    return max(
        (ref_free_inner(spec, s.free, s.free) for spec, fac in zip(p.space.product.factors, p.slots) for s in fac),
        default=F(0),
    )


# Slot references act on (torsion, free) pairs of Fractions.


def ref_slot_add(a, b):
    return (
        tuple((s + t) % 1 for s, t in zip(a[0], b[0])),
        tuple(tuple(s + t for s, t in zip(ra, rb)) for ra, rb in zip(a[1], b[1])),
    )


def ref_slot_neg(a):
    return tuple(-t % 1 for t in a[0]), tuple(tuple(-c for c in row) for row in a[1])


def ref_slot_int_mul(a, n):
    return tuple(n * t % 1 for t in a[0]), tuple(tuple(n * c for c in row) for row in a[1])


def ref_slot_divide(a, b):
    return tuple(t / b for t in a[0]), tuple(tuple(c / b for c in row) for row in a[1])


def _views(p):
    return [[(s.torsion, s.free) for s in fac] for fac in p.slots]


# The Fraction Gauss reduction that the integer one replaced, kept verbatim
# with its two helpers; it is exact on integral blocks only.


def ref_right_mul_matrix(spec, a):
    """Matrix of x -> x*a on coordinates."""
    cols = [(spec.basis_element(j) * a).coords for j in range(spec.rank)]
    return [[cols[j][i] for j in range(spec.rank)] for i in range(spec.rank)]


def ref_solve_ax_eq_by(x, y):
    """Nonzero a, b with a*x == b*y; (y, x) commutatively, (y*conj(x), conj(x)*x)
    in a quaternion order."""
    if x.ring.tag != y.ring.tag:
        raise RingError("solve_ax_eq_by needs elements of one ring")
    if x.is_zero() or y.is_zero():
        raise RingError("solve_ax_eq_by needs nonzero elements")
    if x.ring.is_commutative:
        a, b = y, x
    else:
        a, b = y * x.conj(), x.conj() * x
    if a.is_zero() or b.is_zero() or a * x != b * y:
        raise RingError("left common multiple construction failed for this ring")
    return a, b


def ref_gauss_reduce(spec, delta0):
    """Left-only Gauss elimination: a matrix delta0' and positive integer a
    with delta0' @ delta0 == a * I, entries staying in the order.

    Elimination multiplies rows on the left only (no commutation); the
    diagonal is cleared to integers through the adjugate of each entry's
    right-multiplication matrix, merged by least common multiple, and the
    result is reduced by the content of the output matrix.
    """
    n = len(delta0)
    if n == 0:
        return [], 1
    if any(len(row) != n for row in delta0):
        raise MorphismError("gauss reduction needs a square block")
    work = [list(row) for row in delta0]
    trans = [[spec.integer(1) if i == j else spec.zero() for j in range(n)] for i in range(n)]

    def row_op(target_row, alpha, beta, pivot_row):
        for m in (work, trans):
            m[target_row] = [
                alpha * m[target_row][j] - beta * m[pivot_row][j] for j in range(n)
            ]

    for c in range(n):
        piv = next((r for r in range(c, n) if not work[r][c].is_zero()), None)
        if piv is None:
            raise MorphismError("gauss reduction on a rank-deficient block")
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            trans[c], trans[piv] = trans[piv], trans[c]
        for r in range(n):
            if r != c and not work[r][c].is_zero():
                alpha, beta = ref_solve_ax_eq_by(work[r][c], work[c][c])
                row_op(r, alpha, beta, c)
                if not work[r][c].is_zero():
                    raise MorphismError("elimination failed to clear an entry")

    scales = []
    clearers = []
    for c in range(n):
        delta = work[c][c]
        if delta.is_zero():
            raise MorphismError("gauss reduction on a rank-deficient block")
        rmat = [[int(x) for x in row] for row in ref_right_mul_matrix(spec, delta)]
        adj, d = ref_adjugate_int(rmat)
        if d == 0:
            raise MorphismError("degenerate right-multiplication matrix")
        sign = 1 if d > 0 else -1
        coords = [sign * adj[i][0] for i in range(spec.rank)]
        clearer = spec.element(coords)
        if clearer * delta != spec.integer(abs(d)):
            raise MorphismError("adjugate clearing failed")
        scales.append(abs(d))
        clearers.append(clearer)

    m = 1
    for s in scales:
        m = lcm(m, s)
    out_rows = []
    for c in range(n):
        factor = m // scales[c]
        out_rows.append([(clearers[c] * trans[c][j]).scale(factor) for j in range(n)])

    content = 0
    for row in out_rows:
        for e in row:
            for coord in e.coords:
                assert coord.denominator == 1
                content = gcd(content, int(coord))
    if content > 1:
        out_rows = [[e.scale(F(1, content)) for e in row] for row in out_rows]
        m //= content

    # final exactness check: delta0' @ delta0 == m * I
    for i in range(n):
        for j in range(n):
            acc = spec.zero()
            for p in range(n):
                acc = acc + out_rows[i][p] * delta0[p][j]
            want = spec.integer(m) if i == j else spec.zero()
            if acc != want:
                raise MorphismError("gauss reduction identity check failed")
    return out_rows, m


def ref_kernel_inclusion(psi, phi, space, budget):
    """The Fraction-point loop: every enumerated torsion point psi kills, phi kills."""
    for level in range(1, TORSION_LEVEL + 1):
        for z in torsion_enum(space, level, budget=budget):
            if apply_morphism(psi, z).is_zero() and not apply_morphism(phi, z).is_zero():
                return f"kernel escaped at torsion level {level}"
    return None


def ref_kernel_degree(spec, a, budget):
    single = ProductRingSpec((spec,))
    space = ModelSpace(AmbientSpec(single, (1,)), (1,))
    mult = BlockMorphism.scalar(single, (1,), a)
    expected = kernel_degree(a, (1,), (1,))
    seen = sum(1 for z in torsion_enum(space, a, budget=budget) if apply_morphism(mult, z).is_zero())
    if expected != seen:
        return f"kernel degree {expected} != enumerated {seen} at a={a}"
    return None


def _outcome(check, *args):
    """A check's result, or the type and message of what it raised."""
    try:
        return check(*args)
    except (ModelError, BudgetError, MorphismError) as err:
        return type(err).__name__, str(err)


def ref_det(a):
    n = len(a)
    m = [[F(x) for x in row] for row in a]
    result = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def ref_rref(m, cols):
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
        inv = F(1) / m[r][c]  # 1 / int would be a float
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def ref_rank(a):
    """Rank by exact Gaussian elimination."""
    if not a:
        return 0
    return len(ref_rref([row[:] for row in a], len(a[0])))


def ref_solve(a, b):
    """Solve a @ x = b exactly; None if the system is inconsistent.

    `a` may be rectangular; for underdetermined consistent systems the
    free variables are set to zero (deterministic canonical solution).
    """
    if not a:
        return [[] for _ in b] if all(all(x == 0 for x in row) for row in b) else None
    rows, cols = len(a), len(a[0])
    width = len(b[0]) if b else 0
    aug = [a[i][:] + b[i][:] for i in range(rows)]
    pivots = ref_rref(aug, cols)
    for i in range(len(pivots), rows):
        if any(x != 0 for x in aug[i][cols:]):
            return None
    x = linalg.zeros(cols, width)
    for i, c in enumerate(pivots):
        for j in range(width):
            x[c][j] = aug[i][cols + j]
    return x


def ref_det_int(a):
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


def ref_adjugate_int(a):
    """(adj(a), det(a)) for an integer matrix, with adj(a) @ a == det(a) * I."""
    n = len(a)
    adj = [
        [
            (-1) ** (i + j)
            * ref_det_int([[a[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return adj, ref_det_int(a)


# -- rings -----------------------------------------------------------------


def _ring_cases(rings, two_factor):
    return list(rings.values()) + list(two_factor.factors)


@pytest.mark.parametrize("kind", KINDS)
def test_mul_and_rho_match_fraction_reference(rings, two_factor, kind):
    rng = random.Random(61)
    for spec in _ring_cases(rings, two_factor):
        for _ in range(60):
            a = spec.element(_coords(rng, kind, spec.rank))
            b = spec.element(_coords(rng, kind, spec.rank))
            prod = a * b
            assert list(prod.coords) == ref_mul(spec, a.coords, b.coords)
            assert _all_fractions(prod.coords)
            image = spec.rho(a)
            assert image == ref_rho(spec, a.coords)
            assert all(_all_fractions(row) for row in image)


def _gram_rings(rings, two_factor, mixed):
    """Every ring case plus two whose Gram forms have non-unit denominators."""
    skewed = [
        RingSpec(**dict(_fields(rings["Z"]), tag="Zs", gram=((F(7, 3),),))),
        RingSpec(**dict(_fields(rings["Zi"]), tag="Zis", gram=((F(3, 2), F(1, 5)), (F(1, 5), F(5, 7))))),
    ]
    return _ring_cases(rings, two_factor) + list(mixed.factors) + skewed


@pytest.mark.parametrize("kind", KINDS)
def test_form_and_conj_match_fraction_reference(rings, two_factor, mixed, kind):
    rng = random.Random(97)
    for spec in _gram_rings(rings, two_factor, mixed):
        t = spec.rank
        assert all(
            spec.gram_int[i][j] == spec.gram[i][j] * spec.gram_den for i in range(t) for j in range(t)
        )
        assert gcd(spec.gram_den, *(x for row in spec.gram_int for x in row)) == 1
        for _ in range(40):
            x, y = _coords(rng, kind, t), _coords(rng, kind, t)
            (xn, dx), (yn, dy) = _cleared(x), _cleared(y)
            got = spec.form_int(xn, yn)
            assert type(got) is int
            assert F(got, dx * dy * spec.gram_den) == reference.gram_form(spec, x, y)
            a = spec.element(x)
            assert a.norm_sq() == reference.gram_form(spec, a.coords, a.coords)
            conj = a.conj()
            assert list(conj.coords) == ref_conj(spec, x) and _all_fractions(conj.coords)


def _cleared(values):
    """Integer numerators over the least common denominator of the values."""
    den = lcm(*(F(v).denominator for v in values))
    return [int(v * den) for v in values], den


def test_gauss_matches_fraction_reference(rings, two_factor, mixed):
    rng = random.Random(101)
    for spec in _ring_cases(rings, two_factor) + list(mixed.factors):
        for _ in range(25):
            block = rand_full_rank(rng, spec)
            got = gauss_reduce(spec, block)
            assert got == ref_gauss_reduce(spec, block)
            assert all(_all_fractions(e.coords) for row in got[0] for e in row)
            assert check_gauss_identity(spec, block) is None


# -- model -----------------------------------------------------------------


def _point(rng, space, dens):
    """A point whose torsion denominators are drawn from dens and whose
    free parts are integers in [-9, 9]."""
    slots = []
    for i, spec in enumerate(space.product.factors):
        fac = []
        for _ in range(space.counts[i]):
            torsion = [F(rng.randrange(d), d) for d in rng.choices(dens, k=2 * spec.dimension)]
            free = [[rng.randint(-9, 9) for _ in range(spec.rank)] for _ in range(space.free_ranks[i])]
            fac.append(space.slot(i, torsion=torsion, free=free))
        slots.append(fac)
    return space.point(slots)


def _morphism(rng, product, source, target):
    blocks = [
        [[[rng.choice((0, rng.randint(-6, 6))) for _ in range(spec.rank)] for _ in range(s)] for _ in range(t)]
        for spec, s, t in zip(product.factors, source, target)
    ]
    return BlockMorphism.from_coords(product, source, target, blocks)


def _product_cases(rings, two_factor, mixed):
    return [ProductRingSpec((spec,)) for spec in rings.values()] + [two_factor, mixed]


def _slot_fractions(p) -> bool:
    return all(
        _all_fractions(s.torsion) and all(_all_fractions(row) for row in s.free)
        for fac in p.slots
        for s in fac
    )


# pairwise coprime torsion denominators, and denominators sharing factors
@pytest.mark.parametrize("dens", [(5, 7, 9, 11), (4, 6, 8, 12)])
def test_apply_morphism_matches_fraction_reference(rings, two_factor, mixed, dens):
    rng = random.Random(67)
    for product in _product_cases(rings, two_factor, mixed):
        n = product.n_factors
        source = tuple(rng.randint(1, 3) for _ in range(n))
        target = tuple(rng.randint(1, 3) for _ in range(n))
        space = ModelSpace(AmbientSpec(product, source), tuple(rng.randint(1, 2) for _ in range(n)))
        for _ in range(8):
            # divide() makes the free parts rational and rescales the torsion
            x = divide(_point(rng, space, dens), rng.randint(1, 6))
            phi = _morphism(rng, product, source, target)
            y = apply_morphism(phi, x)
            assert y.space.counts == target
            for fac, want in zip(y.slots, ref_apply(phi, x)):
                assert [(s.torsion, s.free) for s in fac] == want
            assert _slot_fractions(y)
            assert all(0 <= t < 1 for fac in y.slots for s in fac for t in s.torsion)


def _row_morphism(space, factor, row):
    """One row on `factor`, zero rows on the other factors."""
    n = space.product.n_factors
    target = tuple(int(k == factor) for k in range(n))
    blocks = [[row] if k == factor else [] for k in range(n)]
    return BlockMorphism(space.product, space.counts, target, blocks)


def _lowest_terms(p) -> bool:
    """Every slot has torsion numerators in [0, tden) and both parts over
    their least denominator."""
    return all(
        all(0 <= x < s.tden for x in s.tnums)
        and gcd(s.tden, *s.tnums) == 1
        and gcd(s.fden, *(x for row in s.fnums for x in row)) == 1
        for fac in p.slots
        for s in fac
    )


def _each(op, *points):
    """op on the Fraction views of corresponding slots of the points."""
    return [[op(*slots) for slots in zip(*facs)] for facs in zip(*map(_views, points))]


@pytest.mark.parametrize("dens", [(5, 7, 9, 11), (4, 6, 8, 12)])
def test_point_group_ops_and_combine_match_fraction_reference(rings, two_factor, mixed, dens):
    rng = random.Random(71)
    for product in _product_cases(rings, two_factor, mixed):
        n = product.n_factors
        counts = tuple(rng.randint(1, 2) for _ in range(n))
        space = ModelSpace(AmbientSpec(product, counts), tuple(1 for _ in range(n)))
        for _ in range(8):
            x = divide(_point(rng, space, dens), rng.randint(1, 4))
            y = _point(rng, space, dens)
            k, b = rng.randint(-7, 7), rng.randint(1, 6)
            cases = [
                (x + y, _each(ref_slot_add, x, y)),
                (-x, _each(ref_slot_neg, x)),
                (x - y, _each(lambda a, c: ref_slot_add(a, ref_slot_neg(c)), x, y)),
                (x.int_mul(k), _each(lambda a: ref_slot_int_mul(a, k), x)),
                (divide(x, b), _each(lambda a: ref_slot_divide(a, b), x)),
            ]
            for got, want in cases:
                assert _views(got) == want
                assert _slot_fractions(got) and _lowest_terms(got)
            # equal points are equal field by field, so they hash equal
            for a, c in ((x + y, y + x), ((x - y) + y, x), (divide(x, b).int_mul(b), x),
                         (x + (-x), space.zero()), (x.int_mul(0), space.zero())):
                assert a == c and hash(a) == hash(c)
            for i, spec in enumerate(product.factors):
                coeffs = [spec.element(_coords(rng, "integral", spec.rank)) for _ in x.slots[i]]
                image = apply_morphism(_row_morphism(space, i, coeffs), x)
                assert [len(fac) for fac in image.slots] == [int(k == i) for k in range(n)]
                (got,) = image.slots[i]
                tors, free = [F(0)] * (2 * spec.dimension), [F(0)] * spec.rank
                for e, slot in zip(coeffs, x.slots[i]):
                    t, (f,) = ref_act(spec, e.coords, slot)
                    tors = [a + b for a, b in zip(tors, t)]
                    free = [a + b for a, b in zip(free, f)]
                assert got.torsion == tuple(v % 1 for v in tors)
                assert got.free == (tuple(free),)
                assert _all_fractions(got.torsion) and _all_fractions(got.free[0])
    # one slot written two ways
    space = ModelSpace(AmbientSpec(ProductRingSpec((rings["Zi"],)), (1,)), (2,))
    a = space.slot(0, torsion=[F(2, 4), F(7, 3)], free=[[F(3, 6), 2], [0, F(-4, 8)]])
    c = space.slot(0, torsion=[F(-1, 2), F(1, 3)], free=[[F(1, 2), F(4, 2)], [0, F(-1, 2)]])
    assert a == c and hash(a) == hash(c)
    assert (a.tnums, a.tden, a.fnums, a.fden) == ((3, 2), 6, ((1, 4), (0, -1)), 2)


def test_heights_match_fraction_reference(rings, two_factor, mixed):
    rng = random.Random(107)
    zs, zis = _gram_rings(rings, two_factor, mixed)[-2:]
    products = _product_cases(rings, two_factor, mixed) + [ProductRingSpec((zs, zis))]
    for product in products:
        n = product.n_factors
        counts = tuple(rng.randint(1, 3) for _ in range(n))
        space = ModelSpace(AmbientSpec(product, counts), tuple(rng.randint(0, 2) for _ in range(n)))
        for _ in range(10):
            x = divide(_point(rng, space, (4, 6)), rng.randint(1, 7))
            got = x.height()
            assert got == ref_height(x) and type(got) is F
            for i, (spec, fac) in enumerate(zip(product.factors, x.slots)):
                for j, s in enumerate(fac):
                    assert x.slot_height(i, j) == ref_free_inner(spec, s.free, s.free)
                basis = [[int(l == k) for l in range(spec.rank)] for k in range(spec.rank)]
                orbit = [[ref_mul(spec, e, coeff) for coeff in s.free] for s in fac for e in basis]
                gram = orbit_gram(spec, fac)
                assert gram == [[ref_free_inner(spec, u, v) for v in orbit] for u in orbit]
                assert all(_all_fractions(row) for row in gram)


def test_apply_morphism_rejects_non_integral_entries(rings, mixed):
    # a morphism with an entry outside the order is refused where it is
    # built, so neither apply_morphism nor torsion_matrices meets one
    for product in [ProductRingSpec((spec,)) for spec in rings.values()] + [mixed]:
        counts = (1,) * product.n_factors
        for half in range(product.rank):
            coords = [0] * product.rank
            coords[half] = F(1, 2)
            at = 0
            blocks = []
            for spec in product.factors:
                blocks.append([[coords[at : at + spec.rank]]])
                at += spec.rank
            factor = next(i for i, block in enumerate(blocks) if any(block[0][0]))
            with pytest.raises(MorphismError, match=rf"^factor {factor}: entry \(0, 0\) is not integral$"):
                BlockMorphism.from_coords(product, counts, counts, blocks)


def _torsion_point(rng, space, level):
    """Numerators k in [0, level) per factor and the point with torsion k / level."""
    ks, slots = [], []
    for i, spec in enumerate(space.product.factors):
        two_d = 2 * spec.dimension
        k = [rng.randrange(level) for _ in range(two_d * space.counts[i])]
        ks.append(k)
        slots.append([
            space.slot(i, torsion=[F(v, level) for v in k[j : j + two_d]])
            for j in range(0, len(k), two_d)
        ])
    return ks, space.point(slots)


def test_torsion_matrices_match_apply_morphism(rings, two_factor, mixed):
    rng = random.Random(83)
    for product in _product_cases(rings, two_factor, mixed):
        n = product.n_factors
        for _ in range(6):
            source = tuple(rng.randint(1, 3) for _ in range(n))
            target = tuple(rng.randint(0, 3) for _ in range(n))
            space = ModelSpace(AmbientSpec(product, source), (1,) * n)
            phi = _morphism(rng, product, source, target)
            matrices = torsion_matrices(phi)
            for spec, m, s, t in zip(product.factors, matrices, source, target):
                assert len(m) == 2 * spec.dimension * t
                assert all(len(row) == 2 * spec.dimension * s and _ints(row) for row in m)
            for level in range(1, TORSION_LEVEL + 1):
                for _ in range(4):
                    ks, z = _torsion_point(rng, space, level)
                    image = apply_morphism(phi, z)
                    for spec, fac, m, k in zip(product.factors, image.slots, matrices, ks):
                        want = [F(sum(a * b for a, b in zip(row, k)), level) % 1 for row in m]
                        got = [x for slot in fac for x in slot.torsion]
                        assert got == want


def _ints(values) -> bool:
    return all(type(v) is int for v in values)


def _torsion_spaces(rings, two_factor):
    """Spaces of 4 to 5 torsion coordinates, so the reference loop stays short."""
    cases = [(rings[tag], 2) for tag in ("Z", "Zi", "Zw")] + [(rings["Hq"], 1)]
    spaces = [ModelSpace(AmbientSpec(ProductRingSpec((spec,)), (g,)), (1,)) for spec, g in cases]
    spaces.append(ModelSpace(AmbientSpec(two_factor, (2, 1)), (1, 1)))
    return spaces


def test_kernel_inclusion_matches_reference(rings, two_factor):
    rng = random.Random(89)
    levels = []
    for space in _torsion_spaces(rings, two_factor):
        total = 4 ** sum(2 * f.dimension * c for f, c in zip(space.product.factors, space.counts))
        pairs = 0
        while pairs < 2:
            psi = rand_row_morphism(rng, space)
            if rank_and_codim(psi, space.ambient)[0] != psi.target:
                continue
            phi = weightify(psi, space.ambient)[1].morphism
            pairs += 1
            assert check_kernel_inclusion(psi, phi, space, total) is None
            # the swapped pair, and pairs that first escape at levels 3 and 4
            cases = [(psi, phi), (phi, psi), (psi.scale_int(3), psi),
                     (psi.scale_int(4), psi.scale_int(2))]
            for a, b in cases:
                for budget in (total, total - 1):
                    want = _outcome(ref_kernel_inclusion, a, b, space, budget)
                    assert _outcome(reference.kernel_inclusion, a, b, space, budget) == want
                    assert _outcome(check_kernel_inclusion, a, b, space, budget) == want
                    if isinstance(want, str):
                        levels.append(int(want.rsplit(" ", 1)[1]))
    assert set(levels) == {2, 3, 4}
    # a morphism on another space is refused, as apply_morphism refuses it
    other = space.with_counts((1, 1))
    with pytest.raises(MorphismError):
        check_kernel_inclusion(psi, phi, other, total)
    # level 4 escapes under the full budget; one point less raises first
    assert levels.count(4) == len(_torsion_spaces(rings, two_factor)) * 2


def test_kernel_inclusion_gaussian_example(rings):
    # 1 + i kills the level-2 point of torsion (1/2, 1/2); the identity does not
    product = ProductRingSpec((rings["Zi"],))
    space = ModelSpace(AmbientSpec(product, (1,)), (1,))
    one_plus_i = BlockMorphism.from_coords(product, (1,), (1,), [[[[1, 1]]]])
    identity = BlockMorphism.identity(product, (1,))
    for a, b, want in ((one_plus_i, identity, "kernel escaped at torsion level 2"),
                       (identity, one_plus_i, None)):
        assert check_kernel_inclusion(a, b, space, 16) == want
        assert ref_kernel_inclusion(a, b, space, 16) == want


@pytest.mark.parametrize("tag", ["Z", "Zi", "Zw"])
def test_kernel_degree_matches_reference(rings, tag):
    spec = rings[tag]
    for a in range(1, 5):
        for budget in (100_000, a * a - 1):
            want = _outcome(ref_kernel_degree, spec, a, budget)
            assert _outcome(check_kernel_degree, spec, a, budget) == want
    assert _outcome(check_kernel_degree, spec, 3, 8) == (
        "BudgetError", "torsion enumeration of 9 points exceeds budget 8"
    )


# -- ring laws --------------------------------------------------------------


RING_FIELDS = ("tag", "rank", "dimension", "basis_labels", "mul_table", "involution", "gram", "lattice_rep")


def _fields(spec) -> dict:
    """The arguments that build `spec` again."""
    return {name: getattr(spec, name) for name in RING_FIELDS}


def _change_basis(spec, cols, tag):
    """The same order written in the basis whose j-th element has old
    coordinates cols[j]; cols is unimodular and cols[0] is the identity."""
    t = spec.rank
    u = [[cols[j][i] for j in range(t)] for i in range(t)]
    adj, d = linalg.adjugate_int(u)
    if d not in (1, -1) or list(cols[0]) != [1] + [0] * (t - 1):
        raise ValueError("not a unimodular basis starting at 1")

    def new_coords(old):
        return tuple(d * sum(a * x for a, x in zip(row, old)) for row in adj)

    gram = [[reference.gram_form(spec, x, y) for y in cols] for x in cols]
    return RingSpec(
        tag=tag,
        rank=t,
        dimension=spec.dimension,
        basis_labels=tuple(f"b{j}" for j in range(t)),
        mul_table=tuple(tuple(new_coords(spec.mul_int(x, y)) for y in cols) for x in cols),
        involution=tuple(zip(*(new_coords(spec.conj_int(x)) for x in cols))),
        gram=tuple(tuple(row) for row in gram),
        lattice_rep=tuple(tuple(tuple(r) for r in spec.rho_int(x)) for x in cols),
    )


def _unimodular(rng, t):
    """Columns of a random unimodular integer matrix fixing the first basis
    vector: column operations col_j += c * col_i with j >= 1."""
    cols = [[int(i == j) for i in range(t)] for j in range(t)]
    for _ in range(3 * t):
        if t == 1:
            break
        j = rng.randrange(1, t)
        i = rng.choice([k for k in range(t) if k != j])
        c = rng.randint(-4, 4)
        cols[j] = [a + c * b for a, b in zip(cols[j], cols[i])]
    return cols


def _accepted_rings(rings, scenario_paths):
    out = list(rings.values())
    for path in scenario_paths:
        out += list(load_scenario(path).product.factors)
    rng = random.Random(131)
    for spec in list(out):
        for n in range(2):
            out.append(_change_basis(spec, _unimodular(rng, spec.rank), f"{spec.tag}'{n}"))
    s = 30  # the skewed quaternion basis 1, i, j + s*i, k + s*j
    hq_cols = [(1, 0, 0, 0), (0, 1, 0, 0), (0, s, 1, 0), (0, 0, s, 1)]
    out.append(_change_basis(rings["Hq"], hq_cols, "Hq30"))
    return out


# The ring constants as derived on every call, before each ring derived them
# once, kept verbatim with rings' names qualified.
def ref_lambda_min_nonzero(ring):
    """Least squared norm over nonzero elements, with a witness attaining it.

    The search radius G[0][0] is the squared norm of the identity, so the
    minimum is always attained inside the box.
    """
    radius_sq = ring.gram[0][0]
    best = None
    best_sq = None
    for elem in enumerate_short_vectors(ring, radius_sq):
        n = elem.norm_sq()
        if best_sq is None or n < best_sq:
            best, best_sq = elem, n
    if best is None or best_sq <= 0:
        raise RingError(f"{ring.tag}: no nonzero element of positive norm in the search radius")
    return LambdaMin(best_sq, best)


def ref_norm_equivalence_constants(ring):
    """(c0_sq, c1_sq) with c0_sq*|a|_inf^2 <= |a|^2 <= c1_sq*|a|_inf^2.

    c1_sq is the entry-sum of |G|; c0_sq is a certified rational lower
    bound on the least eigenvalue of G (exact when that eigenvalue is
    rational).
    """
    gram = linalg.mat(ring.gram)
    c1_sq = sum(abs(x) for row in gram for x in row)
    c0_sq = linalg.min_eigenvalue_lower(gram)
    if c0_sq <= 0:
        raise RingError(f"{ring.tag}: gram form is not positive-definite")
    return c0_sq, c1_sq


def ref_submultiplicativity_sq(ring, c0_sq):
    """C with |e*c|^2 <= C |e|^2 |c|^2 for all e, c in the ring, given the
    ring's c0_sq from norm_equivalence_constants: C = (T2 / c0_sq)^2 with
    T2 a certified upper bound on the sum of the basis-product norms."""
    basis = [ring.basis_element(j) for j in range(ring.rank)]
    t2 = sum((sqrt_upper((a * b).norm_sq()) for a in basis for b in basis), F(0))
    return (t2 * t2) / (c0_sq * c0_sq)


def test_ring_constants_match_reference(rings, scenario_paths):
    # fresh rings, so the first read of each derives its constants
    specs = list(reference_rings().values())
    for path in scenario_paths:
        specs += list(load_scenario(path).product.factors)
    s = 5  # the skewed quaternion basis 1, i, j + s*i, k + s*j
    specs.append(_change_basis(rings["Hq"], [(1, 0, 0, 0), (0, 1, 0, 0), (0, s, 1, 0), (0, 0, s, 1)], "Hq5"))
    assert len(specs) > 4 + len(scenario_paths)
    for spec in specs:
        c0_sq, c1_sq = ref_norm_equivalence_constants(spec)
        sub = ref_submultiplicativity_sq(spec, c0_sq)
        lam = ref_lambda_min_nonzero(spec)
        for _ in range(2):  # derived, then read back
            got = norm_equivalence_constants(spec)
            assert got == (c0_sq, c1_sq) and _all_fractions(got)
            got = submultiplicativity_sq(spec)
            assert got == sub and type(got) is F
            got = lambda_min_nonzero(spec)
            assert got == lam and type(got.value_sq) is F


def test_validate_accepts_what_the_fraction_reference_accepts(rings, scenario_paths):
    cases = _accepted_rings(rings, scenario_paths)
    assert len(cases) > 3 * 4
    for spec in cases:
        spec.validate()
        reference.validate(spec)


def _dual_numbers():
    """Z[e] with e^2 = 0, its identity involution and Gram, and a
    representation sending e to 0: every law holds but faithfulness."""
    return dict(
        tag="D",
        rank=2,
        dimension=1,
        basis_labels=("1", "e"),
        mul_table=(((1, 0), (0, 1)), ((0, 1), (0, 0))),
        involution=((1, 0), (0, 1)),
        gram=((F(1), F(0)), (F(0), F(1))),
        lattice_rep=(((1, 0), (0, 1)), ((0, 0), (0, 0))),
    )


def _planted_faults(rings):
    """(fields, expected message) with one law broken in each."""
    z, zi, hq = _fields(rings["Z"]), _fields(rings["Zi"]), _fields(rings["Hq"])
    hq_table = [list(row) for row in hq["mul_table"]]
    hq_table[1][2] = (0, 0, 0, -1)  # i*j = -k: (i*i)*j = -j but i*(i*j) = j
    return [
        (dict(z, mul_table=(((2,),),)), "first basis element is not unital"),
        (dict(hq, mul_table=tuple(map(tuple, hq_table))), "multiplication is not associative"),
        (dict(zi, involution=((1, 0), (0, 2))), "involution is not an involution"),
        (dict(hq, involution=tuple(tuple(int(i == j) for j in range(4)) for i in range(4))),
         "involution is not an anti-automorphism"),
        (dict(zi, gram=((F(1), F(1, 2)), (F(0), F(1)))), "gram form is not symmetric"),
        (dict(zi, gram=((F(1), F(2)), (F(2), F(1)))), "gram form is not positive-definite"),
        (dict(zi, gram=((F(1), F(1)), (F(1), F(1)))), "gram form is not positive-definite"),
        (dict(zi, lattice_rep=(((1, 0), (0, 2)), zi["lattice_rep"][1])),
         "lattice representation is not unital"),
        (dict(zi, lattice_rep=(zi["lattice_rep"][0], ((0, 1), (1, 0)))),
         "lattice representation does not respect products"),
        (_dual_numbers(), "lattice representation is not faithful"),
    ]


def test_validate_raises_the_fraction_reference_message(rings):
    seen = set()
    for data, message in _planted_faults(rings):
        with pytest.raises(RingError) as got:
            RingSpec(**data)
        # the reference reads only the init fields, so it runs on an
        # unchecked copy of a valid ring carrying the faulty data; that copy
        # keeps the valid ring's derived tables, which the reference never reads
        unchecked = copy.copy(rings["Z"])
        for name, value in data.items():
            object.__setattr__(unchecked, name, value)
        with pytest.raises(RingError) as ref:
            reference.validate(unchecked)
        assert str(got.value) == str(ref.value) == f"{data['tag']}: {message}"
        seen.add(message)
    # "involution does not fix the identity" cannot be planted: an
    # involution that reverses products maps 1 to a left identity, which is 1
    assert len(seen) == 9


def test_rho_respects_product_matches_fraction_reference(rings, two_factor, mixed):
    rng = random.Random(137)
    for spec in _ring_cases(rings, two_factor) + list(mixed.factors):
        for kind in KINDS:
            for _ in range(20):
                x, y = _coords(rng, kind, spec.rank), _coords(rng, kind, spec.rank)
                a, b = spec.element(x), spec.element(y)
                assert linalg.mat_mul(spec.rho(a), spec.rho(b)) == spec.rho(a * b)
                assert spec.rho_respects_product(x, y)
    # a representation that is additive but not multiplicative fails it.
    # The ring is built field by field, past `validate`, so the tables it
    # derives on first use come from the planted data (a copy would keep Zi's)
    zi = rings["Zi"]
    broken = object.__new__(RingSpec)
    for name, value in dict(_fields(zi), lattice_rep=(zi.lattice_rep[0], ((0, 1), (1, 0)))).items():
        object.__setattr__(broken, name, value)
    assert broken.rho_int([0, 1]) == [[0, 1], [1, 0]]
    for x, y in ([[0, 1], [0, 1]], [[F(1, 2), F(3)], [F(-2, 3), F(5, 7)]]):
        a, b = broken.element(x), broken.element(y)
        assert linalg.mat_mul(broken.rho(a), broken.rho(b)) != broken.rho(a * b)
        assert not broken.rho_respects_product(x, y)


def test_rho_act_int_matches_reference(rings, scenario_paths, mixed):
    # every ring scenarios accept, in skewed bases too, and the mixed factors
    rng = random.Random(139)
    for spec in _accepted_rings(rings, scenario_paths) + list(mixed.factors):
        two_d = 2 * spec.dimension
        for trial in range(30):
            coords = [rng.choice((0, rng.randint(-60, 60))) for _ in range(spec.rank)]
            if trial == 0:
                coords = [0] * spec.rank
            image = reference.rho_int(spec, coords)
            assert spec.rho_int(coords) == image
            vec = [rng.randint(-50, 50) for _ in range(two_d)]
            start = [rng.randint(-9, 9) for _ in range(two_d)]
            acc = list(start)
            assert spec.rho_act_int(coords, vec, acc) is None
            assert acc == [s + sum(m * v for m, v in zip(row, vec)) for s, row in zip(start, image)]


# -- determinants ----------------------------------------------------------


def _matrices(rng):
    """Random integer and rational 1x1..5x5 matrices, some singular and some
    needing row swaps."""
    for n in range(1, 6):
        for trial in range(12):
            if trial % 2:
                m = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
            else:
                m = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            if trial % 4 == 2 and n > 1:
                m[-1] = [3 * x for x in m[0]]  # singular
            if trial % 6 == 4:
                for row in m[: n - 1]:
                    row[0] = F(0)  # pivot found only in the last row
            yield m


def _is_integral(m) -> bool:
    return all(x.denominator == 1 for row in m for x in row)


def _right_mul(spec, coords):
    """The matrix of x -> x*a as Fractions: the integer matrix of the
    cleared coordinates of a, divided by their denominator."""
    nums, den = linalg.clear_denominators([F(c) for c in coords])
    return [[F(x, den) for x in row] for row in spec.right_mul_matrix(nums)]


def _wide_and_huge(rng):
    """3x5 and 5x3 matrices, and 1x1..5x5 ones with entries around 10^40:
    integer and rational, some with a column that has no pivot and some of
    lower rank than their shape allows."""
    shapes = [(3, 5), (5, 3)] * 6 + [(n, n) for n in range(1, 6) for _ in range(3)]
    for trial, (rows, cols) in enumerate(shapes):
        big = 10**40 if rows == cols or trial % 3 == 2 else 1
        den = (1, 3, 7) if trial % 2 else (1,)
        m = [
            [F(big * rng.randint(-9, 9) + rng.randint(-9, 9), rng.choice(den)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if trial % 4 == 1:
            for row in m:
                row[0] = F(0)  # a column with no pivot
        if trial % 4 == 3 and rows > 2:
            m[-1] = [x - 2 * y for x, y in zip(m[0], m[1])]  # rank deficient
        yield m


def _right_hand_sides(rng, m):
    """A consistent right-hand side m @ x0 of width 2, and a random one of
    width 1, inconsistent when m has lower rank than its row count."""
    x0 = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)] for _ in m[0]]
    return [linalg.mat_mul(m, x0), [[F(rng.randint(-9, 9))] for _ in m]]


def test_det_and_adjugate_match_fraction_reference(rings):
    rng = random.Random(79)
    hq = rings["Hq"]
    cases = list(_matrices(rng)) + [
        _right_mul(hq, _coords(rng, kind, 4)) for kind in KINDS for _ in range(10)
    ] + list(_wide_and_huge(rng))
    solved, inconsistent, free, singular = 0, 0, 0, 0
    for m in cases:
        # rank and solve against the Fraction Gauss-Jordan, on Fraction and on int input
        r = linalg.rank(m)
        assert type(r) is int and r == ref_rank(m)
        for b in _right_hand_sides(rng, m):
            x = linalg.solve(m, b)
            assert x == ref_solve(m, b)
            if _is_integral(m) and _is_integral(b):
                ints = [[int(v) for v in row] for row in m]
                assert linalg.rank(ints) == r
                assert linalg.solve(ints, [[int(v) for v in row] for row in b]) == x
            if x is None:
                inconsistent += 1
                continue
            assert all(type(v) is F for row in x for v in row)
            solved += 1
            free += r < len(m[0])
        if len(m) != len(m[0]):
            continue
        d = linalg.det(m)
        assert type(d) is F
        assert d == ref_det(m)
        if not _is_integral(m):
            continue
        a = [[int(x) for x in row] for row in m]
        assert ref_det_int(a) == d
        if d == 0:
            # adjugate_int is defined for invertible matrices only
            singular += 1
            with pytest.raises(ValueError):
                linalg.adjugate_int(a)
            continue
        adj, dint = linalg.adjugate_int(a)
        n = len(a)
        assert dint == d and type(dint) is int
        assert all(type(v) is int for row in adj for v in row)
        for i in range(n):
            for j in range(n):
                minor = [[a[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
                assert adj[i][j] == (-1) ** (i + j) * ref_det(minor)
                assert sum(adj[i][k] * a[k][j] for k in range(n)) == (dint if i == j else 0)
    assert min(solved, inconsistent, free, singular) > 0
