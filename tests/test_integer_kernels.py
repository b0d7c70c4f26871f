"""Differential tests: the integer kernels of ring multiplication, the
lattice representation, the model action, the torsion-kernel checks and
determinants against plain Fraction references written here, on the four
reference rings and on two-factor products."""

import random
from fractions import Fraction as F

import pytest

from endoapprox import linalg
from endoapprox.model import (
    ModelError,
    ModelSpace,
    ResourceError,
    apply_morphism,
    divide,
    torsion_enum,
    torsion_matrices,
)
from endoapprox.morphisms import (
    AmbientSpec,
    BlockMorphism,
    MorphismError,
    rank_and_codim,
    weightify,
)
from endoapprox.pipeline import (
    TORSION_LEVEL,
    check_kernel_degree,
    check_kernel_inclusion,
    rand_row_morphism,
)
from endoapprox.rings import ProductRingSpec, eisenstein_ring, quaternion_ring
from endoapprox.scenario import load_scenario
from endoapprox.thresholds import kernel_degree

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
    except (ModelError, ResourceError, MorphismError) as err:
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
            k = rng.randint(-7, 7)
            for got, op in ((x + y, lambda a, b: a + b), (x - y, lambda a, b: a - b)):
                for fa, fb, fg in zip(x.slots, y.slots, got.slots):
                    for a, b, g in zip(fa, fb, fg):
                        assert g.torsion == tuple(op(s, t) % 1 for s, t in zip(a.torsion, b.torsion))
                        assert g.free == tuple(
                            tuple(op(s, t) for s, t in zip(ra, rb)) for ra, rb in zip(a.free, b.free)
                        )
                assert _slot_fractions(got)
            scaled = x.int_mul(k)
            for fa, fg in zip(x.slots, scaled.slots):
                for a, g in zip(fa, fg):
                    assert g.torsion == tuple((k * t) % 1 for t in a.torsion)
                    assert g.free == tuple(tuple(k * c for c in row) for row in a.free)
            assert _slot_fractions(scaled)
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


def test_apply_morphism_rejects_non_integral_entries(rings, mixed):
    for product in [ProductRingSpec((spec,)) for spec in rings.values()] + [mixed]:
        space = ModelSpace(AmbientSpec(product, (1,) * product.n_factors), (1,) * product.n_factors)
        x = _point(random.Random(73), space, (6,))
        for half in range(product.rank):
            coords = [0] * product.rank
            coords[half] = F(1, 2)
            at = 0
            blocks = []
            for spec in product.factors:
                blocks.append([[coords[at : at + spec.rank]]])
                at += spec.rank
            phi = BlockMorphism.from_coords(product, space.counts, space.counts, blocks)
            with pytest.raises(ModelError):
                apply_morphism(phi, x)
            with pytest.raises(ModelError):
                torsion_matrices(phi)


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
        "ResourceError", "torsion enumeration of 9 points exceeds budget 8"
    )


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


def test_det_and_adjugate_match_fraction_reference(rings):
    rng = random.Random(79)
    hq = rings["Hq"]
    cases = list(_matrices(rng)) + [
        hq.right_mul_matrix(hq.element(_coords(rng, kind, 4))) for kind in KINDS for _ in range(10)
    ]
    for m in cases:
        d = linalg.det(m)
        assert type(d) is F
        assert d == ref_det(m)
        if not _is_integral(m):
            continue
        a = [[int(x) for x in row] for row in m]
        adj, dint = linalg.adjugate_int(a)
        n = len(a)
        assert dint == d and type(dint) is int
        for i in range(n):
            for j in range(n):
                minor = [[a[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
                assert adj[i][j] == (-1) ** (i + j) * ref_det(minor)
                assert sum(adj[i][k] * a[k][j] for k in range(n)) == (dint if i == j else 0)
