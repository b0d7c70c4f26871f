"""Differential tests: the model's tuple slots and points against the
frozen-dataclass arithmetic they replaced (`reference.Slot`,
`reference.Point`), on every bundled space and on spaces over each
reference ring; the arithmetic builds no `Fraction`; `slot_from_nums`
against `ModelSpace.slot`; the suites' samplers against the Fraction draws
they replaced (`reference.rand_point_views`, `reference.lower_bound_views`);
and the running-residue walk of the kernel-inclusion check against the
itertools loop it replaced, with an escape planted at each torsion level."""

import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest

from endoapprox.geomnum import point_lower_constants
from endoapprox.model import (
    GeneratorSet,
    ModelError,
    ModelPoint,
    ModelSpace,
    SlotValue,
    apply_morphism,
    divide,
    slot_from_nums,
)
from endoapprox.morphisms import AmbientSpec, BlockMorphism
from endoapprox.pipeline import (
    TORSION_LEVEL,
    _escapes,
    _rand_point,
    check_kernel_inclusion,
    rand_lower_bound_case,
)
from endoapprox.rings import ProductRingSpec, eisenstein_ring, quaternion_ring
from endoapprox.scenario import load_scenario

import reference


def _spaces(rings, scenario_paths):
    """Every bundled scenario's space and generator space, then one space per
    reference ring (free rank 0 on Z) and a mixed two-factor space."""
    spaces = []
    for path in scenario_paths:
        scenario = load_scenario(path)
        spaces += [scenario.space, scenario.gamma.space]
    for tag, spec in rings.items():
        spaces.append(ModelSpace(AmbientSpec(ProductRingSpec((spec,)), (2,)), (0 if tag == "Z" else 2,)))
    mixed = ProductRingSpec((eisenstein_ring("Zw2"), quaternion_ring("Hq2")))
    spaces.append(ModelSpace(AmbientSpec(mixed, (2, 1)), (1, 2)))
    return spaces


def _value(rng, kind):
    """An integer (some negative, some zero) or a Fraction with a negative
    or positive numerator over 2 to 12."""
    if kind == "int":
        return rng.choice((0, rng.randint(-9, 9)))
    return F(rng.randint(-40, 40), rng.randint(2, 12))


def _point(rng, space, kind):
    """A point with torsion zero (kind "int"), on a grid with denominators 2
    to 6 (otherwise), and free coefficients of the kind."""
    slots = []
    for i, spec in enumerate(space.product.factors):
        fac = []
        for _ in range(space.counts[i]):
            if kind == "int":
                torsion = [rng.randint(-3, 3) for _ in range(2 * spec.dimension)]
            else:
                torsion = [F(rng.randint(-9, 9), rng.randint(2, 6)) for _ in range(2 * spec.dimension)]
            free = [[_value(rng, kind) for _ in range(spec.rank)] for _ in range(space.free_ranks[i])]
            fac.append(space.slot(i, torsion=torsion, free=free))
        slots.append(fac)
    return space.point(slots)


def _morphism(rng, space, target):
    blocks = [
        [[[rng.choice((0, rng.randint(-5, 5))) for _ in range(spec.rank)] for _ in range(c)] for _ in range(t)]
        for spec, c, t in zip(space.product.factors, space.counts, target)
    ]
    return BlockMorphism.from_coords(space.product, space.counts, target, blocks)


def _lowest_terms(p) -> bool:
    return all(
        isinstance(s, SlotValue)
        and all(type(x) is int and 0 <= x < s.tden for x in s.tnums)
        and gcd(s.tden, *s.tnums) == 1
        and gcd(s.fden, *(x for row in s.fnums for x in row)) == 1
        and s.tden >= 1 and s.fden >= 1
        for fac in p.slots
        for s in fac
    )


@pytest.mark.parametrize("kind", ["int", "rational"])
def test_model_arithmetic_matches_parent_reference(rings, scenario_paths, kind):
    rng = random.Random(2024 if kind == "int" else 2025)
    for space in _spaces(rings, scenario_paths):
        product = space.product
        for _ in range(6):
            x, y = _point(rng, space, kind), _point(rng, space, kind)
            rx, ry = reference.point_of(x), reference.point_of(y)
            k, b = rng.randint(-7, 7), rng.randint(1, 6)
            cases = [
                (x + y, rx + ry),
                (x - y, rx - ry),
                (-x, -rx),
                (x.int_mul(k), rx.int_mul(k)),
                (x.int_mul(0), rx.int_mul(0)),
                (divide(x, b), reference.divide(rx, b)),
            ]
            target = tuple(rng.randint(0, 2) for _ in space.counts)
            phi = _morphism(rng, space, target)
            cases.append((apply_morphism(phi, x), reference.apply_morphism(phi, rx, space.free_ranks)))
            for got, want in cases:
                assert reference.fields_of(got) == reference.fields_of(want)
                assert got.space.counts == want.counts
                assert _lowest_terms(got)
                assert got.is_zero() == want.is_zero() and got.is_torsion() == want.is_torsion()
                h = got.height()
                assert h == reference.height(product, want) and type(h) is F
                for i, (spec, fac) in enumerate(zip(product.factors, got.slots)):
                    for j, s in enumerate(fac):
                        assert got.slot_height(i, j) == reference.slot_height(spec, want.slots[i][j])
                        assert s.torsion == want.slots[i][j].torsion and s.free == want.slots[i][j].free
            # equal points have equal fields and hash equal; unequal ones differ
            for a, c in ((x + y, y + x), ((x - y) + y, x), (divide(x, b).int_mul(b), x),
                         (x + (-x), space.zero()), (x.int_mul(0), space.zero())):
                assert a == c and hash(a) == hash(c) and not a != c
            assert (x == y) == (reference.fields_of(x) == reference.fields_of(y))
            assert x != reference.point_of(x)


def test_model_point_keeps_its_shape_check_and_fields(rings):
    space = ModelSpace(AmbientSpec(ProductRingSpec((rings["Zi"],)), (2,)), (1,))
    x = space.zero()
    with pytest.raises(ModelError, match="slot shape does not match the space"):
        ModelPoint(space, (x.slots[0][:1],))
    with pytest.raises(ModelError, match="slot shape does not match the space"):
        ModelPoint(space, ())
    with pytest.raises(AttributeError):
        x.space = space
    with pytest.raises(AttributeError):
        x.slots[0][0].tden = 2
    assert ModelPoint(space, x.slots) == x
    other = space.with_counts((1,))
    assert space.with_counts((2,)) is space and space.with_counts([1]) is other
    with pytest.raises(ModelError, match="points live in different spaces"):
        x + other.zero()


def test_model_arithmetic_builds_no_fraction(rings, monkeypatch):
    product = ProductRingSpec((rings["Hq"], rings["Zw"]))
    space = ModelSpace(AmbientSpec(product, (2, 1)), (2, 1))
    rng = random.Random(5)
    x, y = _point(rng, space, "rational"), _point(rng, space, "rational")
    z = _point(rng, space, "int")
    phi = _morphism(rng, space, (1, 2))
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    results = [x + y, x - y, -x, x.int_mul(5), x.int_mul(0), divide(x, 3), z + z, divide(z, 1),
               apply_morphism(phi, x), apply_morphism(phi, z)]
    flags = [(p.is_zero(), p.is_torsion(), p == x) for p in results]
    assert built == []
    heights = [p.height() for p in results]
    assert len(built) == len(results)  # one Fraction a height, its result
    monkeypatch.undo()
    assert flags[4] == (True, True, False)
    assert heights == [reference.height(product, reference.point_of(p)) for p in results]


# -- slots from numerators and the samplers that build them -------------------


def _nums(rng, n, den, trial):
    """n numerators over den: negative ones and ones at or above den, all
    zero on every fourth trial."""
    if trial % 4 == 3:
        return [0] * n
    return [rng.randint(-3 * den, 3 * den) for _ in range(n)]


def test_slot_from_nums_matches_slot(rings, scenario_paths):
    rng = random.Random(29)
    for space in _spaces(rings, scenario_paths):
        for i, spec in enumerate(space.product.factors):
            two_d, t, nu = 2 * spec.dimension, spec.rank, space.free_ranks[i]
            for trial in range(24):
                tden = rng.choice((1, 2, 4, 12, rng.randint(1, 30)))
                fden = rng.choice((1, 3, rng.randint(1, 30)))
                tnums = _nums(rng, two_d, tden, trial)
                fnums = [_nums(rng, t, fden, trial + 1) for _ in range(nu)]
                if trial % 3 == 1:  # not in lowest terms
                    g = rng.randint(2, 6)
                    tnums, tden = [g * x for x in tnums], g * tden
                    fnums, fden = [[g * x for x in row] for row in fnums], g * fden
                got = slot_from_nums(tnums, tden, fnums, fden)
                want = space.slot(
                    i, [F(x, tden) for x in tnums], [[F(x, fden) for x in row] for row in fnums]
                )
                assert got == want and type(got) is SlotValue
                assert type(got.tnums) is tuple and all(type(row) is tuple for row in got.fnums)
                assert got.torsion == tuple(F(x, tden) % 1 for x in tnums)
                assert got.free == tuple(tuple(F(x, fden) for x in row) for row in fnums)
                assert gcd(got.tden, *got.tnums) == 1
                assert gcd(got.fden, *(x for row in got.fnums for x in row)) == 1


def _views(p):
    return [[(s.torsion, s.free) for s in fac] for fac in p.slots]


def _generator_sets(rings, scenario_paths):
    """Each bundled scenario's generators that have slots, and one
    generator of free rank 1 over each reference ring."""
    out = [load_scenario(path).gamma for path in scenario_paths]
    for spec in rings.values():
        space = ModelSpace(AmbientSpec(ProductRingSpec((spec,)), (1,)), (1,))
        out.append(GeneratorSet(space, space.point([[space.slot(0, free=[[1] + [0] * (spec.rank - 1)])]])))
    return [g for g in out if g.point.space.ambient.total]


def test_samplers_replay_the_fraction_draws(rings, scenario_paths, monkeypatch):
    for space in _spaces(rings, scenario_paths):
        rng, ref = random.Random(41), random.Random(41)
        for _ in range(8):
            assert _views(_rand_point(rng, space)) == reference.rand_point_views(ref, space)
            assert rng.getstate() == ref.getstate()
    checked = rejected = 0
    for gamma in _generator_sets(rings, scenario_paths):
        space = gamma.space
        for i, (spec, gens) in enumerate(zip(space.product.factors, gamma.point.slots)):
            if not gens:
                continue
            consts = point_lower_constants(gamma.point, i)
            rng, ref = random.Random(43), random.Random(43)
            for _ in range(40):
                case = rand_lower_bound_case(rng, gamma, i, consts)
                want = reference.lower_bound_views(ref, space, len(gens), spec.rank)
                assert rng.getstate() == ref.getstate()
                if want is None:
                    assert case is None
                    continue
                row, views = want
                heights = [
                    sum((reference.gram_form(s, c, c) for c in free), F(0))
                    for s, fac in zip(space.product.factors, views)
                    for _, free in fac
                ]
                if case is None:
                    assert max(heights) > consts.eps0_sq
                    rejected += 1
                    continue
                assert [list(e.nums) for e in case[0]] == row and all(e.den == 1 for e in case[0])
                assert _views(case[1]) == views and max(heights) <= consts.eps0_sq
                checked += 1
    assert checked and rejected
    # the model suite's sampler builds no Fraction
    space, built, new = _spaces(rings, scenario_paths)[-1], [], F.__new__
    monkeypatch.setattr(F, "__new__", staticmethod(lambda cls, *a, **k: built.append(a) or new(cls, *a, **k)))
    _rand_point(random.Random(7), space)
    monkeypatch.undo()
    assert built == []


# -- the kernel-inclusion walk ------------------------------------------------


def _walk_reference(a, b, width, level) -> bool:
    """The itertools loop the walk replaced, on one factor's matrices."""
    return any(
        reference.kills(a, k, level) and not reference.kills(b, k, level)
        for k in itertools.product(range(level), repeat=width)
    )


def _planted(rng, width, level, rows):
    """Matrices a, b with a k = 0 and b k = 1 mod level at a random k whose
    digit p is 1, and entries in [-5, 5] elsewhere."""
    k = [rng.randrange(level) for _ in range(width)]
    p = rng.randrange(width)
    k[p] = 1
    a, b = [], []
    for _ in range(rows):
        for m, want in ((a, 0), (b, 1)):
            row = [rng.randint(-5, 5) for _ in range(width)]
            row[p] = 0
            row[p] = want - sum(x * y for x, y in zip(row, k))
            m.append(row)
    return a, b, k


@pytest.mark.parametrize("level", range(1, TORSION_LEVEL + 1))
def test_walk_finds_a_planted_escape_at_each_level(level):
    rng = random.Random(100 + level)
    for width in range(1, 6):
        for rows in (1, 2, 3):
            a, b, k = _planted(rng, width, level, rows)
            found = _escapes(a, b, width, level)
            assert found == _walk_reference(a, b, width, level)
            # level 1 has the zero point only, which every matrix kills
            assert found == (level > 1)
            # random pairs, most without an escape, and the swapped pair
            c = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(rows)]
            for x, y in ((c, a), (a, c), (b, a), (c, c)):
                assert _escapes(x, y, width, level) == _walk_reference(x, y, width, level)
    # a factor with no rows kills everything, and no columns means k = () only
    assert _escapes([], [[1, 1]], 2, level) == (level > 1)
    assert _escapes([], [[level, -level]], 2, level) is False
    assert _escapes([[1, 0]], [], 2, level) is False
    assert _escapes([], [], 2, level) is False
    assert _escapes([], [], 0, level) is False


@pytest.mark.parametrize("tag", ["Z", "Zi", "Zw", "Hq"])
def test_kernel_inclusion_reports_the_first_escaping_level(rings, tag):
    # [L] kills all of level L but the identity does not, first at level L
    # for L = 2, 3; [4] against [2] escapes first at level 4
    product = ProductRingSpec((rings[tag],))
    counts = (1,) if tag == "Hq" else (2,)
    space = ModelSpace(AmbientSpec(product, counts), (1,))
    total = 4 ** (2 * rings[tag].dimension * counts[0])
    ident = BlockMorphism.identity(product, counts)
    cases = [
        (ident, ident, None),
        (BlockMorphism.scalar(product, counts, 2), ident, "kernel escaped at torsion level 2"),
        (BlockMorphism.scalar(product, counts, 3), ident, "kernel escaped at torsion level 3"),
        (BlockMorphism.scalar(product, counts, 4), BlockMorphism.scalar(product, counts, 2),
         "kernel escaped at torsion level 4"),
    ]
    for psi, phi, want in cases:
        assert check_kernel_inclusion(psi, phi, space, total) == want
        assert reference.kernel_inclusion(psi, phi, space, total) == want
