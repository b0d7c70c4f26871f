import random
from fractions import Fraction as F

import pytest

from endoapprox.dirichlet import BudgetError
from endoapprox.exact import le_linear_sqrt
from endoapprox.model import (
    GeneratorSet,
    ModelError,
    ModelPoint,
    ModelSpace,
    apply_morphism,
    concat_points,
    divide,
    rank_of_point,
    torsion_enum,
)
from endoapprox.morphisms import AmbientSpec, BlockMorphism
from endoapprox.rings import ProductRingSpec, gaussian_ring, integer_ring


@pytest.fixture(scope="module")
def zspace():
    pz = ProductRingSpec((integer_ring(),))
    return ModelSpace(AmbientSpec(pz, (2,)), (1,))


def test_apply_identity_and_torsion_kill(zspace):
    pz = zspace.product
    x = zspace.point([[zspace.slot(0, torsion=[F(1, 3), 0], free=[[2]]), zspace.slot(0, free=[[1]])]])
    ident = BlockMorphism.identity(pz, (2,))
    assert apply_morphism(ident, x) == x
    two = BlockMorphism.from_coords(pz, (2,), (1,), [[[[2], [0]]]])
    t = zspace.point([[zspace.slot(0, torsion=[F(1, 2), 0]), zspace.slot(0)]])
    assert apply_morphism(two, t).is_zero()


def test_height_examples(zspace):
    t = zspace.point([[zspace.slot(0, torsion=[F(1, 2), F(1, 4)]), zspace.slot(0)]])
    assert t.height() == 0
    e = zspace.point([[zspace.slot(0, free=[[1]]), zspace.slot(0)]])
    assert e.height() == 1
    rng = random.Random(23)
    for _ in range(50):
        x = zspace.point(
            [[zspace.slot(0, free=[[rng.randint(-5, 5)]]),
              zspace.slot(0, free=[[rng.randint(-5, 5)]])]]
        )
        assert x.int_mul(3).height() == 9 * x.height()


def test_divide_examples(zspace):
    y = zspace.point([[zspace.slot(0, free=[[2]]), zspace.slot(0)]])
    assert divide(y, 1) == y
    half = divide(y, 2)
    assert half.height() == y.height() / 4
    assert half.int_mul(2) == y
    t = zspace.point([[zspace.slot(0, torsion=[F(1, 2), 0]), zspace.slot(0)]])
    q = divide(t, 2)
    assert q.slots[0][0].torsion[0] == F(1, 4)
    assert q.int_mul(2) == t


def test_torsion_enum_counts(zspace):
    pz = zspace.product
    s1 = ModelSpace(AmbientSpec(pz, (1,)), (1,))
    assert len(list(torsion_enum(s1, 1))) == 1
    assert len(list(torsion_enum(s1, 2))) == 4
    assert len(list(torsion_enum(zspace, 3))) == 81
    with pytest.raises(BudgetError):
        list(torsion_enum(zspace, 100, budget=1000))
    # two factors with free ranks >= 1: zero free parts, torsion on the grid
    product = ProductRingSpec((integer_ring(), gaussian_ring()))
    space = ModelSpace(AmbientSpec(product, (2, 1)), (1, 2))
    for n in (1, 2, 3):
        points = list(torsion_enum(space, n))
        assert len(points) == n ** (2 * (1 * 2 + 1 * 1))  # n^(2 sum d_i g_i)
        assert len(set(points)) == len(points)
        for z in points:
            assert z.space == space
            for i, fac in enumerate(z.slots):
                for slot in fac:
                    assert slot.free == space.slot(i).free
                    assert all(0 <= t < 1 and (n * t).denominator == 1 for t in slot.torsion)


def test_rank_of_point(zspace):
    pz = zspace.product
    s1 = ModelSpace(AmbientSpec(pz, (1,)), (1,))
    torsion = s1.point([[s1.slot(0, torsion=[F(1, 2), 0])]])
    assert rank_of_point(torsion) == (0,)
    unit = s1.point([[s1.slot(0, free=[[1]])]])
    assert rank_of_point(unit) == (1,)
    dependent = concat_points(unit, unit.int_mul(2))
    assert rank_of_point(dependent) == (1,)


def test_group_laws_and_triangle(zspace):
    rng = random.Random(29)
    for _ in range(100):
        def rnd():
            return zspace.point(
                [[zspace.slot(0, torsion=[F(rng.randrange(4), 4), 0], free=[[rng.randint(-4, 4)]]),
                  zspace.slot(0, free=[[rng.randint(-4, 4)]])]]
            )

        x, y, z = rnd(), rnd(), rnd()
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x - x).is_zero()
        hx, hy = x.height(), y.height()
        assert le_linear_sqrt((x + y).height() - hx - hy, F(2), hx * hy)
        b = rng.randint(1, 6)
        assert divide(x, b).int_mul(b) == x


def test_morphism_linearity_and_composition(zspace):
    pz = zspace.product
    rng = random.Random(31)
    phi = BlockMorphism.from_coords(pz, (2,), (2,), [[[[1], [2]], [[0], [3]]]])
    psi = BlockMorphism.from_coords(pz, (2,), (2,), [[[[2], [-1]], [[1], [1]]]])
    for _ in range(50):
        x = zspace.point(
            [[zspace.slot(0, torsion=[F(rng.randrange(6), 6), 0], free=[[rng.randint(-4, 4)]]),
              zspace.slot(0, free=[[rng.randint(-4, 4)]])]]
        )
        y = zspace.point([[zspace.slot(0, free=[[rng.randint(-4, 4)]]), zspace.slot(0)]])
        assert apply_morphism(phi, x + y) == apply_morphism(phi, x) + apply_morphism(phi, y)
        assert apply_morphism(phi.compose(psi), x) == apply_morphism(phi, apply_morphism(psi, x))


def split_point(xp: ModelPoint, left_counts) -> tuple[ModelPoint, ModelPoint]:
    left_counts = tuple(left_counts)
    right_counts = tuple(a - b for a, b in zip(xp.space.counts, left_counts))
    if any(c < 0 for c in right_counts):
        raise ModelError("split exceeds the point's slot counts")
    ls = tuple(fac[:c] for fac, c in zip(xp.slots, left_counts))
    rs = tuple(fac[c:] for fac, c in zip(xp.slots, left_counts))
    return (
        ModelPoint(xp.space.with_counts(left_counts), ls),
        ModelPoint(xp.space.with_counts(right_counts), rs),
    )


def test_concat_split_roundtrip(zspace):
    pz = zspace.product
    s1 = ModelSpace(AmbientSpec(pz, (1,)), (1,))
    x = zspace.point([[zspace.slot(0, free=[[3]]), zspace.slot(0, free=[[-1]])]])
    p = s1.point([[s1.slot(0, free=[[5]])]])
    pair = concat_points(x, p)
    assert pair.space.counts == (3,)
    back_x, back_p = split_point(pair, (2,))
    assert back_x == x and back_p == p


def test_generator_set_validation(zspace):
    pz = zspace.product
    s1 = ModelSpace(AmbientSpec(pz, (1,)), (1,))
    good = GeneratorSet(s1, s1.point([[s1.slot(0, free=[[1]])]]))
    assert good.min_height() == 1
    with pytest.raises(ModelError):
        GeneratorSet(s1, s1.point([[s1.slot(0, torsion=[F(1, 2), 0], free=[[1]])]]))
    with pytest.raises(ModelError):
        GeneratorSet(s1, s1.zero())  # rank condition fails
