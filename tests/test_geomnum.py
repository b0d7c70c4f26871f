import random
from fractions import Fraction as F

import pytest

from endoapprox import linalg
from endoapprox.geomnum import (
    GeomNumError,
    inflate_generators,
    morphism_lower_bound_check,
    point_constants_all,
    point_lower_constants,
)
from endoapprox.model import AmbientSpec, GeneratorSet, ModelSpace
from endoapprox.pipeline import rand_lower_bound_case
from endoapprox.rings import ProductRingSpec, gaussian_ring, integer_ring, reference_rings


@pytest.fixture(scope="module")
def zs():
    pz = ProductRingSpec((integer_ring(),))
    return ModelSpace(AmbientSpec(pz, (1,)), (1,))


def test_unit_point_constants(zs):
    p = zs.point([[zs.slot(0, free=[[1]])]])
    pc = point_lower_constants(p, 0)
    assert pc.c_sq == F(1, 4)
    assert pc.eps0_sq == F(1, 4)
    # xi = 0, b = e1 reduces to c_sq * h(p) <= h(p)
    assert pc.c_sq <= 1


def test_rank_deficient_rejected(zs):
    t = zs.point([[zs.slot(0, torsion=[F(1, 2), 0])]])
    with pytest.raises(GeomNumError):
        point_lower_constants(t, 0)


@pytest.mark.parametrize("tag", ["Z", "Zi", "Zw", "Hq"])
@pytest.mark.parametrize("case", ["duplicated slot", "zero free part", "free rank 0"])
def test_not_full_rank_named(tag, case):
    # the orbit Gram's definiteness test decides full rank; no rank is computed
    spec = reference_rings()[tag]
    product = ProductRingSpec((spec,))
    e1 = [[1] + [0] * (spec.rank - 1), [0] * spec.rank]
    if case == "free rank 0":
        space = ModelSpace(AmbientSpec(product, (1,)), (0,))
        slots = [space.slot(0)]
    else:
        space = ModelSpace(AmbientSpec(product, (2,)), (2,))
        other = e1 if case == "duplicated slot" else [[0] * spec.rank] * 2
        slots = [space.slot(0, free=e1), space.slot(0, free=other)]
    with pytest.raises(GeomNumError, match="^point is not of full rank in the requested factor$"):
        point_lower_constants(space.point([slots]), 0)


def test_scaling_invariance(zs):
    p = zs.point([[zs.slot(0, free=[[1]])]])
    doubled = p.int_mul(2)
    pc1 = point_lower_constants(p, 0)
    pc2 = point_lower_constants(doubled, 0)
    assert pc2.c_sq == pc1.c_sq  # both sides scale by 4
    assert pc2.eps0_sq == 4 * pc1.eps0_sq


def test_row_check_examples(zs):
    spec = zs.product.factors[0]
    p = zs.point([[zs.slot(0, free=[[1]])]])
    pc = point_lower_constants(p, 0)
    assert morphism_lower_bound_check(p, 0, [spec.integer(7)], zs.zero(), pc)
    with pytest.raises(GeomNumError):
        morphism_lower_bound_check(p, 0, [spec.zero()], zs.zero(), pc)
    far = zs.point([[zs.slot(0, free=[[1]])]])
    with pytest.raises(GeomNumError):
        morphism_lower_bound_check(p, 0, [spec.integer(1)], far, pc)  # outside eps0


def test_falsification_search(zs):
    gamma = GeneratorSet(zs, zs.point([[zs.slot(0, free=[[2]])]]))
    pc = point_lower_constants(gamma.point, 0)
    rng = random.Random(53)
    for _ in range(500):
        case = rand_lower_bound_case(rng, gamma, 0, pc)
        if case is not None:
            assert morphism_lower_bound_check(gamma.point, 0, *case, pc)


def test_gaussian_point_constants():
    pzi = ProductRingSpec((gaussian_ring(),))
    s = ModelSpace(AmbientSpec(pzi, (1,)), (1,))
    p = s.point([[s.slot(0, free=[[1, 0]])]])
    pc = point_lower_constants(p, 0)
    assert pc.c_sq > 0 and pc.eps0_sq > 0
    spec = pzi.factors[0]
    rng = random.Random(59)
    for _ in range(200):
        row = [spec.element([rng.randint(-10, 10), rng.randint(-10, 10)])]
        if row[0].is_zero():
            continue
        assert morphism_lower_bound_check(p, 0, row, s.zero(), pc)


def test_inflate_examples(zs):
    p = zs.point([[zs.slot(0, free=[[1]])]])
    gamma = GeneratorSet(zs, p)
    g0, n0 = inflate_generators(gamma, F(0), F(0))
    assert n0 == 1 and g0 is gamma
    # c_sq * min h already large enough
    g1, n1 = inflate_generators(gamma, F(1, 100), F(0))
    assert n1 == 1
    # K0^2 = 100, unit gamma, c_sq = 1/4: N^2 >= 2*100/(1/4) = 800
    g2, n2 = inflate_generators(gamma, F(100), F(0))
    assert n2 == 32 and (n2 // 2) ** 2 < 800 <= n2**2
    assert g2.point == p.int_mul(32)


def test_constants_all_min(zs):
    pz2 = ProductRingSpec((integer_ring("Zc"), integer_ring("Zd")))
    s = ModelSpace(AmbientSpec(pz2, (1, 1)), (1, 1))
    p = s.point([[s.slot(0, free=[[1]])], [s.slot(1, free=[[3]])]])
    both = point_constants_all(p)
    c1 = point_lower_constants(p, 0)
    c2 = point_lower_constants(p, 1)
    assert both.c_sq == min(c1.c_sq, c2.c_sq)
    assert both.eps0_sq == min(c1.eps0_sq, c2.eps0_sq)
    empty = s.with_counts((0, 0)).zero()
    assert point_constants_all(empty) is None
    # three Z slots with coordinates within +-1000: the orbit Gram is the
    # 3x3 Gram of the free vectors; gram_lower bounds its least eigenvalue
    s3 = ModelSpace(AmbientSpec(ProductRingSpec((integer_ring(),)), (3,)), (3,))
    rng = random.Random(1)
    free = [[[rng.randint(-1000, 1000)] for _ in range(3)] for _ in range(3)]
    p3 = s3.point([[s3.slot(0, free=f) for f in free]])
    both = point_constants_all(p3)
    assert both == point_lower_constants(p3, 0)._replace(factor=-1)
    vecs = [[x for (x,) in f] for f in free]
    gram = [[F(sum(x * y for x, y in zip(u, v))) for v in vecs] for u in vecs]
    for i in range(3):
        gram[i][i] -= both.gram_lower
    assert both.gram_lower > 0
    assert all(linalg.det([r[:k] for r in gram[:k]]) > 0 for k in (1, 2, 3))
