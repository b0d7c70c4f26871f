import random
from fractions import Fraction as F

import pytest

from endoapprox.approx import approx_vector, approx_weighted, derive_ledger
from endoapprox.exact import le_linear_sqrt
from reference import product_inner
from endoapprox.model import (
    AmbientSpec,
    GeneratorSet,
    ModelSpace,
    apply_morphism,
)
from endoapprox.morphisms import (
    BlockMorphism,
    embedding_ir,
    is_weighted,
    rank_and_codim,
    weightify,
)
from endoapprox.reduction import InclusionWitness, specialize
from endoapprox.rings import ProductRingSpec, gaussian_ring, integer_ring


@pytest.fixture(scope="module")
def mixed():
    """A genuinely mixed product: Z x Z[i]."""
    return ProductRingSpec((integer_ring("Zm"), gaussian_ring("Zim")))


def test_product_element_arithmetic(mixed):
    x = mixed.from_coords([3, 1, 2])
    assert x.norm_sq() == 9 + 1 + 4
    assert x.sup_coord() == 3
    y = mixed.embed(1, mixed.factors[1].element([0, 1]))
    assert (x + y).coords() == [F(3), F(1), F(3)]


def test_product_vector_approximation(mixed):
    ledger = derive_ledger(mixed)
    q0 = int(ledger.value("Q0"))
    rng = random.Random(61)
    c_a_sq = ledger.value("C_a_sq")
    c_b_sq = ledger.value("C_b_sq")
    c_c_sq = ledger.value("C_c_sq")
    for k in range(40):
        vec = [mixed.from_coords([rng.randint(-9, 9) for _ in range(3)])]
        if vec[0].is_zero():
            continue
        q = q0 + (k % 3)
        va = approx_vector(mixed, vec, q, ledger=ledger)
        b = va.denominator
        assert 1 <= b < q**3
        bbar_sq = max(e.norm_sq() for e in va.approximation)
        assert bbar_sq <= c_a_sq * b * b
        assert F(b * b) <= c_b_sq * bbar_sq
        s = vec[0].norm_sq()
        u = F(b * b) * s + s * bbar_sq - c_c_sq * s / F(q * q)
        v = 2 * b * product_inner(vec[0], va.approximation[0])
        assert le_linear_sqrt(u, v, s)


def test_two_factor_morphism_surface(mixed):
    amb = AmbientSpec(mixed, (2, 1))
    phi = BlockMorphism.from_coords(
        mixed, (2, 1), (1, 1),
        [
            [[[2], [5]]],
            [[[0, 2]]],
        ],
    )
    assert phi.norm_sq() == 25
    ranks, codim = rank_and_codim(phi, amb)
    assert ranks == (1, 1)
    assert codim == 1 * 1 + 1 * 1
    left, right = phi.split_columns((1, 1))
    assert left.source == (1, 1) and right.source == (1, 0)
    assert left.hstack(right) == phi


def test_weightify_zero_rank_factor(mixed):
    # the second factor has no target rows at all
    amb = AmbientSpec(mixed, (2, 1))
    psi = BlockMorphism.from_coords(
        mixed, (2, 1), (1, 0),
        [
            [[[1], [1]]],
            [],
        ],
    )
    ranks, codim = rank_and_codim(psi, amb)
    assert ranks == (1, 0) and codim == 1
    delta, cert = weightify(psi, amb)
    phi = cert.morphism
    assert phi == delta.compose(psi)
    ir = embedding_ir(cert)
    assert phi.compose(ir) == BlockMorphism.scalar(mixed, (1, 0), cert.scale)


def test_weighted_approx_common_scale(mixed):
    # a common integer scale across both factors
    ledger = derive_ledger(mixed)
    q0 = int(ledger.value("Q0"))
    spec_z, spec_zi = mixed.factors
    phi = BlockMorphism(
        mixed, (2, 2), (1, 1),
        [
            [[spec_z.integer(6), spec_z.integer(35)]],
            [[spec_zi.integer(6), spec_zi.element([1, 2])]],
        ],
    )
    cert = is_weighted(phi)
    assert cert is not None and cert.scale == 6
    wa = approx_weighted(phi, cert, q0, ledger)
    ir = embedding_ir(wa.certificate)
    assert wa.morphism.compose(ir) == BlockMorphism.scalar(mixed, (1, 1), wa.denominator)


def test_two_factor_specialize_mixed_gamma(mixed):
    amb = AmbientSpec(mixed, (1, 1))
    space_g = ModelSpace(amb, (1, 1))
    space_s = space_g.with_counts((1, 1))
    gamma_pt = space_s.point(
        [[space_s.slot(0, free=[[1]])], [space_s.slot(1, free=[[1, 0]])]]
    )
    gamma = GeneratorSet(space_s, gamma_pt)
    psi = BlockMorphism.from_coords(
        mixed, (1, 1), (1, 1), [[[[2]]], [[[3, 0]]]]
    )
    # no common integer scale across the factors: the weighted normal form
    # merges the per-factor scales by least common multiple
    assert is_weighted(psi) is None
    delta, cert = weightify(psi, amb)
    phi = cert.morphism
    assert cert.scale == 6
    # y uses a rational multiple in factor 0 and a ring multiple in factor 1
    y = space_g.point(
        [[space_g.slot(0, free=[[F(1, 2)]])], [space_g.slot(1, free=[[0, 1]])]]
    )
    x = space_g.zero() - y
    w = InclusionWitness(morphism=phi, x=x, xi=space_g.zero(), xi_bound_sq=F(0),
                         y=y, weighted=cert)
    w.verify()
    pw = specialize(w, gamma, F(25))
    n, g_mor = pw.group_data
    assert n == 2
    assert y.int_mul(2) == apply_morphism(g_mor, gamma_pt)
    pw.verify()
