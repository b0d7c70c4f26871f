import random
from fractions import Fraction as F

import pytest

from endoapprox.pipeline import check_norm_sandwich
from endoapprox.rings import (
    ProductRingSpec,
    RingError,
    RingSpec,
    compute_Q0,
    integer_ring,
    lambda_min_nonzero,
    norm_equivalence_constants,
)


def _scaled_gram_ring(tag, gram):
    """Rank-2 commutative ring (i^2 = -1 structure) with a custom Gram form."""
    return RingSpec(
        tag=tag,
        rank=2,
        dimension=1,
        basis_labels=("1", "u"),
        mul_table=(((1, 0), (0, 1)), ((0, 1), (-1, 0))),
        involution=((1, 0), (0, -1)),
        gram=tuple(tuple(F(x) for x in row) for row in gram),
        lattice_rep=(((1, 0), (0, 1)), ((0, -1), (1, 0))),
    )


def test_ring_mul_examples(ring_z, ring_zi, ring_hq):
    assert ring_z.integer(3) * ring_z.integer(4) == ring_z.integer(12)
    i = ring_zi.element([0, 1])
    assert i * i == ring_zi.element([-1, 0])
    qi = ring_hq.element([0, 1, 0, 0])
    qj = ring_hq.element([0, 0, 1, 0])
    qk = ring_hq.element([0, 0, 0, 1])
    assert qi * qj == qk


def test_mixed_ring_rejected(ring_z, ring_zi):
    with pytest.raises(RingError):
        ring_z.integer(1) * ring_zi.element([1, 0])


def test_norm_examples(ring_z, ring_zi):
    assert ring_zi.zero().norm_sq() == 0
    assert ring_zi.element([2, 1]).norm_sq() == 5
    assert ring_z.integer(-3).norm_sq() == 9


def test_lambda_min_examples(ring_z, ring_zi):
    assert lambda_min_nonzero(ring_z).value_sq == 1
    assert lambda_min_nonzero(ring_zi).value_sq == 1
    scaled = _scaled_gram_ring("G49", [[4, 0], [0, 9]])
    lam = lambda_min_nonzero(scaled)
    assert lam.value_sq == 4
    assert lam.witness.norm_sq() == 4


def test_norm_equivalence_examples(ring_zi):
    assert norm_equivalence_constants(ring_zi) == (1, 2)
    diag = _scaled_gram_ring("G23", [[2, 0], [0, 3]])
    assert norm_equivalence_constants(diag) == (2, 5)
    one = integer_ring("Z7")
    seven = RingSpec(
        tag="Z7s",
        rank=1,
        dimension=1,
        basis_labels=("1",),
        mul_table=(((1,),),),
        involution=((1,),),
        gram=((F(7),),),
        lattice_rep=((((1, 0)), ((0, 1))),),
    )
    assert norm_equivalence_constants(seven) == (7, 7)
    del one


def test_Q0_examples(ring_z, ring_zi):
    assert compute_Q0(ProductRingSpec((ring_z,))) == 2
    assert compute_Q0(ProductRingSpec((ring_zi,))) == 4
    two = ProductRingSpec((integer_ring("Za"), integer_ring("Zb")))
    assert compute_Q0(two) == 4


def test_Q0_reference_quaternion(ring_hq):
    assert compute_Q0(ProductRingSpec((ring_hq,))) == 8


def test_product_requires_distinct_tags(ring_z):
    with pytest.raises(RingError):
        ProductRingSpec((ring_z, ring_z))


def test_invalid_mul_table_rejected():
    with pytest.raises(RingError):
        RingSpec(
            tag="bad",
            rank=1,
            dimension=1,
            basis_labels=("1",),
            mul_table=(((2,),),),  # not unital
            involution=((1,),),
            gram=((F(1),),),
            lattice_rep=((((1, 0)), ((0, 1))),),
        )


def test_gram_must_be_positive_definite():
    for bad in ([[1, 2], [2, 1]], [[1, 1], [1, 1]]):  # indefinite, singular
        with pytest.raises(RingError):
            _scaled_gram_ring("neg", bad)


@pytest.mark.parametrize("tag", ["Z", "Zi", "Zw", "Hq"])
def test_norm_equivalence_property(rings, tag):
    spec = rings[tag]
    c0_sq, c1_sq = norm_equivalence_constants(spec)
    rng = random.Random(11)
    for _ in range(300):
        a = spec.element([rng.randint(-30, 30) for _ in range(spec.rank)])
        assert check_norm_sandwich(a, c0_sq, c1_sq) is None


@pytest.mark.parametrize("tag", ["Z", "Zi", "Zw", "Hq"])
def test_lattice_representation_multiplicative(rings, tag):
    spec = rings[tag]
    rng = random.Random(13)
    for _ in range(100):
        a = spec.element([rng.randint(-9, 9) for _ in range(spec.rank)])
        b = spec.element([rng.randint(-9, 9) for _ in range(spec.rank)])
        assert spec.rho_respects_product(a.coords, b.coords)
