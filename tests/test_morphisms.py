import random
from fractions import Fraction as F

import pytest

from endoapprox.linalg import det
from endoapprox.morphisms import (
    AmbientSpec,
    BlockMorphism,
    MorphismError,
    embedding_ir,
    gauss_reduce,
    is_weighted,
    isogeny_extension,
    rank_and_codim,
    rationalize_block,
    solve_ax_eq_by,
    weightify,
)
from endoapprox.pipeline import check_gauss_identity, rand_full_rank
from endoapprox.rings import ProductRingSpec


def _mor(product, source, target, coords):
    return BlockMorphism.from_coords(product, source, target, coords)


def test_norm_examples(products):
    pz, pzi = products["Z"], products["Zi"]
    zero = BlockMorphism.zero(pz, (2,), (1,))
    assert zero.norm_sq() == 0
    phi = _mor(pz, (2,), (1,), [[[[2], [-3]]]])
    assert phi.norm_sq() == 9
    phi2 = _mor(pzi, (2,), (1,), [[[[1, 1], [2, 0]]]])
    assert phi2.norm_sq() == 4


def test_rank_and_codim(products):
    pz = products["Z"]
    amb = AmbientSpec(pz, (2,))
    zero = BlockMorphism.zero(pz, (2,), (1,))
    assert rank_and_codim(zero, amb) == ((0,), 0)
    phi = _mor(pz, (2,), (1,), [[[[1], [1]]]])
    assert rank_and_codim(phi, amb) == ((1,), 1)
    from endoapprox.rings import integer_ring

    p2 = ProductRingSpec((integer_ring("Za"), integer_ring("Zb")))
    amb2 = AmbientSpec(p2, (2, 2))
    full = _mor(p2, (2, 2), (1, 1), [[[[1], [2]]], [[[3], [1]]]])
    assert rank_and_codim(full, amb2) == ((1, 1), 2)


def test_is_weighted_examples(products):
    pz = products["Z"]
    single = _mor(pz, (1,), (1,), [[[[3]]]])
    cert = is_weighted(single)
    assert cert is not None and cert.scale == 3
    phi = _mor(pz, (3,), (2,), [[[[2], [0], [5]], [[0], [2], [7]]]])
    cert = is_weighted(phi)
    assert cert is not None
    assert cert.scale == 2
    assert cert.columns == ((0, 1),)
    none = is_weighted(_mor(pz, (2,), (1,), [[[[2], [3]]]]))
    # 2 and 3 are both integer-pattern columns; the lower-slack scale wins
    assert none is not None and none.scale == 3
    absent = is_weighted(_mor(products["Zi"], (1,), (1,), [[[[1, 1]]]]))
    assert absent is None


def test_embedding_examples(products):
    pz = products["Z"]
    phi = _mor(pz, (3,), (2,), [[[[2], [0], [5]], [[0], [2], [7]]]])
    cert = is_weighted(phi)
    ir = embedding_ir(phi, cert)
    assert phi.compose(ir) == BlockMorphism.scalar(pz, (2,), 2)
    # r = g: i_r is the identity
    full = BlockMorphism.scalar(pz, (2,), 4)
    cert_full = is_weighted(full)
    ir_full = embedding_ir(full, cert_full)
    assert ir_full == BlockMorphism.identity(pz, (2,))


def test_isogeny_extension_examples(products):
    from endoapprox.morphisms import WeightedCertificate

    pz = products["Z"]
    phi = _mor(pz, (2,), (1,), [[[[2], [5]]]])
    cert = WeightedCertificate(scale=2, columns=((0,),), slack_sq=F(25, 4))
    ext = isogeny_extension(phi, cert)
    rows = [[e.coords[0] for e in row] for row in ext.blocks[0]]
    assert rows == [[2, 5], [0, 1]]
    spec = pz.factors[0]
    assert det(rationalize_block(spec, ext.blocks[0])) != 0
    # r = g: extension is multiplication by a
    full = BlockMorphism.scalar(pz, (2,), 3)
    ext_full = isogeny_extension(full, is_weighted(full))
    assert ext_full == full
    # projection onto the first rows recovers phi
    top = BlockMorphism(pz, ext.source, phi.target, [ext.blocks[0][:1]])
    assert top == phi


def test_solve_ax_eq_by_examples(ring_z, ring_zi, ring_hq):
    a, b = solve_ax_eq_by(ring_z.integer(2), ring_z.integer(3))
    assert (a, b) == (ring_z.integer(3), ring_z.integer(2))
    x = ring_zi.element([1, 1])
    y = ring_zi.element([0, 1])
    a, b = solve_ax_eq_by(x, y)
    assert (a, b) == (y, x)
    assert a * x == b * y
    qi = ring_hq.element([0, 1, 0, 0])
    qj = ring_hq.element([0, 0, 1, 0])
    qk = ring_hq.element([0, 0, 0, 1])
    a, b = solve_ax_eq_by(qi, qj)
    assert a == qk and b == ring_hq.one()
    assert qk * qi == qj


def test_gauss_examples(ring_z, ring_zi, ring_hq):
    reduced, a = gauss_reduce(ring_z, [
        [ring_z.integer(1), ring_z.integer(1)],
        [ring_z.integer(0), ring_z.integer(2)],
    ])
    assert a == 2
    assert [[int(e.coords[0]) for e in row] for row in reduced] == [[2, -1], [0, 1]]
    reduced, a = gauss_reduce(ring_zi, [[ring_zi.element([2, 1])]])
    assert a == 5
    assert reduced[0][0] == ring_zi.element([2, -1])
    reduced, a = gauss_reduce(ring_hq, [[ring_hq.element([1, 1, 1, 1])]])
    assert a == 4
    assert reduced[0][0] == ring_hq.element([1, -1, -1, -1])


def test_gauss_rejects_rank_deficient(ring_z):
    with pytest.raises(MorphismError):
        gauss_reduce(ring_z, [
            [ring_z.integer(1), ring_z.integer(2)],
            [ring_z.integer(2), ring_z.integer(4)],
        ])


@pytest.mark.parametrize("tag", ["Z", "Zi", "Zw", "Hq"])
def test_gauss_identity_random(rings, tag):
    spec = rings[tag]
    rng = random.Random(17)
    for _ in range(40):
        assert check_gauss_identity(spec, rand_full_rank(rng, spec)) is None


def test_weightify_examples(products):
    pz, pzi = products["Z"], products["Zi"]
    amb = AmbientSpec(pz, (2,))
    already = _mor(pz, (2,), (1,), [[[[3], [1]]]])
    delta, phi, cert = weightify(already, amb)
    assert phi == already and cert.scale == 3
    assert delta == BlockMorphism.identity(pz, (1,))

    psi = _mor(pz, (2,), (2,), [[[[1], [1]], [[0], [2]]]])
    delta, phi, cert = weightify(psi, amb)
    assert phi == BlockMorphism.scalar(pz, (2,), 2)
    assert cert.scale == 2
    assert delta.compose(psi) == phi

    psi_i = _mor(pzi, (2,), (1,), [[[[1, 1], [1, 0]]]])
    delta, phi, cert = weightify(psi_i, AmbientSpec(pzi, (2,)))
    # a I_r is a genuine submatrix and the slack bound holds
    cert.verify(phi)
    assert cert.scale ** 2 * cert.slack_sq >= phi.norm_sq()


def test_weightify_requires_surjective(products):
    pz = products["Z"]
    amb = AmbientSpec(pz, (2,))
    with pytest.raises(MorphismError):
        weightify(_mor(pz, (2,), (2,), [[[[1], [1]], [[1], [1]]]]), amb)
