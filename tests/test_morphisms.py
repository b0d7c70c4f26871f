import random
from fractions import Fraction as F

import pytest

from endoapprox.linalg import det
from endoapprox.morphisms import (
    AmbientSpec,
    BlockMorphism,
    MorphismError,
    SpecialCertificate,
    WeightedCertificate,
    embedding_ir,
    gauss_reduce,
    is_weighted,
    isogeny_extension,
    rank_and_codim,
    rationalize_block,
    weightify,
)
from endoapprox.pipeline import check_gauss_identity, rand_full_rank
from endoapprox.rings import ProductRingSpec, RingSpec, gaussian_ring


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
    ir = embedding_ir(cert)
    assert phi.compose(ir) == BlockMorphism.scalar(pz, (2,), 2)
    # r = g: i_r is the identity
    full = BlockMorphism.scalar(pz, (2,), 4)
    cert_full = is_weighted(full)
    ir_full = embedding_ir(cert_full)
    assert ir_full == BlockMorphism.identity(pz, (2,))


def test_isogeny_extension_examples(products):
    pz = products["Z"]
    phi = _mor(pz, (2,), (1,), [[[[2], [5]]]])
    cert = WeightedCertificate(morphism=phi, scale=2, columns=((0,),), slack_sq=F(25, 4))
    ext = isogeny_extension(cert)
    rows = [[e.coords[0] for e in row] for row in ext.blocks[0]]
    assert rows == [[2, 5], [0, 1]]
    spec = pz.factors[0]
    assert det(rationalize_block(spec, ext.blocks[0])) != 0
    # r = g: extension is multiplication by a
    full = BlockMorphism.scalar(pz, (2,), 3)
    ext_full = isogeny_extension(is_weighted(full))
    assert ext_full == full
    # projection onto the first rows recovers phi
    top = BlockMorphism(pz, ext.source, phi.target, [ext.blocks[0][:1]])
    assert top == phi


def test_isogeny_extension_rejects_singular_extension(products):
    # A checked certificate's selected columns are a*I, so its extension is
    # always invertible; a certificate whose checks were skipped reaches the
    # guard.
    pz = products["Z"]
    phi = _mor(pz, (2,), (1,), [[[[2], [5]]]])
    cert = WeightedCertificate(morphism=phi, scale=2, columns=((0,),), slack_sq=F(25, 4))
    object.__setattr__(cert, "morphism", _mor(pz, (2,), (1,), [[[[0], [5]]]]))
    with pytest.raises(MorphismError, match="isogeny extension is not invertible"):
        isogeny_extension(cert)


@pytest.mark.parametrize("tag", ["Z", "Zi", "Zw", "Hq"])
def test_isogeny_extension_determinant_is_a_power_of_the_scale(products, tag):
    # a checked certificate's selected columns are a*I, so each rationalized
    # extended block has determinant +-a^(2d*r) and the singular-extension
    # guard cannot fire
    product = products[tag]
    spec = product.factors[0]
    rng = random.Random(211)
    checked = 0
    while checked < 6:
        g = rng.randint(1, 3)
        r = rng.randint(1, g)
        block = [[[rng.randint(-3, 3) for _ in range(spec.rank)] for _ in range(g)] for _ in range(r)]
        psi = _mor(product, (g,), (r,), [block])
        amb = AmbientSpec(product, (g,))
        if rank_and_codim(psi, amb)[0] != (r,):
            continue
        cert = weightify(psi, amb)[1]
        power = cert.scale ** (2 * spec.dimension * r)
        assert det(rationalize_block(spec, isogeny_extension(cert).blocks[0])) in (power, -power)
        checked += 1


def _bad_weighted(pz, scale, columns, slack_sq, block=None):
    block = block or [[[2], [5]]]
    phi = _mor(pz, (len(block[0]),), (len(block),), [block])
    return WeightedCertificate(morphism=phi, scale=scale, columns=columns, slack_sq=slack_sq)


def _bad_special(pz, left, right, slack_sq):
    phi = _mor(pz, (2,), (1,), [[[[2], [5]]]])
    phi_tilde = phi.hstack(_mor(pz, (1,), (1,), [[[[right]]]]))
    weighted = is_weighted(_mor(pz, (2,), (1,), [[[[2], [left]]]]))
    return SpecialCertificate(morphism=phi_tilde, weighted=weighted, slack_sq=slack_sq)


def _bad_columns(pz, columns):
    """A Z x Zi (2, 2) -> (1, 1) morphism whose columns 0 are 2 I."""
    product = ProductRingSpec((pz.factors[0], gaussian_ring()))
    phi = _mor(product, (2, 2), (1, 1), [[[[2], [5]]], [[[2, 0], [1, 1]]]])
    return WeightedCertificate(morphism=phi, scale=2, columns=columns, slack_sq=F(100))


@pytest.mark.parametrize("build, match", [
    (lambda pz: _bad_weighted(pz, 0, ((0,),), F(25)), "positive integer"),
    (lambda pz: _bad_weighted(pz, 2, ((),), F(25)), "one column per target row"),
    (lambda pz: _bad_weighted(pz, 2, ((0, 0),), F(25), block=[[[2], [0], [5]], [[0], [2], [7]]]),
     "distinct"),
    (lambda pz: _bad_weighted(pz, 2, ((1,),), F(25)), r"a\*I"),
    (lambda pz: _bad_weighted(pz, 2, ((0,),), F(6)), "weighted slack"),
    (lambda pz: _bad_special(pz, 5, 7, F(1)), "special slack"),
    (lambda pz: _bad_special(pz, 3, 7, F(4)), "left block"),
    (lambda pz: _bad_columns(pz, ((0,),)), "one column tuple per factor"),
    (lambda pz: _bad_columns(pz, ((0,), (0,), (0,))), "one column tuple per factor"),
    (lambda pz: _bad_columns(pz, ((0,), (-2,))), "outside the source"),
    (lambda pz: _bad_columns(pz, ((0,), (5,))), "outside the source"),
], ids=["scale-0", "missing-column", "repeated-column", "not-aI", "weighted-slack",
        "special-slack", "other-left-block", "too-few-column-tuples", "too-many-column-tuples",
        "negative-column", "column-past-source"])
def test_certificate_rejected_on_construction(products, build, match):
    # |(2|5)|^2 = 25 needs slack 25/4 at a = 2; |(2|5|7)|^2 = 49 needs 49/25
    with pytest.raises(MorphismError, match=match):
        build(products["Z"])


def test_gauss_reduce_clears_by_left_common_multiples(ring_z, ring_zi, ring_hq):
    # [[y, 0], [x, 1]] is cleared below its first pivot by a left common
    # multiple a*x == b*y: commutative and quaternion; the last two pairs
    # are 6x, 6y for x, y with coordinates (1/2, 1, 0, -1/3), (0, 2/3, 1, 1)
    # and (1/2, 1), (0, 1/3), whose denominators an order does not allow
    pairs = [
        (ring_z.integer(2), ring_z.integer(3)),
        (ring_zi.element([1, 1]), ring_zi.element([0, 1])),
        (ring_hq.element([0, 1, 0, 0]), ring_hq.element([0, 0, 1, 0])),
        (ring_hq.element([3, 6, 0, -2]), ring_hq.element([0, 4, 6, 6])),
        (ring_zi.element([3, 6]), ring_zi.element([0, 2])),
    ]
    for x, y in pairs:
        spec = x.ring
        block = [[y, spec.zero()], [x, spec.one()]]
        reduced, a = gauss_reduce(spec, block)
        assert a >= 1
        for i in range(2):
            for j in range(2):
                acc = reduced[i][0] * block[0][j] + reduced[i][1] * block[1][j]
                assert acc == spec.integer(a if i == j else 0)


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


def test_gauss_non_integral_blocks(ring_zi):
    # a block with an entry outside the order, such as [[1/2 + i]], is
    # refused before elimination, and check_gauss_identity names the refusal
    half_i = ring_zi.element([F(1, 2), 1])
    for block in ([[half_i]], [[half_i, ring_zi.one()], [ring_zi.one(), ring_zi.integer(2)]]):
        with pytest.raises(MorphismError, match="^gauss reduction needs an integral block$"):
            gauss_reduce(ring_zi, block)
        assert check_gauss_identity(ring_zi, block) == "Zi: gauss failed: gauss reduction needs an integral block"
    # the integral multiple [[1 + 2i]] of [[1/2 + i]] reduces
    reduced, a = gauss_reduce(ring_zi, [[half_i.scale(2)]])
    assert a == 5 and reduced == [[ring_zi.element([1, -2])]]


def test_non_integral_entries_are_refused(products):
    # every way of building a morphism checks that its entries lie in the order
    pz, pzi = products["Z"], products["Zi"]
    with pytest.raises(MorphismError, match=r"^factor 0: entry \(0, 1\) is not integral$"):
        _mor(pz, (2,), (1,), [[[[2], [F(5, 3)]]]])
    with pytest.raises(MorphismError, match=r"^factor 0: entry \(1, 0\) is not integral$"):
        _mor(pzi, (1,), (2,), [[[[1, 0]], [[0, F(1, 2)]]]])
    spec = pzi.factors[0]
    half = spec.element([F(1, 2), 0])
    with pytest.raises(MorphismError, match=r"^factor 0: entry \(0, 0\) is not integral$"):
        BlockMorphism(pzi, (1,), (1,), [[[half]]])
    # the same entries over the order build, and so does 2 * half
    assert _mor(pz, (2,), (1,), [[[[2], [5]]]]).norm_sq() == 25
    assert BlockMorphism(pzi, (1,), (1,), [[[half.scale(2)]]]) == BlockMorphism.identity(pzi, (1,))


def test_gauss_rejects_rank_deficient(ring_z):
    with pytest.raises(MorphismError):
        gauss_reduce(ring_z, [
            [ring_z.integer(1), ring_z.integer(2)],
            [ring_z.integer(2), ring_z.integer(4)],
        ])
    # Z x Z as one order, e idempotent: e is a nonzero pivot, but x -> x*e
    # is singular, so it has no adjugate to clear the diagonal with
    split = RingSpec(
        tag="ZxZ", rank=2, dimension=1, basis_labels=("1", "e"),
        mul_table=(((1, 0), (0, 1)), ((0, 1), (0, 1))), involution=((1, 0), (0, 1)),
        gram=((F(1), F(0)), (F(0), F(1))), lattice_rep=(((1, 0), (0, 1)), ((1, 0), (0, 0))),
    )
    with pytest.raises(MorphismError, match="degenerate right-multiplication matrix"):
        gauss_reduce(split, [[split.element([0, 1])]])


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
    delta, cert = weightify(already, amb)
    assert cert.morphism == already and cert.scale == 3
    assert delta == BlockMorphism.identity(pz, (1,))

    psi = _mor(pz, (2,), (2,), [[[[1], [1]], [[0], [2]]]])
    delta, cert = weightify(psi, amb)
    assert cert.morphism == BlockMorphism.scalar(pz, (2,), 2)
    assert cert.scale == 2
    assert delta.compose(psi) == cert.morphism

    psi_i = _mor(pzi, (2,), (1,), [[[[1, 1], [1, 0]]]])
    delta, cert = weightify(psi_i, AmbientSpec(pzi, (2,)))
    # the certificate is for Delta o psi, so construction checked that a I_r
    # is a genuine submatrix of it and that the slack bound holds
    assert cert.morphism == delta.compose(psi_i)
    assert cert.scale ** 2 * cert.slack_sq >= cert.morphism.norm_sq()


def test_weightify_requires_surjective(products):
    pz = products["Z"]
    amb = AmbientSpec(pz, (2,))
    with pytest.raises(MorphismError):
        weightify(_mor(pz, (2,), (2,), [[[[1], [1]], [[1], [1]]]]), amb)
