import random
from fractions import Fraction as F

import pytest

from endoapprox.approx import (
    ApproxError,
    approx_special,
    approx_vector,
    approx_weighted,
    derive_ledger,
    op_constant_sq,
)
from endoapprox.exact import le_linear_sqrt
from reference import product_inner
from endoapprox.model import AmbientSpec, ModelSpace, apply_morphism, concat_points
from endoapprox.morphisms import (
    BlockMorphism,
    SpecialCertificate,
    WeightedCertificate,
    embedding_ir,
    is_weighted,
)
from endoapprox.reduction import InclusionWitness, WitnessError
from endoapprox.rings import ProductRingSpec, integer_ring


def test_ledger_constants(products, ledgers):
    led = ledgers["Z"]
    assert led.value("Q0") == 2
    assert led.value("c0_sq") == 1
    assert led.value("C_b_sq") == F(9, 4)
    led_h = ledgers["Hq"]
    assert led_h.value("Q0") == 8
    assert led_h.value("C_c_sq") == 16  # (sum of four unit norms)^2
    assert op_constant_sq(led, 3) == 9


def test_vector_examples_over_Z(products, ledgers):
    pz = products["Z"]
    led = ledgers["Z"]
    va = approx_vector(pz, [pz.from_coords([7])], 2, ledger=led)
    assert va.denominator == 1
    assert [e.coords() for e in va.approximation] == [[F(1)]]
    va = approx_vector(pz, [pz.from_coords([3]), pz.from_coords([4])], 2, ledger=led)
    assert va.denominator == 1
    assert [e.coords() for e in va.approximation] == [[F(1)], [F(1)]]
    va = approx_vector(pz, [pz.from_coords([5]), pz.from_coords([0])], 2, ledger=led)
    assert va.denominator == 1
    assert [e.coords() for e in va.approximation] == [[F(1)], [F(0)]]


def test_vector_rejections(products, ledgers):
    pz = products["Z"]
    with pytest.raises(ApproxError):
        approx_vector(pz, [pz.from_coords([0])], 2, ledger=ledgers["Z"])
    with pytest.raises(ApproxError):
        approx_vector(pz, [pz.from_coords([1])], 1, ledger=ledgers["Z"])


def test_vector_direction_scale_invariance(products, ledgers):
    # the normalized target is scale-invariant: 2*a gives the same direction set
    pz = products["Zi"]
    led = ledgers["Zi"]
    base = [pz.from_coords([3, 1])]
    doubled = [pz.from_coords([6, 2])]
    va1 = approx_vector(pz, base, 4, ledger=led)
    va2 = approx_vector(pz, doubled, 4, ledger=led)
    assert va1.denominator == va2.denominator
    assert [e.coords() for e in va1.approximation] == [e.coords() for e in va2.approximation]


@pytest.mark.parametrize("tag,n", [("Z", 2), ("Zi", 2), ("Zw", 2), ("Hq", 1)])
def test_vector_conclusions_random(products, ledgers, tag, n):
    product = products[tag]
    led = ledgers[tag]
    q0 = int(led.value("Q0"))
    rng = random.Random(43)
    c_a_sq = led.value("C_a_sq")
    c_b_sq = led.value("C_b_sq")
    c_c_sq = led.value("C_c_sq")
    for i in range(25):
        vec = [
            product.from_coords([F(rng.randint(-9, 9)) for _ in range(product.rank)])
            for _ in range(n)
        ]
        if all(e.is_zero() for e in vec):
            continue
        q = q0 + (i % 4)
        va = approx_vector(product, vec, q, ledger=led)
        b = va.denominator
        assert 1 <= b < q ** (n * product.rank)
        bbar_sq = max(e.norm_sq() for e in va.approximation)
        assert bbar_sq <= c_a_sq * b * b
        assert F(b * b) <= c_b_sq * bbar_sq
        s = max(e.norm_sq() for e in vec)
        # direction bound, cross-multiplied: ||a_k b - bbar_k sqrt(s)||^2 <= C_c^2 s / q^2
        for a_k, b_k in zip(vec, va.approximation):
            u = F(b * b) * a_k.norm_sq() + s * b_k.norm_sq() - c_c_sq * s / F(q * q)
            v = 2 * b * product_inner(a_k, b_k)
            assert le_linear_sqrt(u, v, s)


def test_weighted_identity_branch(products, ledgers):
    # at Q = 3, m = 2 the norm 25 sits below Q^(2m) = 81: no approximation
    pz = products["Z"]
    phi = BlockMorphism.from_coords(pz, (2,), (1,), [[[[2], [5]]]])
    cert = is_weighted(phi)
    wa = approx_weighted(phi, cert, 3, ledgers["Z"])
    assert not wa.approximated
    assert wa.morphism == phi
    assert wa.denominator == cert.scale


def test_weighted_rejects_certificate_for_another_morphism(products, ledgers):
    # a certificate is proof about its own morphism only: (2|3) is weighted
    # too, but its certificate does not certify (2|5)
    pz = products["Z"]
    phi = BlockMorphism.from_coords(pz, (2,), (1,), [[[[2], [5]]]])
    other = is_weighted(BlockMorphism.from_coords(pz, (2,), (1,), [[[[2], [3]]]]))
    with pytest.raises(ApproxError, match="another morphism"):
        approx_weighted(phi, other, 3, ledgers["Z"])


def test_weighted_approximation_preserves_pattern(products, ledgers):
    # |phi|^2 = 49 > Q^(2m) for Q = 2, m = 2, so the approximation runs;
    # the rebuilt pattern carries the Dirichlet denominator exactly
    pz = products["Z"]
    led = ledgers["Z"]
    phi = BlockMorphism.from_coords(pz, (2,), (1,), [[[[7], [5]]]])
    cert = is_weighted(phi)
    assert cert.scale == 7
    wa = approx_weighted(phi, cert, 2, led, exponent=2)
    assert wa.approximated
    b = wa.denominator
    assert 1 <= b < 4
    spec = pz.factors[0]
    assert wa.morphism.blocks[0][0][0] == spec.integer(b)
    ir = embedding_ir(wa.certificate)
    assert wa.morphism.compose(ir) == BlockMorphism.scalar(pz, (1,), b)
    # scale-normalized closeness: ||a psi_e - b phi_e||^2 <= C'^2 a^2 / q^2
    c_prime_sq = led.value("C_c_sq")
    a = cert.scale
    for c in range(2):
        diff = wa.morphism.blocks[0][0][c].scale(a) - phi.blocks[0][0][c].scale(b)
        assert diff.norm_sq() <= c_prime_sq * F(a * a, 4)


def test_weighted_composition_random(products, ledgers):
    pz = products["Z"]
    led = ledgers["Z"]
    rng = random.Random(47)
    spec = pz.factors[0]
    for _ in range(60):
        a = rng.randint(1, 30)
        phi = BlockMorphism(
            pz, (2,), (1,), [[[spec.integer(a), spec.integer(rng.randint(-60, 60))]]]
        )
        cert = is_weighted(phi)
        wa = approx_weighted(phi, cert, 2 + rng.randrange(3), led, exponent=2)
        ir = embedding_ir(wa.certificate)
        assert wa.morphism.compose(ir) == BlockMorphism.scalar(pz, (1,), wa.denominator)


def _special_setup():
    pz = ProductRingSpec((integer_ring(),))
    led = derive_ledger(pz)
    space_g = ModelSpace(AmbientSpec(pz, (2,)), (1,))
    space_s = ModelSpace(AmbientSpec(pz, (1,)), (1,))
    phi = BlockMorphism.from_coords(pz, (2,), (1,), [[[[2], [5]]]])
    phi_prime = BlockMorphism.from_coords(pz, (1,), (1,), [[[[3]]]])
    phi_tilde = phi.hstack(phi_prime)
    cert = SpecialCertificate(
        morphism=phi_tilde,
        weighted=is_weighted(phi),
        slack_sq=max(F(1), phi_tilde.norm_sq() / phi.norm_sq()),
    )
    return pz, led, space_g, space_s, phi_tilde, cert


def _pair_witness(phi_tilde, cert, x, p, xi, bound=F(0)):
    return InclusionWitness(morphism=phi_tilde, x=x, p=p, xi=xi, xi_bound_sq=bound,
                            weighted=cert.weighted, special=cert)


def test_special_identity_branch():
    pz, led, space_g, space_s, phi_tilde, cert = _special_setup()
    p = space_s.point([[space_s.slot(0, free=[[1]])]])
    sa = approx_special(cert, F(1), F(25), p.height(), led)
    assert not sa.approximated
    assert sa.morphism == phi_tilde
    x = space_g.point([[space_g.slot(0, free=[[-4]]), space_g.slot(0, free=[[1]])]])
    xi = concat_points(space_g.zero(), space_s.zero())
    out = sa.transform(_pair_witness(phi_tilde, cert, x, p, xi))
    assert out.xi == xi
    assert sa.eps_prime_sq_cap >= F(1)  # eps'^2 cap dominates eps^2


def test_special_transform_checks_input_and_returns_verified_witness():
    pz, led, space_g, space_s, phi_tilde, cert = _special_setup()
    p = space_s.point([[space_s.slot(0, free=[[1]])]])
    sa = approx_special(cert, F(1), F(25), p.height(), led)
    x = space_g.point([[space_g.slot(0, free=[[-4]]), space_g.slot(0, free=[[1]])]])
    xi = concat_points(space_g.zero(), space_s.zero())
    out = sa.transform(_pair_witness(phi_tilde, cert, x, p, xi))
    out.verify()
    assert out.morphism == sa.morphism and out.special == sa.certificate
    assert out.xi_bound_sq == sa.eps_prime_sq_cap / sa.morphism.norm_sq()
    # 2*(-4) + 5*2 + 3 != 0: the kernel equation fails, so no input witness exists
    off_kernel = space_g.point([[space_g.slot(0, free=[[-4]]), space_g.slot(0, free=[[2]])]])
    with pytest.raises(WitnessError, match="equation"):
        _pair_witness(phi_tilde, cert, off_kernel, p, xi)
    # a true witness for another special morphism (phi | 8): 2*(-4) + 8 = 0
    phi = cert.weighted.morphism
    other = phi.hstack(BlockMorphism.from_coords(pz, (1,), (1,), [[[[8]]]]))
    other_cert = SpecialCertificate(
        morphism=other, weighted=cert.weighted,
        slack_sq=max(F(1), other.norm_sq() / phi.norm_sq()),
    )
    x_other = space_g.point([[space_g.slot(0, free=[[-4]]), space_g.slot(0)]])
    with pytest.raises(ApproxError, match="not a pair witness for this special morphism"):
        sa.transform(_pair_witness(other, other_cert, x_other, p, xi))
    # (5, -2, 0) lies in the kernel but has height 25 > eps^2 / M^2
    big_xi = concat_points(
        space_g.point([[space_g.slot(0, free=[[5]]), space_g.slot(0, free=[[-2]])]]),
        space_s.zero(),
    )
    with pytest.raises(ApproxError, match="eps/M ball"):
        sa.transform(_pair_witness(phi_tilde, cert, x, p, big_xi, bound=F(25)))
    # 2*(-9) + 5*3 + 3 = 0, but h(x) = 90 > K0^2 = 25
    far = space_g.point([[space_g.slot(0, free=[[-9]]), space_g.slot(0, free=[[3]])]])
    with pytest.raises(ApproxError, match="height bound"):
        sa.transform(_pair_witness(phi_tilde, cert, far, p, xi))


def test_special_rejects_zero_radius():
    pz, led, *_rest = _special_setup()
    phi_tilde, cert = _rest[2], _rest[3]
    with pytest.raises(ApproxError):
        approx_special(cert, F(0), F(1), F(1), led)


def test_special_transport_exact_and_divide_height():
    # approximating branch with a transported perturbation of nonzero height
    pz = ProductRingSpec((integer_ring(),))
    led = derive_ledger(pz)
    space_g = ModelSpace(AmbientSpec(pz, (2,)), (1,))
    space_s = ModelSpace(AmbientSpec(pz, (1,)), (1,))
    phi = BlockMorphism.from_coords(pz, (2,), (1,), [[[[37], [61]]]])
    phi_prime = BlockMorphism.from_coords(pz, (1,), (1,), [[[[259]]]])
    phi_tilde = phi.hstack(phi_prime)
    cert = SpecialCertificate(
        morphism=phi_tilde,
        weighted=is_weighted(phi),
        slack_sq=max(F(1), phi_tilde.norm_sq() / phi.norm_sq()),
    )
    p = space_s.point([[space_s.slot(0, free=[[1]])]])
    x = space_g.point([[space_g.slot(0, free=[[-7]]), space_g.slot(0, free=[[0]])]])
    pair = concat_points(x, p)
    assert apply_morphism(phi_tilde, pair).is_zero()
    sa = approx_special(cert, F(25), F(49), p.height(), led)
    assert sa.approximated
    xi = concat_points(space_g.zero(), space_s.zero())
    out = sa.transform(_pair_witness(phi_tilde, cert, x, p, xi))
    xi_prime, cap = out.xi, sa.eps_prime_sq_cap
    assert apply_morphism(sa.morphism, pair + xi_prime).is_zero()
    assert xi_prime.height() * sa.morphism.norm_sq() <= cap
    # height of the transported perturbation is h(psi(x,p)) / b^2 by the divide contract
    image = apply_morphism(sa.morphism, pair)
    assert xi_prime.height() == image.height() / F(sa.denominator**2)
    assert sa.morphism.norm_sq() <= sa.family_bound_sq * F(sa.modulus) ** 2
