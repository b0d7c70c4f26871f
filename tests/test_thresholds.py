from fractions import Fraction as F

import pytest

from endoapprox.thresholds import (
    ConjecturalOracle,
    ThresholdError,
    VarietyCard,
    degree_pushforward_bound,
    finiteness_thresholds,
    kernel_degree,
    mu_lower_bounds,
)


def _card(dim_d=0, cod_v=2, deg_v=F(1), deg_a=F(1)):
    return VarietyCard(
        ambient_tag="Ag",
        deg_v=deg_v,
        dim_d=dim_d,
        cod_v=cod_v,
        deg_ambient=deg_a,
        ambient_dim=dim_d + cod_v,
    )


def _oracle(value=F(1), eta=F(1, 8)):
    return ConjecturalOracle.from_entries([
        ("Ag", eta, value),
        ("Ar", eta, value),
    ])


def test_card_validation():
    with pytest.raises(ThresholdError):
        VarietyCard("Ag", F(1), 1, 1, F(1), 3)
    with pytest.raises(ThresholdError):
        VarietyCard("Ag", F(0), 0, 2, F(1), 2)


def test_degree_pushforward_examples():
    card = _card(dim_d=1, cod_v=1)
    assert degree_pushforward_bound(card, F(1)) == card.deg_v
    card0 = _card(dim_d=0, cod_v=2)
    assert degree_pushforward_bound(card0, F(100)) == card0.deg_v  # exponent 0
    small = degree_pushforward_bound(card, F(4))
    big = degree_pushforward_bound(card, F(9))
    assert small < big  # monotone in |phi|


def test_kernel_degree_examples():
    assert kernel_degree(1, (1,), (1,)) == 1
    assert kernel_degree(2, (1, 1), (1, 1)) == 16
    assert kernel_degree(3, (1,), (1,)) == 9
    with pytest.raises(ThresholdError):
        kernel_degree(0, (1,), (1,))


def test_mu_bounds_examples():
    card = _card()
    eta = F(1, 4)
    oracle = _oracle(value=F(3, 2))
    mu = mu_lower_bounds(card, oracle, eta, F(4), 2, "Ar", F(1))
    # deg V = deg A^r = 1: eps1 equals the oracle constant exactly
    assert mu.eps1_lower == F(3, 2)
    # eps1 decreasing in deg V
    worse = mu_lower_bounds(
        _card(deg_v=F(16)), oracle, eta, F(4), 2, "Ar", F(1)
    )
    assert worse.eps1_lower < mu.eps1_lower
    # extension bound increasing in |phi|
    bigger = mu_lower_bounds(card, oracle, eta, F(16), 2, "Ar", F(1))
    assert bigger.bound_big_phi > mu.bound_big_phi
    # image bound decreasing in |phi|
    assert bigger.bound_phi < mu.bound_phi


def test_mu_bounds_preconditions():
    card = _card()
    oracle = _oracle()
    with pytest.raises(ThresholdError):
        mu_lower_bounds(card, oracle, F(3, 4), F(1), 2, "Ar", F(1))
    with pytest.raises(ThresholdError):
        mu_lower_bounds(card, oracle, F(1, 4), F(1), 0, "Ar", F(1))


def test_finiteness_unit_base():
    # K0 = eps2 = 1: m = 1, every morphism with |phi| >= 1 lands in case 2
    card = _card()
    oracle = _oracle(eta=F(1, 8))
    thr = finiteness_thresholds(card, oracle, F(1, 4), F(1), 2, [("Ar", F(1))])
    assert thr.m_upper == 1
    assert thr.classify(F(4)).case == 2
    assert thr.classify(F(1)).at_boundary


def test_finiteness_monotone_in_k0():
    card = _card()
    oracle = _oracle(eta=F(1, 8))
    small = finiteness_thresholds(card, oracle, F(1, 4), F(16), 2, [("Ar", F(1))])
    large = finiteness_thresholds(card, oracle, F(1, 4), F(64), 2, [("Ar", F(1))])
    assert large.m_upper > small.m_upper


def test_finiteness_boundary_both_cases():
    # cod V = 2, eta = 1/4: the exponent chain is exact in rationals, so
    # both case inequalities can be checked at the boundary |phi| = m
    card = _card()
    oracle = _oracle(eta=F(1, 8))
    k0_sq = F(16)
    thr = finiteness_thresholds(card, oracle, F(1, 4), k0_sq, 2, [("Ar", F(1))])
    # m = (K0/eps2)^(2/(1 - 1/2)) = K0^4 = 256 exactly (eps2 = 1)
    assert thr.m_upper == 256
    boundary = thr.m_upper * thr.m_upper
    case = thr.classify(boundary)
    assert case.at_boundary and case.case == 1
    # case-1 inequality at the boundary: radius equals eps1^2 / m^(2(d+1))
    assert case.ball_radius_sq == thr.eps1_lower**2 / thr.m_upper ** 2
    # case-2 inequality at the boundary: K0^2 = eps2^2 * m^(2(1/codV - eta)),
    # here m^(1/2) = 16 exactly
    from endoapprox.exact import sqrt_bounds

    lo, hi = sqrt_bounds(thr.m_upper)
    assert lo == hi
    assert k0_sq == thr.eps2_lower**2 * lo
    assert thr.radius_large_sq == k0_sq


def test_finiteness_preconditions():
    card = _card(cod_v=2, dim_d=0)
    oracle = _oracle()
    with pytest.raises(ThresholdError):
        finiteness_thresholds(card, oracle, F(1, 2), F(1), 2, [("Ar", F(1))])
    with pytest.raises(ThresholdError):
        finiteness_thresholds(card, oracle, F(1, 4), F(0), 2, [("Ar", F(1))])
    with pytest.raises(ThresholdError):
        finiteness_thresholds(card, oracle, F(1, 4), F(1), 2, [])


def test_oracle_is_data():
    oracle = _oracle(value=F(7, 3))
    assert oracle.value("Ag", F(1, 8)) == F(7, 3)
    with pytest.raises(ThresholdError):
        oracle.value("unknown", F(1, 8))
    with pytest.raises(ThresholdError):
        ConjecturalOracle.from_entries([("Ag", F(1, 8), F(0))])
