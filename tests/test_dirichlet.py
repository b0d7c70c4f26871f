import random
from fractions import Fraction as F

import pytest

from endoapprox.dirichlet import (
    DEFAULT_BUDGET,
    BudgetError,
    DirichletError,
    dirichlet_approx,
    feasibility_oracle,
)
from endoapprox.pipeline import check_dirichlet, rand_dirichlet_target


def test_boundary_case():
    res = dirichlet_approx([F(1, 2)], 2)
    assert res.denominator == 1
    assert res.numerators == (0,)
    assert res.error == F(1, 2)  # closed bound: error <= 1/Q


def test_integer_inputs():
    res = dirichlet_approx([F(5), F(-3)], 3)
    assert res.denominator == 1
    assert res.numerators == (5, -3)
    assert res.error == 0


def test_thirds_matches_oracle():
    # With the theorem's closed bound, b = 1 already achieves error 1/3 = 1/Q;
    # the oracle confirms it is the minimal feasible row, and the exact row
    # b = 3 (error 0) is present further down the table.
    alpha = [F(2, 3), F(1, 3)]
    res = dirichlet_approx(alpha, 3)
    den, worst = feasibility_oracle(alpha, 3)
    feasible = [b for b, w in enumerate(worst, 1) if 3 * w <= den]
    assert res.denominator == feasible[0] == 1
    assert den == 3 and worst[3 - 1] == 0


def test_oracle_table_examples():
    # one row, b = 1: 1/2 is 1/2 from an integer, over D = 2
    assert feasibility_oracle([F(1, 2)], 2) == (2, [1])
    den, worst = feasibility_oracle([F(1, 3), F(-2, 5), F(4)], 2)
    assert den == 15 and worst == [6, 5, 3, 6, 5, 6, 5]
    assert all(type(w) is int for w in worst)
    with pytest.raises(DirichletError):
        feasibility_oracle([], 3)
    with pytest.raises(DirichletError):
        dirichlet_approx([F(1, 2)], 1)


def test_budget_error():
    # both scan limits exceed the budget: D - 1 = 1009 * 1013 - 1 and q^m - 1 = 9999
    with pytest.raises(BudgetError):
        dirichlet_approx([F(1, 1009), F(2, 1013)], 100, budget=100)


def test_scan_bounded_by_common_denominator():
    # q^m = 46^6 is about 9.5e9 candidates, but b = D = 10007 is exact, so
    # the scan stops at D; minimality and tolerance are checked on integers
    rng = random.Random(10007)
    den, q = 10007, 46
    nums = [rng.randint(1, den - 1) for _ in range(6)]
    res = dirichlet_approx([F(n, den) for n in nums], q, budget=500_000)
    b = res.denominator
    assert 1 <= b <= den and res.bound == q**6
    for n, beta in zip(nums, res.numerators):
        assert q * abs(n * b - beta * den) <= den
    assert res.error == max(abs(F(n * b, den) - beta) for n, beta in zip(nums, res.numerators))
    for c in range(1, b):
        assert any(q * min(n * c % den, den - n * c % den) > den for n in nums)


def test_ties_round_to_even():
    # alpha*b = 3/2 rounds to 2, 1/2 rounds to 0
    res = dirichlet_approx([F(3, 2)], 2)
    assert res.numerators == (2,) if res.denominator == 1 else True
    assert abs(F(3, 2) * res.denominator - res.numerators[0]) <= F(1, 2)


def test_contract_against_oracle_random():
    rng = random.Random(41)
    for _ in range(150):
        alpha, q = rand_dirichlet_target(rng, 300)
        assert check_dirichlet(alpha, q, DEFAULT_BUDGET) is None
