import random
from fractions import Fraction as F
from math import gcd

import pytest

from endoapprox import linalg
from endoapprox.approx import derive_ledger
from endoapprox.geomnum import point_lower_constants
from endoapprox.model import ModelSpace
from endoapprox.morphisms import AmbientSpec
from endoapprox.pipeline import check_norm_sandwich
from endoapprox.rings import (
    ProductRingSpec,
    RingError,
    RingSpec,
    compute_Q0,
    integer_ring,
    lambda_min_nonzero,
    norm_equivalence_constants,
    product_constants,
    quaternion_ring,
    submultiplicativity_sq,
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


def _generator_point(spec):
    """A full-rank two-slot point over one ring."""
    space = ModelSpace(AmbientSpec(ProductRingSpec((spec,)), (2,)), (2,))
    slots = [space.slot(0, free=[[1] + [0] * (spec.rank - 1), [0] * spec.rank]),
             space.slot(0, free=[[0] * spec.rank, [F(1, 2)] + [1] * (spec.rank - 1)])]
    return space.point([slots])


def test_ring_constants_derived_once_per_ring(monkeypatch):
    calls = []
    real = linalg.min_eigenvalue_lower
    monkeypatch.setattr(linalg, "min_eigenvalue_lower", lambda g: calls.append(len(g)) or real(g))
    spec = quaternion_ring()  # a fresh ring: nothing derived yet
    point = _generator_point(spec)
    first = point_lower_constants(point, 0), derive_ledger(point.space.product).to_jsonable()
    for _ in range(3):
        assert (point_lower_constants(point, 0), derive_ledger(point.space.product).to_jsonable()) == first
    # the ring's own 4x4 Gram is bounded once; the 8x8 orbit Gram every call
    assert calls == [8, 4, 8, 8, 8]


def test_equal_rings_stay_equal_after_deriving_constants():
    a, b = quaternion_ring(), quaternion_ring()
    norm_equivalence_constants(a)
    submultiplicativity_sq(a)
    lambda_min_nonzero(a)
    assert a == b and hash(a) == hash(b)
    assert ProductRingSpec((a,)) == ProductRingSpec((b,))


def test_product_constants_and_ledger_are_fresh_per_call(ring_zw):
    product = ProductRingSpec((ring_zw, integer_ring("Z2")))
    consts = product_constants(product)
    expected = dict(consts)
    consts["c0_sq"] = F(99)
    consts.clear()
    assert product_constants(product) == expected
    ledger = derive_ledger(product)
    expected = ledger.to_jsonable()
    ledger.define("c0_sq", F(99), "planted")
    del ledger.entries["Q0"]
    assert derive_ledger(product).to_jsonable() == expected


# -- integer numerators over one denominator, against a Fraction reference ----
# The reference keeps an element as a tuple of Fractions and reads the ring's
# mul_table, involution and gram as data; it calls no kernel of the program.


def ref_mul(spec, x, y):
    out = [F(0)] * spec.rank
    for j, a in enumerate(x):
        for k, b in enumerate(y):
            for l, c in enumerate(spec.mul_table[j][k]):
                out[l] += a * b * c
    return tuple(out)


def ref_conj(spec, x):
    return tuple(sum((c * u for c, u in zip(row, x)), F(0)) for row in spec.involution)


def ref_norm_sq(spec, x):
    t = spec.rank
    return sum((x[i] * spec.gram[i][j] * x[j] for i in range(t) for j in range(t)), F(0))


def _ref_coords(rng, kind, t):
    """Coordinates of one kind, each zero with probability 1/4."""
    out = []
    for _ in range(t):
        if rng.random() < 0.25:
            out.append(F(0))
        elif kind == "integral":
            out.append(F(rng.randint(-9, 9)))
        elif kind == "rational":
            out.append(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 12))))
        else:
            out.append(F(rng.randint(-10**12, 10**12), rng.choice((1, rng.randint(1, 10**6)))))
    return tuple(out)


def _in_lowest_terms(e):
    return e.den >= 1 and gcd(e.den, *e.nums) == 1 and (any(e.nums) or e.den == 1)


@pytest.mark.parametrize("kind", ["integral", "rational", "huge"])
@pytest.mark.parametrize("tag", ["Z", "Zi", "Zw", "Hq"])
def test_element_matches_fraction_reference(rings, tag, kind):
    spec = rings[tag]
    t = spec.rank
    rng = random.Random(f"{tag}-{kind}")
    for _ in range(80):
        x, y = _ref_coords(rng, kind, t), _ref_coords(rng, kind, t)
        c = F(rng.randint(-6, 6), rng.randint(1, 6))
        a, b = spec.element(x), spec.element(y)
        cases = [
            (a, x),
            (a + b, tuple(u + v for u, v in zip(x, y))),
            (a - b, tuple(u - v for u, v in zip(x, y))),
            (a - a, (F(0),) * t),
            (-a, tuple(-u for u in x)),
            (a * b, ref_mul(spec, x, y)),
            (a.conj(), ref_conj(spec, x)),
            (a.scale(c), tuple(c * u for u in x)),
            (a.scale(0), (F(0),) * t),
        ]
        for got, want in cases:
            assert got.coords == want and all(type(u) is F for u in got.coords)
            assert _in_lowest_terms(got), got
            assert isinstance(got.nums, tuple) and all(type(n) is int for n in got.nums)
            # built from other representations of the same coordinates: equal, same hash
            same = spec.element([u.numerator if u.denominator == 1 else u for u in want])
            assert got == same and hash(got) == hash(same)
            assert got.is_zero() == all(u == 0 for u in want)
            assert got.is_integral() == all(u.denominator == 1 for u in want)
            assert got.sup_coord() == max(abs(u) for u in want)
            norm = got.norm_sq()
            assert norm == ref_norm_sq(spec, want) and type(norm) is F
    half = [F(2, 4)] + [1] * (t - 1)
    assert spec.element(half) == spec.element([F(1, 2)] + [F(1)] * (t - 1))
    assert hash(spec.element(half)) == hash(spec.element([F(1, 2)] + [1] * (t - 1)))
    assert (spec.element(half).nums, spec.element(half).den) == ((1,) + (2,) * (t - 1), 2)
    assert (spec.zero().nums, spec.zero().den) == ((0,) * t, 1)


def test_element_arithmetic_builds_no_fraction(rings, monkeypatch):
    spec = rings["Hq"]
    a, b = spec.element([F(1, 2), 3, F(-5, 6), 0]), spec.element([2, F(1, 3), 0, -1])
    c = F(3, 4)
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    results = [a + b, a - b, -a, a * b, a.conj(), a.scale(c), a.scale(2), a - a]
    flags = [(e.is_zero(), e.is_integral()) for e in results]
    assert built == []
    monkeypatch.undo()
    assert F(1, 2) + F(1, 2) == 1 and flags[-1] == (True, True)
