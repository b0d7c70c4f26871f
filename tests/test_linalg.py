import hashlib
import random
from fractions import Fraction as F
from math import floor

import pytest

from endoapprox import geomnum, linalg, model, morphisms, rings


def test_rank_det_solve():
    a = linalg.mat([[1, 2], [2, 4]])
    assert linalg.rank(a) == 1
    assert linalg.det(a) == 0
    b = linalg.mat([[1, 2], [3, 4]])
    assert linalg.det(b) == -2
    sol = linalg.solve(b, linalg.mat([[1], [1]]))
    assert sol == [[F(-1)], [F(1)]]
    assert linalg.solve(a, linalg.mat([[1], [3]])) is None


def test_rank_and_solve_exact_on_plain_ints():
    # a float pivot inverse would read 1/49 * 98 as not quite 2
    a = [[49, 1], [98, 2]]
    assert linalg.rank(a) == 1
    sol = linalg.solve(a, [[1], [2]])
    assert sol == [[F(1, 49)], [F(0)]]
    assert all(type(x) is F for row in sol for x in row)
    assert linalg.solve(a, [[1], [3]]) is None


def test_mat_mul_keeps_ints_and_fractions():
    a, b = [[1, 2], [3, 4]], [[0, 1], [1, 0]]
    prod = linalg.mat_mul(a, b)
    assert prod == [[2, 1], [4, 3]]
    assert all(type(x) is int for row in prod for x in row)
    prod = linalg.mat_mul(linalg.mat(a), [[F(1, 2), 0], [0, 1]])
    assert prod == [[F(1, 2), 2], [F(3, 2), 4]]
    assert all(type(x) is F for row in prod for x in row)
    with pytest.raises(ValueError):
        linalg.mat_mul([[1, 2]], [[1, 2]])


def test_adjugate_int():
    m = [[2, 1], [1, 3]]
    adj, d = linalg.adjugate_int(m)
    assert d == 5
    prod = linalg.mat_mul(linalg.mat(adj), linalg.mat(m))
    assert prod == [[F(5), F(0)], [F(0), F(5)]]


def test_eigen_lower():
    eye = linalg.identity(3)
    assert linalg.min_eigenvalue_lower(eye) == 1
    assert linalg.min_eigenvalue_lower(linalg.mat([[2, 0], [0, 3]])) == 2
    assert linalg.min_eigenvalue_lower(linalg.mat([[7]])) == 7
    # irrational least eigenvalue: [[2,1],[1,2]] has 1 and 3 (rational);
    # [[1,1],[1,3]] has 2 +- sqrt(2): bound must sit below 2 - sqrt(2)
    g = linalg.mat([[1, 1], [1, 3]])
    lb = linalg.min_eigenvalue_lower(g)
    assert 0 < lb
    assert (2 - lb) ** 2 >= 2  # lb <= 2 - sqrt(2)
    assert (F(2) - lb - F(1, 10**6)) ** 2 <= 2  # and is tight to ~1e-6
    # entries around 1e9: [[a+c, c], [c, a+c]] has eigenvalues a and a+2c
    a, c = 10**9 + 7, 10**9 + 9
    assert linalg.min_eigenvalue_lower(linalg.mat([[a + c, c], [c, a + c]])) == a
    # irrational least eigenvalue: p(x) = x^2 - tr*x + det is >= 0 at and
    # below it, and < 0 just above it
    g = linalg.mat([[10**9 + 1, 12345], [12345, 2 * 10**9 + 3]])
    tr, d = g[0][0] + g[1][1], linalg.det(g)
    lb = linalg.min_eigenvalue_lower(g)
    assert 0 < lb <= tr / 2 and lb * lb - tr * lb + d >= 0
    up = lb * (1 + F(1, 10**6))
    assert up * up - tr * up + d < 0
    # least eigenvalue about 2^-71, below h / 2^64 (h the least diagonal
    # entry): the bound is still positive and below it
    tiny = F(1, 2**70)
    lb = linalg.min_eigenvalue_lower([[F(1), F(1)], [F(1), 1 + tiny]])
    assert 0 < lb < tiny / 2
    # rational least eigenvalues, found where the first cell narrower than
    # 1/L lies past level 64 and where L is large
    big = 10**30
    assert linalg.min_eigenvalue_lower([[F(big, 7), F(0)], [F(0), F(big + 1, 7)]]) == F(big, 7)
    den = 2**40 + 15
    assert linalg.min_eigenvalue_lower([[F(8, den), F(3, den)], [F(3, den), F(8, den)]]) == F(5, den)
    assert linalg.min_eigenvalue_lower([[F(3, 10**20)]]) == F(3, 10**20)
    # not positive-definite: eigenvalues -1, 2, 5 (2 is the min diagonal),
    # and the singular 0, 2
    for bad in ([[2, 3, 0], [3, 2, 0], [0, 0, 2]], [[1, 1], [1, 1]]):
        with pytest.raises(ArithmeticError):
            linalg.min_eigenvalue_lower(linalg.mat(bad))


def test_eigen_lower_is_valid_quadratic_bound():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        b = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        # gram = b^T b + I is symmetric positive-definite
        bt = [list(col) for col in zip(*b)]
        btb = linalg.mat_mul(bt, b)
        g = [[x + (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(btb)]
        lb = linalg.min_eigenvalue_lower(g)
        assert lb > 0
        for _ in range(20):
            v = [F(rng.randint(-5, 5)) for _ in range(n)]
            quad = sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))
            norm2 = sum(x * x for x in v)
            assert quad >= lb * norm2


def test_definite_zero_pivots():
    # [[3,1,1],[1,3,1],[1,1,3]] has eigenvalues 2, 2, 5: G - 2I is all ones,
    # whose second and third pivots are zero with zero columns
    g = linalg.mat([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
    ones = [[1] * 3 for _ in range(3)]
    assert linalg._definite(ones, False) and not linalg._definite(ones, True)
    assert linalg.min_eigenvalue_lower(g) == 2
    # [[2,1],[1,2]] shifted by 2: a zero pivot with a nonzero column
    assert not linalg._definite([[0, 1], [1, 0]], False)
    assert linalg.min_eigenvalue_lower(linalg.mat([[2, 1], [1, 2]])) == 1


# The Fraction orbit Gram that `model.orbit_gram` must reproduce exactly:
# `free_inner` and `slot_orbit` kept verbatim, with model's names qualified.
def free_inner(spec, a, b):
    """The ring's Gram form summed over two slots' free coefficients; the
    height of a slot is its free part's inner product with itself.  One
    integer sum over the numerators, divided once."""
    t = spec.rank
    an, ad = linalg.clear_denominators([x for row in a for x in row])
    bn, bd = linalg.clear_denominators([x for row in b for x in row])
    rows = range(0, len(an), t)
    total = model._free_form(spec, [an[k : k + t] for k in rows], [bn[k : k + t] for k in rows])
    return F(total, ad * bd * spec.gram_den)


def slot_orbit(spec, slot):
    """The free parts of tau_k * slot for the ring basis tau_1..tau_t,
    which span the free part of the slot's ring orbit over Q."""
    t = spec.rank
    return [
        tuple(
            tuple(F(x, slot.fden) for x in spec.mul_int([int(i == k) for i in range(t)], row))
            for row in slot.fnums
        )
        for k in range(t)
    ]


def ref_orbit_gram(spec, slots):
    orbit = [v for slot in slots for v in slot_orbit(spec, slot)]
    return [[free_inner(spec, u, v) for v in orbit] for u in orbit]


def _generator_points(tag: str, count: int, seed: int, slots: int = 2, free_rank: int = 2, bound: int = 2):
    """Random free generator points over one reference ring, drawn as the
    benchmark's generators workload draws them: `slots` slots of
    `free_rank` coordinates in [-bound, bound]."""
    rng = random.Random(seed)
    spec = rings.reference_rings()[tag]
    space = model.ModelSpace(morphisms.AmbientSpec(rings.ProductRingSpec((spec,)), (slots,)), (free_rank,))
    out = []
    while len(out) < count:
        free = [
            [[rng.randint(-bound, bound) for _ in range(spec.rank)] for _ in range(free_rank)]
            for _ in range(slots)
        ]
        point = space.point([[space.slot(0, free=f) for f in free]])
        try:
            model.GeneratorSet(space, point)
        except model.ModelError:
            continue  # not free: draw again
        out.append(point)
    return out


def _orbit_grams(tag: str, count: int, seed: int, slots: int = 2, free_rank: int = 2, bound: int = 2):
    """The orbit Gram matrices of `_generator_points`."""
    return [
        ref_orbit_gram(p.space.product.factors[0], p.slots[0])
        for p in _generator_points(tag, count, seed, slots, free_rank, bound)
    ]


def _pinned_matrices():
    """Seeded symmetric positive-definite matrices of sizes 1-8: integer
    B^T B + I, rational B^T B + D, aI + cJ (least eigenvalue a, repeated)
    and 8x8 orbit Gram matrices over Hq."""
    rng = random.Random(2024)
    out = []
    for n in range(1, 9):
        for _ in range(13):
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            out.append(
                [[F(sum(b[k][i] * b[k][j] for k in range(n)) + (i == j)) for j in range(n)] for i in range(n)]
            )
            b = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            d = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)]
            out.append(
                [
                    [sum((b[k][i] * b[k][j] for k in range(n)), F(0)) + (d[i] if i == j else 0) for j in range(n)]
                    for i in range(n)
                ]
            )
            a, c = F(rng.randint(1, 30), rng.randint(1, 7)), F(rng.randint(0, 30), rng.randint(1, 7))
            out.append([[a * (i == j) + c for j in range(n)] for i in range(n)])
    return out + _orbit_grams("Hq", 3, 7)


# sha256 of repr() of the bounds on _pinned_matrices(); any search for the
# least eigenvalue's grid cell must reproduce it exactly
PINNED_BOUNDS_DIGEST = "6202da2f39789425966e3f3e30df5152acb7393f3e2b2ac8f1e16bca11d852c3"


def test_eigen_lower_pinned_outputs():
    mats = _pinned_matrices()
    assert len(mats) >= 300 and {len(g) for g in mats} == set(range(1, 9))
    bounds = [linalg.min_eigenvalue_lower(g) for g in mats]
    assert hashlib.sha256(repr(bounds).encode()).hexdigest() == PINNED_BOUNDS_DIGEST


# The definiteness bisection that `linalg.min_eigenvalue_lower` must
# reproduce exactly, kept verbatim with linalg's names qualified: one exact
# strict test a step for at least 64 steps, then a two-run test of the
# rational candidate k.
def ref_min_eigenvalue_lower(g):
    """Certified rational lower bound on the least eigenvalue of a symmetric
    positive-definite rational matrix; ArithmeticError if it is not
    positive-definite.

    A bisection of (0, min diagonal] keeps G - lo*I positive-definite and
    G - hi*I not.  L*G is an integer matrix, L the lcm of the entry
    denominators, so every rational eigenvalue is a multiple of 1/L; once
    hi - lo < 1/L the only possible rational least eigenvalue is
    floor(hi*L)/L.  It is returned when it is one, else lo after at least 64
    steps and lo > 0.
    """
    n = len(g)
    if n == 0:
        raise ValueError("empty matrix")
    a, den = linalg._integer_matrix(g)

    def shifted(x: F) -> list[list[int]]:
        """q*L*(G - x*I) for x = p/q."""
        p, q = x.numerator * den, x.denominator
        return [[q * v - p if i == j else q * v for j, v in enumerate(row)] for i, row in enumerate(a)]

    if not linalg._definite(a, True):
        raise ArithmeticError("matrix is not positive-definite")
    lo, hi = F(0), min(g[i][i] for i in range(n))  # lambda_min <= min diagonal
    steps, lo_stop, tested = 0, None, False
    while lo_stop is None or not tested:
        if not tested and (hi - lo) * den < 1:
            tested = True
            k = F(floor(hi * den), den)
            at_k = shifted(k)
            if linalg._definite(at_k, False) and not linalg._definite(at_k, True):
                return k
            continue
        mid = (lo + hi) / 2
        if linalg._definite(shifted(mid), True):
            lo = mid
        else:
            hi = mid
        steps += 1
        if lo_stop is None and lo > 0 and steps >= linalg._BISECTION_STEPS:
            lo_stop = lo
    return lo_stop


def _rotated(q, eigenvalues):
    """q^T diag(eigenvalues) q for a rational orthogonal matrix q."""
    n = len(q)
    return [[sum(q[k][i] * eigenvalues[k] * q[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


ROT2 = [[F(3, 5), F(4, 5)], [F(-4, 5), F(3, 5)]]
ROT3 = [[F(1, 3), F(2, 3), F(2, 3)], [F(2, 3), F(1, 3), F(-2, 3)], [F(2, 3), F(-2, 3), F(1, 3)]]


# (ring, slots, free rank, coordinate bound) of the benchmark's generators
GENERATOR_SHAPES = [("Z", 2, 2, 300), ("Z", 3, 3, 30), ("Zi", 2, 2, 10), ("Zw", 2, 2, 8), ("Hq", 2, 2, 2)]


def _generator_grams():
    """Orbit Gram matrices of the benchmark's generators shapes, and the
    reference rings' own Gram matrices, which the norm-equivalence constants
    bound."""
    out = [
        g for seed, (tag, *shape) in enumerate(GENERATOR_SHAPES) for g in _orbit_grams(tag, 6, seed, *shape)
    ]
    return out + [linalg.mat(spec.gram) for spec in rings.reference_rings().values()]


def _edge_matrices():
    """Inputs at the edges of the search: a least eigenvalue below h/2^64 (h
    the least diagonal entry), a first narrow level past 64, rational least
    eigenvalues with large denominators, 1x1 and aI + cJ matrices, and
    near-clusters where a prediction can settle on the wrong eigenvalue."""
    tiny = F(1, 2**70)
    big = 10**30
    out = [
        [[F(1), F(1)], [F(1), 1 + tiny]],
        [[F(1), F(1), F(0)], [F(1), 1 + tiny, F(0)], [F(0), F(0), F(3)]],
        [[F(big, 7), F(0)], [F(0), F(big + 1, 7)]],
        [[F(big, 7), F(1, 3)], [F(1, 3), F(big + 1, 7)]],
        [[F(7)]],
        [[F(3, 10**20)]],
        [[F(big, 7)]],
        [[F(1)]],
    ]
    # least eigenvalue a / L for [[a + c, c], [c, a + c]] / L
    for a, c, den in ((5, 3, 2**40 + 15), (7, 10**20, 10**18 + 9), (1, 1, 3**50)):
        out.append([[F(a + c, den), F(c, den)], [F(c, den), F(a + c, den)]])
    for n, a, c in ((2, F(3, 2), F(2, 3)), (5, F(3, 2), F(2, 3)), (4, F(5), F(-1, 2)), (6, F(1, 10**9), F(1))):
        out.append([[a * (i == j) + c for j in range(n)] for i in range(n)])
    for gap in (F(1, 2**40), F(1, 2**20), F(1, 10**12)):
        out.append(_rotated(ROT2, [F(1), 1 + gap]))
        out.append(_rotated(ROT3, [1 + gap, F(1), F(2)]))
        out.append(_rotated(ROT3, [F(2), 1 + gap, F(1)]))
    return out


NOT_POSITIVE_DEFINITE = [
    [[2, 3, 0], [3, 2, 0], [0, 0, 2]],
    [[1, 1], [1, 1]],
    [[0]],
    [[-1]],
    [[1, 0], [0, -1]],
    [[5, 0, 0], [0, 0, 0], [0, 0, 5]],
    [[F(1, 3), F(1, 3)], [F(1, 3), F(1, 3) - F(1, 2**70)]],
]


def _definiteness_runs(fn, g) -> tuple[F, int]:
    """fn(g) and the number of exact definiteness runs it made: eliminations
    without row swaps (the integer solves of the prediction swap rows)."""
    runs = 0
    echelon = linalg._echelon

    def counted(m, cols, swap=True):
        nonlocal runs
        runs += not swap
        return echelon(m, cols, swap)

    linalg._echelon = counted
    try:
        return fn(g), runs
    finally:
        linalg._echelon = echelon


def test_eigen_lower_matches_reference():
    gens = _generator_grams()
    assert {len(g) for g in gens} == {1, 2, 3, 4, 8}
    for g in _pinned_matrices() + gens + _edge_matrices():
        ref, ref_runs = _definiteness_runs(ref_min_eigenvalue_lower, g)
        got, runs = _definiteness_runs(linalg.min_eigenvalue_lower, g)
        assert type(got) is F and got == ref, g
        assert runs <= ref_runs + 3, (g, runs, ref_runs)
    for g in NOT_POSITIVE_DEFINITE:
        for fn in (ref_min_eigenvalue_lower, linalg.min_eigenvalue_lower):
            with pytest.raises(ArithmeticError):
                fn(linalg.mat(g))


def test_eigen_lower_work_bound_on_generator_grams():
    # every call on the benchmark's shapes finds its cell from the
    # prediction: the test of G, the cell's lower point and at most a few
    # more, where the bisection alone ran 25-67
    for g in _generator_grams():
        _, runs = _definiteness_runs(linalg.min_eigenvalue_lower, g)
        assert runs <= 6, (g, runs)


def test_pivot_sign():
    ones = [[1] * 3 for _ in range(3)]
    assert linalg._pivot_sign(ones, False) == 0
    assert linalg._pivot_sign(ones, True) == -1
    assert linalg._pivot_sign([[2, 1], [1, 2]], False) == 1
    assert linalg._pivot_sign([[0, 1], [1, 0]], False) == -1
    assert linalg._pivot_sign([[1, 0, 0], [0, 0, 0], [0, 0, -1]], False) == -1


# `model.rank_of_point` and `geomnum.point_lower_constants` kept verbatim
# on the Fraction orbit above, with the package's names qualified; the ring
# constants are read through today's functions, whose values
# tests/test_integer_kernels.py checks against the earlier derivations.
def ref_rank_of_point(p):
    """Per factor, the rational rank of the span of the ring-orbit of the
    free parts, divided by the ring rank."""
    out = []
    for i, spec in enumerate(p.space.product.factors):
        nu = p.space.free_ranks[i]
        vecs = [
            [c for coeff in acted for c in coeff]
            for slot in p.slots[i]
            for acted in slot_orbit(spec, slot)
        ]
        if not vecs or nu == 0:
            out.append(0)
            continue
        q_rank = linalg.rank(vecs)
        if q_rank % spec.rank != 0:
            raise model.ModelError("orbit rank not divisible by the ring rank")
        out.append(q_rank // spec.rank)
    return tuple(out)


def ref_point_lower_constants(p, factor):
    """Certified (c_sq, eps0_sq) for the given factor of a full-rank point."""
    spec = p.space.product.factors[factor]
    slots = p.slots[factor]
    s = len(slots)
    if s == 0:
        raise geomnum.GeomNumError("no slots in the requested factor")
    if ref_rank_of_point(p)[factor] != s:
        raise geomnum.GeomNumError("point is not of full rank in the requested factor")

    orbit = [acted for slot in slots for acted in slot_orbit(spec, slot)]
    gram = [[free_inner(spec, a, b) for b in orbit] for a in orbit]
    lam_low = linalg.min_eigenvalue_lower(gram)
    if lam_low <= 0:
        raise geomnum.GeomNumError("orbit Gram matrix is not positive-definite")

    c0_sq, c1_sq = rings.norm_equivalence_constants(spec)
    c_sub_sq = rings.submultiplicativity_sq(spec)
    p_sq = max(p.slot_height(factor, j) for j in range(s))
    c_sq = lam_low / (4 * c1_sq * p_sq)
    eps0_sq = lam_low / (4 * c_sub_sq * s * c1_sq)
    return geomnum.PointConstants(factor=factor, c_sq=c_sq, eps0_sq=eps0_sq, gram_lower=lam_low)


def _mixed_denominator_points():
    """Points whose three slots per factor have their draws scaled by 1/2,
    1/3 and 5/6, so their free denominators differ, over each reference ring
    and over Zw x Hq; every fourth point repeats its first slot, scaled, as
    its third, so it is not of full rank."""
    rng = random.Random(19)
    ref = rings.reference_rings()
    products = [rings.ProductRingSpec((spec,)) for spec in ref.values()]
    products.append(rings.ProductRingSpec((ref["Zw"], ref["Hq"])))
    out = []
    for product in products:
        n = product.n_factors
        space = model.ModelSpace(morphisms.AmbientSpec(product, (3,) * n), (3,) * n)
        for trial in range(4):
            slots = []
            for i, spec in enumerate(product.factors):
                free = [
                    [[scale * rng.randint(-4, 4) for _ in range(spec.rank)] for _ in range(3)]
                    for scale in (F(1, 2), F(1, 3), F(5, 6))
                ]
                if trial == 3:
                    free[2] = [[x * F(5, 3) for x in coeff] for coeff in free[0]]
                slots.append([space.slot(i, free=f) for f in free])
            out.append(space.point(slots))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except geomnum.GeomNumError as err:
        return str(err)


def test_orbit_gram_matches_fraction_gram():
    generators = [
        p
        for seed, (tag, *shape) in enumerate(GENERATOR_SHAPES)
        for p in _generator_points(tag, 6, seed, *shape)
    ]
    mixed = _mixed_denominator_points()
    assert {2, 3, 6} <= {s.fden for p in mixed for fac in p.slots for s in fac}
    outcomes = []
    for p in generators + mixed:
        assert model.rank_of_point(p) == ref_rank_of_point(p)
        for i, (spec, slots) in enumerate(zip(p.space.product.factors, p.slots)):
            gram = model.orbit_gram(spec, slots)
            assert gram == ref_orbit_gram(spec, slots) and all(type(x) is F for row in gram for x in row)
            got = _outcome(geomnum.point_lower_constants, p, i)
            assert got == _outcome(ref_point_lower_constants, p, i)
            outcomes.append(got)
    failed = [x for x in outcomes if isinstance(x, str)]
    assert failed and set(failed) == {"point is not of full rank in the requested factor"}
    assert len(outcomes) - len(failed) >= len(generators)
