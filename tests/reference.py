"""Reference computations the tests share. Each reads the program's data
containers (rings, spaces, points, morphisms) as data and computes in
Fractions or plain integers, calling no kernel of the program.

Several are an earlier version of a program kernel, kept as it was with the
kernels it called replaced by the copies here: the model's slot and point
arithmetic (`Slot`, `Point`, `apply_morphism`), the suites' Fraction-valued
samplers (`rand_point_views`, `lower_bound_views`), the Fraction-row
`feasibility_oracle`, the itertools `kernel_inclusion` loop, the Fraction
`validate` of a ring's laws and the stepping `dirichlet_scan` that visited
every denominator."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from endoapprox.dirichlet import BudgetError, DirichletError
from endoapprox.model import ModelError
from endoapprox.morphisms import MorphismError
from endoapprox.rings import RingError


def product_inner(x, y) -> Fraction:
    """<x, y> for two product-ring elements under the block-diagonal Gram
    form: per factor, the sum of x_i * gram[i][j] * y_j over its coordinates."""
    total = Fraction(0)
    for xe, ye in zip(x.parts, y.parts):
        gram = xe.ring.gram
        for i, a in enumerate(xe.coords):
            for j, b in enumerate(ye.coords):
                total += a * gram[i][j] * b
    return total


def gram_form(spec, x, y) -> Fraction:
    """x^T G y for coordinate vectors of ints or Fractions, G the ring's
    Fraction Gram matrix, summed in Fractions."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            total += xi * spec.gram[i][j] * yj
    return total


# -- ring arithmetic on the tables -------------------------------------------


def mul_int(spec, a, b) -> list[int]:
    """Coordinates of the product of two elements with integer
    coordinates, through the integer structure constants."""
    out = [0] * spec.rank
    table = spec.mul_table
    for j, x in enumerate(a):
        if not x:
            continue
        row = table[j]
        for k, y in enumerate(b):
            if not y:
                continue
            xy = x * y
            for l, c in enumerate(row[k]):
                if c:
                    out[l] += xy * c
    return out


def rho_int(spec, coords) -> list[list[int]]:
    """Integer image sum_j coords[j] * lattice_rep[j] of integer
    coordinates under the lattice representation."""
    two_d = 2 * spec.dimension
    out = [[0] * two_d for _ in range(two_d)]
    for c, m in zip(coords, spec.lattice_rep):
        if c:
            for orow, mrow in zip(out, m):
                for k, v in enumerate(mrow):
                    if v:
                        orow[k] += c * v
    return out


def conj_int(spec, coords) -> list[int]:
    return [sum(r * c for r, c in zip(row, coords)) for row in spec.involution]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _eliminate(m) -> tuple[int, Fraction]:
    """(rank, determinant when square) of a matrix by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in m]
    rows = len(m)
    cols = len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][c]
        for r in range(rank + 1, rows):
            f = m[r][c] / m[rank][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, det


def rank(m) -> int:
    return _eliminate(m)[0]


def positive_definite(g) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    return all(_eliminate([row[:k] for row in g[:k]])[1] > 0 for k in range(1, len(g) + 1))


def validate(spec) -> None:
    """The Fraction `RingSpec.validate` on the tables alone: unital,
    associative, an anti-involution fixing 1, a symmetric positive-definite
    Gram form and a unital, multiplicative, faithful lattice representation,
    each failure raising the program's message."""
    t = spec.rank
    unit = [[int(i == j) for i in range(t)] for j in range(t)]
    one = unit[0]

    def mul(a, b):
        return mul_int(spec, a, b)

    for j in range(t):
        if mul(one, unit[j]) != unit[j] or mul(unit[j], one) != unit[j]:
            raise RingError(f"{spec.tag}: first basis element is not unital")
    for j, k, l in itertools.product(range(t), repeat=3):
        if mul(mul(unit[j], unit[k]), unit[l]) != mul(unit[j], mul(unit[k], unit[l])):
            raise RingError(f"{spec.tag}: multiplication is not associative")
    conj = [conj_int(spec, e) for e in unit]
    for j in range(t):
        if conj_int(spec, conj[j]) != unit[j]:
            raise RingError(f"{spec.tag}: involution is not an involution")
    for j, k in itertools.product(range(t), repeat=2):
        if conj_int(spec, mul(unit[j], unit[k])) != mul(conj[k], conj[j]):
            raise RingError(f"{spec.tag}: involution is not an anti-automorphism")
    if conj_int(spec, one) != one:
        raise RingError(f"{spec.tag}: involution does not fix the identity")
    g = [list(row) for row in spec.gram]
    if any(g[i][j] != g[j][i] for i in range(t) for j in range(t)):
        raise RingError(f"{spec.tag}: gram form is not symmetric")
    if not positive_definite(g):
        raise RingError(f"{spec.tag}: gram form is not positive-definite")
    two_d = 2 * spec.dimension
    rho = [rho_int(spec, e) for e in unit]
    if rho_int(spec, one) != [[int(i == k) for k in range(two_d)] for i in range(two_d)]:
        raise RingError(f"{spec.tag}: lattice representation is not unital")
    for j, k in itertools.product(range(t), repeat=2):
        if mat_mul(rho[j], rho[k]) != rho_int(spec, mul(unit[j], unit[k])):
            raise RingError(f"{spec.tag}: lattice representation does not respect products")
    if rank([[x for row in m for x in row] for m in rho]) != t:
        raise RingError(f"{spec.tag}: lattice representation is not faithful")


# -- the model's slot and point arithmetic, as stored before slots became tuples


@dataclass(frozen=True)
class Slot:
    """Torsion tnums / tden mod 1 and free coefficients fnums / fden, each
    over its least denominator."""

    tnums: tuple[int, ...]
    tden: int
    fnums: tuple[tuple[int, ...], ...]
    fden: int

    @property
    def torsion(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.tden) for x in self.tnums)

    @property
    def free(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.fden) for x in row) for row in self.fnums)

    def is_torsion(self) -> bool:
        return not any(any(row) for row in self.fnums)

    def is_zero(self) -> bool:
        return not any(self.tnums) and self.is_torsion()


@dataclass(frozen=True)
class Point:
    """Per factor, a tuple of slots; `counts` is the shape they must have."""

    counts: tuple[int, ...]
    slots: tuple[tuple[Slot, ...], ...]

    def __post_init__(self):
        counts = self.counts
        if len(self.slots) != len(counts) or any(
            len(f) != c for f, c in zip(self.slots, counts)
        ):
            raise ModelError("slot shape does not match the space")

    def _check(self, other: "Point") -> None:
        if self.counts != other.counts:
            raise ModelError("points live in different spaces")

    def __add__(self, other: "Point") -> "Point":
        self._check(other)
        slots = tuple(
            tuple(slot_add(a, b) for a, b in zip(fa, fb))
            for fa, fb in zip(self.slots, other.slots)
        )
        return Point(self.counts, slots)

    def __neg__(self) -> "Point":
        return self.int_mul(-1)

    def __sub__(self, other: "Point") -> "Point":
        self._check(other)
        slots = tuple(
            tuple(slot_add(a, b, -1) for a, b in zip(fa, fb))
            for fa, fb in zip(self.slots, other.slots)
        )
        return Point(self.counts, slots)

    def int_mul(self, n: int) -> "Point":
        slots = tuple(tuple(slot_int_mul(s, n) for s in fac) for fac in self.slots)
        return Point(self.counts, slots)

    def is_zero(self) -> bool:
        return all(s.is_zero() for fac in self.slots for s in fac)

    def is_torsion(self) -> bool:
        return all(s.is_torsion() for fac in self.slots for s in fac)


def point_of(p) -> Point:
    """The reference copy of a program point, field by field."""
    return Point(
        tuple(p.space.counts),
        tuple(tuple(Slot(s.tnums, s.tden, s.fnums, s.fden) for s in fac) for fac in p.slots),
    )


def fields_of(p) -> list:
    """A program or reference point's slots as plain field tuples."""
    return [[(s.tnums, s.tden, s.fnums, s.fden) for s in fac] for fac in p.slots]


def torsion_mod1(nums, den: int) -> tuple[tuple[int, ...], int]:
    nums = [x % den for x in nums]
    g = gcd(den, *nums)
    if g > 1:
        return tuple(x // g for x in nums), den // g
    return tuple(nums), den


def free_lowest(rows, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    g = gcd(den, *(x for row in rows for x in row))
    if g > 1:
        return tuple(tuple(x // g for x in row) for row in rows), den // g
    return tuple(tuple(row) for row in rows), den


def slot_add(a: Slot, b: Slot, k: int = 1) -> Slot:
    """The slot a + k*b."""
    tden = lcm(a.tden, b.tden)
    ka, kb = tden // a.tden, k * (tden // b.tden)
    fden = lcm(a.fden, b.fden)
    ga, gb = fden // a.fden, k * (fden // b.fden)
    return Slot(
        *torsion_mod1([x * ka + y * kb for x, y in zip(a.tnums, b.tnums)], tden),
        *free_lowest(
            [[x * ga + y * gb for x, y in zip(ra, rb)] for ra, rb in zip(a.fnums, b.fnums)], fden
        ),
    )


def slot_int_mul(a: Slot, n: int) -> Slot:
    return Slot(
        *torsion_mod1([n * x for x in a.tnums], a.tden),
        *free_lowest([[n * x for x in row] for row in a.fnums], a.fden),
    )


def divide(y: Point, b: int) -> Point:
    if b < 1:
        raise ModelError("division needs a positive integer")
    slots = tuple(
        tuple(
            Slot(*torsion_mod1(s.tnums, s.tden * b), *free_lowest(s.fnums, s.fden * b))
            for s in fac
        )
        for fac in y.slots
    )
    return Point(y.counts, slots)


def slot_height(spec, s: Slot) -> Fraction:
    return sum((gram_form(spec, row, row) for row in s.free), Fraction(0))


def height(product, p: Point) -> Fraction:
    best = Fraction(0)
    for spec, fac in zip(product.factors, p.slots):
        for s in fac:
            h = slot_height(spec, s)
            if h > best:
                best = h
    return best


def _int_coords(e) -> list[int]:
    if e.den != 1:
        raise ModelError("only integral ring elements act on model points")
    return e.nums


def _act_into(spec, e, tors, free, acc_tors, acc_free) -> None:
    coords = _int_coords(e)
    if any(tors):
        for r, row in enumerate(rho_int(spec, coords)):
            acc_tors[r] += sum(m * t for m, t in zip(row, tors))
    for acc, coeff in zip(acc_free, free):
        for l, v in enumerate(mul_int(spec, coords, coeff)):
            acc[l] += v


def _slot_nums(slots):
    tden = lcm(*(s.tden for s in slots))
    fden = lcm(*(s.fden for s in slots))
    tors = [[x * (tden // s.tden) for x in s.tnums] for s in slots]
    free = [[[x * (fden // s.fden) for x in row] for row in s.fnums] for s in slots]
    return tors, tden, free, fden


def apply_morphism(phi, x: Point, free_ranks) -> Point:
    """phi on a point whose factors have these free ranks."""
    if phi.source != x.counts:
        raise MorphismError("morphism source does not match the point's space")
    out_slots = []
    for i, spec in enumerate(phi.product.factors):
        tors, tden, free, fden = _slot_nums(x.slots[i])
        nu = free_ranks[i]
        fac = []
        for row in phi.blocks[i]:
            acc_tors = [0] * (2 * spec.dimension)
            acc_free = [[0] * spec.rank for _ in range(nu)]
            for c, e in enumerate(row):
                if any(e.nums):
                    _act_into(spec, e, tors[c], free[c], acc_tors, acc_free)
            fac.append(Slot(*torsion_mod1(acc_tors, tden), *free_lowest(acc_free, fden)))
        out_slots.append(tuple(fac))
    return Point(tuple(phi.target), tuple(out_slots))


# -- the suites' samplers, drawing Fraction values as they did before slots
# were built from numerators


def rand_point_views(rng, space):
    """Per factor and slot, the (torsion, free) views of the point the model
    suite's sampler draws: each torsion coordinate on the (1/4)-grid, then
    integral free coefficients in [-3, 3], drawn as the sampler drew them."""
    views = []
    for i, spec in enumerate(space.product.factors):
        fac = []
        for _ in range(space.counts[i]):
            torsion = tuple(Fraction(rng.randrange(4), 4) for _ in range(2 * spec.dimension))
            free = tuple(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(spec.rank))
                for _ in range(space.free_ranks[i])
            )
            fac.append((torsion, free))
        views.append(fac)
    return views


def lower_bound_views(rng, space, generators: int, rank: int):
    """The row coordinates and xi's (torsion, free) views the geomnum
    sampler draws for a factor with this many generators of this ring rank,
    drawn as the sampler drew them: the row, its denominator, then per free
    coefficient one value on the den^-2 grid at a random position (the
    value is drawn first, as Python evaluates an assignment's right side
    before its subscript).  None for a zero row; the eps0 ball is the
    caller's to check."""
    row = [[rng.randint(-20, 20) for _ in range(rank)] for _ in range(generators)]
    if not any(any(e) for e in row):
        return None
    den = rng.randint(2, 6)
    views = []
    for k, spec in enumerate(space.product.factors):
        fac = []
        for _ in range(space.counts[k]):
            free = []
            for _ in range(space.free_ranks[k]):
                coeff = [Fraction(0)] * spec.rank
                coeff[rng.randrange(spec.rank)] = Fraction(rng.randint(-den, den), den * den)
                free.append(tuple(coeff))
            fac.append(((Fraction(0),) * (2 * spec.dimension), tuple(free)))
        views.append(fac)
    return row, views


# -- Dirichlet -----------------------------------------------------------------


def feasibility_oracle(alpha, q: int, budget: int = 2_000_000) -> list[tuple[int, Fraction]]:
    """The full table (b, best error) for every 1 <= b < q**m, one Fraction a row."""
    alpha = [Fraction(a) for a in alpha]
    if not alpha:
        raise DirichletError("empty target vector")
    if q < 2:
        raise DirichletError("modulus must be at least 2")
    den = lcm(*(a.denominator for a in alpha))
    nums = [a.numerator * (den // a.denominator) for a in alpha]
    bound = q ** len(nums)
    if bound - 1 > budget:
        raise BudgetError(f"table of {bound - 1} rows exceeds budget {budget}")
    table = []
    for b in range(1, bound):
        worst = max(min(r, den - r) for r in (n * b % den for n in nums))
        table.append((b, Fraction(worst, den)))
    return table


def dirichlet_scan(alpha, q: int) -> tuple[int, tuple[int, ...], Fraction, int]:
    """(b, numerators, error, bound) at the least b <= min(q**m - 1, D) with
    every n_i * b mod D within D // q of 0: the stepping scan, advancing the
    first non-integral residue by one addition per b and multiplying out
    the others only where that one is within tolerance."""
    alpha = [Fraction(a) for a in alpha]
    den = lcm(*(a.denominator for a in alpha))
    nums = [a.numerator * (den // a.denominator) for a in alpha]
    bound = q ** len(nums)
    lead, *rest = [n % den for n in nums if n % den] or [0]
    lo = den // q
    hi = den - lo
    r = 0
    for b in range(1, min(bound - 1, den) + 1):
        r += lead
        if r >= den:
            r -= den
        if lo < r < hi:
            continue
        if all(not lo < n * b % den < hi for n in rest):
            worst = max(min(x, den - x) for x in [r] + [n * b % den for n in rest])
            betas = []
            for n in nums:
                t, rem = divmod(n * b, den)
                if 2 * rem > den or (2 * rem == den and t % 2):
                    t += 1
                betas.append(t)
            return b, tuple(betas), Fraction(worst, den), bound
    return None


def oracle_rows(table) -> list[tuple[int, Fraction]]:
    """The program oracle's integer table (D, worst) as (b, worst_b / D) rows."""
    den, worst = table
    return [(b, Fraction(w, den)) for b, w in enumerate(worst, 1)]


# -- torsion kernels -----------------------------------------------------------


def torsion_matrices(phi) -> list[list[list[int]]]:
    """Per factor, the integer matrix of phi on the slots' torsion
    numerators: target row r, source column c holds rho of entry (r, c)."""
    out = []
    for spec, block in zip(phi.product.factors, phi.blocks):
        m = []
        for row in block:
            images = [rho_int(spec, _int_coords(e)) for e in row]
            for r in range(2 * spec.dimension):
                m.append([x for image in images for x in image[r]])
        out.append(m)
    return out


def kills(m, k, level) -> bool:
    return all(sum(a * b for a, b in zip(row, k)) % level == 0 for row in m)


def kernel_inclusion(psi, phi, space, budget: int, top_level: int = 4) -> str | None:
    """Every torsion point of level 1 to top_level that psi kills, phi kills
    too, by the itertools walk over every residue vector of each factor."""
    for f in (psi, phi):
        if f.source != space.counts or f.product != space.product:
            raise MorphismError("morphism does not act on the torsion space")
    m_psi, m_phi = torsion_matrices(psi), torsion_matrices(phi)
    widths = [2 * spec.dimension * c for spec, c in zip(space.product.factors, space.counts)]
    for level in range(1, top_level + 1):
        total = level ** sum(widths)
        if total > budget:
            raise BudgetError(f"torsion enumeration of {total} points exceeds budget {budget}")
        for a, b, width in zip(m_psi, m_phi, widths):
            for k in itertools.product(range(level), repeat=width):
                if kills(a, k, level) and not kills(b, k, level):
                    return f"kernel escaped at torsion level {level}"
    return None
