"""The synthetic Mordell-Weil model: a computable stand-in for the group of
algebraic points with exact heights.

Each coordinate slot holds a torsion part (rationals mod 1, one per
homology coordinate) and a free part (coefficients in the factor ring
tensored with Q, over a scenario-chosen number of independent generators),
each stored as integer numerators over one denominator.
Heights are exact rationals: the free part is scored by the ring's Gram
form summed over generators, torsion contributes zero, and the height of a
point is the maximum over its slots.  Every group axiom the downstream
reductions rely on (ring action, integer homogeneity, triangle inequality,
divisibility, torsion of height zero) holds exactly by construction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .dirichlet import BudgetError
from .linalg import clear_denominators
from .morphisms import AmbientSpec, BlockMorphism, MorphismError, rationalize_block
from .rings import RingSpec


class ModelError(ValueError):
    pass


_set = object.__setattr__


class ModelSpace:
    """An ambient power together with per-factor free-module ranks.
    Immutable; it keeps a `__dict__` for the spaces `with_counts` built."""

    def __init__(self, ambient: AmbientSpec, free_ranks: tuple[int, ...]):
        if len(free_ranks) != ambient.product.n_factors:
            raise ModelError("one free rank per ring factor required")
        if any(r < 0 for r in free_ranks):
            raise ModelError("free ranks must be non-negative")
        _set(self, "ambient", ambient)
        _set(self, "free_ranks", free_ranks)

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not ModelSpace:
            return NotImplemented
        return (self.ambient, self.free_ranks) == (other.ambient, other.free_ranks)

    def __hash__(self) -> int:
        return hash((self.ambient, self.free_ranks))

    @property
    def counts(self) -> tuple[int, ...]:
        return self.ambient.counts

    @property
    def product(self):
        return self.ambient.product

    @cached_property
    def _by_counts(self) -> dict[tuple[int, ...], "ModelSpace"]:
        return {self.counts: self}

    def with_counts(self, counts) -> "ModelSpace":
        """The space with these counts and the same rings and free ranks,
        built once per counts and kept (not compared) on this space."""
        counts = tuple(counts)
        space = self._by_counts.get(counts)
        if space is None:
            space = self._by_counts[counts] = ModelSpace(self.ambient.with_counts(counts), self.free_ranks)
        return space

    def zero(self) -> "ModelPoint":
        slots = tuple(tuple(self.slot(i) for _ in range(c)) for i, c in enumerate(self.counts))
        return ModelPoint(self, slots)

    def point(self, slots) -> "ModelPoint":
        return ModelPoint(self, tuple(tuple(s for s in fac) for fac in slots))

    def slot(self, factor: int, torsion=(), free=()) -> "SlotValue":
        spec = self.product.factors[factor]
        nu, t = self.free_ranks[factor], spec.rank
        tors = [0] * (2 * spec.dimension)
        for idx, v in enumerate(torsion):
            tors[idx] = v
        fr = [[0] * t for _ in range(nu)]
        for k, coeff in enumerate(free):
            for l, v in enumerate(coeff):
                fr[k][l] = v
        # over the least common denominator the numerators share no factor with it
        fnums, fden = clear_denominators([x for row in fr for x in row])
        return SlotValue(
            *_torsion_mod1(*clear_denominators(tors)),
            tuple(tuple(fnums[k * t : (k + 1) * t]) for k in range(nu)),
            fden,
        )


class SlotValue(NamedTuple):
    """One ambient coordinate: torsion vector mod 1 plus free coefficients,
    as integer numerators over one denominator each.

    Torsion is tnums[i] / tden with 0 <= tnums[i] < tden; free coefficient
    k is fnums[k] / fden.  Each denominator is the least one, so the
    numerators and their denominator share no common factor, and equal
    slots have equal fields.  `torsion` and `free` are the Fraction views.
    A tuple of its four fields, so building, comparing and hashing a slot
    run in C.
    """

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


class ModelPoint:
    """A point of a model space: per factor, a tuple of its slots, whose
    shape must match the space's counts.  Immutable; equal points have
    equal fields."""

    __slots__ = ("space", "slots")

    def __init__(self, space: ModelSpace, slots: tuple[tuple[SlotValue, ...], ...]):
        if tuple(map(len, slots)) != tuple(space.counts):
            raise ModelError("slot shape does not match the space")
        _set(self, "space", space)
        _set(self, "slots", slots)

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not ModelPoint:
            return NotImplemented
        return self.slots == other.slots and (self.space is other.space or self.space == other.space)

    def __hash__(self) -> int:
        return hash((self.space, self.slots))

    def __repr__(self) -> str:
        return f"ModelPoint(space={self.space!r}, slots={self.slots!r})"

    # -- group structure ---------------------------------------------------

    def _check(self, other: "ModelPoint") -> None:
        if self.space is not other.space and self.space != other.space:
            raise ModelError("points live in different spaces")

    def __add__(self, other: "ModelPoint") -> "ModelPoint":
        self._check(other)
        slots = tuple(
            tuple(_slot_add(a, b) for a, b in zip(fa, fb))
            for fa, fb in zip(self.slots, other.slots)
        )
        return ModelPoint(self.space, slots)

    def __neg__(self) -> "ModelPoint":
        return self.int_mul(-1)

    def __sub__(self, other: "ModelPoint") -> "ModelPoint":
        self._check(other)
        slots = tuple(
            tuple(_slot_add(a, b, -1) for a, b in zip(fa, fb))
            for fa, fb in zip(self.slots, other.slots)
        )
        return ModelPoint(self.space, slots)

    def int_mul(self, n: int) -> "ModelPoint":
        slots = tuple(tuple(_slot_int_mul(s, n) for s in fac) for fac in self.slots)
        return ModelPoint(self.space, slots)

    def is_zero(self) -> bool:
        return all(s.is_zero() for fac in self.slots for s in fac)

    def is_torsion(self) -> bool:
        return all(s.is_torsion() for fac in self.slots for s in fac)

    # -- heights -----------------------------------------------------------

    def slot_height(self, factor: int, index: int) -> Fraction:
        s = self.slots[factor][index]
        spec = self.space.product.factors[factor]
        return Fraction(_free_form(spec, s.fnums, s.fnums), s.fden * s.fden * spec.gram_den)

    def height(self) -> Fraction:
        """The largest slot height, found by comparing each slot's form
        value over its denominator as integer cross-products; one Fraction
        is built, for the result."""
        best, best_den = 0, 1
        for spec, fac in zip(self.space.product.factors, self.slots):
            for s in fac:
                h, den = _free_form(spec, s.fnums, s.fnums), s.fden * s.fden * spec.gram_den
                if h * best_den > best * den:
                    best, best_den = h, den
        return Fraction(best, best_den)


def _free_form(spec: RingSpec, a, b) -> int:
    """The integer Gram form summed over two lists of integer coefficients."""
    return sum(map(spec.form_int, a, b))


def slot_orbit_nums(spec: RingSpec, slot: SlotValue) -> list[list[list[int]]]:
    """The free numerators, over the slot's fden, of tau_k * slot for the
    ring basis tau_1..tau_t, which span the free part of the slot's ring
    orbit over Q."""
    t = spec.rank
    return [[spec.mul_int([int(i == k) for i in range(t)], row) for row in slot.fnums] for k in range(t)]


def orbit_gram(spec: RingSpec, slots) -> list[list[Fraction]]:
    """The Gram matrix of the slots' ring orbits: entry (a, b) is the ring's
    Gram form summed over the free coefficients of orbit vectors a and b.
    The vectors are brought over F, the lcm of the slots' free denominators,
    so each entry is one integer sum over F^2 * gram_den, divided once; the
    form is symmetric, so each pair is summed once."""
    f = lcm(*(s.fden for s in slots))
    orbit = [
        [[x * (f // s.fden) for x in row] for row in acted]
        for s in slots
        for acted in slot_orbit_nums(spec, s)
    ]
    den = f * f * spec.gram_den
    gram = [[Fraction(0)] * len(orbit) for _ in orbit]
    for a, u in enumerate(orbit):
        for b in range(a, len(orbit)):
            gram[a][b] = gram[b][a] = Fraction(_free_form(spec, u, orbit[b]), den)
    return gram


def _torsion_mod1(nums, den: int) -> tuple[tuple[int, ...], int]:
    """Torsion numerators nums / den reduced mod 1 and to the least
    denominator: (numerators in [0, den'), den')."""
    if den == 1:
        return (0,) * len(nums), 1
    nums = [x % den for x in nums]
    g = gcd(den, *nums)
    if g > 1:
        return tuple(x // g for x in nums), den // g
    return tuple(nums), den


def _free_lowest(rows, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Free numerators rows / den over the least denominator."""
    if den == 1:
        return tuple(map(tuple, rows)), 1
    g = gcd(den, *(x for row in rows for x in row))
    if g > 1:
        return tuple(tuple(x // g for x in row) for row in rows), den // g
    return tuple(tuple(row) for row in rows), den


def _slot_add(a: SlotValue, b: SlotValue, k: int = 1) -> SlotValue:
    """The slot a + k*b."""
    tden = lcm(a.tden, b.tden)
    ka, kb = tden // a.tden, k * (tden // b.tden)
    fden = lcm(a.fden, b.fden)
    ga, gb = fden // a.fden, k * (fden // b.fden)
    return SlotValue(
        *_torsion_mod1([x * ka + y * kb for x, y in zip(a.tnums, b.tnums)], tden),
        *_free_lowest(
            [[x * ga + y * gb for x, y in zip(ra, rb)] for ra, rb in zip(a.fnums, b.fnums)], fden
        ),
    )


def _slot_int_mul(a: SlotValue, n: int) -> SlotValue:
    return SlotValue(
        *_torsion_mod1([n * x for x in a.tnums], a.tden),
        *_free_lowest([[n * x for x in row] for row in a.fnums], a.fden),
    )


def _act_into(spec: RingSpec, coords, tors: list[int], free, acc_tors, acc_free) -> None:
    """Add the action of an element of the order, given by its integer
    coordinates, on a slot, given by integer numerators, to the
    accumulators: lattice representation on torsion, module multiplication
    on each free coefficient."""
    if any(tors):
        for r, row in enumerate(spec.rho_int(coords)):
            acc_tors[r] += sum(m * t for m, t in zip(row, tors))
    for acc, coeff in zip(acc_free, free):
        for l, v in enumerate(spec.mul_int(coords, coeff)):
            acc[l] += v


def _slot_nums(slots) -> tuple[list[list[int]], int, list[list[list[int]]], int]:
    """The slots' torsion and free numerators brought over one torsion and
    one free denominator: (torsion per slot, torsion den, free
    coefficients per slot, free den)."""
    tden = lcm(*(s.tden for s in slots))
    fden = lcm(*(s.fden for s in slots))
    tors = [[x * (tden // s.tden) for x in s.tnums] for s in slots]
    free = [[[x * (fden // s.fden) for x in row] for row in s.fnums] for s in slots]
    return tors, tden, free, fden


def _slot_from_nums(acc_tors, tden: int, acc_free, fden: int) -> SlotValue:
    return SlotValue(*_torsion_mod1(acc_tors, tden), *_free_lowest(acc_free, fden))


def apply_morphism(phi: BlockMorphism, x: ModelPoint) -> ModelPoint:
    """Evaluate a block morphism on a point; exact and additive.

    Per factor, the input slots' numerators are brought over one torsion
    and one free denominator, each output row is accumulated in integers
    across its columns, and each output slot is reduced once (torsion mod
    1, both parts to their least denominator)."""
    if phi.source != x.space.counts:
        raise MorphismError("morphism source does not match the point's space")
    if phi.product is not x.space.product and phi.product != x.space.product:
        raise MorphismError("morphism and point use different ring products")
    target_space = x.space.with_counts(phi.target)
    out_slots = []
    for i, spec in enumerate(phi.product.factors):
        tors, tden, free, fden = _slot_nums(x.slots[i])
        nu = x.space.free_ranks[i]
        fac = []
        for row in phi.blocks[i]:
            acc_tors = [0] * (2 * spec.dimension)
            acc_free = [[0] * spec.rank for _ in range(nu)]
            for c, e in enumerate(row):
                if not e.is_zero():
                    _act_into(spec, e.nums, tors[c], free[c], acc_tors, acc_free)
            fac.append(_slot_from_nums(acc_tors, tden, acc_free, fden))
        out_slots.append(tuple(fac))
    return ModelPoint(target_space, tuple(out_slots))


def torsion_matrices(phi: BlockMorphism) -> list[list[list[int]]]:
    """Per factor, the integer matrix of phi on the slots' torsion numerators:
    the rationalized block, whose block of target row r and source column c
    is rho_int of entry (r, c), the same blocks `apply_morphism` sums. phi
    maps the level-n torsion point with numerators k (torsion k / n) to the
    one with numerators M k, so it kills the point exactly when M k = 0 mod n."""
    return [rationalize_block(spec, block) for spec, block in zip(phi.product.factors, phi.blocks)]


def torsion_widths(space: ModelSpace) -> list[int]:
    """Per factor, the number 2 * d_i * g_i of torsion numerators of its slots."""
    return [2 * spec.dimension * c for spec, c in zip(space.product.factors, space.counts)]


def torsion_count(space: ModelSpace, n: int, budget: int) -> int:
    """The number n ** (2 * sum(d_i * g_i)) of level-n torsion points of the
    space; a level below 1, or a count above `budget`, raises."""
    if n < 1:
        raise ModelError("torsion level must be positive")
    total = n ** sum(torsion_widths(space))
    if total > budget:
        raise BudgetError(f"torsion enumeration of {total} points exceeds budget {budget}")
    return total


def divide(y: ModelPoint, b: int) -> ModelPoint:
    """The canonical b-division: [b] * result == y exactly.

    Free coefficients divide by b; each torsion coordinate t picks the
    representative t/b among the b-power many preimages.
    """
    if b < 1:
        raise ModelError("division needs a positive integer")
    slots = tuple(
        tuple(
            SlotValue(*_torsion_mod1(s.tnums, s.tden * b), *_free_lowest(s.fnums, s.fden * b))
            for s in fac
        )
        for fac in y.slots
    )
    return ModelPoint(y.space, slots)


def torsion_enum(space: ModelSpace, n: int, budget: int = 100_000):
    """All points with zero free part and torsion coordinates in (1/n)Z mod 1.

    The count is `torsion_count(space, n, budget)`, which raises above `budget`.
    """
    torsion_count(space, n, budget)
    coord_count = sum(torsion_widths(space))
    zero_free = [(space.slot(i).fnums, 1) for i in range(space.product.n_factors)]
    for assignment in itertools.product(range(n), repeat=coord_count):
        at = 0
        slots = []
        for i, spec in enumerate(space.product.factors):
            two_d = 2 * spec.dimension
            fac = []
            for _ in range(space.counts[i]):
                fac.append(SlotValue(*_torsion_mod1(assignment[at : at + two_d], n), *zero_free[i]))
                at += two_d
            slots.append(tuple(fac))
        yield ModelPoint(space, tuple(slots))


def rank_of_point(p: ModelPoint) -> tuple[int, ...]:
    """Per factor, the rational rank of the span of the ring-orbit of the
    free parts, divided by the ring rank."""
    from . import linalg

    out = []
    for i, spec in enumerate(p.space.product.factors):
        nu = p.space.free_ranks[i]
        vecs = [
            [c for coeff in acted for c in coeff]
            for slot in p.slots[i]
            for acted in slot_orbit_nums(spec, slot)
        ]
        if not vecs or nu == 0:
            out.append(0)
            continue
        q_rank = linalg.rank(vecs)
        if q_rank % spec.rank != 0:
            raise ModelError("orbit rank not divisible by the ring rank")
        out.append(q_rank // spec.rank)
    return tuple(out)


def concat_points(x: ModelPoint, p: ModelPoint) -> ModelPoint:
    """The pair (x, p): slots of x followed by slots of p, per factor."""
    if x.space.product != p.space.product or x.space.free_ranks != p.space.free_ranks:
        raise ModelError("pairing needs points over the same ring data")
    counts = tuple(a + b for a, b in zip(x.space.counts, p.space.counts))
    space = x.space.with_counts(counts)
    slots = tuple(fa + fb for fa, fb in zip(x.slots, p.slots))
    return ModelPoint(space, slots)


class GeneratorSet:
    """Free generators of a finite-rank subgroup, grouped by factor.

    Each generator is a single-slot point of its factor; the free parts of
    the ring orbit must be rationally independent (full rank), and the
    generators must be torsion-free so integer relations N*y = G*gamma stay
    exact in the model.  Immutable.
    """

    __slots__ = ("space", "point")

    def __init__(self, space: ModelSpace, point: ModelPoint):
        # space.counts is the rank multi-index s
        if point.space != space:
            raise ModelError("generator point must live in the declared space")
        if any(any(s.tnums) for fac in point.slots for s in fac):
            raise ModelError("generators must be torsion-free")
        if rank_of_point(point) != space.counts:
            raise ModelError("generators are not free (rank condition fails)")
        _set(self, "space", space)
        _set(self, "point", point)

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not GeneratorSet:
            return NotImplemented
        return (self.space, self.point) == (other.space, other.point)

    def __hash__(self) -> int:
        return hash((self.space, self.point))

    def generator(self, factor: int, index: int) -> SlotValue:
        return self.point.slots[factor][index]

    def min_height(self) -> Fraction:
        heights = [
            self.point.slot_height(i, j)
            for i, fac in enumerate(self.point.slots)
            for j in range(len(fac))
        ]
        return min(heights) if heights else Fraction(0)


def empty_generators(space_g: ModelSpace) -> GeneratorSet:
    counts = tuple(0 for _ in space_g.counts)
    space = space_g.with_counts(counts)
    return GeneratorSet(space, space.zero())
