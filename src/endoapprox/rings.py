"""Orders and quaternion orders as free integer modules with structure
constants, a Rosati-style involution, a positive-definite norm form and a
lattice (homology) representation.

A ring element is its coordinate vector over the configured basis, stored
as integer numerators over one least denominator, the representation a
model slot has; all arithmetic runs on those integers through the integer
structure constants, so it is exact, and the norm of an element is the
rational value of the Gram form at its coordinates (squared norms
everywhere, no radicals).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator, NamedTuple

from . import linalg
from .base import EndoapproxError, Record, set_field
from .dirichlet import DEFAULT_BUDGET, BudgetError
from .exact import floor_sqrt, sqrt_upper


class RingError(EndoapproxError, ValueError):
    """Domain error raised for ill-formed ring data or mismatched elements."""


def _lowest(nums, den: int) -> tuple[tuple[int, ...], int]:
    """Integer numerators over a positive denominator, brought to lowest
    terms in one gcd step (zero comes out over 1)."""
    g = gcd(den, *nums)
    if g > 1:
        return tuple(x // g for x in nums), den // g
    return tuple(nums), den


class RingSpec(Record):
    """An order (or quaternion order) presented by structure constants.

    mul_table[j][k] is the coordinate vector of basis_j * basis_k.
    involution is the matrix of the conjugation on coordinates.
    gram is the symmetric positive-definite form giving squared norms;
    gram_int / gram_den is the same form as an integer matrix over the least
    common denominator of its entries, derived once and not compared.
    lattice_rep[j] is the integer matrix (size 2*dimension) by which
    basis_j acts on the homology of the simple factor.
    The ring constants (`norm_equivalence_constants`,
    `submultiplicativity_sq`, `lambda_min_nonzero`), the nonzero
    structure constants `mul_int` sums over and the nonzero
    lattice-representation entries `rho_int` and `rho_act_int` sum over are
    derived once per ring, on first use, and not compared either.
    """

    _fields = ("tag", "rank", "dimension", "basis_labels", "mul_table", "involution", "gram", "lattice_rep")

    def __init__(
        self,
        tag: str,
        rank: int,
        dimension: int,
        basis_labels: tuple[str, ...],
        mul_table: tuple[tuple[tuple[int, ...], ...], ...],
        involution: tuple[tuple[int, ...], ...],
        gram: tuple[tuple[Fraction, ...], ...],
        lattice_rep: tuple[tuple[tuple[int, ...], ...], ...],
    ):
        set_field(self, "tag", tag)
        set_field(self, "rank", rank)
        set_field(self, "dimension", dimension)
        set_field(self, "basis_labels", basis_labels)
        set_field(self, "mul_table", mul_table)
        set_field(self, "involution", involution)
        set_field(self, "gram", gram)
        set_field(self, "lattice_rep", lattice_rep)
        t = rank
        if t < 1 or self.dimension < 1:
            raise RingError("rank and dimension must be positive")
        if len(self.basis_labels) != t or len(self.mul_table) != t:
            raise RingError("basis/multiplication table size mismatch")
        if any(len(row) != t or any(len(c) != t for c in row) for row in self.mul_table):
            raise RingError("multiplication table must be rank x rank x rank")
        if len(self.involution) != t or any(len(r) != t for r in self.involution):
            raise RingError("involution must be rank x rank")
        if len(self.gram) != t or any(len(r) != t for r in self.gram):
            raise RingError("gram must be rank x rank")
        two_d = 2 * self.dimension
        if len(self.lattice_rep) != t or any(
            len(m) != two_d or any(len(r) != two_d for r in m) for m in self.lattice_rep
        ):
            raise RingError("lattice representation must be rank matrices of size 2*dimension")
        nums, den = linalg.clear_denominators([x for row in self.gram for x in row])
        set_field(self, "gram_int", tuple(tuple(nums[i * t : (i + 1) * t]) for i in range(t)))
        set_field(self, "gram_den", den)
        self.validate()

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> "RingElement":
        """The element with these int or Fraction coordinates."""
        nums, den = linalg.clear_denominators(list(coords))
        if len(nums) != self.rank:
            raise RingError(f"element of {self.tag} needs {self.rank} coordinates")
        return RingElement(self, tuple(nums), den)

    def zero(self) -> "RingElement":
        return self.element([0] * self.rank)

    def one(self) -> "RingElement":
        return self.element([1] + [0] * (self.rank - 1))

    def integer(self, n) -> "RingElement":
        return self.element([n] + [0] * (self.rank - 1))

    def basis_element(self, j: int) -> "RingElement":
        return self.element([1 if i == j else 0 for i in range(self.rank)])

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check the ring laws on the integer tables: unital, associative,
        an anti-involution fixing 1, a symmetric positive-definite Gram form
        and a unital, multiplicative, faithful lattice representation."""
        t = self.rank
        table = self.mul_table
        unit = [[int(i == j) for i in range(t)] for j in range(t)]
        for j in range(t):
            if list(table[0][j]) != unit[j] or list(table[j][0]) != unit[j]:
                raise RingError(f"{self.tag}: first basis element is not unital")
        for j, k, l in itertools.product(range(t), repeat=3):
            if self.mul_int(table[j][k], unit[l]) != self.mul_int(unit[j], table[k][l]):
                raise RingError(f"{self.tag}: multiplication is not associative")
        conj = [self.conj_int(e) for e in unit]
        for j in range(t):
            if self.conj_int(conj[j]) != unit[j]:
                raise RingError(f"{self.tag}: involution is not an involution")
        for j, k in itertools.product(range(t), repeat=2):
            if self.conj_int(table[j][k]) != self.mul_int(conj[k], conj[j]):
                raise RingError(f"{self.tag}: involution is not an anti-automorphism")
        if conj[0] != unit[0]:
            raise RingError(f"{self.tag}: involution does not fix the identity")
        g = self.gram_int
        if any(g[i][j] != g[j][i] for i in range(t) for j in range(i)):
            raise RingError(f"{self.tag}: gram form is not symmetric")
        if not linalg.positive_definite(g):
            raise RingError(f"{self.tag}: gram form is not positive-definite")
        # lattice representation: unital ring homomorphism, faithful
        if self.rho_int(unit[0]) != linalg.identity(2 * self.dimension):
            raise RingError(f"{self.tag}: lattice representation is not unital")
        for j, k in itertools.product(range(t), repeat=2):
            if not self.rho_respects_product(unit[j], unit[k]):
                raise RingError(f"{self.tag}: lattice representation does not respect products")
        flat = [[x for row in m for x in row] for m in self.lattice_rep]
        if linalg.rank(flat) != t:
            raise RingError(f"{self.tag}: lattice representation is not faithful")

    # -- ring constants, derived once per ring and not compared ------------

    @cached_property
    def _norm_equivalence(self) -> tuple[Fraction, Fraction]:
        gram = linalg.mat(self.gram)
        c1_sq = sum(abs(x) for row in gram for x in row)
        c0_sq = linalg.min_eigenvalue_lower(gram)
        if c0_sq <= 0:
            raise RingError(f"{self.tag}: gram form is not positive-definite")
        return c0_sq, c1_sq

    @cached_property
    def _submultiplicativity(self) -> Fraction:
        c0_sq = self._norm_equivalence[0]
        basis = [self.basis_element(j) for j in range(self.rank)]
        t2 = sum((sqrt_upper((a * b).norm_sq()) for a in basis for b in basis), Fraction(0))
        return (t2 * t2) / (c0_sq * c0_sq)

    @cached_property
    def _lambda_min(self) -> "LambdaMin":
        radius_sq = self.gram[0][0]
        best: RingElement | None = None
        best_sq = None
        for elem in enumerate_short_vectors(self, radius_sq):
            n = elem.norm_sq()
            if best_sq is None or n < best_sq:
                best, best_sq = elem, n
        if best is None or best_sq <= 0:
            raise RingError(f"{self.tag}: no nonzero element of positive norm in the search radius")
        return LambdaMin(best_sq, best)

    # -- derived data ------------------------------------------------------

    @property
    def is_commutative(self) -> bool:
        return all(
            self.mul_table[j][k] == self.mul_table[k][j]
            for j in range(self.rank)
            for k in range(j + 1, self.rank)
        )

    def form_int(self, x, y) -> int:
        """x^T (gram_den * G) y on integer coordinate vectors."""
        total = 0
        for xi, row in zip(x, self.gram_int):
            if xi:
                total += xi * sum(map(mul, row, y))
        return total

    def rho(self, a: "RingElement") -> linalg.Matrix:
        """Image of an element under the lattice representation, summed in
        integers over its denominator and divided once."""
        return [[Fraction(x, a.den) for x in row] for row in self.rho_int(a.nums)]

    def rho_respects_product(self, a, b) -> bool:
        """Whether rho(a) rho(b) == rho(a*b) for integer or rational
        coordinate vectors a and b. Replacing a and b by their numerators
        scales both sides by d_a * d_b, so it gives the same answer."""
        return linalg.mat_mul(self.rho_int(a), self.rho_int(b)) == self.rho_int(self.mul_int(a, b))

    @cached_property
    def _rho_terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """The nonzero lattice-representation entries as (j, r, k, v):
        entry (r, k) of lattice_rep[j] is v."""
        return tuple(
            (j, r, k, v)
            for j, m in enumerate(self.lattice_rep)
            for r, row in enumerate(m)
            for k, v in enumerate(row)
            if v
        )

    def rho_int(self, coords) -> list[list[int]]:
        """Integer image sum_j coords[j] * lattice_rep[j] of integer
        coordinates under the lattice representation, summed over its
        nonzero entries."""
        two_d = 2 * self.dimension
        out = [[0] * two_d for _ in range(two_d)]
        for j, r, k, v in self._rho_terms:
            out[r][k] += coords[j] * v
        return out

    def rho_act_int(self, coords, vec, acc) -> None:
        """Add rho(coords) * vec into acc, for integer coordinates and an
        integer vector of length 2*dimension, without building the matrix."""
        for j, r, k, v in self._rho_terms:
            acc[r] += coords[j] * v * vec[k]

    @cached_property
    def _mul_terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """The nonzero structure constants as (j, k, l, c): coordinate l of
        basis_j * basis_k is c."""
        return tuple(
            (j, k, l, c)
            for j, row in enumerate(self.mul_table)
            for k, cell in enumerate(row)
            for l, c in enumerate(cell)
            if c
        )

    def mul_int(self, a, b) -> list[int]:
        """Coordinates of the product of two elements with integer
        coordinates, summed over the nonzero structure constants."""
        out = [0] * self.rank
        for j, k, l, c in self._mul_terms:
            out[l] += a[j] * b[k] * c
        return out

    def conj_int(self, coords) -> list[int]:
        """Coordinates of the conjugate of an element with integer
        coordinates, through the integer involution matrix."""
        return [sum(r * c for r, c in zip(row, coords)) for row in self.involution]

    def right_mul_matrix(self, coords) -> list[list[int]]:
        """Integer matrix of x -> x*a on coordinates, for a with integer
        coordinates: column j is basis_j * a."""
        t = self.rank
        cols = [self.mul_int([int(i == j) for i in range(t)], coords) for j in range(t)]
        return [[col[i] for col in cols] for i in range(t)]


class RingElement(Record):
    """An element as integer numerators over one denominator, nums[i] / den
    its i-th coordinate, in lowest terms: den >= 1, gcd(den, *nums) == 1,
    and zero over 1, so equal elements have equal fields.  `coords` is the
    read-only Fraction view.  Immutable."""

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring: RingSpec, nums: tuple[int, ...], den: int):
        set_field(self, "ring", ring)
        set_field(self, "nums", nums)
        set_field(self, "den", den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def _check(self, other: "RingElement") -> None:
        if self.ring.tag != other.ring.tag:
            raise RingError(f"mixed rings: {self.ring.tag} vs {other.ring.tag}")

    def _add(self, other: "RingElement", k: int) -> "RingElement":
        """self + k*other over the lcm of the two denominators."""
        self._check(other)
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, k * (den // other.den)
        return RingElement(self.ring, *_lowest([x * ka + y * kb for x, y in zip(self.nums, other.nums)], den))

    def __add__(self, other: "RingElement") -> "RingElement":
        return self._add(other, 1)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self._add(other, -1)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, *_lowest(self.ring.mul_int(self.nums, other.nums), self.den * other.den))

    def scale(self, c) -> "RingElement":
        """c times the element, for an int or Fraction c."""
        return RingElement(self.ring, *_lowest([c.numerator * x for x in self.nums], c.denominator * self.den))

    def conj(self) -> "RingElement":
        # the involution is an integer matrix that is its own inverse, so it
        # keeps the numerators' common factor and the result in lowest terms
        return RingElement(self.ring, tuple(self.ring.conj_int(self.nums)), self.den)

    def norm_sq(self) -> Fraction:
        return Fraction(self.ring.form_int(self.nums, self.nums), self.den * self.den * self.ring.gram_den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_integral(self) -> bool:
        return self.den == 1

    def sup_coord(self) -> Fraction:
        return Fraction(max(map(abs, self.nums)), self.den)

    def __repr__(self) -> str:
        terms = [f"{c}*{l}" for c, l in zip(self.coords, self.ring.basis_labels) if c]
        return f"<{self.ring.tag}: {' + '.join(terms) or '0'}>"


class LambdaMin(NamedTuple):
    value_sq: Fraction
    witness: RingElement


def _box_bounds(gram: linalg.Matrix, radius_sq: Fraction) -> list[int]:
    """Per-coordinate bounds: |a_i| <= sqrt(radius_sq * (G^-1)_ii)."""
    t = len(gram)
    inv = linalg.solve([row[:] for row in gram], linalg.identity(t))
    if inv is None:
        raise RingError("gram form is singular")
    return [floor_sqrt(radius_sq * inv[i][i]) for i in range(t)]


def enumerate_short_vectors(ring: RingSpec, radius_sq: Fraction) -> Iterator[RingElement]:
    """All nonzero integral elements with squared norm <= radius_sq.

    Box enumeration inside the certified bound |a_i|^2 <= radius_sq*(G^-1)_ii;
    only representatives with positive leading coordinate are yielded (the
    norm is invariant under negation).  A box of more than DEFAULT_BUDGET
    points raises BudgetError before the first one is visited.
    """
    gram = linalg.mat(ring.gram)
    bounds = _box_bounds(gram, radius_sq)
    points = prod(2 * b + 1 for b in bounds)
    if points > DEFAULT_BUDGET:
        raise BudgetError(f"{ring.tag}: short-vector box of {points} points exceeds budget {DEFAULT_BUDGET}")
    ranges = [range(-b, b + 1) for b in bounds]
    for coords in itertools.product(*ranges):
        first = next((c for c in coords if c != 0), 0)
        if first <= 0:
            continue
        elem = ring.element(coords)
        if elem.norm_sq() <= radius_sq:
            yield elem


def lambda_min_nonzero(ring: RingSpec) -> LambdaMin:
    """Least squared norm over nonzero elements, with a witness attaining it;
    derived once per ring, not compared.

    The search radius G[0][0] is the squared norm of the identity, so the
    minimum is always attained inside the box.
    """
    return ring._lambda_min


def norm_equivalence_constants(ring: RingSpec) -> tuple[Fraction, Fraction]:
    """(c0_sq, c1_sq) with c0_sq*|a|_inf^2 <= |a|^2 <= c1_sq*|a|_inf^2,
    derived once per ring, not compared.

    c1_sq is the entry-sum of |G|; c0_sq is a certified rational lower
    bound on the least eigenvalue of G (exact when that eigenvalue is
    rational).
    """
    return ring._norm_equivalence


def submultiplicativity_sq(ring: RingSpec) -> Fraction:
    """C with |e*c|^2 <= C |e|^2 |c|^2 for all e, c in the ring, derived
    once per ring, not compared: C = (T2 / c0_sq)^2 with c0_sq the ring's
    own from norm_equivalence_constants and T2 a certified upper bound on
    the sum of the basis-product norms."""
    return ring._submultiplicativity


class ProductRingSpec(Record):
    """Ordered product of pairwise distinct simple-factor rings.  Immutable."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[RingSpec, ...]):
        tags = [f.tag for f in factors]
        if len(set(tags)) != len(tags):
            raise RingError("product factors must carry distinct tags")
        if not factors:
            raise RingError("product of zero rings")
        set_field(self, "factors", factors)

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def from_coords(self, coords) -> "ProductElement":
        coords = list(coords)
        if len(coords) != self.rank:
            raise RingError("product element coordinate length mismatch")
        parts = []
        at = 0
        for f in self.factors:
            parts.append(f.element(coords[at : at + f.rank]))
            at += f.rank
        return ProductElement(self, tuple(parts))

    def embed(self, index: int, a: RingElement) -> "ProductElement":
        parts = [f.zero() for f in self.factors]
        parts[index] = a
        return ProductElement(self, tuple(parts))


class ProductElement(Record):
    """One element per factor of a product ring.  Immutable."""

    __slots__ = ("product", "parts")

    def __init__(self, product: ProductRingSpec, parts: tuple[RingElement, ...]):
        set_field(self, "product", product)
        set_field(self, "parts", parts)

    def norm_sq(self) -> Fraction:
        return sum((p.norm_sq() for p in self.parts), Fraction(0))

    def coords(self) -> list[Fraction]:
        out: list[Fraction] = []
        for p in self.parts:
            out.extend(p.coords)
        return out

    def sup_coord(self) -> Fraction:
        return max((p.sup_coord() for p in self.parts), default=Fraction(0))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __add__(self, other: "ProductElement") -> "ProductElement":
        return ProductElement(self.product, tuple(a + b for a, b in zip(self.parts, other.parts)))


def product_constants(product: ProductRingSpec) -> dict[str, Fraction]:
    """Lattice constants of the product ring under the block-diagonal Gram.

    c0_sq/c1_sq extend the per-factor constants; lambda_sq is the least
    factor minimum; tau_norm_sum_upper is a certified rational upper bound
    on the sum of the basis-element norms; c_sub_sq is the largest factor
    submultiplicativity constant.
    """
    c0s, c1s = zip(*(norm_equivalence_constants(f) for f in product.factors))
    lam = min(lambda_min_nonzero(f).value_sq for f in product.factors)
    tau_sum_upper = Fraction(0)
    for f in product.factors:
        for j in range(f.rank):
            tau_sum_upper += sqrt_upper(f.basis_element(j).norm_sq())
    return {
        "c0_sq": min(c0s),
        "c1_sq": sum(c1s, Fraction(0)),
        "lambda_sq": lam,
        "tau_norm_sum_upper": tau_sum_upper,
        "c_sub_sq": max(submultiplicativity_sq(f) for f in product.factors),
    }


def compute_Q0(product: ProductRingSpec) -> int:
    """Least admissible Dirichlet modulus for the ring (see q0_from_constants)."""
    return q0_from_constants(product_constants(product))


def q0_from_constants(consts: dict[str, Fraction]) -> int:
    """The smallest integer at least 2*max(1, 1/c0, sum_i |tau_i| / lambda),
    from the constants of product_constants.

    Irrational terms enter through certified rational upper bounds, and all
    square-root comparisons happen on squares, so the result is a certified
    integer upper bound for the true formula value.
    """
    # upper bound for 1/c0 = sqrt(1/c0_sq)
    inv_c0_upper = sqrt_upper(1 / consts["c0_sq"])
    # upper bound for sum|tau| / lambda: certified numerator over sqrt lower bound
    ratio_upper = consts["tau_norm_sum_upper"] / _sqrt_lower_positive(consts["lambda_sq"])
    value = 2 * max(Fraction(1), inv_c0_upper, ratio_upper)
    q0 = int(value) if value.denominator == 1 else int(value) + 1
    return q0


def _sqrt_lower_positive(x: Fraction) -> Fraction:
    from .exact import sqrt_lower

    lo = sqrt_lower(x)
    if lo <= 0:
        raise RingError("square root lower bound collapsed to zero")
    return lo


# -- reference rings -------------------------------------------------------


def integer_ring(tag: str = "Z") -> RingSpec:
    return RingSpec(
        tag=tag,
        rank=1,
        dimension=1,
        basis_labels=("1",),
        mul_table=(((1,),),),
        involution=((1,),),
        gram=((Fraction(1),),),
        lattice_rep=((((1, 0), (0, 1))),),
    )


def gaussian_ring(tag: str = "Zi") -> RingSpec:
    """Z[i] acting on a CM elliptic factor: basis 1, i."""
    return RingSpec(
        tag=tag,
        rank=2,
        dimension=1,
        basis_labels=("1", "i"),
        mul_table=(
            ((1, 0), (0, 1)),
            ((0, 1), (-1, 0)),
        ),
        involution=((1, 0), (0, -1)),
        gram=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        lattice_rep=(
            ((1, 0), (0, 1)),
            ((0, -1), (1, 0)),
        ),
    )


def eisenstein_ring(tag: str = "Zw") -> RingSpec:
    """Z[w] with w^2 = -1 - w (third root of unity): basis 1, w."""
    return RingSpec(
        tag=tag,
        rank=2,
        dimension=1,
        basis_labels=("1", "w"),
        mul_table=(
            ((1, 0), (0, 1)),
            ((0, 1), (-1, -1)),
        ),
        involution=((1, -1), (0, -1)),  # conj(w) = w^2 = -1 - w
        gram=((Fraction(1), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1))),
        lattice_rep=(
            ((1, 0), (0, 1)),
            ((0, -1), (1, -1)),
        ),
    )


def quaternion_ring(tag: str = "Hq") -> RingSpec:
    """The quaternion order with basis 1, i, j, k (i^2 = j^2 = -1, ij = k)
    inside the rational Hamilton quaternions; the norm form is the reduced
    norm, the involution is quaternion conjugation.
    """
    one = (1, 0, 0, 0)
    i = (0, 1, 0, 0)
    j = (0, 0, 1, 0)
    k = (0, 0, 0, 1)
    ni = (0, -1, 0, 0)
    nj = (0, 0, -1, 0)
    nk = (0, 0, 0, -1)
    none_ = (-1, 0, 0, 0)
    mul = (
        (one, i, j, k),
        (i, none_, k, nj),
        (j, nk, none_, i),
        (k, j, ni, none_),
    )
    # action on H (dimension 2 factor): left multiplication on basis 1,i,j,k
    rep_one = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    rep_i = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
    rep_j = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))
    rep_k = ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
    eye = Fraction(1)
    return RingSpec(
        tag=tag,
        rank=4,
        dimension=2,
        basis_labels=("1", "i", "j", "k"),
        mul_table=mul,
        involution=((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
        gram=(
            (eye, Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), eye, Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), eye, Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(0), eye),
        ),
        lattice_rep=(rep_one, rep_i, rep_j, rep_k),
    )


def reference_rings() -> dict[str, RingSpec]:
    return {
        "Z": integer_ring(),
        "Zi": gaussian_ring(),
        "Zw": eisenstein_ring(),
        "Hq": quaternion_ring(),
    }
