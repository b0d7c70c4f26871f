"""Geometry of numbers on the model: certified lower-bound constants for
full-rank points, the row-morphism corollary, and generator inflation.

The constants come from an eigenvalue-margin construction: a certified
lower bound on the least eigenvalue of the Gram matrix of the ring orbit
of the point's free parts (`model.orbit_gram`, summed in integers), with
the perturbation radius chosen so the perturbed combination keeps at least
half the unperturbed norm.  The ring's own constants enter through
`norm_equivalence_constants` and `submultiplicativity_sq`, derived once per
ring, not compared, so a call bounds one least eigenvalue: the orbit
Gram's.  Tighter constants would be an optimization, not a correctness
change: the contract is only the inequality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .base import EndoapproxError
from .model import GeneratorSet, ModelPoint, apply_morphism, orbit_gram
from .morphisms import BlockMorphism
from .rings import RingElement, norm_equivalence_constants, submultiplicativity_sq


class GeomNumError(EndoapproxError, ValueError):
    pass


class PointConstants(NamedTuple):
    """(c_sq, eps0_sq) certified for one factor of a full-rank point:
    c_sq * sum |b_i|^2 h(p_i) <= h(sum b_i (p_i - xi_i)) whenever every
    h(xi_i) <= eps0_sq."""

    factor: int
    c_sq: Fraction
    eps0_sq: Fraction
    gram_lower: Fraction


def point_lower_constants(p: ModelPoint, factor: int) -> PointConstants:
    """Certified (c_sq, eps0_sq) for the given factor of a full-rank point."""
    spec = p.space.product.factors[factor]
    slots = p.slots[factor]
    s = len(slots)
    if s == 0:
        raise GeomNumError("no slots in the requested factor")
    # the orbit Gram is positive-definite exactly when the orbit has full
    # rank, which min_eigenvalue_lower tests before it bounds anything
    try:
        lam_low = linalg.min_eigenvalue_lower(orbit_gram(spec, slots))
    except ArithmeticError:
        raise GeomNumError("point is not of full rank in the requested factor") from None
    if lam_low <= 0:
        raise GeomNumError("orbit Gram matrix is not positive-definite")

    _, c1_sq = norm_equivalence_constants(spec)
    c_sub_sq = submultiplicativity_sq(spec)
    p_sq = max(p.slot_height(factor, j) for j in range(s))
    c_sq = lam_low / (4 * c1_sq * p_sq)
    eps0_sq = lam_low / (4 * c_sub_sq * s * c1_sq)
    return PointConstants(factor=factor, c_sq=c_sq, eps0_sq=eps0_sq, gram_lower=lam_low)


def point_constants_all(p: ModelPoint) -> PointConstants | None:
    """Minimum constants over the non-empty factors; None for a rank-0 point
    (every precondition involving eps0 is then vacuous)."""
    items = [
        point_lower_constants(p, i)
        for i in range(p.space.product.n_factors)
        if len(p.slots[i]) > 0
    ]
    if not items:
        return None
    return PointConstants(
        factor=-1,
        c_sq=min(x.c_sq for x in items),
        eps0_sq=min(x.eps0_sq for x in items),
        gram_lower=min(x.gram_lower for x in items),
    )


def morphism_lower_bound_check(
    p: ModelPoint,
    factor: int,
    row: list[RingElement],
    xi: ModelPoint,
    consts: PointConstants,
) -> bool:
    """Check c_sq * min_i h(p_i) * |row|^2 <= h(row(p - xi)) for a
    perturbation inside the eps0 ball (precondition violations raise).
    row(p - xi) is the image of p - xi under the one-row morphism with
    zero rows on the other factors."""
    product = p.space.product
    slots = p.slots[factor]
    xi_slots = xi.slots[factor]
    if len(row) != len(slots) or len(xi_slots) != len(slots):
        raise GeomNumError("row/point/perturbation length mismatch")
    if all(e.is_zero() for e in row):
        raise GeomNumError("zero row rejected (norm precondition)")
    for j in range(len(slots)):
        if xi.slot_height(factor, j) > consts.eps0_sq:
            raise GeomNumError("perturbation outside the certified ball")
    row_norm_sq = max(e.norm_sq() for e in row)
    min_h = min(p.slot_height(factor, j) for j in range(len(slots)))
    target = tuple(int(k == factor) for k in range(product.n_factors))
    blocks = [[row] if k == factor else [] for k in range(product.n_factors)]
    row_morphism = BlockMorphism(product, p.space.counts, target, blocks)
    image_h = apply_morphism(row_morphism, p - xi).height()
    return consts.c_sq * min_h * row_norm_sq <= image_h


def inflate_generators(
    gamma: GeneratorSet, k0_sq: Fraction, eps_sq: Fraction
) -> tuple[GeneratorSet, int]:
    """Replace gamma by N*gamma for the smallest power of two N making
    (K0 + eps)|phi| <= ||phi(gamma)|| certified for every row morphism phi.

    Sufficient condition used (squared, surd-free):
    N^2 * c_sq * min_i h(gamma_i) >= 2 (K0^2 + eps^2).
    """
    if k0_sq < 0 or eps_sq < 0:
        raise GeomNumError("negative squared bounds")
    if gamma.point.space.ambient.total == 0:
        return gamma, 1
    target = 2 * (k0_sq + eps_sq)
    if target == 0:
        return gamma, 1
    consts = point_constants_all(gamma.point)
    if consts is None:
        raise GeomNumError("generators have no slots to inflate")
    min_h = gamma.min_height()
    if min_h <= 0:
        raise GeomNumError("generators of height zero cannot be inflated")
    n = 1
    while Fraction(n * n) * consts.c_sq * min_h < target:
        n *= 2
    if n == 1:
        return gamma, 1
    inflated = GeneratorSet(gamma.space, gamma.point.int_mul(n))
    return inflated, n
