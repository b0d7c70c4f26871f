"""Degree bounds, essential-minimum lower bounds (fed by a user-supplied
conjectural-constant oracle), and the finiteness thresholds with their
case classifier.

All outputs are one-sided certified: fractional powers are evaluated as
rational interval endpoints rounded in the direction that preserves the
inequality being claimed.  The conjectural constants are data, never
derived: the oracle maps (ambient tag, eta) to a positive rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .base import EndoapproxError, Record, set_field
from .exact import pow_lower, pow_upper


class ThresholdError(EndoapproxError, ValueError):
    pass


class VarietyCard(Record):
    """Degree/dimension data of the subvariety and its ambient.  Immutable."""

    __slots__ = ("ambient_tag", "deg_v", "dim_d", "cod_v", "deg_ambient", "ambient_dim")

    def __init__(
        self, ambient_tag: str, deg_v: Fraction, dim_d: int, cod_v: int, deg_ambient: Fraction, ambient_dim: int
    ):
        if deg_v <= 0 or deg_ambient <= 0:
            raise ThresholdError("degrees must be positive")
        if dim_d < 0 or cod_v < 1:
            raise ThresholdError("dimension must be non-negative and codimension positive")
        if dim_d + cod_v != ambient_dim:
            raise ThresholdError("dimension + codimension must equal the ambient dimension")
        set_field(self, "ambient_tag", ambient_tag)
        set_field(self, "deg_v", deg_v)
        set_field(self, "dim_d", dim_d)
        set_field(self, "cod_v", cod_v)
        set_field(self, "deg_ambient", deg_ambient)
        set_field(self, "ambient_dim", ambient_dim)


class ConjecturalOracle(NamedTuple):
    """Supplied constants c(ambient, eta) > 0; never computed here."""

    values: tuple[tuple[str, Fraction, Fraction], ...]

    def value(self, tag: str, eta: Fraction) -> Fraction:
        for t, e, v in self.values:
            if t == tag and e == eta:
                return v
        raise ThresholdError(f"oracle has no constant for ({tag}, eta={eta})")

    @classmethod
    def from_entries(cls, entries) -> "ConjecturalOracle":
        vals = []
        for tag, eta, v in entries:
            v = Fraction(v)
            if v <= 0:
                raise ThresholdError("oracle constants must be positive")
            vals.append((str(tag), Fraction(eta), v))
        return cls(tuple(vals))


def degree_pushforward_bound(
    card: VarietyCard, phi_norm_sq: Fraction, constant: Fraction = Fraction(1)
) -> Fraction:
    """C * |phi|^(2d) * deg V; the even exponent keeps this exactly rational."""
    if constant <= 0:
        raise ThresholdError("ledger constant must be positive")
    return constant * phi_norm_sq**card.dim_d * card.deg_v


def kernel_degree(a: int, ranks, dims) -> int:
    """a ** (2 * sum(d_i r_i)): the kernel size of the diagonal isogeny
    extension at scale a."""
    if a < 1:
        raise ThresholdError("scale must be a positive integer")
    exponent = 2 * sum(d * r for d, r in zip(dims, ranks))
    return a**exponent


class MuBounds(NamedTuple):
    bound_phi: Fraction  # lower bound for mu(phi(V+y))
    bound_big_phi: Fraction  # lower bound for mu(Phi(V+y))
    eps1_lower: Fraction
    eps2_lower: Fraction


def eps1_lower_bound(
    card: VarietyCard, oracle: ConjecturalOracle, eta: Fraction, target_tag: str, target_deg: Fraction
) -> Fraction:
    """Certified lower bound for c(A^r, eta/2) (deg A^r)^((1-eta)/2) / (deg V)^((1+eta)/2)."""
    c = oracle.value(target_tag, eta / 2)
    num = pow_lower(target_deg, (1 - eta) / 2)
    den = pow_upper(card.deg_v, (1 + eta) / 2)
    return c * num / den


def eps2_lower_bound(card: VarietyCard, oracle: ConjecturalOracle, eta: Fraction) -> Fraction:
    """Certified lower bound for c(A^g, eta/2) min_{e'=+-eta/2} (deg A^g / deg V)^(1/(2 cod V)+e')."""
    c = oracle.value(card.ambient_tag, eta / 2)
    ratio = card.deg_ambient / card.deg_v
    base = Fraction(1, 2 * card.cod_v)
    lows = [pow_lower(ratio, base + sign * eta / 2) for sign in (1, -1)]
    return c * min(lows)


def mu_lower_bounds(
    card: VarietyCard,
    oracle: ConjecturalOracle,
    eta: Fraction,
    phi_norm_sq: Fraction,
    phi_codim: int,
    target_tag: str,
    target_deg: Fraction,
) -> MuBounds:
    """Essential-minimum lower bounds for the image and the extension.

    The image bound decays like |phi|^-(d+eta); the extension bound grows
    like |phi|^(1/cod V - eta).  Both sides are certified rational lower
    bounds of the corresponding real formulas.
    """
    if not (0 < eta <= Fraction(1, 2)):
        raise ThresholdError("eta must satisfy 0 < eta <= 1/2")
    if phi_codim < card.dim_d + 1:
        raise ThresholdError("codimension of the morphism must exceed dim V")
    if phi_norm_sq <= 0:
        raise ThresholdError("zero morphism has no mu bound")
    target_deg = Fraction(target_deg)
    if target_deg <= 0:
        raise ThresholdError("target degree must be positive")
    e1 = eps1_lower_bound(card, oracle, eta, target_tag, target_deg)
    e2 = eps2_lower_bound(card, oracle, eta)
    # |phi|^(d+eta) = (|phi|^2)^((d+eta)/2), rounded up so the quotient is a lower bound
    bound_phi = e1 / pow_upper(phi_norm_sq, (Fraction(card.dim_d) + eta) / 2)
    bound_big = e2 * pow_lower(phi_norm_sq, (Fraction(1, card.cod_v) - eta) / 2)
    return MuBounds(bound_phi=bound_phi, bound_big_phi=bound_big, eps1_lower=e1, eps2_lower=e2)


class ThresholdCase(NamedTuple):
    case: int  # 1: |phi| <= m (image ball), 2: |phi| >= m (extension ball)
    at_boundary: bool
    ball_radius_sq: Fraction
    radius_small_sq: Fraction
    radius_large_sq: Fraction


class FinitenessThresholds(NamedTuple):
    m_upper: Fraction
    eps1_star_sq: Fraction
    eps1_lower: Fraction
    eps2_lower: Fraction
    radius_small_sq: Fraction
    radius_large_sq: Fraction

    def classify(self, phi_norm_sq: Fraction) -> ThresholdCase:
        m_sq = self.m_upper * self.m_upper
        at_boundary = phi_norm_sq == m_sq
        if phi_norm_sq <= m_sq:
            return ThresholdCase(1, at_boundary, self.radius_small_sq,
                                 self.radius_small_sq, self.radius_large_sq)
        return ThresholdCase(2, at_boundary, self.radius_large_sq,
                             self.radius_small_sq, self.radius_large_sq)


def finiteness_thresholds(
    card: VarietyCard,
    oracle: ConjecturalOracle,
    eta: Fraction,
    k0_sq: Fraction,
    g_total: int,
    targets,
) -> FinitenessThresholds:
    """The norm threshold m and the admissible radius, with the case split.

    m is a certified rational upper bound of (K0/eps2)^(cod V/(1-(cod V) eta));
    eps1* is (1/g) min(K0, eps1/m^(d+1)) computed with eps1 from the worst
    admissible target (tag, degree) pair in `targets`.

    The exponent d+1 in the threshold (and d+eta in the mu bound) follows
    the internally consistent reading of the case-(1) chain.
    """
    if not (0 < eta <= Fraction(1, 2)):
        raise ThresholdError("eta must satisfy 0 < eta <= 1/2")
    if card.cod_v * eta >= 1:
        raise ThresholdError("(cod V) * eta must be below 1")
    if k0_sq <= 0:
        raise ThresholdError("positive height bound required")
    if g_total < 1:
        raise ThresholdError("total coordinate count must be positive")
    targets = list(targets)
    if not targets:
        raise ThresholdError("at least one target ambient is required")

    e2 = eps2_lower_bound(card, oracle, eta)
    exp = Fraction(card.cod_v) / (1 - card.cod_v * eta)
    m_up = pow_upper(k0_sq / (e2 * e2), exp / 2)
    if m_up < 1:
        m_up = Fraction(1)

    e1 = min(
        eps1_lower_bound(card, oracle, eta, tag, Fraction(deg)) for tag, deg in targets
    )
    radius_small_sq = (e1 * e1) / m_up ** (2 * (card.dim_d + 1))
    eps1_star_sq = min(k0_sq, radius_small_sq) / Fraction(g_total) ** 2
    return FinitenessThresholds(
        m_upper=m_up,
        eps1_star_sq=eps1_star_sq,
        eps1_lower=e1,
        eps2_lower=e2,
        radius_small_sq=radius_small_sq,
        radius_large_sq=k0_sq,
    )
