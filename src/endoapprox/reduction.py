"""Witness-level reductions: specialization against a generator set,
translation through the section, the pair embedding/projection pair, and
the rank consistency check for special morphisms.

A witness checks itself when it is built: `InclusionWitness.__init__`
verifies its kernel equation and height bound, and that its certificates
(which check themselves) are for its morphism.  So no unchecked witness
exists, and a changed copy is a new witness built through the constructor,
which checks it again.  The transformers take verified witnesses, re-derive
the height bound they claim for the output perturbation, and build verified
outputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .geomnum import point_constants_all
from .ledger import ConstantLedger, op_constant_sq
from .model import (
    GeneratorSet,
    ModelPoint,
    apply_morphism,
    concat_points,
    divide,
    slot_orbit_nums,
)
from .morphisms import (
    AmbientSpec,
    BlockMorphism,
    SpecialCertificate,
    WeightedCertificate,
    embedding_ir,
    rank_and_codim,
    weighted_normal_form,
    weightify,
)


_set = object.__setattr__


class WitnessError(ValueError):
    pass


class ConsistencyError(AssertionError):
    """A structurally impossible state was observed; indicates corrupted inputs."""


class InclusionWitness:
    """A certificate that a point lies in a kernel translated by a small ball.

    Plain form (p is None): morphism(x + y + xi) == 0.
    Pair form (p given):    morphism((x, p) + xi) == 0, xi in the pair space.
    xi_bound_sq is the certified bound on h(xi); group_data optionally
    records (N, G) with N*y == G*gamma from specialization, so that a
    special morphism (N phi | phi G) has right block * N == left block o G.
    A pair witness carries the special certificate's weighted certificate
    as its own; its special (pair) or weighted (plain) certificate is for
    its morphism.  Construction verifies all of this; a false witness raises.
    Immutable.
    """

    __slots__ = ("morphism", "x", "xi", "xi_bound_sq", "p", "y", "weighted", "special", "group_data")

    def __init__(
        self,
        morphism: BlockMorphism,
        x: ModelPoint,
        xi: ModelPoint,
        xi_bound_sq: Fraction,
        p: ModelPoint | None = None,
        y: ModelPoint | None = None,
        weighted: WeightedCertificate | None = None,
        special: SpecialCertificate | None = None,
        group_data: tuple[int, BlockMorphism] | None = None,
    ):
        _set(self, "morphism", morphism)
        _set(self, "x", x)
        _set(self, "xi", xi)
        _set(self, "xi_bound_sq", xi_bound_sq)
        _set(self, "p", p)
        _set(self, "y", y)
        _set(self, "weighted", weighted)
        _set(self, "special", special)
        _set(self, "group_data", group_data)
        self.verify()

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not InclusionWitness:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def argument(self) -> ModelPoint:
        base = self.x if self.p is None else concat_points(self.x, self.p)
        if self.y is not None:
            base = base + self.y
        return base + self.xi

    def verify(self) -> None:
        if self.xi.height() > self.xi_bound_sq:
            raise WitnessError("perturbation height exceeds the recorded bound")
        image = apply_morphism(self.morphism, self.argument())
        if not image.is_zero():
            raise WitnessError("witness equation does not hold")
        if self.special is not None and self.weighted != self.special.weighted:
            raise WitnessError("weighted certificate differs from the special certificate's")
        cert = self.special or self.weighted
        if cert is not None and cert.morphism != self.morphism:
            raise WitnessError("certificate is for another morphism")
        if self.group_data is not None:
            n, g_mor = self.group_data
            if n < 1:
                raise WitnessError("group datum N must be a positive integer")
            if self.special is not None:
                left, right = self.morphism.split_columns(self.special.left_counts)
                if g_mor.target != left.source or right.scale_int(n) != left.compose(g_mor):
                    raise WitnessError("group datum (N, G) does not match the special morphism")


def _solve_in_span(gamma: GeneratorSet, y: ModelPoint) -> list[list[list[Fraction]]]:
    """Coefficients c[i][j][k*t..] with free(y_ij) = sum_k c_ijk . gamma_ik.

    Each coefficient is an element of the factor ring tensored with Q,
    returned as its coordinate vector; raises if y is not in the span.
    """
    out: list[list[list[Fraction]]] = []
    for i, spec in enumerate(y.space.product.factors):
        t = spec.rank
        nu = y.space.free_ranks[i]
        cols = [
            [Fraction(c, g.fden) for coeff in acted for c in coeff]
            for g in gamma.point.slots[i]
            for acted in slot_orbit_nums(spec, g)
        ]
        a_matrix = [[cols[c][r] for c in range(len(cols))] for r in range(nu * t)]
        factor_coeffs: list[list[Fraction]] = []
        for slot in y.slots[i]:
            rhs = [[c] for coeff in slot.free for c in coeff]
            if not cols:
                if any(r[0] != 0 for r in rhs):
                    raise WitnessError("translate has free part outside the generator span")
                factor_coeffs.append([])
                continue
            sol = linalg.solve(a_matrix, rhs)
            if sol is None:
                raise WitnessError("translate has free part outside the generator span")
            factor_coeffs.append([row[0] for row in sol])
        out.append(factor_coeffs)
    return out


def weighted_witness(w: InclusionWitness, ambient: AmbientSpec) -> tuple[InclusionWitness, bool]:
    """w with a weighted certificate: unchanged when it carries one, else
    with its morphism in weighted normal form, verified against that
    morphism on construction.  The flag says whether weightify ran."""
    if w.weighted is not None:
        return w, False
    cert, weightified = weighted_normal_form(w.morphism, ambient)
    rebuilt = InclusionWitness(
        morphism=cert.morphism, x=w.x, xi=w.xi, xi_bound_sq=w.xi_bound_sq, p=w.p, y=w.y,
        weighted=cert, special=w.special, group_data=w.group_data,
    )
    return rebuilt, weightified


def specialize(
    w: InclusionWitness,
    gamma: GeneratorSet,
    k0_sq: Fraction,
) -> InclusionWitness:
    """Turn a witness against the generator-translated kernel into a pair
    witness against the kernel of the special morphism (N phi | phi G).

    N clears the coefficient denominators and the torsion of the translate,
    so N*y == G(gamma) holds exactly in the model.
    """
    if w.p is not None:
        raise WitnessError("specialize expects a plain witness")
    if w.weighted is None:
        raise WitnessError("specialize needs a weighted morphism")
    if w.xi_bound_sq > k0_sq:
        raise WitnessError("specialize needs eps <= K0")
    phi = w.morphism
    y = w.y if w.y is not None else w.x.space.zero()

    coeffs = _solve_in_span(gamma, y)
    n = 1
    for fac in coeffs:
        for slot_c in fac:
            for c in slot_c:
                n = lcm(n, c.denominator)
    for fac in y.slots:
        for slot in fac:
            n = lcm(n, slot.tden)

    product = phi.product
    g_blocks = []
    for i, spec in enumerate(product.factors):
        s_i = len(gamma.point.slots[i])
        t = spec.rank
        rows = []
        for j in range(len(y.slots[i])):
            row = []
            flat = coeffs[i][j]
            for k in range(s_i):
                coords = [n * flat[k * t + l] for l in range(t)]
                row.append(spec.element(coords))
            rows.append(row)
        g_blocks.append(rows)
    g_mor = BlockMorphism(product, gamma.space.counts, y.space.counts, g_blocks)

    if y.int_mul(n) != apply_morphism(g_mor, gamma.point):
        raise ConsistencyError("N*y == G(gamma) failed after denominator clearing")

    phi_n = phi.scale_int(n)
    phi_tilde = phi_n.hstack(phi.compose(g_mor))
    n_weighted = WeightedCertificate(
        morphism=phi_n,
        scale=n * w.weighted.scale,
        columns=w.weighted.columns,
        slack_sq=w.weighted.slack_sq,
    )
    left_norm_sq = phi_n.norm_sq()
    special = SpecialCertificate(
        morphism=phi_tilde,
        weighted=n_weighted,
        slack_sq=max(Fraction(1), phi_tilde.norm_sq() / left_norm_sq) if left_norm_sq else Fraction(1),
    )
    return InclusionWitness(
        morphism=phi_tilde,
        x=w.x,
        p=gamma.point,
        xi=concat_points(w.xi, gamma.space.zero()),
        xi_bound_sq=w.xi_bound_sq,
        weighted=n_weighted,
        special=special,
        group_data=(n, g_mor),
    )


def translate_witness(w: InclusionWitness, ledger: ConstantLedger) -> InclusionWitness:
    """Trade the point part of a pair witness for a translate in the image
    of the section: phi(x + y + xi') == 0 with y = i_r(phi'(p) / a)."""
    if w.p is None or w.special is None:
        raise WitnessError("translate needs a pair witness with a special certificate")
    phi_tilde = w.morphism
    cert = w.special
    phi = cert.weighted.morphism
    phi_prime = phi_tilde.split_columns(cert.left_counts)[1]
    a = cert.weighted.scale
    ir = embedding_ir(cert.weighted)

    y = apply_morphism(ir, divide(apply_morphism(phi_prime, w.p), a))
    xi_img = apply_morphism(phi_tilde, w.xi)
    xi_prime = apply_morphism(ir, divide(xi_img, a))

    c_op_sq = op_constant_sq(ledger, sum(phi_tilde.source))
    bound = c_op_sq * phi_tilde.norm_sq() * w.xi_bound_sq / Fraction(a * a)
    return InclusionWitness(
        morphism=phi,
        x=w.x,
        y=y,
        xi=xi_prime,
        xi_bound_sq=bound,
        weighted=cert.weighted,
    )


def gamma_embed(
    w: InclusionWitness,
    gamma: GeneratorSet,
    k0_sq: Fraction,
    ambient: AmbientSpec,
) -> InclusionWitness:
    """The injection x -> (x, gamma): weightify if necessary, then
    specialize.  x is recoverable by projection, so distinct witnesses map
    to distinct outputs."""
    if w.p is not None:
        raise WitnessError("gamma_embed expects a plain witness")
    witness, _ = weighted_witness(w, ambient)
    return specialize(witness, gamma, k0_sq)


def rank_check_special(
    w: InclusionWitness, ambient: AmbientSpec
) -> tuple[tuple[int, ...], SpecialCertificate]:
    """Assert the left block of the pair witness w has full rank (impossible
    to fail for a valid witness within the eps0 ball), and certify Delta
    phi_tilde with the left part weighted.  Delta phi_tilde is the exact
    composite and the model action is a module action, so ker(phi_tilde)
    lies in ker(Delta phi_tilde) at every point.
    """
    if w.p is None or w.special is None:
        raise WitnessError("rank check expects a pair witness with a special certificate")
    consts = point_constants_all(w.p)
    if consts is not None and w.xi_bound_sq > consts.eps0_sq:
        raise WitnessError("witness perturbation exceeds eps0(p); rank guarantee not applicable")
    phi = w.special.weighted.morphism
    ranks, _ = rank_and_codim(phi, ambient)
    if ranks != phi.target:
        raise ConsistencyError(
            "left block rank-deficient despite a valid witness inside eps0(p)"
        )
    delta, cert_left = weightify(phi, ambient)
    psi_tilde = delta.compose(w.morphism)
    return ranks, SpecialCertificate(
        morphism=psi_tilde,
        weighted=cert_left,
        slack_sq=max(Fraction(1), psi_tilde.norm_sq() / cert_left.morphism.norm_sq()),
    )


def point_project(
    w: InclusionWitness,
    k0_sq: Fraction,
    ambient: AmbientSpec,
    ledger: ConstantLedger,
) -> InclusionWitness:
    """The injection (x, p) -> x: rank-check, weightify, then translate into
    the saturated orbit of p with a controlled perturbation."""
    if w.x.height() > k0_sq:
        raise WitnessError("witness point exceeds the configured height bound")
    _, special = rank_check_special(w, ambient)
    certified = InclusionWitness(
        morphism=special.morphism, x=w.x, xi=w.xi, xi_bound_sq=w.xi_bound_sq, p=w.p, y=w.y,
        weighted=special.weighted, special=special, group_data=w.group_data,
    )
    return translate_witness(certified, ledger)
