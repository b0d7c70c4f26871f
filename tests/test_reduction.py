from dataclasses import replace
from fractions import Fraction as F

import pytest

from endoapprox.approx import derive_ledger
from endoapprox.cli import cmd_reduce
from endoapprox.model import (
    AmbientSpec,
    GeneratorSet,
    ModelSpace,
    apply_morphism,
    concat_points,
    empty_generators,
)
from endoapprox.morphisms import (
    BlockMorphism,
    MorphismError,
    SpecialCertificate,
    WeightedCertificate,
    is_weighted,
)
from endoapprox.pipeline import run_pipeline
from endoapprox.reduction import (
    InclusionWitness,
    WitnessError,
    gamma_embed,
    point_project,
    rank_check_special,
    specialize,
    translate_witness,
)
from endoapprox.rings import ProductRingSpec, integer_ring
from endoapprox.scenario import load_scenario


@pytest.fixture(scope="module")
def zsetup():
    pz = ProductRingSpec((integer_ring(),))
    ledger = derive_ledger(pz)
    amb = AmbientSpec(pz, (2,))
    space_g = ModelSpace(amb, (1,))
    space_s = ModelSpace(AmbientSpec(pz, (1,)), (1,))
    gamma = GeneratorSet(space_s, space_s.point([[space_s.slot(0, free=[[1]])]]))
    phi = BlockMorphism.from_coords(pz, (2,), (1,), [[[[2], [5]]]])
    return pz, ledger, amb, space_g, space_s, gamma, phi


def _kernel_witness(space_g, phi, y=None, xi=None, bound=F(0)):
    """x solving phi(x + y + xi_free) = 0 with x2 = 1 and exact arithmetic."""
    cert = is_weighted(phi)
    return InclusionWitness(
        morphism=phi, x=space_g.zero(), xi=xi or space_g.zero(),
        xi_bound_sq=bound, y=y, weighted=cert,
    )


def test_witness_verify_rejects_bad_equation(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    with pytest.raises(WitnessError, match="equation"):
        InclusionWitness(
            morphism=phi,
            x=space_g.point([[space_g.slot(0, free=[[1]]), space_g.slot(0)]]),
            xi=space_g.zero(),
            xi_bound_sq=F(0),
        )


def test_specialize_examples(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    # y = 0: N = 1 and G = 0
    w0 = _kernel_witness(space_g, phi, y=space_g.zero())
    pw0 = specialize(w0, gamma, F(25))
    n, g_mor = pw0.group_data
    assert n == 1 and g_mor.is_zero()

    # y = 2*gamma_1 in the first slot: N = 1, G = (2, 0)
    y1 = space_g.point([[space_g.slot(0, free=[[2]]), space_g.slot(0)]])
    x1 = space_g.point([[space_g.slot(0, free=[[-2]]), space_g.slot(0)]])
    w1 = InclusionWitness(morphism=phi, x=x1, xi=space_g.zero(), xi_bound_sq=F(0),
                          y=y1, weighted=is_weighted(phi))
    pw1 = specialize(w1, gamma, F(25))
    n, g_mor = pw1.group_data
    assert n == 1
    assert [e.coords[0] for row in g_mor.blocks[0] for e in row] == [2, 0]

    # y = gamma/3 in slot 0 plus gamma in slot 1: N = 3, G = (1, 3)
    y2 = space_g.point([[space_g.slot(0, free=[[F(1, 3)]]), space_g.slot(0, free=[[1]])]])
    x2 = space_g.zero() - y2
    w2 = InclusionWitness(morphism=phi, x=x2, xi=space_g.zero(), xi_bound_sq=F(0),
                          y=y2, weighted=is_weighted(phi))
    pw2 = specialize(w2, gamma, F(25))
    n, g_mor = pw2.group_data
    assert n == 3
    assert [e.coords[0] for row in g_mor.blocks[0] for e in row] == [1, 3]
    assert y2.int_mul(3) == apply_morphism(g_mor, gamma.point)

    # y = torsion (1/4, 1/2) in slot 0 plus gamma/2 in slot 1: N = 4 clears
    # the torsion as well as the coefficient, G = (0, 2)
    y3 = space_g.point([[space_g.slot(0, torsion=[F(1, 4), F(1, 2)]), space_g.slot(0, free=[[F(1, 2)]])]])
    w3 = InclusionWitness(morphism=phi, x=space_g.zero() - y3, xi=space_g.zero(), xi_bound_sq=F(0),
                          y=y3, weighted=is_weighted(phi))
    n, g_mor = specialize(w3, gamma, F(25)).group_data
    assert n == 4
    assert [e.coords[0] for row in g_mor.blocks[0] for e in row] == [0, 2]
    assert y3.int_mul(4) == apply_morphism(g_mor, gamma.point)


def test_specialize_rejects_outside_span(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    # second free generator direction does not exist: nu = 1, so any rational
    # multiple is fine; an out-of-span case needs a zero gamma
    empty = empty_generators(space_g)
    y = space_g.point([[space_g.slot(0, free=[[1]]), space_g.slot(0)]])
    w = InclusionWitness(morphism=phi, x=space_g.zero() - y, xi=space_g.zero(),
                         xi_bound_sq=F(0), y=y, weighted=is_weighted(phi))
    with pytest.raises(WitnessError):
        specialize(w, empty, F(25))


def test_specialize_requires_eps_below_k0(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    w = _kernel_witness(space_g, phi, y=space_g.zero(), bound=F(100))
    with pytest.raises(WitnessError):
        specialize(w, gamma, F(25))


def test_translate_examples(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    # phi' = 0: y solves [a] y' = 0, the canonical divide gives y = 0
    w = _kernel_witness(space_g, phi, y=space_g.zero())
    pw = specialize(w, gamma, F(25))
    tw = translate_witness(pw, ledger)
    assert tw.y.is_zero()
    assert tw.xi.is_zero()  # xi = 0 stays 0
    assert apply_morphism(tw.morphism, tw.x + tw.y + tw.xi).is_zero()

    # nonzero phi': the translate satisfies phi(y) = phi'(p) exactly
    y1 = space_g.point([[space_g.slot(0, free=[[3]]), space_g.slot(0)]])
    x1 = space_g.point([[space_g.slot(0, free=[[-3]]), space_g.slot(0)]])
    w1 = InclusionWitness(morphism=phi, x=x1, xi=space_g.zero(), xi_bound_sq=F(0),
                          y=y1, weighted=is_weighted(phi))
    pw1 = specialize(w1, gamma, F(25))
    tw1 = translate_witness(pw1, ledger)
    assert apply_morphism(tw1.morphism, tw1.x + tw1.y + tw1.xi).is_zero()
    phi_part, phi_prime = pw1.morphism.split_columns(pw1.special.left_counts)
    assert apply_morphism(phi_part, tw1.y) == apply_morphism(phi_prime, gamma.point)


def test_gamma_embed_weightifies(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    # a non-weighted surjective morphism goes through weightify first
    psi = BlockMorphism.from_coords(pz, (2,), (2,), [[[[1], [1]], [[0], [2]]]])
    x = space_g.point([[space_g.slot(0, free=[[-2]]), space_g.slot(0)]])
    y = space_g.point([[space_g.slot(0, free=[[2]]), space_g.slot(0)]])
    xi = space_g.point(
        [[space_g.slot(0, torsion=[F(1, 2), 0]), space_g.slot(0, torsion=[F(1, 2), 0])]]
    )
    w = InclusionWitness(morphism=psi, x=x, xi=xi, xi_bound_sq=F(0), y=y)
    w.verify()
    pw = gamma_embed(w, gamma, F(25), amb)
    assert pw.p is not None
    assert pw.weighted is not None and pw.weighted.scale >= 1
    pw.verify()


def test_gamma_embed_injective(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    xs = []
    for k in (-2, -7):
        x = space_g.point([[space_g.slot(0, free=[[k]]), space_g.slot(0, free=[[0]])]])
        y = space_g.point([[space_g.slot(0, free=[[-k]]), space_g.slot(0)]])
        w = InclusionWitness(morphism=phi, x=x, xi=space_g.zero(), xi_bound_sq=F(0),
                             y=y, weighted=is_weighted(phi))
        pw = gamma_embed(w, gamma, F(64), amb)
        xs.append(pw.x)
    assert xs[0] != xs[1]


def test_round_trip_eps0_gamma0(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    x = space_g.point([[space_g.slot(0, free=[[-5]]), space_g.slot(0, free=[[2]])]])
    xi = space_g.point([[space_g.slot(0, torsion=[F(1, 2), 0]), space_g.slot(0)]])
    w = InclusionWitness(morphism=phi, x=x, xi=xi, xi_bound_sq=F(0),
                         weighted=is_weighted(phi))
    w.verify()
    empty = empty_generators(space_g)
    pw = gamma_embed(w, empty, F(25), amb)
    back = point_project(pw, F(25), amb, ledger)
    assert back.x == x
    assert back.y.is_zero()
    assert back.xi_bound_sq == 0
    assert back.xi.is_torsion()
    assert apply_morphism(back.morphism, back.x + back.y + back.xi).is_zero()


def test_point_project_bound_scales_with_eps(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    # a pair witness with a free perturbation inside eps0(p)
    p = gamma.point
    phi_prime = BlockMorphism.from_coords(pz, (1,), (1,), [[[[5]]]])
    phi_tilde = phi.hstack(phi_prime)
    cert = SpecialCertificate(
        morphism=phi_tilde, weighted=is_weighted(phi),
        slack_sq=max(F(1), phi_tilde.norm_sq() / phi.norm_sq()),
    )
    x = space_g.point([[space_g.slot(0, free=[[F(-1, 50)]]), space_g.slot(0, free=[[F(-1)]])]])
    xi_free = F(1, 50)
    xi = concat_points(
        space_g.point([[space_g.slot(0, free=[[xi_free]]), space_g.slot(0)]]),
        space_s.zero(),
    )
    # phi(x) + phi'(p) + phi_tilde(xi) = -1/25 - 5 + 5 + 1/25 = 0
    pair = concat_points(x, p)
    assert apply_morphism(phi_tilde, pair + xi).is_zero()
    w = InclusionWitness(morphism=phi_tilde, x=x, p=p, xi=xi,
                         xi_bound_sq=xi_free**2, weighted=cert.weighted, special=cert)
    w.verify()
    out = point_project(w, F(36), amb, ledger)
    assert apply_morphism(out.morphism, out.x + out.y + out.xi).is_zero()
    assert out.xi.height() <= out.xi_bound_sq
    # the recorded output bound is proportional to the input bound
    w2 = InclusionWitness(morphism=phi_tilde, x=x, p=p, xi=xi,
                          xi_bound_sq=4 * xi_free**2, weighted=cert.weighted, special=cert)
    out2 = point_project(w2, F(36), amb, ledger)
    assert out2.xi_bound_sq == 4 * out.xi_bound_sq


def test_rank_check_negative(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    p = gamma.point  # eps0(p)^2 = 1/4
    # a rank-deficient left block cannot carry the weighted certificate a
    # special certificate needs, so no pair witness reaches the rank alarm
    zero_left = BlockMorphism.zero(pz, (2,), (1,))
    deficient = zero_left.hstack(BlockMorphism.from_coords(pz, (1,), (1,), [[[[1]]]]))
    huge = concat_points(
        space_g.zero(),
        space_s.point([[space_s.slot(0, free=[[-1]])]]),
    )
    with pytest.raises(MorphismError, match="left block"):
        SpecialCertificate(morphism=deficient, weighted=is_weighted(phi), slack_sq=F(1))
    # the equation does hold, phi'(p - p) = 0, but h(xi) = 1 exceeds the
    # recorded bound 1/100 that would put the witness inside the eps0 ball
    with pytest.raises(WitnessError, match="recorded bound"):
        InclusionWitness(morphism=deficient, x=space_g.zero(), p=p,
                         xi=huge, xi_bound_sq=F(1, 100))
    # a true pair witness whose recorded bound exceeds eps0(p)^2: the rank
    # guarantee does not apply, and the precondition check says so
    phi_tilde = phi.hstack(BlockMorphism.from_coords(pz, (1,), (1,), [[[[5]]]]))
    cert = SpecialCertificate(morphism=phi_tilde, weighted=is_weighted(phi),
                              slack_sq=max(F(1), phi_tilde.norm_sq() / phi.norm_sq()))
    x = space_g.point([[space_g.slot(0, free=[[-5]]), space_g.slot(0, free=[[1]])]])
    xi = concat_points(space_g.zero(), space_s.zero())
    w = InclusionWitness(morphism=phi_tilde, x=x, p=p, xi=xi, xi_bound_sq=F(1),
                         weighted=cert.weighted, special=cert)
    with pytest.raises(WitnessError, match="eps0"):
        rank_check_special(w, amb)
    with pytest.raises(WitnessError, match="pair witness"):
        rank_check_special(_kernel_witness(space_g, phi, y=space_g.zero()), amb)


def test_witness_rejects_certificate_for_another_morphism(zsetup):
    pz, ledger, amb, space_g, space_s, gamma, phi = zsetup
    # both equations hold at zero; the certificates are true, for other morphisms
    other = BlockMorphism.from_coords(pz, (2,), (1,), [[[[2], [3]]]])
    with pytest.raises(WitnessError, match="certificate is for another morphism"):
        InclusionWitness(morphism=phi, x=space_g.zero(), xi=space_g.zero(),
                         xi_bound_sq=F(0), weighted=is_weighted(other))
    phi_tilde = phi.hstack(BlockMorphism.from_coords(pz, (1,), (1,), [[[[5]]]]))
    phi_eight = phi.hstack(BlockMorphism.from_coords(pz, (1,), (1,), [[[[8]]]]))
    cert = SpecialCertificate(morphism=phi_eight, weighted=is_weighted(phi),
                              slack_sq=phi_eight.norm_sq() / phi.norm_sq())
    with pytest.raises(WitnessError, match="certificate is for another morphism"):
        InclusionWitness(morphism=phi_tilde, x=space_g.zero(), p=space_s.zero(),
                         xi=concat_points(space_g.zero(), space_s.zero()), xi_bound_sq=F(0),
                         weighted=cert.weighted, special=cert)


def test_pair_witness_rejects_tampered_group_data(scenario_paths):
    # (N, G) must match the special morphism (N phi | phi G); (N+1, 7G)
    # keeps N positive and G's shape but breaks N * right == left o G
    scenario = load_scenario(next(p for p in scenario_paths if p.stem == "z-basic"))
    for _, w in scenario.witnesses():
        pw = gamma_embed(w, scenario.gamma, scenario.k0_sq, scenario.ambient)
        n, g_mor = pw.group_data
        with pytest.raises(WitnessError, match="group datum"):
            replace(pw, group_data=(n + 1, g_mor.scale_int(7)))


def test_pair_witness_rejects_mismatched_weighted(scenario_paths):
    # a pair witness's weighted certificate is its special certificate's;
    # a looser slack on the outer copy alone is rejected
    scenario = load_scenario(next(p for p in scenario_paths if p.stem == "z-basic"))
    for _, w in scenario.witnesses():
        pw = gamma_embed(w, scenario.gamma, scenario.k0_sq, scenario.ambient)
        looser = replace(pw.weighted, slack_sq=pw.weighted.slack_sq + 1)
        with pytest.raises(WitnessError, match="weighted certificate differs"):
            replace(pw, weighted=looser)


# every witness and certificate object a command creates on z-basic.json is
# checked exactly once, on construction: a witness by `verify`, a certificate
# in `__post_init__`; the third field is the number of objects created
@pytest.mark.parametrize("command, cls, count", [
    (cmd_reduce, InclusionWitness, 18),
    (run_pipeline, InclusionWitness, 12),
    (cmd_reduce, WeightedCertificate, 9),
    (cmd_reduce, SpecialCertificate, 6),
    (run_pipeline, WeightedCertificate, 6),
    (run_pipeline, SpecialCertificate, 3),
], ids=["reduce", "pipeline", "reduce-weighted", "reduce-special",
        "pipeline-weighted", "pipeline-special"])
def test_each_witness_verified_once(monkeypatch, scenario_paths, command, cls, count):
    # the objects are kept alive so that their ids stay distinct
    check = "verify" if cls is InclusionWitness else "__post_init__"
    created, checked = [], []
    init, check_fn = cls.__init__, getattr(cls, check)

    def recording_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    def recording_check(self):
        checked.append(self)
        check_fn(self)

    monkeypatch.setattr(cls, "__init__", recording_init)
    monkeypatch.setattr(cls, check, recording_check)
    scenario = load_scenario(next(p for p in scenario_paths if p.stem == "z-basic"))
    assert command(scenario)["ok"]
    assert len(created) == count
    assert sorted(map(id, checked)) == sorted(map(id, created))
    assert len(set(map(id, created))) == len(created)
