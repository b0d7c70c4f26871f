"""Acceptance gate: every criterion at its stated size and tolerance, with
one printed pass/fail line each.  All equality and inequality checks are
exact rationals (zero tolerance); runtime limits are asserted.
"""

import hashlib
import random
import time
from fractions import Fraction as F

from endoapprox import dirichlet
from endoapprox.approx import approx_vector, approx_weighted, derive_ledger
from endoapprox.cli import main
from endoapprox.exact import le_linear_sqrt, sqrt_lower, sqrt_upper
from endoapprox.geomnum import morphism_lower_bound_check, point_lower_constants
from endoapprox.model import AmbientSpec, ModelSpace, apply_morphism, concat_points, empty_generators
from endoapprox.morphisms import BlockMorphism, embedding_ir, is_weighted, rank_and_codim, weightify
from endoapprox.pipeline import (
    check_dirichlet,
    check_gauss_identity,
    check_kernel_degree,
    check_kernel_inclusion,
    check_norm_sandwich,
    rand_dirichlet_target,
    rand_full_rank,
    rand_lower_bound_case,
    rand_row_morphism,
    run_pipeline,
)
from endoapprox.reduction import InclusionWitness, gamma_embed, point_project
from endoapprox.rings import ProductRingSpec, integer_ring, norm_equivalence_constants
from endoapprox.scenario import load_scenario, rat_from_json, witness_from_json
from endoapprox.thresholds import kernel_degree
from reference import product_inner


def _done(number: int, label: str, t0: float, limit: float) -> None:
    elapsed = time.time() - t0
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"
    print(f"ACCEPTANCE {number}: PASS - {label} ({elapsed:.1f}s < {limit:.0f}s)")


def test_criterion_1_dirichlet_contract():
    t0 = time.time()
    rng = random.Random(20260809)
    for k in range(1000):
        alpha, q = rand_dirichlet_target(rng, 500)
        assert check_dirichlet(alpha, q, dirichlet.DEFAULT_BUDGET) is None
    _done(1, "Dirichlet contract on 1000 random targets vs the oracle", t0, 60)


def test_criterion_2_norm_equivalence_constants(rings):
    t0 = time.time()
    rng = random.Random(2)
    for tag, spec in rings.items():
        c0_sq, c1_sq = norm_equivalence_constants(spec)
        for _ in range(1000):
            a = spec.element([rng.randint(-50, 50) for _ in range(spec.rank)])
            assert check_norm_sandwich(a, c0_sq, c1_sq) is None
    _done(2, "norm-equivalence sandwich on 4 reference rings x 1000 elements", t0, 10)


def test_criterion_3_vector_and_weighted_conclusions(rings):
    t0 = time.time()
    rng = random.Random(3)
    for tag, spec in rings.items():
        product = ProductRingSpec((spec,))
        ledger = derive_ledger(product)
        q0 = int(ledger.value("Q0"))
        c_a_sq = ledger.value("C_a_sq")
        c_b_sq = ledger.value("C_b_sq")
        c_c_sq = ledger.value("C_c_sq")
        n = 1 if spec.rank > 2 else 2
        for k in range(200):
            q = q0 + (k % 4)
            vec = [
                product.from_coords([F(rng.randint(-9, 9)) for _ in range(spec.rank)])
                for _ in range(n)
            ]
            if all(e.is_zero() for e in vec):
                continue
            va = approx_vector(product, vec, q, ledger=ledger)
            b = va.denominator
            assert 1 <= b < q ** (n * spec.rank)
            bbar_sq = max(e.norm_sq() for e in va.approximation)
            assert bbar_sq <= c_a_sq * b * b
            assert F(b * b) <= c_b_sq * bbar_sq
            s = max(e.norm_sq() for e in vec)
            for a_k, b_k in zip(vec, va.approximation):
                u = F(b * b) * a_k.norm_sq() + s * b_k.norm_sq() - c_c_sq * s / F(q * q)
                v = 2 * b * product_inner(a_k, b_k)
                assert le_linear_sqrt(u, v, s)
        one_up = sqrt_upper(ledger.value("one_norm_sq_max"))
        s_up = ledger.value("tau_sum_upper")
        c0_low = sqrt_lower(ledger.value("c0_sq"))

        def check_weighted(k: int, magnitude: int, force_q: int | None = None):
            q = force_q if force_q is not None else q0 + (k % 4)
            a = rng.randint(1, 40)
            l_entry = spec.element(
                [rng.randint(-magnitude, magnitude) for _ in range(spec.rank)]
            )
            phi = BlockMorphism(product, (2,), (1,), [[[spec.integer(a), l_entry]]])
            cert = is_weighted(phi)
            wa = approx_weighted(phi, cert, q, ledger)
            b = wa.denominator
            a_used = cert.scale
            assert 1 <= b < wa.modulus
            # |psi|^2 <= C_psi^2 b^2 with the ledger formula, recomputed here
            c_psi = max(one_up, s_up * (sqrt_upper(cert.slack_sq) / c0_low + F(1, q0)))
            assert wa.morphism.norm_sq() <= c_psi * c_psi * b * b
            # scale-normalized closeness, cross-multiplied squared form
            c_prime_sq = ledger.value("C_c_sq")
            for col in range(2):
                diff = wa.morphism.blocks[0][0][col].scale(a_used) - phi.blocks[0][0][col].scale(b)
                assert diff.norm_sq() <= c_prime_sq * F(a_used * a_used, q * q)
            # section identity: psi o i_r - [b] is entrywise zero
            ir = embedding_ir(wa.certificate)
            difference = wa.morphism.compose(ir).sub(
                BlockMorphism.scalar(product, (1,), b)
            )
            assert difference.is_zero()
            return wa.approximated

        for k in range(200):
            check_weighted(k, magnitude=90)
        if spec.rank <= 2:
            # large entries push past Q0^(2m): the approximation branch runs
            approximated = sum(
                check_weighted(k, magnitude=900 * q0**2, force_q=q0) for k in range(200)
            )
            assert approximated > 0
    _done(3, "vector/weighted approximation conclusions per ring, both branches", t0, 120)


def test_criterion_4_gauss_and_weightify_torsion(rings):
    t0 = time.time()
    rng = random.Random(4)
    for tag, spec in rings.items():
        product = ProductRingSpec((spec,))
        for _ in range(1000):
            assert check_gauss_identity(spec, rand_full_rank(rng, spec)) is None
        # weightify kernel inclusion by exhaustive torsion enumeration, N <= 4
        g_count = 3 if spec.dimension == 1 else 1
        amb = AmbientSpec(product, (g_count,))
        space = ModelSpace(amb, (1,))
        enum_budget = 4 ** (2 * spec.dimension * g_count)
        assert enum_budget <= 4**6
        done = 0
        while done < 5:
            psi = rand_row_morphism(rng, space)
            ranks, _ = rank_and_codim(psi, amb)
            if ranks != (1,):
                continue
            phi = weightify(psi, amb)[1].morphism
            done += 1
            assert check_kernel_inclusion(psi, phi, space, enum_budget + 1) is None
    _done(4, "gauss identity on 1000 random blocks per ring + torsion inclusion", t0, 120)


def test_criterion_5_transport_and_finite_family(scenario_paths):
    t0 = time.time()
    for path in scenario_paths:
        scenario = load_scenario(path)
        report = run_pipeline(scenario)
        assert report["ok"], f"{path.name}: pipeline failed"
        t = scenario.product.rank
        n_factors = scenario.product.n_factors
        for row in report["witnesses"]:
            stage = next(s for s in row["stages"] if s["stage"] == "approx_special")
            rebuilt = witness_from_json(scenario.product, scenario.space, stage["witness"])
            psi_tilde = rebuilt.morphism
            x, p, xi = rebuilt.x, rebuilt.p, rebuilt.xi
            # exact kernel equation of the transported witness
            image = apply_morphism(psi_tilde, concat_points(x, p) + xi)
            assert image.is_zero()
            rebuilt.verify()
            # m and M recomputed independently from the scenario dimensions
            r_total = sum(psi_tilde.target)
            g_total = scenario.ambient.total
            s_total = sum(psi_tilde.source) - g_total
            m_indep = t * (r_total * (g_total + s_total) - r_total**2 + n_factors)
            assert stage["m"] == m_indep
            assert stage["M"] == stage["Q"] ** m_indep
            # height bound: h(xi') |psi~|^2 <= eps'^2 <= C_eps^2 eps^2
            eps_prime_sq = rat_from_json(stage["eps_prime_sq_cap"])
            c_eps_sq = rat_from_json(stage["c_eps_sq"])
            assert xi.height() * psi_tilde.norm_sq() <= eps_prime_sq
            assert eps_prime_sq == c_eps_sq * scenario.eps_sq
            assert c_eps_sq >= 1
            # finite family bound |psi~|^2 <= C^2 M^2
            bound = rat_from_json(stage["family_bound_sq"])
            assert psi_tilde.norm_sq() <= bound
        fam = report["family"]
        assert fam["distinct"] >= 1
        assert rat_from_json(fam["max_norm_sq"]) <= rat_from_json(fam["bound_sq"])
    _done(5, "witness transport exact + finite family on the scenario pack", t0, 60)


def test_criterion_6_point_constant_falsification(scenario_paths):
    t0 = time.time()
    for path in scenario_paths:
        scenario = load_scenario(path)
        gamma = scenario.gamma
        if gamma.point.space.ambient.total == 0:
            continue
        rng = random.Random(scenario.seed)
        for i, slots in enumerate(gamma.point.slots):
            if not slots:
                continue
            consts = point_lower_constants(gamma.point, i)
            trials = 0
            while trials < 10000:
                case = rand_lower_bound_case(rng, gamma, i, consts)
                if case is None:
                    continue
                trials += 1
                assert morphism_lower_bound_check(gamma.point, i, *case, consts)
    _done(6, "10^4 seeded falsification trials per scenario, no violation", t0, 60)


def test_criterion_7_kernel_degree_vs_enumeration():
    t0 = time.time()
    for a in (1, 2, 3):
        assert kernel_degree(a, (1,), (1,)) == a * a
        assert check_kernel_degree(integer_ring(), a, 100_000) is None
    _done(7, "kernel degree equals torsion count for a in {1,2,3}", t0, 5)


def test_criterion_8_round_trip():
    t0 = time.time()
    pz = ProductRingSpec((integer_ring(),))
    ledger = derive_ledger(pz)
    amb = AmbientSpec(pz, (2,))
    space_g = ModelSpace(amb, (1,))
    phi = BlockMorphism.from_coords(pz, (2,), (1,), [[[[2], [5]]]])
    x = space_g.point([[space_g.slot(0, free=[[-5]]), space_g.slot(0, free=[[2]])]])
    xi = space_g.point([[space_g.slot(0, torsion=[F(1, 2), 0]), space_g.slot(0)]])
    w = InclusionWitness(
        morphism=phi, x=x, xi=xi, xi_bound_sq=F(0), weighted=is_weighted(phi)
    )
    w.verify()
    empty = empty_generators(space_g)
    pair = gamma_embed(w, empty, F(29), amb)
    back = point_project(pair, F(29), amb, ledger)
    assert back.x == x
    assert back.y.is_zero()
    assert back.xi.is_torsion() and back.xi_bound_sq == 0
    assert apply_morphism(back.morphism, back.x + back.y + back.xi).is_zero()
    _done(8, "embed/project round trip at eps=0, Gamma=0 recovers the point", t0, 10)


# sha256 of each command's report per bundled scenario.  A change meant to
# alter report bytes re-pins the affected entries and says so in CHANGES.md.
REPORT_DIGESTS = {
    ("eisenstein", "approx"): "d4caaf856b6dbc182ec2840113beb524fc920d7abfa270f92ccc51389a9c5168",
    ("eisenstein", "reduce"): "aa6f38c96e6013ef801eb77e7c4da1a1f39cb33ce68208ed7a44aa228df501a6",
    ("eisenstein", "pipeline"): "e8d37ca8fc25650ea6ecbc778642f9641e12427c06d4164959672d193676b539",
    ("eisenstein", "thresholds"): "5e77b8813026b816bfc07759beef3cab362dc8d72a9a06072e366c65b5b441c4",
    ("eisenstein", "verify"): "d73981998e89b988fbda89cef44ef29dbbd1efc15e46c01ad24514733f4130fd",
    ("eisenstein", "report"): "de6314e0a234c2348a76f38bb44697f41ec21c6131f0195482ae0331a733a34c",
    ("gaussian", "approx"): "6e2c1733537cf2828bb09ad9dede112eb9028b567f6e0969ad33c4a501393e4e",
    ("gaussian", "reduce"): "6999b5368550bb66ff6f53d147870640d8fada64dab28f1da8b61246e55c0d02",
    ("gaussian", "pipeline"): "5a5a565833f3d67f8dd19ac5b83e6899c12ea8a1716fc3c377a292a4722c98ac",
    ("gaussian", "thresholds"): "f72e5ba6e54f5c953a03f5233af787d0125e11aea8fb95ccae41f0aa62044450",
    ("gaussian", "verify"): "b6116bb1cc1ede736f870f68c3f9bc9564cf2e256b312e3afb4bc55c764687e0",
    ("gaussian", "report"): "171c469f8f7e919a1d3704127b0e2d808cb59b29017b86e18bfc69b56d54104c",
    ("quaternion", "approx"): "8d8b5c2aa6e533a74427c937f98a78157aabf3961798749048ae72e9eaef66fb",
    ("quaternion", "reduce"): "5a1c4e7c668fcb07fab904a4f8821bc3bd775baf299f3a7e59ee71fcbfa4c5eb",
    ("quaternion", "pipeline"): "74048f1dcc329f194fb1c999106def2cde6425d4edc5a4e8bb90af816243a0ea",
    ("quaternion", "thresholds"): "c80f99f2e35792f37456fdbc370d7d2581355747262427ecde1531af6c4dfb1b",
    ("quaternion", "verify"): "ab71039ad0a5a91e51853c9a464593dfd52ad1a7b98a1c5f4446a99fc11afb0c",
    ("quaternion", "report"): "9ec0916ae44cb2da6765e390c0f3464a84c0184208db0c46f471cfeb9f26f1a2",
    ("two-factor", "approx"): "f6f10ba2f1a0ec3a23ec3bd51afc26df393f7294da010598a0a584723688bd1e",
    ("two-factor", "reduce"): "031deeb4dedcfb93cd98018e41a6c683ae7023cc01c0c12fa22e45691dde0cf9",
    ("two-factor", "pipeline"): "e41405ed26b59dfc1d0e1c0f9b900c13d423412d89caf50ab93cf99a355cc1a6",
    ("two-factor", "thresholds"): "0b7ce8b4ae3d019324e2c8a173b23d587c6ff38a2bd33e65e5032954ef56a641",
    ("two-factor", "verify"): "9322ad986d0ecb3628e0c351857fe9d67724eaf60d9fbc23710f14896962df1d",
    ("two-factor", "report"): "bbf96f17d68d47cab0b42fe38de06d5a39d0a2913e32f788a380774c45b7efca",
    ("z-approximating", "approx"): "6b1d758937d0a9ec5078667c05f09339a479fc553bb090a0c79c615ac5044280",
    ("z-approximating", "reduce"): "9dc2f7e3eabd51c44a542564a7f034fafe219e922a822a5b129ff42e5277f11b",
    ("z-approximating", "pipeline"): "ea37c40f9b5458c348c4b129d73001acaeb7a4fd3d62caf931cd140c1466e9b6",
    ("z-approximating", "thresholds"): "c9e991a76ced2b222824d872a809ca9c1fe50a5f661d2f3a19e912868dcf9d9d",
    ("z-approximating", "verify"): "40c42c709b7f2f4ed26db91aa632b1ef32167dee5b987337bbd45b1f685e072f",
    ("z-approximating", "report"): "bc35578c221432f7d5f6669c19f12037eb14886155eb9acf37293aaa266580fd",
    ("z-basic", "approx"): "e06a89f34ecc4b7f314fb18dbfa0519aecd48964cfc44f65f5c299041d7080bd",
    ("z-basic", "reduce"): "d75def24c01beaa6df67da02c813b1cc7e0c1b9a466ae87868d1a3dc7ecf7182",
    ("z-basic", "pipeline"): "8cf073aaf13959482c2fab53ec4a8e0c1bfd5952ddf3ead9b58d47e189becb51",
    ("z-basic", "thresholds"): "cc39da1050b718921f8cb4af82f658d1c7653f6076e9b32d5c35a3ad9fa8d206",
    ("z-basic", "verify"): "2ff7684d42820a74647a682b9260ac5b465968a26663f2355cbcb80bccff4477",
    ("z-basic", "report"): "7306d4de46889986fa05be68f9d63dfca3112cc88e3087fea47fd2146981c12f",
}


def test_criterion_9_report_determinism(tmp_path, scenario_paths):
    t0 = time.time()
    for path in scenario_paths:
        for command in ("approx", "reduce", "pipeline", "thresholds", "verify", "report"):
            outs = []
            for run in (1, 2):
                out = tmp_path / f"{path.stem}-{command}-{run}.json"
                code = main([command, "--scenario", str(path), "--out", str(out)])
                assert code == 0, f"{command} on {path.name} exited {code}"
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], f"{command} on {path.name} not byte-identical"
            digest = hashlib.sha256(outs[0]).hexdigest()
            assert digest == REPORT_DIGESTS[(path.stem, command)], (
                f"{command} on {path.name} changed its report bytes"
            )
    _done(9, "six commands byte-identical, exit 0 and pinned on the pack", t0, 300)
