"""A fault planted under each shared property in `pipeline` makes a `verify`
run report that property's failure message in its suite, with `ok` false.
Each fault is monkeypatched in for one test only."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from endoapprox import dirichlet, pipeline
from endoapprox.morphisms import BlockMorphism, is_weighted
from endoapprox.scenario import load_scenario


def last_feasible(res, alpha, q, *_):
    """The largest feasible denominator below q^m in place of the least."""
    den, worst = dirichlet.feasibility_oracle(alpha, q)
    b = max(c for c, w in enumerate(worst, 1) if q * w <= den)
    return replace(res, denominator=b, numerators=tuple(round(a * b) for a in alpha), error=F(worst[b - 1], den))


# suite: (module, function, fault applied to the function's result and
# arguments, start of the check's message)
FAULTS = {
    "dirichlet": (dirichlet, "dirichlet_approx", last_feasible, "not the minimal feasible denominator"),
    "morphisms": (pipeline, "gauss_reduce", lambda r, *_: (r[0], r[1] + 1), "Z: reduced * block != "),
    "rings": (pipeline, "norm_equivalence_constants", lambda c, *_: (c[0], c[1] / 2), "Z: norm equivalence"),
    "thresholds": (pipeline, "kernel_degree", lambda d, *_: d + 1, "kernel degree "),
    "weightify_torsion": (
        pipeline, "weightify",
        # a true certificate, but for the identity instead of Delta o psi
        lambda r, *_: (
            r[0], is_weighted(BlockMorphism.identity(r[1].morphism.product, r[1].morphism.source))
        ),
        "kernel escaped",
    ),
    "geomnum": (
        pipeline, "point_lower_constants", lambda c, *_: replace(c, c_sq=c.c_sq * 10**6),
        "factor 0: lower bound violated",
    ),
}


@pytest.mark.parametrize("suite", sorted(FAULTS))
def test_planted_fault_is_reported(monkeypatch, scenario_paths, suite):
    module, name, fault, message = FAULTS[suite]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: fault(real(*args, **kw), *args))
    scenario = load_scenario(next(p for p in scenario_paths if p.stem == "z-basic"))
    report = pipeline.run_property_suites(scenario, trials=12)
    result = next(s for s in report["suites"] if s["suite"] == suite)
    assert result["failures"] > 0 and result["first_failures"][0].startswith(message)
    assert report["ok"] is False
