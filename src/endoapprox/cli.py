"""Command-line surface: scenario-driven approximation, reduction, the
end-to-end pipeline, property verification, threshold calculators and a
combined report.

Exit status is 0 exactly when every verification in the requested command
passed.  Reports are deterministic: same scenario and seed give identical
bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .approx import approx_weighted, derive_ledger
from .base import EndoapproxError
from .morphisms import rank_and_codim, weighted_normal_form
from .pipeline import run_pipeline, run_property_suites
from .reduction import gamma_embed, point_project, translate_witness
from .scenario import (
    Scenario,
    dump_report,
    load_scenario,
    morphism_to_json,
    rat_to_json,
    report_envelope,
    witness_to_json,
)
from .thresholds import ThresholdError, mu_lower_bounds


def _emit(report: dict, out: str | None) -> None:
    text = dump_report(report)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_approx(scenario: Scenario) -> dict:
    """Weighted approximation of every scenario morphism at Q = Q0."""
    ledger = derive_ledger(scenario.product)
    q0 = int(ledger.value("Q0"))
    rows = []
    ok = True
    for name in sorted(scenario.morphisms):
        phi = scenario.morphisms[name]
        row: dict = {"morphism": name}
        try:
            cert, weightified = weighted_normal_form(phi, scenario.ambient)
            if weightified:
                row["weightified"] = True
            wa = approx_weighted(cert.morphism, cert, q0, ledger, budget=scenario.budget)
            row.update(
                {
                    "Q": q0,
                    "m": wa.exponent,
                    "denominator": wa.denominator,
                    "approximated": wa.approximated,
                    "result": morphism_to_json(wa.morphism),
                    "norm_sq": rat_to_json(wa.morphism.norm_sq()),
                }
            )
            row["ok"] = True
        except EndoapproxError as err:
            row["ok"] = False
            row["diagnostic"] = f"{type(err).__name__}: {err}"
            ok = False
        rows.append(row)
    return {
        **report_envelope("approx", scenario),
        "ledger": ledger.to_jsonable(),
        "morphisms": rows,
        "ok": ok,
    }


def cmd_reduce(scenario: Scenario) -> dict:
    """Run the reduction transformers over every scenario witness."""
    ledger = derive_ledger(scenario.product)
    rows = []
    ok = True
    for spec in scenario.witness_specs:
        row: dict = {"witness": spec.name}
        try:
            w = scenario.witness(spec)
            pw = gamma_embed(w, scenario.gamma, scenario.k0_sq, scenario.ambient)
            row["embedded"] = witness_to_json(pw)
            tw = translate_witness(pw, ledger)
            row["translated"] = witness_to_json(tw)
            back = point_project(pw, scenario.k0_sq, scenario.ambient, ledger)
            row["projected"] = witness_to_json(back)
            row["round_trip_same_point"] = back.x == w.x
            row["ok"] = True
        except EndoapproxError as err:
            row["ok"] = False
            row["diagnostic"] = f"{type(err).__name__}: {err}"
            ok = False
        rows.append(row)
    return {
        **report_envelope("reduce", scenario),
        "witnesses": rows,
        "ok": ok,
    }


def cmd_thresholds(scenario: Scenario) -> dict:
    rows = []
    if scenario.card is None or scenario.oracle is None or not scenario.targets:
        return {
            **report_envelope("thresholds", scenario),
            "ok": False,
            "diagnostic": "scenario lacks a variety card, an oracle, or targets",
        }
    try:
        thr = scenario.thresholds()
        summary = {
            "m_upper": rat_to_json(thr.m_upper),
            "eps1_star_sq": rat_to_json(thr.eps1_star_sq),
            "eps1_lower": rat_to_json(thr.eps1_lower),
            "eps2_lower": rat_to_json(thr.eps2_lower),
            "radius_small_sq": rat_to_json(thr.radius_small_sq),
            "radius_large_sq": rat_to_json(thr.radius_large_sq),
        }
        for name in sorted(scenario.morphisms):
            phi = scenario.morphisms[name]
            ranks, codim = rank_and_codim(phi, scenario.ambient)
            row = {"morphism": name, "ranks": list(ranks), "codim": codim}
            case = thr.classify(phi.norm_sq())
            row["case"] = case.case
            row["ball_radius_sq"] = rat_to_json(case.ball_radius_sq)
            if codim >= scenario.card.dim_d + 1:
                tag, deg = scenario.targets[0]
                mu = mu_lower_bounds(
                    scenario.card, scenario.oracle, scenario.eta,
                    phi.norm_sq(), codim, tag, deg,
                )
                row["mu_image_lower"] = rat_to_json(mu.bound_phi)
                row["mu_extension_lower"] = rat_to_json(mu.bound_big_phi)
            rows.append(row)
    except ThresholdError as err:
        return {
            **report_envelope("thresholds", scenario),
            "ok": False,
            "diagnostic": f"ThresholdError: {err}",
        }
    return {
        **report_envelope("thresholds", scenario),
        "thresholds": summary,
        "morphisms": rows,
        "ok": True,
    }


def cmd_report(scenario: Scenario) -> dict:
    sections = {
        "approx": cmd_approx(scenario),
        "reduce": cmd_reduce(scenario),
        "pipeline": run_pipeline(scenario),
        "thresholds": cmd_thresholds(scenario),
        "verify": run_property_suites(scenario),
    }
    ok = all(s.get("ok", False) for s in sections.values())
    return {
        **report_envelope("report", scenario),
        "sections": sections,
        "ok": ok,
    }


COMMANDS = {
    "approx": cmd_approx,
    "reduce": cmd_reduce,
    "pipeline": run_pipeline,
    "verify": run_property_suites,
    "thresholds": cmd_thresholds,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endoapprox",
        description="Exact morphism approximation and witness reduction on a synthetic Mordell-Weil model",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--seed", type=int, default=None, help="seed override for property suites")
    parser.add_argument("--budget", type=int, default=None, help="search budget override")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a package error (a bad scenario, an exceeded budget) ends the command
    # with its name and message on one line of standard error
    try:
        scenario = load_scenario(args.scenario)
        if args.budget is not None:
            scenario.budget = args.budget
        if args.seed is not None:
            scenario.seed = args.seed
        report = COMMANDS[args.command](scenario)
    except (EndoapproxError, FileNotFoundError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    _emit(report, args.out)
    return 0 if report.get("ok", False) else 1


if __name__ == "__main__":
    sys.exit(main())
