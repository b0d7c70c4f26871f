import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from endoapprox import cli, pipeline
from endoapprox.cli import main
from endoapprox.model import ModelError
from endoapprox.pipeline import run_pipeline, run_property_suites, suite_reduction
from endoapprox.scenario import (
    ScenarioError,
    dump_report,
    load_scenario,
    morphism_from_json,
    morphism_to_json,
    point_from_json,
    point_to_json,
    rat_from_json,
    rat_to_json,
    scenario_from_json,
)


def test_rational_codec():
    assert rat_to_json(F(-3, 7)) == {"num": "-3", "den": "7"}
    assert rat_from_json({"num": "-3", "den": "7"}) == F(-3, 7)
    assert rat_from_json(5) == F(5)
    with pytest.raises(ScenarioError):
        rat_from_json(0.5)


def test_scenario_loads_and_round_trips(scenario_paths):
    for path in scenario_paths:
        scenario = load_scenario(path)
        assert scenario.k0_sq >= scenario.eps_sq
        for name, w in scenario.witnesses():
            w.verify()
        for name, phi in scenario.morphisms.items():
            again = morphism_from_json(scenario.product, morphism_to_json(phi))
            assert again == phi
        for name, pt in scenario.points.items():
            again = point_from_json(scenario.space, point_to_json(pt))
            assert again == pt


def _json_rational(rng):
    """One JSON rational in any form `rat_from_json` reads: a pair with a
    negative or non-lowest denominator, an int or a string."""
    num, den = rng.randint(-30, 30), rng.choice((1, 2, 4, 6, -4, -9, rng.randint(1, 40)))
    form = rng.randrange(4)
    if form == 0:
        return {"num": str(num), "den": str(den)}
    if form == 1:
        return num
    if form == 2:
        return f"{num}/{abs(den)}"
    return str(num)


def test_point_values_read_as_rat_from_json(scenario_paths):
    # points load from numerators; each value means what rat_from_json reads
    rng = random.Random(47)
    for path in scenario_paths:
        space = load_scenario(path).space
        for _ in range(20):
            slots, want = [], []
            for i, spec in enumerate(space.product.factors):
                fac, wfac = [], []
                for _ in range(space.counts[i]):
                    # some parts shorter than the slot, so the rest is zero
                    torsion = [_json_rational(rng) for _ in range(rng.randint(0, 2 * spec.dimension))]
                    free = [
                        [_json_rational(rng) for _ in range(rng.randint(0, spec.rank))]
                        for _ in range(rng.randint(0, space.free_ranks[i]))
                    ]
                    fac.append({"torsion": torsion, "free": free})
                    wfac.append(space.slot(i, [rat_from_json(x) for x in torsion],
                                           [[rat_from_json(c) for c in coeff] for coeff in free]))
                slots.append(fac)
                want.append(wfac)
            got = point_from_json(space, {"counts": list(space.counts), "slots": slots})
            assert got == space.point(want)
    # a negative denominator carries the sign; the torsion value is then taken mod 1
    space = load_scenario(next(p for p in scenario_paths if p.stem == "z-basic")).space
    value = {"num": "2", "den": "-4"}
    point = point_from_json(space, {"counts": [1], "slots": [[{"torsion": [value], "free": [[value]]}]]})
    slot = point.slots[0][0]
    assert slot.free == ((F(-1, 2),),) and slot.torsion == (F(1, 2), F(0))
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(-3, 0\)$"):
        point_from_json(space, {"counts": [1], "slots": [[{"free": [[{"num": "-3", "den": "0"}]]}]]})


def test_schema_rejected():
    with pytest.raises(ScenarioError):
        scenario_from_json({"schema": "something/else"})


@pytest.mark.parametrize("eps_sq", ["0", "-1"])
def test_nonpositive_eps_rejected(tmp_path, scenario_paths, eps_sq):
    data = json.loads(next(p for p in scenario_paths if p.stem == "z-basic").read_text())
    data["parameters"]["eps_sq"] = {"num": eps_sq, "den": "1"}
    copy = tmp_path / "z-basic.json"
    copy.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="eps_sq"):
        load_scenario(copy)


def test_pipeline_ok_on_pack(scenario_paths):
    for path in scenario_paths:
        scenario = load_scenario(path)
        report = run_pipeline(scenario)
        assert report["ok"], f"{path.name}: {report['witnesses']}"
        assert report["family"]["distinct"] >= 1


def test_property_suites_ok_quick(scenario_paths):
    scenario = load_scenario(scenario_paths[0])
    report = run_property_suites(scenario, trials=12)
    assert report["ok"], report["suites"]


def test_witness_serialization_round_trip(scenario_paths):
    from endoapprox.reduction import gamma_embed
    from endoapprox.scenario import witness_from_json, witness_to_json

    scenario = load_scenario(scenario_paths[0])
    name, w = scenario.witnesses()[0]
    pair = gamma_embed(w, scenario.gamma, scenario.k0_sq, scenario.ambient)
    rebuilt = witness_from_json(
        scenario.product, scenario.space, witness_to_json(pair)
    )
    rebuilt.verify()
    assert rebuilt.morphism == pair.morphism
    assert rebuilt.x == pair.x and rebuilt.p == pair.p and rebuilt.xi == pair.xi
    assert rebuilt.weighted == pair.weighted
    assert rebuilt.special == pair.special


def test_pipeline_empty_witness_list(scenario_paths):
    scenario = load_scenario(scenario_paths[0])
    scenario.witness_specs = ()
    report = run_pipeline(scenario)
    assert report["ok"] and report["witnesses"] == []
    # the bounded-family modulus is still computed per admissible target rank
    assert report["moduli"]
    for row in report["moduli"]:
        assert row["M"] == row["Q"] ** row["m"]


def test_cli_pipeline_deterministic(tmp_path, scenario_paths):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    path = str(scenario_paths[0])
    assert main(["pipeline", "--scenario", path, "--out", str(out1)]) == 0
    assert main(["pipeline", "--scenario", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_commands_run(tmp_path, scenario_paths):
    path = str(scenario_paths[0])
    for command in ["approx", "reduce", "thresholds"]:
        out = tmp_path / f"{command}.json"
        assert main([command, "--scenario", path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["ok"] is True


def _corrupt_free_part(data):
    # move the first witness's base point off the kernel
    bad_point = data["witnesses"][0]["x"]
    slot = data["points"][bad_point]["slots"][0][0]
    assert slot["free"], "expected a free part to corrupt"
    for coord in slot["free"][0]:
        coord["num"] = "999"


def _corrupt_hidden_torsion(data):
    # x = (0, 0 | 0, 1/2) against psi_c = [[1, 1], [0, 2]] with y = xi = 0:
    # psi_c(x) = (0, 1/2 | 0, 0) != 0, but the weightified Delta psi_c kills it
    zero = {"num": "0", "den": "1"}
    x = json.loads(json.dumps(data["points"]["zero_g"]))
    x["slots"][0][1]["torsion"] = [zero, {"num": "1", "den": "2"}]
    data["points"]["x_hidden"] = x
    row = next(w for w in data["witnesses"] if w["morphism"] == "psi_c")
    row.update(x="x_hidden", y="zero_g", xi="zero_g")


@pytest.mark.parametrize("stem, corrupt", [
    ("eisenstein", _corrupt_free_part),
    ("z-basic", _corrupt_hidden_torsion),
], ids=["free-part", "hidden-torsion"])
@pytest.mark.parametrize("command", ["pipeline", "reduce", "verify"])
def test_cli_bad_witness_exits_nonzero(tmp_path, scenario_paths, command, stem, corrupt):
    data = json.loads(next(p for p in scenario_paths if p.stem == stem).read_text())
    corrupt(data)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    code = main([command, "--scenario", str(bad_path), "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert not report["ok"]
    if command == "verify":
        failed = [s for s in report["suites"] if s["failures"]]
        assert [s["suite"] for s in failed] == ["reduction"]
        # the witness fails where it is built, before it is embedded
        first = failed[0]["first_failures"][0]
        assert first.endswith(": witness failed: witness equation does not hold"), first
    else:
        diagnostics = [row["diagnostic"] for row in report["witnesses"] if not row["ok"]]
        assert len(diagnostics) == 1 and diagnostics[0].startswith("WitnessError: ")


def _scenario_copy(tmp_path, scenario_paths, edit, stem="z-basic"):
    """A copy of a bundled scenario with `edit` applied to its data; an edit
    that returns a str writes that text in place of the data."""
    data = json.loads(next(p for p in scenario_paths if p.stem == stem).read_text())
    text = edit(data)
    copy = tmp_path / f"{stem}.json"
    copy.write_text(json.dumps(data) if text is None else text)
    return copy


def _update(*path, **fields):
    """An edit that updates the dict at `path` with `fields`."""
    def edit(data):
        for key in path:
            data = data[key]
        data.update(fields)
    return edit


HALF = {"num": "1", "den": "2"}
# phi_a = (2 | 5) with its first entry set to 1/2: over the integers, a
# morphism over an order has integral entries
PHI_A_HALF = {"source": [2], "target": [1], "blocks": [[[[HALF], [{"num": "5", "den": "1"}]]]]}


# phi_a = (2 | 5) declared with 3 source columns; a ring Gram form [[-1]]
PHI_A_SOURCE_3 = {"source": [3], "target": [1], "blocks": PHI_A_HALF["blocks"]}
GRAM_NEGATIVE = [[{"num": "-1", "den": "1"}]]


def _drop_parameters(data):
    del data["parameters"]


def _free_rank_zero(data):
    data["ambient"]["free_ranks"][1] = 0


_free_rank_zero.stem = "two-factor"  # whose points have a free part in factor 1


def _free_rank_huge(data):
    data["ambient"]["free_ranks"][1] = 10**9


_free_rank_huge.stem = "two-factor"


def _free_rank_infinite(data):
    data["ambient"]["free_ranks"][1] = "INF"
    return json.dumps(data).replace('"INF"', "1e400")  # json reads 1e400 as a float infinity


_free_rank_infinite.stem = "two-factor"


def _point_zero_denominator(data):
    data["points"]["xa"]["slots"][0][0]["free"][0][0] = {"num": "1", "den": "0"}


def _slot_total_over_cap(data):
    data["ambient"]["counts"] = [33, 32]


_slot_total_over_cap.stem = "two-factor"


@pytest.mark.parametrize("edit, message", [
    (_update("parameters", eps_sq={"num": "0", "den": "1"}), "ScenarioError: scenario requires eps_sq > 0"),
    (_update("parameters", eps_sq={"num": "2", "den": "1"}, k0_sq={"num": "1", "den": "1"}),
     "ScenarioError: scenario requires K0^2 >= eps^2"),
    (_update("morphisms", phi_a=PHI_A_HALF), "ScenarioError: MorphismError: factor 0: entry (0, 0) is not integral"),
    (_update("morphisms", phi_a=PHI_A_SOURCE_3), "ScenarioError: MorphismError: factor 0: expected 3 columns"),
    (_update("rings", 0, gram=GRAM_NEGATIVE), "ScenarioError: RingError: Z: gram form is not positive-definite"),
    (_update("witnesses", 0, x="nope"), "ScenarioError: witness 'w_a' names 'nope', which the scenario lacks"),
    (_update("witnesses", 1, morphism="nope"), "ScenarioError: witness 'w_b' names 'nope', which the scenario lacks"),
    (_update("parameters", eps_sq={"num": "1", "den": "0"}), "ScenarioError: ZeroDivisionError: Fraction(1, 0)"),
    (_point_zero_denominator, "ScenarioError: ZeroDivisionError: Fraction(1, 0)"),
    (_drop_parameters, "ScenarioError: KeyError: 'parameters'"),
    (lambda data: '{"schema": ', "ScenarioError: JSONDecodeError: Expecting value: line 1 column 12 (char 11)"),
    (lambda data: "[1, 2]", "ScenarioError: a scenario is a JSON object, not list"),
    (_free_rank_zero, "ScenarioError: factor 1: free part exceeds free rank 0 over rank 1"),
    (_update("targets", 1, deg=0), "ScenarioError: target 'Ar2' requires a positive degree, got 0"),
    (_update("parameters", torsion_budget=0), "ScenarioError: scenario requires torsion_budget >= 1, got 0"),
    (_free_rank_huge, "ScenarioError: free rank 1000000000 exceeds the size cap 64"),
    (_free_rank_infinite, "ScenarioError: OverflowError: cannot convert float infinity to integer"),
    (_slot_total_over_cap, "ScenarioError: total slot count 65 exceeds the size cap 64"),
    (_update("ambient", counts=[3]),
     "ScenarioError: morphism 'phi_a' has source [2], not the ambient counts [3]"),
], ids=[
    "eps-zero", "k0-below-eps", "non-integral-morphism", "morphism-shape", "gram-negative",
    "witness-unknown-point", "witness-unknown-morphism", "zero-denominator", "point-zero-denominator",
    "no-parameters",
    "truncated", "top-level-list", "free-rank-zero", "target-degree-zero", "torsion-budget-zero",
    "free-rank-over-cap", "free-rank-infinite", "slot-total-over-cap", "counts-off-morphism-source",
])
def test_cli_names_invalid_scenario(tmp_path, scenario_paths, capsys, edit, message):
    path = _scenario_copy(tmp_path, scenario_paths, edit, getattr(edit, "stem", "z-basic"))
    for command in ("approx", "reduce", "pipeline", "verify", "thresholds", "report"):
        assert main([command, "--scenario", str(path)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1, command


def test_cli_reports_at_the_size_cap(tmp_path, scenario_paths):
    # free ranks at the cap still load and run every section, in a fresh
    # interpreter under a time cap
    path = _scenario_copy(tmp_path, scenario_paths, _update("ambient", free_ranks=[64, 64]), "two-factor")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "endoapprox", "report", "--scenario", str(path)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert json.loads(done.stdout)["ok"]


def test_cli_reports_within_a_small_torsion_budget(tmp_path, scenario_paths):
    # a torsion budget of 3 affords the level-1 kernel-degree check (1 point)
    # but not level 2 (4 points): the thresholds suite stops there and
    # counts only the checks it ran
    path = _scenario_copy(tmp_path, scenario_paths, _update("parameters", torsion_budget=3))
    for command in ("verify", "report"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 0, command
        report = json.loads(out.read_text())
        assert report["ok"], command
        suites = report["suites"] if command == "verify" else report["sections"]["verify"]["suites"]
        thresholds = next(s for s in suites if s["suite"] == "thresholds")
        assert thresholds["trials"] == 2 and thresholds["failures"] == 0  # level 1 and the boundary


def test_cli_seed_and_budget_overrides(tmp_path, scenario_paths):
    path = next(p for p in scenario_paths if p.stem == "z-basic")
    out = tmp_path / "verify.json"
    assert main(["verify", "--scenario", str(path), "--seed", "7", "--out", str(out)]) == 0
    assert load_scenario(path).seed != 7 and json.loads(out.read_text())["seed"] == 7
    path = next(p for p in scenario_paths if p.stem == "z-approximating")
    out = tmp_path / "approx.json"
    assert main(["approx", "--scenario", str(path), "--budget", "1", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["morphisms"]
    assert [row["diagnostic"] for row in rows if not row["ok"]] == [
        "BudgetError: scan of 3 denominators exceeds budget 1"
    ]


def _raise_model_error(*args, **kwargs):
    raise ModelError("planted")


@pytest.mark.parametrize("module, name, command, rows", [
    (pipeline, "specialize", "pipeline", "witnesses"),
    (cli, "translate_witness", "reduce", "witnesses"),
    (cli, "approx_weighted", "approx", "morphisms"),
], ids=["pipeline", "reduce", "approx"])
def test_cli_rows_name_any_package_error(tmp_path, scenario_paths, monkeypatch, module, name, command, rows):
    # a row catches every error the package defines, ModelError included
    monkeypatch.setattr(module, name, _raise_model_error)
    path = next(p for p in scenario_paths if p.stem == "z-basic")
    out = tmp_path / "out.json"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["ok"] and report[rows]
    assert [row["diagnostic"] for row in report[rows]] == ["ModelError: planted"] * len(report[rows])
    assert not any(row["ok"] for row in report[rows])


def test_suite_reduction_names_any_package_error(scenario_paths, monkeypatch):
    monkeypatch.setattr(pipeline, "gamma_embed", _raise_model_error)
    scenario = load_scenario(next(p for p in scenario_paths if p.stem == "z-basic"))
    suite = suite_reduction(scenario)
    assert suite["failures"] == len(scenario.witness_specs) > 0
    assert suite["first_failures"][0] == f"{scenario.witness_specs[0].name}: embed failed: planted"


def _quaternion_gram_huge(data):
    # lambda_min's short-vector box then spans about 4 * 10**22 points
    data["rings"][0]["gram"][0][0] = {"num": str(10**15), "den": "7"}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cli_names_an_unaffordable_short_vector_box(tmp_path, scenario_paths):
    # in a fresh interpreter capped at 1 GiB, so a box enumerated without
    # its budget check ends there and not in this process
    path = _scenario_copy(tmp_path, scenario_paths, _quaternion_gram_huge, "quaternion")
    src = Path(__file__).resolve().parents[1] / "src"
    for command in ("approx", "pipeline", "verify"):
        done = subprocess.run(
            [sys.executable, "-m", "endoapprox", command, "--scenario", str(path)],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
            preexec_fn=_limit_memory,
        )
        assert done.returncode == 1 and done.stdout == "", command
        assert done.stderr.startswith("BudgetError: Hq: short-vector box of ") and done.stderr.count("\n") == 1, (
            command, done.stderr[-300:])


def test_cli_names_missing_scenario(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["pipeline", "--scenario", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("FileNotFoundError: ") and str(missing) in captured.err
    assert captured.err.count("\n") == 1


def _report_value(rng, depth):
    """A random report value: nested dicts and lists of str (some non-ASCII
    or needing escapes), int, bool and None."""
    kind = rng.randrange(7 if depth < 3 else 4)
    if kind == 0:
        return rng.choice(["", "ok", 'a "quoted" \\ line\n', "\u00e9\u03b5 \u2264 1/q", "\x00\x1f"])
    if kind == 1:
        return rng.choice([0, -1, 7, 10**40, -(10**25)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return [_report_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    keys = ["b", "a", "Z", "a b", "\u00e9", "10", "9"]
    return {k: _report_value(rng, depth + 1) for k in rng.sample(keys, rng.randrange(5))}


def test_dump_report_writes_what_json_dumps_wrote():
    rng = random.Random(9)
    for _ in range(300):
        report = {"ok": True, "body": _report_value(rng, 0)}
        want = json.dumps(report, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"
        assert dump_report(report) == want
    assert dump_report({}) == "{}\n"
    for bad in (0.5, (1, 2), F(1, 2), {1: 2}, {"x": [1.0]}, {"x": {"y": set()}}):
        with pytest.raises(TypeError):
            dump_report({"value": bad})
