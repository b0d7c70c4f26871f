"""The bundled scenario pack is exactly what tools/build_scenarios.py builds.

Its six scenario functions run without writing anything; each document is
serialised the way the tool writes it and compared with the bundled file
byte for byte.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_FUNCTIONS = (
    "scenario_z_basic",
    "scenario_z_approx",
    "scenario_gaussian",
    "scenario_eisenstein",
    "scenario_quaternion",
    "scenario_two_factor",
)


def _load_tool():
    path = ROOT / "tools" / "build_scenarios.py"
    spec = importlib.util.spec_from_file_location("build_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scenario_pack_regenerates_identically():
    tool = _load_tool()
    built = {}
    for name in SCENARIO_FUNCTIONS:
        doc = getattr(tool, name)()
        built[f"{doc['name']}.json"] = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    bundled = {p.name: p.read_text() for p in tool.OUT.glob("*.json")}
    assert sorted(built) == sorted(bundled)
    for name, text in built.items():
        assert text == bundled[name], f"{name} differs from what the tool makes"
