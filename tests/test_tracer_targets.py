"""Every name the benchmark tracer (perfbench/tracer.py) patches must exist.

The tracer wraps layer functions by module and attribute name, so a
refactor that renames or deletes one breaks `perfbench/run.py --trace 1`.
The targets are resolved here with getattr only; nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = [t for group in _load_tracer().TIMED.values() for t in group]
    targets += [("rings", "RingElement.__mul__"), ("model", "torsion_enum")]
    missing = []
    for short, attr in targets:
        obj = importlib.import_module(f"endoapprox.{short}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{short}.{attr}")
    assert not missing, f"tracer targets no longer exist: {missing}"
