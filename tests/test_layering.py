"""No module of the package imports another module's private names.

A `from .x import _name` couples two layers through a helper that `x` does
not offer as part of its interface; a helper another layer needs gets a
public name instead. Modules are parsed with `ast`, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "endoapprox"


def private_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            module = "." * node.level + (node.module or "")
            found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_private_import_detector():
    source = "from .model import _slot_add, free_inner\nfrom . import linalg\n"
    assert private_imports(source) == [".model._slot_add"]
    assert private_imports("def f():\n    from ..rings import _fr\n") == ["..rings._fr"]


def test_no_cross_module_private_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}: {name}"
        for path in modules
        for name in private_imports(path.read_text())
    ]
    assert not offenders, f"private names imported across modules: {offenders}"
