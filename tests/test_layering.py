"""No module of the package imports another module's private names, no
function takes a parameter it never reads, no `assert` guards a runtime
check, no float appears, and no module writes JSON but through the one
report writer.

A `from .x import _name` couples two layers through a helper that `x` does
not offer as part of its interface; a helper another layer needs gets a
public name instead. A parameter nothing reads is an input every caller
must supply for nothing. `python -O` strips every `assert`, so a check
the program relies on raises a named error instead. No module uses a
float: everything stays exact, so a float literal, the name `float` or a
`math` function outside the integer ones in EXACT_MATH is refused (an
`int / int` escapes this check; the type assertions of the tests cover
it). `scenario.dump_report` writes every report and refuses any value but
dict, list, str, int, bool and None, so no module calls `json.dump` or
`json.dumps`, which would write a float. The test oracles in
`tests/reference.py` compute without the program's kernels, so from the
package they import only the exception classes in REFERENCE_IMPORTS. Only
`base.Record` defines `__setattr__`, `__eq__`, `__hash__` and `_key`; a
class keeps its own where its semantics differ, as KEPT_OVERRIDES lists.
Modules are parsed with `ast`, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "endoapprox"
REFERENCE = Path(__file__).resolve().parent / "reference.py"


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



def _params(fn) -> list[str]:
    a = fn.args
    every = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
    return [p.arg for p in every if p.arg not in ("self", "cls") and not p.arg.startswith("_")]


def unused_parameters(sources: dict[str, str]) -> list[str]:
    """Parameters (other than self, cls and `_`-prefixed names) that the
    body of their function never reads, or reads only to pass on by name to
    a module-level function's parameter that is itself unused.  A nested
    function's reads count as its parent's."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    top: dict = {}
    for tree in trees.values():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                top[fn.name] = None if fn.name in top else fn  # ambiguous names resolve to nothing
    reads = {}  # (function, parameter) -> per read, None or the (callee, parameter) it feeds
    where = {}
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where[fn] = module
            nodes = [n for stmt in fn.body for n in ast.walk(stmt)]
            passed = {}
            for call in nodes:
                callee = isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and top.get(call.func.id)
                if callee:
                    positional = [p.arg for p in callee.args.posonlyargs + callee.args.args]
                    pairs = list(zip(call.args, positional)) + [(k.value, k.arg) for k in call.keywords]
                    passed.update({id(v): (callee, p) for v, p in pairs if isinstance(v, ast.Name) and p})
            for p in _params(fn):
                reads[(fn, p)] = [
                    passed.get(id(n)) for n in nodes
                    if isinstance(n, ast.Name) and n.id == p and not isinstance(n.ctx, ast.Store)
                ] + [None for n in nodes if isinstance(n, ast.AugAssign) and getattr(n.target, "id", None) == p]
    unused = {key for key, rs in reads.items() if None not in rs}
    changed = True
    while changed:  # a parameter passed on to a parameter that is read is read
        changed = False
        for key in list(unused):
            if any(r not in unused for r in reads[key]):
                unused.discard(key)
                changed = True
    return sorted(f"{where[fn]}: {fn.name}({p})" for fn, p in unused)


def test_unused_parameter_detector():
    source = (
        "def f(a, b, *args, c, _d, **kw):\n    return a + kw['x']\n"
        "class K:\n    def m(self, x):\n        def inner():\n            return x\n"
        "        return inner\n"
        "def g(n, m):\n    n += 1\n"
        "def h(led, y):\n    return g(y, m=led)\n"
        "def k(z):\n    return h(1, z)\n"
    )
    assert unused_parameters({"m": source}) == [
        "m: f(args)", "m: f(b)", "m: f(c)", "m: g(m)", "m: h(led)",
    ]


def test_no_unused_parameters():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sources
    offenders = unused_parameters(sources)
    assert not offenders, f"parameters their function never reads: {offenders}"


def asserts(source: str) -> list[int]:
    """Line numbers of the `assert` statements in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_detector():
    assert asserts("x = 1\nassert x\ndef f():\n    assert x, 'no'\n") == [2, 4]
    assert asserts("if not x:\n    raise ValueError('x')\n") == []


def test_no_asserts_in_package():
    offenders = [
        f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py")) for line in asserts(path.read_text())
    ]
    assert not offenders, f"assert used as a runtime check: {offenders}"


EXACT_MATH = {"isqrt", "gcd", "lcm", "floor", "ceil", "prod", "comb"}


def floats(source: str) -> list[str]:
    """The float literals, uses of the name `float` and imports from `math`
    outside EXACT_MATH in a module, as "line: what", in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and not node.level:
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name not in EXACT_MATH]
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_float_detector():
    source = (
        "from math import gcd, sqrt\nimport math\nx = 0.5 + 1e3\n"
        "def f(y):\n    return float(y) // 3\n"
    )
    assert floats(source) == ["1: math.sqrt", "2: import math", "3: 0.5", "3: 1000.0", "5: float"]
    exact = "from math import isqrt, lcm\nfrom fractions import Fraction\nq = Fraction(1, 3)  # not 1 / 3\n"
    assert floats(exact) == []
    assert floats('"""A docstring may say float."""\n') == []


def test_no_floats_in_package():
    offenders = [
        f"{path.name}:{found}" for path in sorted(PACKAGE.glob("*.py")) for found in floats(path.read_text())
    ]
    assert not offenders, f"floats in the package: {offenders}"


def json_writers(source: str) -> list[str]:
    """The calls of `json.dump` or `json.dumps` in a module, however the
    module or the function was imported, as "line: what"."""
    tree = ast.parse(source)
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and not node.level:
            functions.update({a.asname or a.name: a.name for a in node.names if a.name in ("dump", "dumps")})
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps") and getattr(f.value, "id", None) in modules:
            found.append((node.lineno, f"json.{f.attr}"))
        elif isinstance(f, ast.Name) and f.id in functions:
            found.append((node.lineno, f"json.{functions[f.id]}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_json_writer_detector():
    source = (
        "import json\nimport json as j\nfrom json import dumps as d, loads\n"
        "x = json.dumps({})\ny = j.dump({}, f)\nz = d([1])\nw = loads('1')\n"
        "v = json.loads('1')\nother.dumps(1)\n"
    )
    assert json_writers(source) == ["4: json.dumps", "5: json.dump", "6: json.dumps"]
    assert json_writers("from json.encoder import encode_basestring_ascii\ns = encode_basestring_ascii('x')\n") == []


def test_no_json_writer_but_the_report_writer():
    offenders = [
        f"{path.name}:{found}" for path in sorted(PACKAGE.glob("*.py")) for found in json_writers(path.read_text())
    ]
    assert not offenders, f"JSON written past scenario.dump_report: {offenders}"


REFERENCE_IMPORTS = {
    "endoapprox.dirichlet.BudgetError",
    "endoapprox.dirichlet.DirichletError",
    "endoapprox.model.ModelError",
    "endoapprox.morphisms.MorphismError",
    "endoapprox.rings.RingError",
}


def package_imports(source: str) -> list[str]:
    """What a module imports from the `endoapprox` package, however deep the
    import statement, as "line: endoapprox.module.name"; a whole module
    imported reads "line: endoapprox.module"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "endoapprox"]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "endoapprox":
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names]
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_package_import_detector():
    source = (
        "import endoapprox\nimport endoapprox.model as m\nimport json, endoapprox.rings\n"
        "from endoapprox import linalg\nfrom endoapprox.model import ModelError, apply_morphism as am\n"
        "from fractions import Fraction\nimport endoapproximate\n"
        "def f():\n    from endoapprox.dirichlet import BudgetError\n"
    )
    assert package_imports(source) == [
        "1: endoapprox", "2: endoapprox.model", "3: endoapprox.rings", "4: endoapprox.linalg",
        "5: endoapprox.model.ModelError", "5: endoapprox.model.apply_morphism",
        "9: endoapprox.dirichlet.BudgetError",
    ]


def test_reference_imports_only_exception_classes():
    imported = package_imports(REFERENCE.read_text())
    assert imported
    offenders = [found for found in imported if found.split(": ")[1] not in REFERENCE_IMPORTS]
    assert not offenders, f"tests/reference.py imports from the program: {offenders}"


RECORD_METHODS = {"__setattr__", "__eq__", "__hash__", "_key"}
# the two mutable classes compare their contents and are unhashable;
# BlockMorphism hashes its entries' numerators, not the ring elements
KEPT_OVERRIDES = {
    "ledger.py: ConstantLedger.__eq__",
    "scenario.py: Scenario.__eq__",
    "morphisms.py: BlockMorphism.__hash__",
}


def record_methods(source: str) -> list[str]:
    """The RECORD_METHODS a class body defines or assigns, as "Class.name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
            else:
                names = []
            found += [f"{node.name}.{name}" for name in names if name in RECORD_METHODS]
    return found


def test_record_method_detector():
    source = (
        "class A:\n    def __eq__(self, o):\n        return True\n    __hash__ = None\n"
        "    def _key(self):\n        def __eq__():\n            pass\n"
        "class B(A):\n    _fields = ('x',)\n    def __repr__(self):\n        return 'B'\n"
        "def __setattr__(self, name, value):\n    pass\n"
    )
    assert record_methods(source) == ["A.__eq__", "A.__hash__", "A._key"]


def test_only_base_defines_record_methods():
    offenders = [
        f"{path.name}: {found}" for path in sorted(PACKAGE.glob("*.py")) if path.name != "base.py"
        for found in record_methods(path.read_text())
        if f"{path.name}: {found}" not in KEPT_OVERRIDES
    ]
    assert not offenders, f"record methods outside base.Record: {offenders}"
