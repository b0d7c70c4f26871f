"""Layer spans recorded from outside the program, by wrapping the public
functions of each `endoapprox` layer.

A wrapped call records one span (id, parent id, layer, start, end). Spans
stay in memory and are written out when the run ends. A layer's self time
is its span's duration minus the durations of its direct child spans, so
the self times of all layers plus the op's own self time add up to the op.
Calls too cheap to time (`RingElement.__mul__`) are only counted.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# layer -> [(module, attribute)]; an attribute "Class.method" is patched on
# the class, a plain name in every endoapprox namespace that bound it
TIMED = {
    "scenario.load": [("scenario", "load_scenario")],
    "scenario.dump": [("scenario", "dump_report")],
    "ledger.derive": [("approx", "derive_ledger"), ("rings", "compute_Q0"),
                      ("rings", "product_constants")],
    "rings.rho": [("rings", "RingSpec.rho")],
    "model.apply": [("model", "apply_morphism")],
    "morphisms.rank": [("morphisms", "rank_and_codim")],
    "morphisms.gauss": [("morphisms", "gauss_reduce")],
    "morphisms.weightify": [("morphisms", "weightify")],
    "morphisms.compose": [("morphisms", "BlockMorphism.compose")],
    "reduction.embed": [("reduction", "gamma_embed")],
    "reduction.specialize": [("reduction", "specialize")],
    "reduction.project": [("reduction", "point_project")],
    "reduction.rank_check": [("reduction", "rank_check_special")],
    "dirichlet.scan": [("dirichlet", "dirichlet_approx")],
    "dirichlet.oracle": [("dirichlet", "feasibility_oracle")],
    "approx.vector": [("approx", "approx_vector")],
    "approx.weighted": [("approx", "approx_weighted")],
    "approx.special": [("approx", "approx_special")],
    "linalg.eigen": [("linalg", "min_eigenvalue_lower")],
    "geomnum.point_constants": [("geomnum", "point_lower_constants"),
                                ("geomnum", "point_constants_all")],
    "geomnum.inflate": [("geomnum", "inflate_generators")],
    "thresholds.finiteness": [("thresholds", "finiteness_thresholds")],
    "exact.pow_bounds": [("exact", "pow_bounds")],
}
SUITES = ("rings", "morphisms", "weightify_torsion", "model", "dirichlet",
          "approx", "geomnum", "thresholds", "reduction")
for _s in SUITES:
    TIMED[f"pipeline.suite_{_s}"] = [("pipeline", f"suite_{_s}")]
TORSION = "model.torsion"  # torsion_enum is a generator: each next() is a span

# per_layer metric -> (layer, "ms") or (counted function or counter, "calls")
LAYER_METRICS = {
    "scenario.load_ms": ("scenario.load", "ms"),
    "scenario.dump_ms": ("scenario.dump", "ms"),
    "ledger.derive_calls": ("derive_ledger", "calls"),
    "ledger.derive_ms": ("ledger.derive", "ms"),
    "rings.rho_calls": ("rho", "calls"),
    "rings.rho_ms": ("rings.rho", "ms"),
    "rings.mul_calls": ("__mul__", "calls"),
    "model.apply_calls": ("apply_morphism", "calls"),
    "model.apply_ms": ("model.apply", "ms"),
    "model.torsion_points": ("torsion_points", "calls"),
    "model.torsion_ms": (TORSION, "ms"),
    "morphisms.rank_ms": ("morphisms.rank", "ms"),
    "morphisms.gauss_ms": ("morphisms.gauss", "ms"),
    "morphisms.weightify_ms": ("morphisms.weightify", "ms"),
    "morphisms.compose_ms": ("morphisms.compose", "ms"),
    "reduction.embed_ms": ("reduction.embed", "ms"),
    "reduction.specialize_ms": ("reduction.specialize", "ms"),
    "reduction.project_ms": ("reduction.project", "ms"),
    "reduction.rank_check_ms": ("reduction.rank_check", "ms"),
    "dirichlet.scan_calls": ("dirichlet_approx", "calls"),
    "dirichlet.scan_ms": ("dirichlet.scan", "ms"),
    "dirichlet.denominators_scanned": ("denominators_scanned", "calls"),
    "dirichlet.oracle_ms": ("dirichlet.oracle", "ms"),
    "approx.vector_ms": ("approx.vector", "ms"),
    "approx.weighted_ms": ("approx.weighted", "ms"),
    "approx.special_ms": ("approx.special", "ms"),
    "linalg.eigen_calls": ("min_eigenvalue_lower", "calls"),
    "linalg.eigen_ms": ("linalg.eigen", "ms"),
    "geomnum.point_constants_ms": ("geomnum.point_constants", "ms"),
    "geomnum.inflate_ms": ("geomnum.inflate", "ms"),
    "thresholds.finiteness_ms": ("thresholds.finiteness", "ms"),
    "exact.pow_bounds_calls": ("pow_bounds", "calls"),
    "exact.pow_bounds_ms": ("exact.pow_bounds", "ms"),
}
for _s in SUITES:
    LAYER_METRICS[f"pipeline.suite_{_s}_ms"] = (f"pipeline.suite_{_s}", "ms")

OP = "op"


class Tracer:
    """Installs the wrappers once; records only while `active`."""

    def __init__(self):
        self.names: list[str] = [OP]
        self._index = {OP: 0}
        # one span per index: id is the position, parent -1 for an op
        self.parent = array("q")
        self.layer = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.active = False

    # -- recording ---------------------------------------------------------

    def _layer_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, layer: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.layer.append(layer)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start[sid] = perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def op(self, fn, *args):
        """Run one op under a root span (recording must be active)."""
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, layer_name: str, key: str, fn):
        layer = self._layer_index(layer_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.count(key)
            sid = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if key == "dirichlet_approx":
                tracer.count("denominators_scanned", result.denominator)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _torsion(self, fn):
        layer = self._layer_index(TORSION)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            return _TracedIter(tracer, layer, gen)

        return wrapper

    def install(self) -> None:
        """Patch the layer functions on their classes and in every
        `endoapprox` module namespace that bound them."""
        import endoapprox  # noqa: F401  (loads every layer module)

        mods = {
            name: mod for name, mod in sys.modules.items()
            if (name == "endoapprox" or name.startswith("endoapprox."))
            and name != "endoapprox.__main__" and mod is not None
        }
        home = lambda short: mods[f"endoapprox.{short}"]  # noqa: E731

        def rebind(orig, new) -> None:
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)

        for layer_name, targets in TIMED.items():
            for short, attr in targets:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home(short), cls_name)
                    setattr(cls, meth, self._timed(layer_name, meth, getattr(cls, meth)))
                else:
                    orig = getattr(home(short), attr)
                    rebind(orig, self._timed(layer_name, attr, orig))
        ring_element = home("rings").RingElement
        ring_element.__mul__ = self._counted("__mul__", ring_element.__mul__)
        orig = home("model").torsion_enum
        rebind(orig, self._torsion(orig))

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer over every recorded span."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.layer[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return out

    def spans(self) -> int:
        """Recorded layer spans (op spans excluded)."""
        return sum(1 for p in self.parent if p >= 0)

    def op_times(self) -> list[float]:
        return [self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0]

    def write(self, path) -> None:
        """Spans as JSON lines: id, parent, layer, start and end in seconds."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([i, self.parent[i], self.names[self.layer[i]],
                                     round(self.start[i], 9), round(self.end[i], 9)]))
                fh.write("\n")


def calibrate(calls: int = 20_000, reps: int = 7) -> tuple[float, float]:
    """Seconds that one timed span and one counted call add to the call
    they wrap: the fastest of `reps` loops of `calls` wrapped no-op calls,
    less the same for the bare no-op. A throwaway tracer records the spans."""
    probe = Tracer()
    probe.active = True

    def noop():
        return None

    def per_call(fn) -> float:
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            times.append((perf_counter() - t0) / calls)
        return min(times)

    bare = per_call(noop)
    sid = probe._open(0)  # the spans nest under an op, as in a real run
    span = per_call(probe._timed("calibrate", "calibrate", noop)) - bare
    probe._close(sid)
    count = per_call(probe._counted("calibrate", noop)) - bare
    return span, count


class _TracedIter:
    """Times each step of a generator as its own span and counts yields."""

    def __init__(self, tracer: Tracer, layer: int, gen):
        self.tracer, self.layer, self.gen = tracer, layer, gen

    def __iter__(self):
        return self

    def __next__(self):
        sid = self.tracer._open(self.layer)
        try:
            item = next(self.gen)
        finally:
            self.tracer._close(sid)
        self.tracer.count("torsion_points")
        return item
