"""Scenario files: ring data, ambient shape, points, morphisms, witnesses,
thresholds data and search budgets, all in JSON with rationals written as
{"num": "...", "den": "..."} string pairs (no floating point on the wire).
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from .model import GeneratorSet, ModelPoint, ModelSpace, empty_generators
from .morphisms import AmbientSpec, BlockMorphism, SpecialCertificate, WeightedCertificate
from .reduction import InclusionWitness
from .rings import ProductRingSpec, RingSpec
from .thresholds import ConjecturalOracle, FinitenessThresholds, VarietyCard, finiteness_thresholds

SCHEMA = "endoapprox/scenario/1"
REPORT_SCHEMA = "endoapprox/report/1"


def report_envelope(kind: str, scenario: "Scenario") -> dict:
    """The schema, kind, scenario name and seed every report carries."""
    return {"schema": REPORT_SCHEMA, "kind": kind, "scenario": scenario.name, "seed": scenario.seed}


class ScenarioError(ValueError):
    pass


def rat_to_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def rat_from_json(obj) -> Fraction:
    if isinstance(obj, dict):
        return Fraction(int(obj["num"]), int(obj["den"]))
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        return Fraction(obj)
    raise ScenarioError(f"not a rational: {obj!r}")


def _ring_from_json(obj) -> RingSpec:
    return RingSpec(
        tag=obj["tag"],
        rank=int(obj["rank"]),
        dimension=int(obj["dimension"]),
        basis_labels=tuple(obj["basis"]),
        mul_table=tuple(
            tuple(tuple(int(c) for c in cell) for cell in row) for row in obj["mul_table"]
        ),
        involution=tuple(tuple(int(c) for c in row) for row in obj["involution"]),
        gram=tuple(tuple(rat_from_json(c) for c in row) for row in obj["gram"]),
        lattice_rep=tuple(
            tuple(tuple(int(c) for c in row) for row in mat) for mat in obj["lattice_rep"]
        ),
    )


def ring_to_json(spec: RingSpec) -> dict:
    return {
        "tag": spec.tag,
        "rank": spec.rank,
        "dimension": spec.dimension,
        "basis": list(spec.basis_labels),
        "mul_table": [[list(cell) for cell in row] for row in spec.mul_table],
        "involution": [list(row) for row in spec.involution],
        "gram": [[rat_to_json(c) for c in row] for row in spec.gram],
        "lattice_rep": [[list(row) for row in mat] for mat in spec.lattice_rep],
    }


def point_from_json(space_g: ModelSpace, obj) -> ModelPoint:
    """The point the data describes; its counts, and the torsion and free
    parts of each slot, must fit the space's ring factors and free ranks."""
    counts = tuple(int(c) for c in obj["counts"])
    space = space_g.with_counts(counts)
    if len(obj["slots"]) != len(counts):
        raise ScenarioError("slot count mismatch in point")
    slots = []
    for i, fac in enumerate(obj["slots"]):
        if len(fac) != counts[i]:
            raise ScenarioError("slot count mismatch in point")
        spec, nu = space.product.factors[i], space.free_ranks[i]
        built = []
        for slot in fac:
            if len(slot.get("torsion", [])) > 2 * spec.dimension:
                raise ScenarioError(f"factor {i}: torsion part longer than {2 * spec.dimension}")
            free = slot.get("free", [])
            if len(free) > nu or any(len(coeff) > spec.rank for coeff in free):
                raise ScenarioError(f"factor {i}: free part exceeds free rank {nu} over rank {spec.rank}")
            built.append(
                space.slot(
                    i,
                    torsion=[rat_from_json(t) for t in slot.get("torsion", [])],
                    free=[[rat_from_json(c) for c in coeff] for coeff in slot.get("free", [])],
                )
            )
        slots.append(built)
    return space.point(slots)


def point_to_json(p: ModelPoint) -> dict:
    return {
        "counts": list(p.space.counts),
        "slots": [
            [
                {
                    "torsion": [rat_to_json(t) for t in s.torsion],
                    "free": [[rat_to_json(c) for c in coeff] for coeff in s.free],
                }
                for s in fac
            ]
            for fac in p.slots
        ],
    }


def morphism_from_json(product: ProductRingSpec, obj) -> BlockMorphism:
    return BlockMorphism.from_coords(
        product,
        tuple(int(c) for c in obj["source"]),
        tuple(int(c) for c in obj["target"]),
        [
            [[[rat_from_json(x) for x in entry] for entry in row] for row in block]
            for block in obj["blocks"]
        ],
    )


def morphism_to_json(phi: BlockMorphism) -> dict:
    return {
        "source": list(phi.source),
        "target": list(phi.target),
        "blocks": [
            [[[rat_to_json(x) for x in e.coords] for e in row] for row in block]
            for block in phi.blocks
        ],
    }


class WitnessSpec(NamedTuple):
    name: str
    morphism: str
    x: str
    xi: str
    xi_bound_sq: Fraction
    y: str | None = None


class Scenario:
    """Everything a scenario file describes; `cli` overrides `seed` and
    `budget` in place."""

    def __init__(
        self,
        name: str,
        seed: int,
        budget: int,
        torsion_budget: int,
        product: ProductRingSpec,
        ambient: AmbientSpec,
        space: ModelSpace,
        eps_sq: Fraction,
        k0_sq: Fraction,
        eta: Fraction,
        gamma: GeneratorSet,
        points: dict[str, ModelPoint] | None = None,
        morphisms: dict[str, BlockMorphism] | None = None,
        witness_specs: tuple[WitnessSpec, ...] = (),
        card: VarietyCard | None = None,
        oracle: ConjecturalOracle | None = None,
        targets: tuple[tuple[str, Fraction], ...] = (),
    ):
        if eps_sq <= 0:
            raise ScenarioError(f"scenario requires eps_sq > 0, got {eps_sq}")
        if k0_sq < eps_sq:
            raise ScenarioError("scenario requires K0^2 >= eps^2")
        if torsion_budget < 1:
            raise ScenarioError(f"scenario requires torsion_budget >= 1, got {torsion_budget}")
        for tag, deg in targets:
            if deg <= 0:
                raise ScenarioError(f"target {tag!r} requires a positive degree, got {deg}")
        self.name = name
        self.seed = seed
        self.budget = budget
        self.torsion_budget = torsion_budget
        self.product = product
        self.ambient = ambient
        self.space = space
        self.eps_sq = eps_sq
        self.k0_sq = k0_sq
        self.eta = eta
        self.gamma = gamma
        self.points = {} if points is None else points
        self.morphisms = {} if morphisms is None else morphisms
        self.witness_specs = witness_specs
        self.card = card
        self.oracle = oracle
        self.targets = targets

    def __eq__(self, other):
        if other.__class__ is not Scenario:
            return NotImplemented
        return vars(self) == vars(other)

    def thresholds(self) -> FinitenessThresholds:
        """finiteness_thresholds at this scenario's card, oracle, eta, K0^2, ambient total and targets."""
        return finiteness_thresholds(
            self.card, self.oracle, self.eta, self.k0_sq, self.ambient.total, self.targets
        )

    def witness(self, spec: WitnessSpec) -> InclusionWitness:
        phi = self.morphisms[spec.morphism]
        x = self.points[spec.x]
        xi = self.points[spec.xi]
        y = self.points[spec.y] if spec.y is not None else None
        return InclusionWitness(
            morphism=phi, x=x, xi=xi, xi_bound_sq=spec.xi_bound_sq, y=y
        )

    def witnesses(self) -> list[tuple[str, InclusionWitness]]:
        return [(ws.name, self.witness(ws)) for ws in self.witness_specs]


def load_scenario(path) -> Scenario:
    """The scenario in the JSON file at `path`; text that is not JSON
    raises `ScenarioError`, naming the decoder's error."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as err:  # JSONDecodeError, or UnicodeDecodeError from the bytes
        raise ScenarioError(f"{type(err).__name__}: {err}") from err
    return scenario_from_json(data)


def scenario_from_json(data) -> Scenario:
    """The scenario the data describes.  Data that its own constructor
    refuses, or that lacks a field, holds a value of the wrong type or
    divides by zero, raises `ScenarioError`, naming that error."""
    try:
        return _scenario_from_json(data)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise ScenarioError(f"{type(err).__name__}: {err}") from err


def _scenario_from_json(data) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(f"a scenario is a JSON object, not {type(data).__name__}")
    if data.get("schema") != SCHEMA:
        raise ScenarioError(f"unsupported scenario schema: {data.get('schema')!r}")
    rings = [_ring_from_json(r) for r in data["rings"]]
    product = ProductRingSpec(tuple(rings))
    counts = tuple(int(c) for c in data["ambient"]["counts"])
    free_ranks = tuple(int(c) for c in data["ambient"]["free_ranks"])
    ambient = AmbientSpec(product, counts)
    space = ModelSpace(ambient, free_ranks)

    params = data["parameters"]
    eps_sq = rat_from_json(params["eps_sq"])
    k0_sq = rat_from_json(params["k0_sq"])
    eta = rat_from_json(params.get("eta", {"num": "1", "den": "4"}))

    gamma_obj = data.get("gamma")
    if gamma_obj is None:
        gamma = empty_generators(space)
    else:
        gpoint = point_from_json(space, gamma_obj)
        gamma = GeneratorSet(gpoint.space, gpoint)

    points = {name: point_from_json(space, obj) for name, obj in data.get("points", {}).items()}
    morphisms = {
        name: morphism_from_json(product, obj) for name, obj in data.get("morphisms", {}).items()
    }
    witness_specs = tuple(
        WitnessSpec(
            name=w["name"],
            morphism=w["morphism"],
            x=w["x"],
            xi=w["xi"],
            xi_bound_sq=rat_from_json(w["xi_bound_sq"]),
            y=w.get("y"),
        )
        for w in data.get("witnesses", [])
    )
    for ws in witness_specs:
        for ref, table in ((ws.morphism, morphisms), (ws.x, points), (ws.xi, points), (ws.y, points)):
            if ref is not None and ref not in table:
                raise ScenarioError(f"witness {ws.name!r} names {ref!r}, which the scenario lacks")

    card = None
    if "variety_card" in data:
        c = data["variety_card"]
        card = VarietyCard(
            ambient_tag=c["ambient_tag"],
            deg_v=rat_from_json(c["deg_v"]),
            dim_d=int(c["dim_d"]),
            cod_v=int(c["cod_v"]),
            deg_ambient=rat_from_json(c["deg_ambient"]),
            ambient_dim=int(c["ambient_dim"]),
        )
    oracle = None
    if "oracle" in data:
        oracle = ConjecturalOracle.from_entries(
            (o["tag"], rat_from_json(o["eta"]), rat_from_json(o["value"]))
            for o in data["oracle"]
        )
    targets = tuple(
        (t["tag"], rat_from_json(t["deg"])) for t in data.get("targets", [])
    )

    return Scenario(
        name=data.get("name", "scenario"),
        seed=int(data.get("seed", 0)),
        budget=int(data.get("budget", 500_000)),
        torsion_budget=int(params.get("torsion_budget", 100_000)),
        product=product,
        ambient=ambient,
        space=space,
        eps_sq=eps_sq,
        k0_sq=k0_sq,
        eta=eta,
        gamma=gamma,
        points=points,
        morphisms=morphisms,
        witness_specs=witness_specs,
        card=card,
        oracle=oracle,
        targets=targets,
    )


def witness_from_json(product: ProductRingSpec, space: ModelSpace, obj) -> InclusionWitness:
    """Rebuild a witness from the report format (inverse of witness_to_json);
    a pair witness's certificates are for the left block of its morphism."""
    morphism = morphism_from_json(product, obj["morphism"])
    certified = morphism
    special = None
    if "special" in obj:
        sd = obj["special"]
        certified = morphism.split_columns(tuple(int(c) for c in sd["left_counts"]))[0]
        special = SpecialCertificate(
            morphism=morphism,
            weighted=_weighted_from_json(certified, sd["weighted"]),
            slack_sq=rat_from_json(sd["slack_sq"]),
        )
    group = None
    if "group" in obj:
        group = (int(obj["group"]["N"]), morphism_from_json(product, obj["group"]["G"]))
    return InclusionWitness(
        morphism=morphism,
        x=point_from_json(space, obj["x"]),
        xi=point_from_json(space, obj["xi"]),
        xi_bound_sq=rat_from_json(obj["xi_bound_sq"]),
        p=point_from_json(space, obj["p"]) if "p" in obj else None,
        y=point_from_json(space, obj["y"]) if "y" in obj else None,
        weighted=_weighted_from_json(certified, obj.get("weighted")),
        special=special,
        group_data=group,
    )


def _weighted_from_json(morphism, wd):
    if wd is None:
        return None
    return WeightedCertificate(
        morphism=morphism,
        scale=int(wd["scale"]),
        columns=tuple(tuple(int(c) for c in col) for col in wd["columns"]),
        slack_sq=rat_from_json(wd["slack_sq"]),
    )


def witness_to_json(w: InclusionWitness) -> dict:
    out = {
        "morphism": morphism_to_json(w.morphism),
        "x": point_to_json(w.x),
        "xi": point_to_json(w.xi),
        "xi_bound_sq": rat_to_json(w.xi_bound_sq),
    }
    if w.p is not None:
        out["p"] = point_to_json(w.p)
    if w.y is not None:
        out["y"] = point_to_json(w.y)
    if w.group_data is not None:
        out["group"] = {"N": w.group_data[0], "G": morphism_to_json(w.group_data[1])}
    if w.weighted is not None:
        out["weighted"] = _weighted_to_json(w.weighted)
    if w.special is not None:
        out["special"] = {
            "left_counts": list(w.special.left_counts),
            "weighted": _weighted_to_json(w.special.weighted),
            "slack_sq": rat_to_json(w.special.slack_sq),
        }
    return out


def _weighted_to_json(cert) -> dict:
    return {
        "scale": cert.scale,
        "columns": [list(c) for c in cert.columns],
        "slack_sq": rat_to_json(cert.slack_sq),
    }


def dump_report(report: dict) -> str:
    """The report as JSON text: keys sorted, one space of indent per level,
    ASCII only, and a newline at the end.  Only dicts with str keys, lists,
    str, int, bool and None are written; anything else, a float above all,
    raises TypeError."""
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append `value` to out; `newline` ends a line and indents the next one
    to the value's own level."""
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif type(value) is int:
        out.append(str(value))
    elif type(value) is str:
        out.append(encode_basestring_ascii(value))
    elif type(value) is list:
        inner = newline + " "
        out.append("[")
        for i, item in enumerate(value):
            out.append("," + inner if i else inner)
            _write(item, inner, out)
        out.append(newline + "]" if value else "]")
    elif type(value) is dict:
        inner = newline + " "
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a str")
            out.append(("," + inner if i else inner) + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out)
        out.append(newline + "}" if value else "}")
    else:
        raise TypeError(f"a report cannot hold {type(value).__name__} {value!r}")
