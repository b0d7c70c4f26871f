#!/usr/bin/env python3
"""Build the bundled scenario pack.

Each scenario is constructed through the library itself, and the whole
pipeline, which builds and so verifies every witness, is run once before
the JSON is written, so the shipped files are known-good.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from endoapprox.model import AmbientSpec, ModelSpace  # noqa: E402
from endoapprox.pipeline import run_pipeline  # noqa: E402
from endoapprox.rings import (  # noqa: E402
    ProductRingSpec,
    eisenstein_ring,
    gaussian_ring,
    integer_ring,
    quaternion_ring,
)
from endoapprox.scenario import (  # noqa: E402
    SCHEMA,
    point_to_json,
    rat_to_json,
    ring_to_json,
    scenario_from_json,
)

OUT = Path(__file__).resolve().parents[1] / "src" / "endoapprox" / "scenarios"


def base(name, rings, counts, free_ranks, seed, eps_sq, k0_sq, eta=F(1, 4)):
    return {
        "schema": SCHEMA,
        "name": name,
        "seed": seed,
        "budget": 500000,
        "rings": [ring_to_json(r) for r in rings],
        "ambient": {"counts": list(counts), "free_ranks": list(free_ranks)},
        "parameters": {
            "eps_sq": rat_to_json(eps_sq),
            "k0_sq": rat_to_json(k0_sq),
            "eta": rat_to_json(eta),
            "torsion_budget": 100000,
        },
        "points": {},
        "morphisms": {},
        "witnesses": [],
    }


def card(doc, tag, deg_v, dim_d, cod_v, deg_a, ambient_dim, oracle, targets):
    doc["variety_card"] = {
        "ambient_tag": tag,
        "deg_v": rat_to_json(deg_v),
        "dim_d": dim_d,
        "cod_v": cod_v,
        "deg_ambient": rat_to_json(deg_a),
        "ambient_dim": ambient_dim,
    }
    doc["oracle"] = [
        {"tag": t, "eta": rat_to_json(e), "value": rat_to_json(v)} for t, e, v in oracle
    ]
    doc["targets"] = [{"tag": t, "deg": rat_to_json(d)} for t, d in targets]


def morphism_json(source, target, blocks):
    return {
        "source": list(source),
        "target": list(target),
        "blocks": [
            [[[rat_to_json(F(x)) for x in entry] for entry in row] for row in block]
            for block in blocks
        ],
    }


def pt(space, counts, slot_data):
    """slot_data: per factor, list of (torsion list, free list-of-coeff-lists)."""
    sp = space.with_counts(tuple(counts))
    slots = []
    for i, fac in enumerate(slot_data):
        slots.append(
            [sp.slot(i, torsion=t, free=fr) for (t, fr) in fac]
        )
    return sp.point(slots)


def scenario_z_basic():
    z = integer_ring()
    product = ProductRingSpec((z,))
    space = ModelSpace(AmbientSpec(product, (2,)), (1,))
    doc = base("z-basic", [z], (2,), (1,), seed=1101, eps_sq=F(1), k0_sq=F(25))
    doc["gamma"] = point_to_json(pt(space, (1,), [[([], [[1]])]]))
    doc["morphisms"] = {
        "phi_a": morphism_json((2,), (1,), [[[[2], [5]]]]),
        "phi_b": morphism_json((2,), (1,), [[[[3], [4]]]]),
        "psi_c": morphism_json((2,), (2,), [[[[1], [1]], [[0], [2]]]]),
    }
    doc["points"] = {
        "xa": point_to_json(pt(space, (2,), [[([], [[-1]]), ([], [[0]])]])),
        "ya": point_to_json(pt(space, (2,), [[([], [[1]]), ([], [[0]])]])),
        "xia": point_to_json(pt(space, (2,), [[([F(1, 2), 0], []), ([], [])]])),
        "xb": point_to_json(pt(space, (2,), [[([], [[-4]]), ([], [[2]])]])),
        "yb": point_to_json(pt(space, (2,), [[([], [[0]]), ([], [[1]])]])),
        "zero_g": point_to_json(pt(space, (2,), [[([], []), ([], [])]])),
        "xc": point_to_json(pt(space, (2,), [[([], [[-2]]), ([], [[0]])]])),
        "yc": point_to_json(pt(space, (2,), [[([], [[2]]), ([], [[0]])]])),
        "xic": point_to_json(
            pt(space, (2,), [[([F(1, 2), 0], []), ([F(1, 2), 0], [])]])
        ),
    }
    doc["witnesses"] = [
        {"name": "w_a", "morphism": "phi_a", "x": "xa", "y": "ya", "xi": "xia",
         "xi_bound_sq": rat_to_json(F(0))},
        {"name": "w_b", "morphism": "phi_b", "x": "xb", "y": "yb", "xi": "zero_g",
         "xi_bound_sq": rat_to_json(F(0))},
        {"name": "w_c", "morphism": "psi_c", "x": "xc", "y": "yc", "xi": "xic",
         "xi_bound_sq": rat_to_json(F(0))},
    ]
    card(
        doc, "Ag", F(1), 0, 2, F(1), 2,
        oracle=[("Ag", F(1, 8), F(1)), ("Ar1", F(1, 8), F(1)), ("Ar2", F(1, 8), F(1))],
        targets=[("Ar1", F(1)), ("Ar2", F(1))],
    )
    return doc


def scenario_z_approx():
    z = integer_ring()
    product = ProductRingSpec((z,))
    space = ModelSpace(AmbientSpec(product, (2,)), (1,))
    doc = base("z-approximating", [z], (2,), (1,), seed=1102, eps_sq=F(25), k0_sq=F(49))
    doc["gamma"] = point_to_json(pt(space, (1,), [[([], [[1]])]]))
    doc["morphisms"] = {
        "phi_big": morphism_json((2,), (1,), [[[[37], [61]]]]),
    }
    doc["points"] = {
        "x_big": point_to_json(pt(space, (2,), [[([], [[-7]]), ([], [[0]])]])),
        "y_big": point_to_json(pt(space, (2,), [[([], [[7]]), ([], [[0]])]])),
        "zero_g": point_to_json(pt(space, (2,), [[([], []), ([], [])]])),
    }
    doc["witnesses"] = [
        {"name": "w_big", "morphism": "phi_big", "x": "x_big", "y": "y_big",
         "xi": "zero_g", "xi_bound_sq": rat_to_json(F(0))},
    ]
    card(
        doc, "Ag", F(1), 0, 2, F(1), 2,
        oracle=[("Ag", F(1, 8), F(1)), ("Ar1", F(1, 8), F(1))],
        targets=[("Ar1", F(1))],
    )
    return doc


def scenario_gaussian():
    zi = gaussian_ring()
    product = ProductRingSpec((zi,))
    space = ModelSpace(AmbientSpec(product, (2,)), (1,))
    doc = base("gaussian", [zi], (2,), (1,), seed=1103, eps_sq=F(1), k0_sq=F(9))
    doc["gamma"] = point_to_json(pt(space, (1,), [[([], [[1, 0]])]]))
    doc["morphisms"] = {
        "psi_cm": morphism_json((2,), (1,), [[[[1, 1], [0, 2]]]]),
    }
    doc["points"] = {
        "x_cm": point_to_json(pt(space, (2,), [[([], [[0, -2]]), ([], [[0, 1]])]])),
        "y_cm": point_to_json(pt(space, (2,), [[([], [[1, 1]]), ([], [])]])),
        "xi_cm": point_to_json(pt(space, (2,), [[([F(1, 2), F(1, 2)], []), ([], [])]])),
    }
    doc["witnesses"] = [
        {"name": "w_cm", "morphism": "psi_cm", "x": "x_cm", "y": "y_cm",
         "xi": "xi_cm", "xi_bound_sq": rat_to_json(F(0))},
    ]
    card(
        doc, "Ag", F(1), 0, 2, F(1), 2,
        oracle=[("Ag", F(1, 8), F(1)), ("Ar1", F(1, 8), F(1))],
        targets=[("Ar1", F(1))],
    )
    return doc


def scenario_eisenstein():
    zw = eisenstein_ring()
    product = ProductRingSpec((zw,))
    space = ModelSpace(AmbientSpec(product, (1,)), (1,))
    doc = base("eisenstein", [zw], (1,), (1,), seed=1104, eps_sq=F(1), k0_sq=F(4))
    doc["gamma"] = point_to_json(pt(space, (1,), [[([], [[1, 0]])]]))
    doc["morphisms"] = {
        "psi_w": morphism_json((1,), (1,), [[[[2, 1]]]]),
    }
    doc["points"] = {
        "x_w": point_to_json(pt(space, (1,), [[([], [[0, -1]])]])),
        "y_w": point_to_json(pt(space, (1,), [[([], [[0, 1]])]])),
        "xi_w": point_to_json(pt(space, (1,), [[([F(1, 3), F(2, 3)], [])]])),
    }
    doc["witnesses"] = [
        {"name": "w_w", "morphism": "psi_w", "x": "x_w", "y": "y_w",
         "xi": "xi_w", "xi_bound_sq": rat_to_json(F(0))},
    ]
    card(
        doc, "Ag", F(1), 0, 1, F(1), 1,
        oracle=[("Ag", F(1, 8), F(1)), ("Ar1", F(1, 8), F(1))],
        targets=[("Ar1", F(1))],
    )
    return doc


def scenario_quaternion():
    hq = quaternion_ring()
    product = ProductRingSpec((hq,))
    space = ModelSpace(AmbientSpec(product, (1,)), (1,))
    doc = base("quaternion", [hq], (1,), (1,), seed=1105, eps_sq=F(1), k0_sq=F(4))
    doc["gamma"] = None
    doc["morphisms"] = {
        "psi_h": morphism_json((1,), (1,), [[[[1, 1, 1, 1]]]]),
    }
    doc["points"] = {
        "x_h": point_to_json(pt(space, (1,), [[([], [])]])),
        "xi_h": point_to_json(pt(space, (1,), [[([F(1, 2), F(1, 2), 0, 0], [])]])),
    }
    doc["witnesses"] = [
        {"name": "w_h", "morphism": "psi_h", "x": "x_h", "xi": "xi_h",
         "xi_bound_sq": rat_to_json(F(0))},
    ]
    card(
        doc, "Ag", F(1), 0, 2, F(1), 2,
        oracle=[("Ag", F(1, 8), F(1)), ("Ar1", F(1, 8), F(1))],
        targets=[("Ar1", F(1))],
    )
    del doc["gamma"]
    return doc


def scenario_two_factor():
    z1 = integer_ring("Z1")
    z2 = integer_ring("Z2")
    product = ProductRingSpec((z1, z2))
    space = ModelSpace(AmbientSpec(product, (1, 1)), (1, 1))
    doc = base("two-factor", [z1, z2], (1, 1), (1, 1), seed=1106, eps_sq=F(1), k0_sq=F(4))
    doc["gamma"] = point_to_json(pt(space, (1, 0), [[([], [[1]])], []]))
    doc["morphisms"] = {
        "psi_2f": morphism_json((1, 1), (1, 1), [[[[3]]], [[[2]]]]),
    }
    doc["points"] = {
        "x_2f": point_to_json(pt(space, (1, 1), [[([], [[-2]])], [([], [[0]])]])),
        "y_2f": point_to_json(pt(space, (1, 1), [[([], [[2]])], [([], [])]])),
        "xi_2f": point_to_json(
            pt(space, (1, 1), [[([F(1, 3), 0], [])], [([F(1, 2), 0], [])]])
        ),
    }
    doc["witnesses"] = [
        {"name": "w_2f", "morphism": "psi_2f", "x": "x_2f", "y": "y_2f",
         "xi": "xi_2f", "xi_bound_sq": rat_to_json(F(0))},
    ]
    card(
        doc, "Ag", F(1), 0, 2, F(1), 2,
        oracle=[("Ag", F(1, 8), F(1)), ("Ar11", F(1, 8), F(1))],
        targets=[("Ar11", F(1))],
    )
    return doc


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    builders = [
        scenario_z_basic,
        scenario_z_approx,
        scenario_gaussian,
        scenario_eisenstein,
        scenario_quaternion,
        scenario_two_factor,
    ]
    all_ok = True
    for build in builders:
        doc = build()
        report = run_pipeline(scenario_from_json(doc))
        status = "ok" if report["ok"] else "FAILED"
        if not report["ok"]:
            all_ok = False
            for row in report["witnesses"]:
                if not row.get("ok"):
                    print(f"  {row['witness']}: {row.get('diagnostic')}")
        path = OUT / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"{doc['name']}: {status} -> {path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
