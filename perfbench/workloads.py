"""The four workloads. Each builds its inputs from the seed, runs one op
(a fixed, complete pass over those inputs) and checks the op's outputs.

Program functions are always reached through their module at call time, so
the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from exactcheck import (
    CheckError,
    SurdTargets,
    check_ok_report,
    check_pipeline_report,
    check_rational_answer,
    check_reduce_report,
    check_verify_report,
    common_denominator,
    psd_by_ldl,
    rational_min_denominator,
    shifted,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "endoapprox" / "scenarios"
# named, so a scenario added to the pack later does not change the work
SCENARIOS = ("eisenstein", "gaussian", "quaternion", "two-factor", "z-approximating", "z-basic")
CHAIN_COMMANDS = ("approx", "reduce", "pipeline", "thresholds")


def _scenarios(rng: random.Random) -> list[str]:
    paths = [str(SCENARIO_DIR / f"{name}.json") for name in SCENARIOS]
    rng.shuffle(paths)
    return paths


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from endoapprox import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    """build() makes the inputs; op() does one pass and returns
    (failed, outputs); digest() and check() judge the outputs.
    `reference_s` is the time build() spent in the benchmark's own
    reference code, which set-up time leaves out."""

    def __init__(self, seed: int):
        self.seed = seed
        self.reference_s = 0.0

    def digest(self, outputs) -> str:
        return hashlib.sha256(repr(outputs).encode()).hexdigest()


# -- chain ---------------------------------------------------------------


class Chain(Workload):
    """approx, reduce, pipeline and thresholds on each bundled scenario,
    in-process through the command line entry point."""

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.paths = _scenarios(rng)

    def op(self):
        out = []
        failed = False
        for path in self.paths:
            for cmd in CHAIN_COMMANDS:
                rc, text = _run_cli([cmd, "--scenario", path, "--seed", str(self.seed)])
                failed = failed or rc != 0
                out.append((Path(path).name, cmd, rc, text))
        return failed, out

    def check(self, outputs) -> None:
        for name, cmd, rc, text in outputs:
            rep = json.loads(text)
            if cmd == "pipeline":
                check_pipeline_report(rep)
            elif cmd == "reduce":
                check_reduce_report(rep)
            else:
                check_ok_report(rep)


# -- verify --------------------------------------------------------------


class Verify(Workload):
    """The property suites on each bundled scenario, under the scenario's
    own suite seed (the command's default); the seed orders the scenarios.
    Suite seeds drawn from the benchmark seed change the suites' work by up
    to 7% from seed to seed, which would swamp the bound."""

    def build(self) -> None:
        self.paths = _scenarios(random.Random(self.seed))

    def op(self):
        out = []
        failed = False
        for path in self.paths:
            rc, text = _run_cli(["verify", "--scenario", path])
            failed = failed or rc != 0
            out.append((Path(path).name, rc, text))
        return failed, out

    def check(self, outputs) -> None:
        for name, rc, text in outputs:
            check_verify_report(json.loads(text))


# -- dirichlet -----------------------------------------------------------

# (shape, kind, ring, q, coordinate count, candidate budget per op). The
# budgets fix how many denominators one op scans in each shape; targets are
# drawn from the seed until the budget is met to within LAST_SLACK.
DIRICHLET_SHAPES = (
    ("few-coords", "scan", None, 240, 2, 48_000),
    ("many-coords", "scan", None, 4, 7, 4_800),
    ("weighted-Z", "weighted", "Z", 3000, 1, 4_800),
    ("weighted-Zi", "weighted", "Zi", 90, 1, 9_600),
    ("weighted-Zw", "weighted", "Zw", 90, 1, 9_600),
    ("weighted-Hq", "weighted", "Hq", 11, 1, 4_800),
    ("vector-Z", "vector", "Z", 22, 3, 3_200),
    ("vector-Zi", "vector", "Zi", 11, 2, 2_400),
    ("vector-Zw", "vector", "Zw", 11, 2, 2_400),
    ("vector-Hq", "vector", "Hq", 11, 1, 2_400),
)
MIN_SCAN = 50        # targets answered in fewer candidates are redrawn
LAST_SLACK = 60      # a shape's batch ends once fewer candidates remain
BIG_BUDGET = 10**40  # the program's own scan budget never binds here


class Dirichlet(Workload):
    """A seeded batch through dirichlet_approx, approx_weighted (its
    approximated branch) and approx_vector over the four reference rings."""

    def build(self) -> None:
        from endoapprox import approx, morphisms, rings

        rng = random.Random(self.seed)
        ref = rings.reference_rings()
        self.ledgers = {}
        self.items = []  # (shape, kind, args, independent target)
        for shape, kind, tag, q, n, budget in DIRICHLET_SHAPES:
            spec = ref[tag] if tag else None
            if spec is not None and tag not in self.ledgers:
                prod = rings.ProductRingSpec((spec,))
                self.ledgers[tag] = (prod, approx.derive_ledger(prod))
            left = budget
            while left >= LAST_SLACK:
                if kind == "scan":
                    item = self._scan_target(rng, q, n)
                elif kind == "weighted":
                    item = self._weighted_target(rng, spec, q, morphisms)
                else:
                    item = self._vector_target(rng, spec, q, n)
                b = self._min_b(item, left)
                if b is None or b < MIN_SCAN:
                    continue
                left -= b
                self.items.append((shape,) + item)

    @staticmethod
    def _scan_target(rng, q, n):
        alpha = [Fraction(rng.randint(-10**6, 10**6), rng.randint(10**4, 10**5)) for _ in range(n)]
        return "scan", (alpha, q), ("rational", alpha, q)

    def _weighted_target(self, rng, spec, q, morphisms):
        prod, ledger = self.ledgers[spec.tag]
        t = spec.rank
        m = t * 2  # the default exponent for a (1 x 2) morphism (a | L)
        a = rng.randint(q**m, 2 * q**m)
        entry = spec.element([rng.randint(1 - a, a - 1) for _ in range(t)])
        phi = morphisms.BlockMorphism(prod, (2,), (1,), [[[spec.integer(a), entry]]])
        cert = morphisms.is_weighted(phi)
        # the program picks the scale column; the other column is L
        scale, col = cert.scale, 1 - cert.columns[0][0]
        other = phi.blocks[0][0][col]
        alpha = list(spec.one().coords) + [Fraction(x, scale) for x in other.coords]
        return "weighted", (phi, cert, q, ledger, col), ("rational", alpha, q)

    def _vector_target(self, rng, spec, q, n):
        prod, ledger = self.ledgers[spec.tag]
        while True:
            elems = [prod.from_coords([Fraction(rng.randint(-50, 50)) for _ in range(spec.rank)])
                     for _ in range(n)]
            if not all(e.is_zero() for e in elems):
                break
        s = max(e.norm_sq() for e in elems)
        coords = [c for e in elems for c in e.coords()]
        return "vector", (prod, elems, q, ledger), ("surd", coords, s, q)

    def _min_b(self, item, limit):
        """The least denominator, by the benchmark's own scan (not timed
        as set-up)."""
        t0 = time.perf_counter()
        target = item[2]
        if target[0] == "rational":
            nums, den = common_denominator(target[1])
            b = rational_min_denominator(nums, den, target[2], limit)
        else:
            b = SurdTargets(target[1], target[2], target[3]).min_denominator(limit)
        self.reference_s += time.perf_counter() - t0
        return b

    def op(self):
        from endoapprox import approx, dirichlet

        out = []
        for shape, kind, args, _ in self.items:
            if kind == "scan":
                alpha, q = args
                r = dirichlet.dirichlet_approx(alpha, q, budget=BIG_BUDGET)
                out.append((r.denominator, r.numerators, True))
            elif kind == "weighted":
                phi, cert, q, ledger, col = args
                w = approx.approx_weighted(phi, cert, q, ledger, budget=BIG_BUDGET)
                entry = w.morphism.blocks[0][0][col]
                out.append((w.denominator, tuple(int(c) for c in entry.coords), w.approximated))
            else:
                prod, elems, q, ledger = args
                v = approx.approx_vector(prod, elems, q, ledger=ledger, budget=BIG_BUDGET)
                nums = tuple(int(c) for e in v.approximation for c in e.coords())
                out.append((v.denominator, nums, True))
        return False, out

    def check(self, outputs) -> None:
        for (shape, kind, args, target), (b, nums, approximated) in zip(self.items, outputs):
            if not approximated:
                raise CheckError(f"{shape}: target took the identity branch")
            if target[0] == "rational":
                alpha, q = target[1], target[2]
                if kind == "weighted":
                    t = len(alpha) - len(nums)
                    nums = (b,) + (0,) * (t - 1) + tuple(nums)  # identity slot is b*1
                check_rational_answer(alpha, q, b, nums)
            else:
                SurdTargets(target[1], target[2], target[3]).check_answer(b, nums)


# -- generators ----------------------------------------------------------

# (ring, slots, free rank, coordinate bound, points per op)
GENERATOR_SHAPES = (
    ("Z", 2, 2, 300, 4),
    ("Z", 3, 3, 30, 4),
    ("Zi", 2, 2, 10, 4),
    ("Zw", 2, 2, 8, 4),
    ("Hq", 2, 2, 2, 3),
)
K0_SQ = Fraction(10**4)
EPS_SQ = Fraction(1)


class Generators(Workload):
    """point_constants_all and inflate_generators on seeded multi-slot
    generator points over Z, Zi, Zw and Hq."""

    def build(self) -> None:
        from endoapprox import model, morphisms, rings

        rng = random.Random(self.seed)
        ref = rings.reference_rings()
        self.sets = []
        for tag, slots, nu, bound, count in GENERATOR_SHAPES:
            spec = ref[tag]
            prod = rings.ProductRingSpec((spec,))
            space = model.ModelSpace(morphisms.AmbientSpec(prod, (slots,)), (nu,))
            made = 0
            while made < count:
                free = [[[rng.randint(-bound, bound) for _ in range(spec.rank)] for _ in range(nu)]
                        for _ in range(slots)]
                point = space.point([[space.slot(0, free=f) for f in free]])
                try:
                    gamma = model.GeneratorSet(space, point)
                except model.ModelError:
                    continue  # not free: draw again
                self.sets.append((tag, spec, free, gamma))
                made += 1

    def op(self):
        from endoapprox import geomnum

        out = []
        for tag, spec, free, gamma in self.sets:
            consts = geomnum.point_constants_all(gamma.point)
            _, n = geomnum.inflate_generators(gamma, K0_SQ, EPS_SQ)
            out.append((consts.c_sq, consts.gram_lower, n))
        return False, out

    def check(self, outputs) -> None:
        for (tag, spec, free, gamma), (c_sq, lam, n) in zip(self.sets, outputs):
            gram = [[Fraction(x) for x in row] for row in spec.gram]
            mul = spec.mul_table
            t = spec.rank
            # orbit of each slot under the ring basis, as flat rational vectors
            orbit = []
            for slot in free:
                for k in range(t):
                    vec = []
                    for coeff in slot:
                        prod = [0] * t
                        for j, cj in enumerate(coeff):
                            for l in range(t):
                                prod[l] += mul[k][j][l] * cj
                        vec.append(prod)
                    orbit.append(vec)

            def inner(u, v):
                return sum(
                    (Fraction(a[i]) * gram[i][j] * b[j] for a, b in zip(u, v)
                     for i in range(t) for j in range(t)),
                    Fraction(0),
                )

            g = [[inner(u, v) for v in orbit] for u in orbit]
            if lam <= 0 or not psd_by_ldl(shifted(g, lam)):
                raise CheckError(f"{tag}: gram_lower {lam} exceeds the least eigenvalue")
            min_h = min(inner(slot, slot) for slot in free)
            target = 2 * (K0_SQ + EPS_SQ)
            if n < 1 or n & (n - 1):
                raise CheckError(f"{tag}: inflation {n} is not a power of two")
            if Fraction(n * n) * c_sq * min_h < target:
                raise CheckError(f"{tag}: N^2 c min h < 2(K0^2 + eps^2) at N={n}")
            if n > 1 and Fraction((n // 2) ** 2) * c_sq * min_h >= target:
                raise CheckError(f"{tag}: N={n} is not the least power of two")


WORKLOADS = {
    "chain": Chain,
    "verify": Verify,
    "dirichlet": Dirichlet,
    "generators": Generators,
}
