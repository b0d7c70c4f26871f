#!/usr/bin/env python3
"""Seeded fuzzing of scenario files through the command-line tool.

Each case copies a bundled scenario, sets one leaf chosen at random (a
rational or an integer) to an extreme or degenerate value, and runs one
command on the copy in a fresh interpreter, in a quarter of the cases with
`--budget 1`. A case passes when the command exits 0 or 1 within the cap
with a report on standard output or one line naming its error on standard
error. A traceback or a timeout fails it.
Each failure class (the exception and where it was raised, or a timeout
and the leaf it followed) is printed once, with the first case that
caused it; the last line counts cases and classes.

    python3 tools/fuzz_scenarios.py --seed 1 --cases 300 --cap 20

Standard library only. Scenario copies go to a temporary directory; the
child's address space is capped at 1 GiB. Exit status 1 when a class was
found.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACK = ROOT / "src" / "endoapprox" / "scenarios"
COMMANDS = ("approx", "reduce", "pipeline", "verify", "thresholds", "report")
RATIONALS = ({"num": "0", "den": "1"}, {"num": "-3", "den": "1"},
             {"num": str(10**15 + 1), "den": "7"}, {"num": "1", "den": "3"})
INTEGERS = (0, -1, 10**9, 3, 64, 65)


def leaves(node, path=()):
    """(path, is_rational) for every rational and integer leaf of the data."""
    if isinstance(node, dict) and set(node) == {"num", "den"}:
        yield path, True
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    elif type(node) is int:
        yield path, False


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_case(path: Path, argv: list[str], cap: float) -> str | None:
    """The failure class of one command run, or None if it passed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    try:
        done = subprocess.run([sys.executable, "-m", "endoapprox", *argv, "--scenario", str(path)],
                              capture_output=True, text=True, timeout=cap, env=env,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    named = re.fullmatch(r"\w+: [^\n]*\n", done.stderr)  # one line naming the error
    if done.returncode in (0, 1) and (done.stdout.startswith("{") or named):
        return None
    frames = re.findall(r'File "([^"]+)", line (\d+)', done.stderr)
    where = f" at {Path(frames[-1][0]).name}:{frames[-1][1]}" if frames else ""
    last = (done.stderr.strip().splitlines() or [f"exit {done.returncode}"])[-1]
    return last.split(":")[0] + where


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=100)
    parser.add_argument("--cap", type=float, default=20.0, help="seconds a case may take")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    pack = sorted(PACK.glob("*.json"))
    found: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in range(args.cases):
            source = rng.choice(pack)
            data = json.loads(source.read_text())
            path, is_rational = rng.choice(list(leaves(data)))
            value = rng.choice(RATIONALS if is_rational else INTEGERS)
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            command = [rng.choice(COMMANDS)] + (["--budget", "1"] if rng.random() < 0.25 else [])
            copy = Path(tmp) / f"case-{case}.json"
            copy.write_text(json.dumps(data))
            failure = run_case(copy, command, args.cap)
            if failure == "timeout":
                failure = "timeout after " + "".join("[]" if type(k) is int else f".{k}" for k in path)
            if failure and failure not in found:
                found[failure] = f"case {case}: {source.name}, {path} = {value}, {' '.join(command)}"
                print(f"FAIL {failure}\n  first: {found[failure]}", flush=True)
    print(f"{args.cases} cases, {len(found)} failure classes")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
