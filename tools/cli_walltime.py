#!/usr/bin/env python3
"""Wall time of the command-line tool, start-up included.

Runs `python -m endoapprox <command> --scenario <file>` in a fresh
interpreter for each command and bundled scenario, `--runs` times each, and
prints one JSON object with the min and median wall time in ms. Two modes:

- `warm`: bytecode caches kept in a temporary PYTHONPYCACHEPREFIX, filled
  by one untimed run first, as an installed package runs;
- `nocache`: PYTHONDONTWRITEBYTECODE=1 with an empty PYTHONPYCACHEPREFIX,
  so every run compiles the package from source, as the benchmark runs it.

    python3 tools/cli_walltime.py --runs 15
    python3 tools/cli_walltime.py --runs 1 --commands verify --scenarios z-basic

Standard library only; the report goes to standard output and nothing is
written to the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "endoapprox" / "scenarios"
COMMANDS = ("pipeline", "verify", "report")
MODES = ("warm", "nocache")


def _run(command: str, scenario: Path, env: dict) -> float:
    """Wall time in ms of one command in a fresh interpreter; a non-zero exit
    other than 1 (a failed verification) raises."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "endoapprox", command, "--scenario", str(scenario)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    elapsed = (time.perf_counter() - start) * 1000
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{command} {scenario.name} exited {done.returncode}: {done.stderr.decode()}")
    return elapsed


def measure(commands, scenarios, runs: int) -> list[dict]:
    rows = []
    base = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    base.pop("PYTHONDONTWRITEBYTECODE", None)
    for mode in MODES:
        with tempfile.TemporaryDirectory() as prefix:
            env = dict(base, PYTHONPYCACHEPREFIX=prefix)
            if mode == "nocache":
                env["PYTHONDONTWRITEBYTECODE"] = "1"
            for command in commands:
                for scenario in scenarios:
                    if mode == "warm":
                        _run(command, scenario, env)
                    times = [_run(command, scenario, env) for _ in range(runs)]
                    rows.append({
                        "mode": mode,
                        "command": command,
                        "scenario": scenario.stem,
                        "min_ms": round(min(times), 1),
                        "median_ms": round(statistics.median(times), 1),
                    })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="timed runs per command, scenario and mode")
    parser.add_argument("--commands", default=",".join(COMMANDS), help="comma-separated commands")
    parser.add_argument("--scenarios", default=None, help="comma-separated scenario names (default: all bundled)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    names = args.scenarios.split(",") if args.scenarios else sorted(p.stem for p in SCENARIOS.glob("*.json"))
    scenarios = [SCENARIOS / f"{name}.json" for name in names]
    missing = [p.name for p in scenarios if not p.is_file()]
    if missing:
        parser.error(f"no bundled scenario {', '.join(missing)}")
    report = {
        "python": platform.python_version(),
        "runs": args.runs,
        "results": measure(args.commands.split(","), scenarios, args.runs),
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
