"""tools/cli_walltime.py times the command-line tool in both cache modes."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_walltime.py"


def test_cli_walltime_one_run():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--runs", "1", "--commands", "verify", "--scenarios", "z-basic"],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(done.stdout)
    assert report["runs"] == 1
    rows = report["results"]
    assert [(r["mode"], r["command"], r["scenario"]) for r in rows] == [
        ("warm", "verify", "z-basic"), ("nocache", "verify", "z-basic"),
    ]
    assert all(0 < r["min_ms"] == r["median_ms"] for r in rows)
