"""tools/fuzz_scenarios.py runs seeded cases through the command-line tool
and prints each failure class once."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fuzz_scenarios.py"


def test_fuzz_scenarios_three_cases():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "1", "--cases", "3", "--cap", "10"],
        capture_output=True, text=True,
    )
    assert done.stdout == "3 cases, 0 failure classes\n", done.stdout
    assert done.returncode == 0 and done.stderr == ""
