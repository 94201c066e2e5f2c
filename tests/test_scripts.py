"""Smoke tests: each demo script runs to completion on small arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("grid_sweep.py", ["--sizes", "3,4", "--r", "3", "--out", "g.json", "--csv", "g.csv"],
         "reports: g.json g.csv"),
        ("pipeline_trace_demo.py", ["--copies", "2", "--h", "3", "--r", "3"],
         "exhaustive maximum for comparison: 9"),
        ("sumproduct_demo.py", ["--A", "1,2", "--Q", "0,1"], "|V| = "),
    ],
)
def test_script_runs(tmp_path, script, args, expect):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout
