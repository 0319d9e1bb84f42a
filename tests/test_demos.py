"""Every demo script runs to completion in a fresh interpreter and prints its golden output.

The golden files in ``tests/golden`` are the demos' stdout, byte for byte;
they read the same under different ``PYTHONHASHSEED`` values, so a change
to them is a change in what a demo computes or prints.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONHASHSEED": "7"}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
