"""The demos build problems by hand, so a change to the problem's contract
must keep them running.  Demo 04 sweeps a refinement study and is left
out for its run time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["01_worst_case_function.py", "02_function_generation_loop.py", "03_battery_scheduling.py"],
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
