"""Smoke test: the demo scripts run against the current API and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_blocks_and_patterns.py",
    "02_feasibility_region.py",
    "03_decomposition_certificates.py",
    "04_schedule_verification.py",
    "05_subset_probability.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
