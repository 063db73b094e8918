"""The demo scripts run against the current API, exit 0 and print the
pinned bytes: every demo is deterministic, so a changed sha256 of its stdout
is a changed output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = {
    "01_blocks_and_patterns.py":
        "3a672bb507c4922aeb31617ba9193f4d6a7a661d2212e11801d4e44aa547f7f8",
    "02_feasibility_region.py":
        "b337984b90c9304a0bb22fe0f31aac54b0913e0f414125f7f51710e150b66e75",
    "03_decomposition_certificates.py":
        "1b2cdc36d0f6f2260bcbb75cb89740e004a3b45c9322d74e3760da526399a19b",
    "04_schedule_verification.py":
        "e49f1715ea28a7bbad067ce0dcefd7732095d8a2734292a663bcd479905fefd0",
    "05_subset_probability.py":
        "2d3da18a8fe28853fb16b436a27a946418f141ebe683822a8512410a7ff2296d",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[demo]
