"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py      # about half a minute

Every workload runs end to end and traced through run.py; every metric that
BENCHMARK.json names must be printed with its unit, and a deliberately wrong
reference value must show up as a failed check.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402

assert run.import_package()
import workloads  # noqa: E402


def bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def check_metrics(stdout: str, result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_frac = 0/" in stdout
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"  {m['name']} = {got['value']!r} {m['unit']}\n" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    stdout, result = bench(workload, 0)
    check_metrics(stdout, result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_printed_and_measured_somewhere():
    seen = {m["name"]: 0 for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        stdout, result = bench(workload, 1)
        check_metrics(stdout, result, SPEC["per_layer"])
        for name, got in result["metrics"].items():
            seen[name] = seen[name] or got["value"]
    assert [name for name, v in seen.items() if not v] == []


def test_wrong_reference_makes_fail_frac_positive(monkeypatch):
    (N, K, k, ref), *rest = workloads.EXACT_CASES_TINY
    monkeypatch.setattr(workloads, "EXACT_CASES_TINY", [(N, K, k, ref + 1), *rest])
    args = argparse.Namespace(workload="prob_exact", seed=5, seconds=0.1, trace=0,
                              tiny=True)
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "smoke"
    workdir.mkdir(exist_ok=True)
    try:
        result = run.run(args, SPEC, workdir)
    finally:
        shutil.rmtree(workdir)
    assert not result["correct"]
    assert 0 < result["failed"] / result["attempted"] < 1
