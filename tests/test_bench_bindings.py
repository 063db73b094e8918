"""What the benchmark reads of the package by name.

``perfbench/spans.py`` is loaded from its file, unchanged, and its
``patched`` context is entered and left: a renamed or removed attribute
fails here, in the tier-1 suite, and not only in the benchmark's own tests.
The same holds for the ``verify`` output lines that ``perfbench/workloads.py``
parses.
"""

import importlib.util
import sys
from pathlib import Path

from blindalign import ChannelConfig, build_schedule, cli, scheduler, signaling

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_rebinds_and_restores():
    spans = load_spans()
    modules = (cli, scheduler, signaling)
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    with spans.patched(tracer):
        for name in spans.SCHEDULER_PATTERN_CALLS:
            assert getattr(scheduler, name) is not before[1][name]
        assert signaling.validate_schedule is not before[2]["validate_schedule"]
        assert cli.validate_schedule is not before[0]["validate_schedule"]
        cfg = ChannelConfig(4, (0, 1, 2))
        sched = build_schedule(cfg, (0, 0, 1) * 4)
        assert signaling.verify_schedule_end_to_end(cfg, sched, seed=0, trials=1).passed
    assert {"scheduler.validate_schedule", "pattern", "signaling.svd"} <= set(tracer.summary())
    assert [dict(vars(m)) for m in modules] == before


def test_verify_output_matches_benchmark_lines(tmp_path, capsys, monkeypatch):
    # workloads imports spans by its bare name, and its dataclasses need the
    # module registered while it loads
    monkeypatch.setitem(sys.modules, "spans", load_spans())
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)

    path = tmp_path / "sched.json"
    assert cli.main(["decompose", "--N", "60", "--offsets", "0,15,30,45",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--schedule", str(path), "--seed", "1", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    m = workloads._VERIFY_LINES.match(out)
    assert m is not None, out
    assert (m["verdict"], m["tuples"], m["trials"]) == ("PASS", "60", "2")
    # the lines added after the parsed ones
    lines = out.splitlines()
    assert lines[4:6] == ["symbols per slot: 8/5 (1.6)", "distinct threads=4"]
    assert lines[6].startswith("worst residual at thread ")
    assert lines[7].startswith("worst singular value at thread ")
    assert len(lines) == 8
