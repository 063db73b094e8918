"""The benchmark's tracer rebinds module attributes of the package by name.

``perfbench/spans.py`` is loaded from its file, unchanged, and its
``patched`` context is entered and left: a renamed or removed attribute
fails here, in the tier-1 suite, and not only in the benchmark's own tests.
"""

import importlib.util
from pathlib import Path

from blindalign import ChannelConfig, build_schedule, cli, scheduler, signaling

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
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
