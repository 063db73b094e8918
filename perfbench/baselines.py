#!/usr/bin/env python3
"""Re-measure the figures that ROADMAP item 1 quotes, with the benchmark's spans.

    python3 perfbench/baselines.py            # about 3.5 minutes on 2 cores

Runs the gate-5 (c05) verification set exactly as tests/test_acceptance.py
draws it (201 configs, 100 trials, channel seed 7) untraced and then traced,
and times the other quoted calls once each. Prints a table; writes nothing.
"""

from __future__ import annotations

import sys
import time

from run import import_package  # also pins BLAS to one thread, as run.py does

if not import_package():
    sys.exit("error: no blindalign package under src/")

import numpy as np

from blindalign import (build_schedule, closed_form_solution, exact_count, f_low_3,
                        group_profile, monte_carlo_p, validate_schedule,
                        verify_schedule_end_to_end)
from blindalign.pattern import ChannelConfig
from spans import NullTracer, Tracer, patched
from workloads import config_with_n


def random_feasible_config(rng, K: int, n_max: int) -> ChannelConfig:
    """The gate-5 sampler: N uniform over the sizes that admit a feasible config."""
    while True:
        N = int(rng.integers(K, n_max + 1))
        if K * -(-N // (K + 1)) <= N:
            return config_with_n(rng, K, N)


def c05_configs() -> list[ChannelConfig]:
    rng = np.random.default_rng(509)
    configs = [ChannelConfig(4, (0, 1, 2))]
    while len(configs) < 201:
        configs.append(random_feasible_config(rng, int(rng.integers(2, 6)), 60))
    return configs


def c05_pass(tr, configs) -> None:
    for i, cfg in enumerate(configs):
        tr.item = i
        lam = tr.call("diophantine.closed_form_solution", closed_form_solution,
                      group_profile(cfg))
        sched = tr.call("scheduler.build_schedule", build_schedule, cfg, lam)
        if not tr.call("scheduler.validate_schedule", validate_schedule, sched).passed:
            raise SystemExit(f"invalid schedule for {cfg}")
        s = tr.call("signaling.verify_schedule_end_to_end", verify_schedule_end_to_end,
                    cfg, sched, seed=7, trials=100)
        if not (s.max_residual < 1e-9 and s.min_singular > 1e-9):
            raise SystemExit(f"verification failed for {cfg}")


def timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def main() -> None:
    configs = c05_configs()
    print(f"c05 set: {len(configs)} configs, {sum(c.N for c in configs)} threads, 100 trials")
    print(f"  untraced wall: {timed(c05_pass, NullTracer(), configs):.2f} s")
    tracer = Tracer()
    with patched(tracer):
        wall = timed(c05_pass, tracer, configs)
    print(f"  traced wall:   {wall:.2f} s")
    for name, (calls, self_s, total_s) in sorted(tracer.summary().items()):
        print(f"  {name:40s} calls {calls:>7} self {self_s:7.3f} s "
              f"({100 * self_s / wall:4.1f} %) total {total_s:7.3f} s")
    for name, n in sorted(tracer.counts.items()):
        print(f"  {name} = {n}")

    scheds = [build_schedule(c, closed_form_solution(group_profile(c))) for c in configs]
    print(f"  validate_schedule once per schedule, untraced: "
          f"{timed(lambda: [validate_schedule(s) for s in scheds]):.2f} s")

    cfg = ChannelConfig(6000, (0, 1500, 3000, 4500))
    sched = build_schedule(cfg, closed_form_solution(group_profile(cfg)))
    print(f"verify_schedule_end_to_end N=6000 K=4 10 trials: "
          f"{timed(verify_schedule_end_to_end, cfg, sched, seed=0, trials=10):.2f} s; "
          f"validate_schedule alone {timed(validate_schedule, sched):.2f} s")
    for args in ((60, 5, 2), (16, 7, 3)):
        print(f"exact_count{args}: {timed(exact_count, *args):.1f} s")
    print(f"monte_carlo_p(60,11,3,1e5): "
          f"{timed(monte_carlo_p, 60, 11, 3, trials=100_000, seed=0):.2f} s")
    print(f"f_low_3(400,11): {timed(f_low_3, 400, 11):.4f} s")


if __name__ == "__main__":
    main()
