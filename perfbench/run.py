#!/usr/bin/env python3
"""blindalign benchmark: run one workload, end to end or traced.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. Prints a readable report, then as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics that BENCHMARK.json lists with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine has two cores shared with other work, and the
# package's own worker count is left at its default of 1.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # schedule files while running, spans of traced runs
SETUP_REPS = 5
PROBE_REF_S = 0.03  # seconds; about the probe's time on this 2-vCPU host when quiet
MIN_PASSES = 2


def import_package() -> bool:
    """Import blindalign from this checkout's src/, and from nowhere else."""
    if not (SRC / "blindalign" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import blindalign
    return Path(blindalign.__file__).resolve().parent == SRC / "blindalign"


def cold_import() -> None:
    """A fresh interpreter's ``import blindalign.cli``, as a CLI user pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import blindalign.cli"], env=env,
                   cwd=ROOT, stdin=subprocess.DEVNULL, check=True)


def host_probe() -> float:
    """Seconds for a fixed piece of integer work like counting's subset test.

    Other tenants' load moves this host's speed by a third within minutes.
    A probe runs before the first and after every timed piece of work, and
    each piece is rescaled by PROBE_REF_S over the mean of the two probes
    around it: to a host on which the probe takes PROBE_REF_S. Of the probes
    tried (this one, and interpreter loops with small complex SVDs), this one
    tracked every workload best.
    """
    import numpy as np

    t0 = time.perf_counter()
    rows = np.random.default_rng(0).integers(0, 60, size=(1 << 15, 14))
    for c in range(12):
        srt = np.sort(rows[:, c:c + 3], axis=1)
        np.minimum(np.diff(srt, axis=1).min(axis=1), 60 - srt[:, -1] + srt[:, 0])
    return time.perf_counter() - t0


class Timer:
    """Wall times of pieces of work, with the host probes around each."""

    def __init__(self):
        self.walls: list[float] = []
        self.probes = [host_probe()]

    def time(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.walls.append(time.perf_counter() - t0)
        self.probes.append(host_probe())
        return out

    def rescaled(self) -> list[float]:
        return [2 * PROBE_REF_S * w / (self.probes[i] + self.probes[i + 1])
                for i, w in enumerate(self.walls)]

    def report(self, what: str) -> None:
        med = statistics.median
        print(f"  {what}: {len(self.walls)} timed, measured median {med(self.walls):.4f} s "
              f"(min {min(self.walls):.4f}, max {max(self.walls):.4f}); median probe "
              f"{med(self.probes) * 1000:.1f} ms; rescaled median {med(self.rescaled()):.4f} s")


def timed_passes(wl, tracer, seconds: float, min_passes: int, first: int = 0):
    """Whole passes until ``seconds`` have gone by: (Timer, results)."""
    timer, results = Timer(), []
    start = time.perf_counter()
    while len(results) < min_passes or time.perf_counter() - start < seconds:
        tracer.pass_no = first + len(results)
        results.append(timer.time(wl.run_pass, tracer))
    return timer, results


def per_pass(total, passes: int):
    return total // passes if total % passes == 0 else total / passes


def layer_values(tracer, untraced: Timer, traced: Timer) -> dict:
    """Per-layer metrics of the traced passes; counts are per pass."""
    busy = sum(traced.walls)
    passes = len(traced.walls)
    u, t = statistics.median(untraced.rescaled()), statistics.median(traced.rescaled())
    values = {
        "trace.untraced_wall_s": u,
        "trace.traced_wall_s": t,
        "trace.overhead_pct": 100 * (t / u - 1),
        "bench.self_pct": 100 * (busy - tracer.top_level_seconds()) / busy,
    }
    for name, (calls, self_s, _) in tracer.summary().items():
        values[f"{name}.calls"] = per_pass(calls, passes)
        values[f"{name}.self_s"] = self_s / passes
        values[f"{name}.self_pct"] = 100 * self_s / busy
    for name, n in tracer.counts.items():
        values[name] = per_pass(n, passes)
    return values


def report_layers(values: dict) -> None:
    prefixes = sorted({k[:-len(".calls")] for k in values if k.endswith(".calls")})
    print(f"  {'span':40s} {'calls/pass':>12s} {'self_s/pass':>12s} {'self %':>8s}")
    for p in prefixes:
        print(f"  {p:40s} {values[p + '.calls']:>12} "
              f"{values[p + '.self_s']:>12.6f} {values[p + '.self_pct']:>8.2f}")
    print(f"  {'bench (glue between spans)':40s} {'':>12s} {'':>12s} "
          f"{values['bench.self_pct']:>8.2f}")
    for k, v in sorted(values.items()):
        if not k.endswith((".calls", ".self_s", ".self_pct")):
            print(f"  {k} = {v}")


def run(args, spec: dict, workdir: Path) -> dict:
    from spans import NullTracer, Tracer, patched
    from workloads import WORKLOADS

    Workload = WORKLOADS[args.workload]

    def set_up():
        cold_import()
        return Workload(args.seed, tiny=args.tiny, workdir=workdir)

    setup = Timer()
    for _ in range(SETUP_REPS):
        wl = setup.time(set_up)
    # lazy set-up inside the package and numpy finishes before timing
    Workload(args.seed, tiny=True, workdir=workdir).run_pass(NullTracer())

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} work/pass={wl.work} ({wl.rate_name[:-len('_per_s')]})")
    if args.trace:
        untraced, results = timed_passes(wl, NullTracer(), args.seconds / 2, 1)
        tracer = Tracer()
        t_start = time.perf_counter()
        with patched(tracer):
            traced, more = timed_passes(wl, tracer, args.seconds / 2, 1, len(results))
        results += more
        values = layer_values(tracer, untraced, traced)
        untraced.report("untraced passes")
        traced.report("traced passes")
        report_layers(values)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path, t_start)
        print(f"  spans written to {path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
        for m in wanted:  # a layer this workload never enters
            values.setdefault(m["name"], 0)
    else:
        passes, results = timed_passes(wl, NullTracer(), args.seconds, MIN_PASSES)
        wall = statistics.median(passes.rescaled())
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup.rescaled()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work_per_s": wl.work / wall,
        }
        passes.report("passes")
        setup.report("set-ups (cold import + input generation)")
        print(f"  work_per_s is {wl.rate_name} here")
        items = sorted(s for r in results for s in r.item_s)
        label = f"{wl.item_name}_p50_s"
        print(f"  {label} = {statistics.median(items):.6f} s (n={len(items)})")
        if len(items) >= 200:  # at least 10 samples beyond the 95th percentile
            p95 = statistics.quantiles(items, n=20)[18]
            print(f"  {wl.item_name}_p95_s = {p95:.6f} s (n={len(items)})")
        wanted = spec["end_to_end"]

    side_attempted, side_failed = wl.side_checks()
    attempted = sum(r.attempted for r in results) + side_attempted
    failed = sum(r.failed for r in results) + side_failed
    for r in results[1:]:  # every pass reproduces the first one exactly
        attempted += 1
        failed += r.outputs != results[0].outputs
    for err in [e for r in results for e in r.errors][:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"  fail_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for m in wanted:
        print(f"  {m['name']} = {values[m['name']]!r} {m['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time; whole passes, at least %d" % MIN_PASSES)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: half the time untraced, half traced per layer")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not import_package():
        print(f"error: no blindalign package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
