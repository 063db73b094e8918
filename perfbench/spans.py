"""Spans around calls into blindalign's layers, recorded from the benchmark.

The workloads route every call they make into the package through a tracer's
``call``. Untraced runs use ``NullTracer``, which only calls the function. A
traced run uses ``Tracer`` inside ``patched(tracer)``, which rebinds the
module attributes through which one layer calls another, so nested calls get
spans too. Nothing under ``src/`` changes; the rebinding is undone on exit.

A span's name is the metric prefix it feeds (``pattern``,
``scheduler.validate_schedule``, ``signaling.svd``, ...); the first dotted
component is the layer.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import time
from array import array
from collections import Counter

import numpy as np

# pattern-module functions the scheduler calls (build and validate)
SCHEDULER_PATTERN_CALLS = ("group_profile", "group_slots", "slot_group",
                           "pattern_matrix", "is_feasible_pattern")


class NullTracer:
    """Calls straight through; used for every timed end-to-end pass."""

    pass_no = 0
    item = 0

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n):
        pass


class Tracer:
    """In-memory spans (name, start, end, parent, pass, item) and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_ = array("i")
        self.item_ = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.pass_no = 0
        self.item = 0

    def call(self, name, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_.append(self.pass_no)
        self.item_.append(self.item)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n):
        self.counts[name] += n

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, self seconds, total seconds).

        Self time is a span's duration minus the durations of its direct
        children; total time is the durations summed.
        """
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = dur.copy()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        np.subtract.at(own, parent[nested], dur[nested])
        ids = np.frombuffer(self.name, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        total_s = np.bincount(ids, weights=dur, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, n in enumerate(self.names)}

    def top_level_seconds(self) -> float:
        """Time covered by spans the benchmark itself opened."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(dur[np.frombuffer(self.parent, dtype=np.int32) < 0].sum())

    def write(self, path, t0: float) -> None:
        """Write gzipped JSON lines: a header, then one span per line.

        A span line is [name id, start, end, parent index, pass, item], times
        in seconds from t0; the parent index is the parent's line number
        after the header, -1 for a span the benchmark opened itself.
        """
        header = {"names": self.names,
                  "columns": ["name", "start", "end", "parent", "pass", "item"],
                  "counts": dict(self.counts)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for n, s, e, p, ps, it in zip(self.name, self.start, self.end,
                                          self.parent, self.pass_, self.item_):
                fh.write(f"[{n},{s - t0:.9f},{e - t0:.9f},{p},{ps},{it}]\n")


class _Proxy:
    """Module stand-in: the given attributes are overridden, the rest forwarded."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Rebind the module attributes through which the layers call each other."""
    from blindalign import cli, scheduler, signaling

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
        return traced

    def svd(a, *args, **kwargs):
        a = np.asarray(a)
        tracer.count("signaling.svd_matrices", math.prod(a.shape[:-2]))
        return tracer.call("signaling.svd", np.linalg.svd, a, *args, **kwargs)

    roundtrip = "scheduler.json_roundtrip"
    swaps = [(scheduler, f, wrap("pattern", getattr(scheduler, f)))
             for f in SCHEDULER_PATTERN_CALLS]
    swaps += [
        (signaling, "validate_schedule",
         wrap("scheduler.validate_schedule", signaling.validate_schedule)),
        (signaling, "np", _Proxy(np, linalg=_Proxy(np.linalg, svd=svd))),
        (cli, "check_config", wrap("feasibility.check_config", cli.check_config)),
        (cli, "closed_form_solution",
         wrap("diophantine.closed_form_solution", cli.closed_form_solution)),
        (cli, "build_schedule", wrap("scheduler.build_schedule", cli.build_schedule)),
        (cli, "validate_schedule",
         wrap("scheduler.validate_schedule", cli.validate_schedule)),
        (cli, "verify_schedule_end_to_end",
         wrap("signaling.verify_schedule_end_to_end", cli.verify_schedule_end_to_end)),
        (cli, "schedule_to_dict", wrap(roundtrip, cli.schedule_to_dict)),
        (cli, "schedule_from_dict", wrap(roundtrip, cli.schedule_from_dict)),
        (cli, "json", _Proxy(json, dumps=wrap(roundtrip, json.dumps),
                             load=wrap(roundtrip, json.load))),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in swaps]
    for mod, attr, new in swaps:
        setattr(mod, attr, new)
    try:
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)
