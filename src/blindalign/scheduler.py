"""Turn a decomposition certificate into a concrete slot schedule and check it.

One period spans (K+1)*N slots / K(K+1) groups. Each super-symbol thread
takes one slot from each of K+1 consecutive groups; ``lam[g]`` threads start
at group g. Threads opened near the end of the period wrap: their trailing
slots carry indices past the period and are validated modulo the period.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .diophantine import verify_solution
from .pattern import (
    ChannelConfig,
    _group_starts,
    group_profile,
    group_slots, slot_group, pattern_matrix,  # unused here; the benchmark traces them
    slot_map,
    is_feasible_pattern,
)

__all__ = [
    "Schedule",
    "build_schedule",
    "ValidationReport",
    "validate_schedule",
    "schedule_to_dict",
    "schedule_json",
    "schedule_from_dict",
]


@dataclass(frozen=True, eq=False)
class Schedule:
    """Certificate ``lam`` and T threads: thread t takes the slots ``slots[t]``, one in
    each of K+1 consecutive groups from long group ``start_groups[t]``. Shapes (T, K+1)
    and (T,); int64, or Python integers where a document's values do not fit int64.
    It owns read-only copies of its arrays, so its validation report stays valid."""

    cfg: ChannelConfig
    lam: tuple[int, ...]
    start_groups: np.ndarray
    slots: np.ndarray

    def __post_init__(self):
        g, S = np.shape(self.start_groups), np.shape(self.slots)
        if len(g) != 1 or S != (g[0], self.cfg.K + 1):
            raise ValueError(f"start_groups of shape {g} and slots of shape {S} do not "
                             f"match: expected (T,) and (T, K+1) = (T, {self.cfg.K + 1})")
        object.__setattr__(self, "lam", tuple(self.lam))
        for name in ("start_groups", "slots"):
            object.__setattr__(self, name, owned := np.array(getattr(self, name)))
            owned.flags.writeable = False

    @property
    def period(self) -> int:
        return (self.cfg.K + 1) * self.cfg.N

    _report = functools.cached_property(lambda self: _validate(self))  # see validate_schedule

    @functools.cached_property
    def _map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The slots (Python integers where int64 could overflow), groups, labels."""
        S, lo, hi = self.slots, int(self.slots.min(initial=0)), int(self.slots.max(initial=0))
        if (self.cfg.K + 1) * (max(-lo, hi) + self.cfg.N) >= 2**62:
            S = S.astype(object)
        return (S, *slot_map(self.cfg, S))


def build_schedule(cfg: ChannelConfig, lam) -> Schedule:
    """Every thread's slots in closed form, from prefix sums of ``lam``.

    Thread (g, c) is the c-th of the ``lam[g]`` threads starting at group g.
    Long group G hands its slots, in increasing order, to the threads that
    started at groups G-K..G (modulo K(K+1)), earliest start group first,
    so the thread's slot in group g+d is the group's first slot plus the
    threads of groups g+d-K..g-1 plus c. The window equations make every
    group's count its size. Threads whose start group lies within K of the
    period end take their trailing slots in long groups K(K+1)..K(K+1)+K-1,
    groups 0..K-1 shifted by one period, which is how the infinite-horizon
    wraparound is represented. Threads come in (start group, first slot)
    order.
    """
    s = group_profile(cfg)
    lam = tuple(int(v) for v in lam)
    if not verify_solution(s, lam):
        raise ValueError("lambda does not solve the group window equations")
    K = cfg.K
    m = K * (K + 1)
    if cfg.offsets[0] + (K + 2) * cfg.N > np.iinfo(np.int64).max:
        raise ValueError(f"N={cfg.N} is too large: the schedule's slots do not fit int64")

    counts = np.array(lam, dtype=np.int64)
    g = np.repeat(np.arange(m), counts)
    c = np.arange(len(g)) - np.repeat(np.cumsum(counts) - counts, counts)
    cum = np.concatenate(([0], np.cumsum(np.tile(counts, 2))))  # two laps
    q, r = np.divmod(np.arange(m + K), K)  # long group qK + r is group r of period q
    first = cfg.offsets[0] + q * cfg.N + np.array(_group_starts(cfg), dtype=np.int64)[r]
    G = g[:, None] + np.arange(K + 1)
    slots = first[G] + (cum[g + m, None] - cum[G - K + m]) + c[:, None]
    return Schedule(cfg=cfg, lam=lam, start_groups=g, slots=slots)


@dataclass(frozen=True)
class ValidationReport:
    coverage_ok: bool
    consecutive_ok: bool
    patterns_ok: bool
    certificate_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (self.coverage_ok and self.consecutive_ok and self.patterns_ok
                and self.certificate_ok)


def validate_schedule(sched: Schedule) -> ValidationReport:
    """Independent re-check of the schedule invariants, on arrays, once per schedule.

    Coverage: every residue class modulo the period is used exactly once.
    Consecutiveness: each thread has K+1 slots in K+1 consecutive groups
    starting exactly at its declared start group, not periods later.
    Patterns: each thread's pattern matrix is a permutation. Certificate:
    ``lam`` has K(K+1) entries, solves the group window equations and counts
    the threads starting at each group. Values too large for int64
    arithmetic are checked as Python integers.
    """
    return sched._report


def _validate(sched: Schedule) -> ValidationReport:
    cfg, K, period = sched.cfg, sched.cfg.K, sched.period
    firsts, (S, groups, labels) = sched.start_groups, sched._map
    failures: list[str] = []

    if len(S) != cfg.N:  # K+1 slots a thread: otherwise S.size == period
        failures.append(f"coverage: {len(S)} tuples, expected {cfg.N}")
    elif np.bincount((S % period).astype(np.int64).ravel(), minlength=period).max() != 1:
        failures.append("coverage: residues modulo the period are not a partition")
    coverage_ok = not failures

    # slots below the benchmark offset lie in groups below 0; slots in consecutive groups increase
    consecutive = (groups[:, 0] == firsts) & (firsts >= 0) & (np.diff(groups) == 1).all(axis=1)

    patterned = np.ones(len(S), dtype=bool)
    M = np.moveaxis(np.diff(labels[:, consecutive], axis=-1) != 0, 0, -2)
    if not is_feasible_pattern(M):  # name the threads one by one
        patterned[consecutive] = [is_feasible_pattern(x) for x in M]
    for i in np.flatnonzero(~consecutive | ~patterned):
        at = f"thread at group {firsts[i]}"
        failures.append(f"pattern: {at} is not a permutation" if consecutive[i]
                        else f"consecutiveness: {at}, slots {tuple(S[i].tolist())}")

    m = K * (K + 1)
    certificate_ok = bool(
        len(sched.lam) == m
        and verify_solution(group_profile(cfg), sched.lam)
        and ((firsts >= 0) & (firsts < m)).all()
        and (np.bincount(firsts.astype(np.int64), minlength=m) == sched.lam).all()
    )
    if not certificate_ok:
        failures.append("certificate: lambda does not solve the window equations "
                        "or does not match the threads' start groups")

    return ValidationReport(
        coverage_ok=coverage_ok,
        consecutive_ok=bool(consecutive.all()),
        patterns_ok=bool(patterned.all()),
        certificate_ok=certificate_ok,
        failures=tuple(failures),
    )


def schedule_to_dict(sched: Schedule) -> dict:
    """Canonical JSON-ready form (integers only, tuples in canonical order)."""
    cfg = sched.cfg
    return {"version": 1, "N": cfg.N, "K": cfg.K, "offsets": list(cfg.offsets),
            "period": sched.period, "lambda": list(sched.lam),
            "tuples": [{"start_group": g, "slots": row} for g, row in
                       zip(sched.start_groups.tolist(), sched.slots.tolist())]}


def schedule_json(sched: Schedule) -> str:
    """``json.dumps(schedule_to_dict(sched), sort_keys=True)``, rows formatted in one pass."""
    bare = Schedule(sched.cfg, sched.lam, sched.start_groups[:0], sched.slots[:0])
    head, tail = json.dumps(schedule_to_dict(bare), sort_keys=True).split('"tuples": []')
    row = '{"slots": [' + ", ".join(["%d"] * (sched.cfg.K + 1)) + '], "start_group": %d}'
    values = np.column_stack([sched.slots, sched.start_groups]).ravel().tolist()
    return f'{head}"tuples": [{", ".join([row] * len(sched.slots)) % tuple(values)}]{tail}'


def _json_int(x) -> int:
    """``x`` itself if it is a JSON integer; floats, strings and bools are refused."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _int_array(values) -> np.ndarray:
    """int64, or Python integers where a value does not fit int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def schedule_from_dict(data: dict) -> Schedule:
    """Parse the canonical form back; raises ValueError on malformed input."""
    if not isinstance(data, dict):
        raise ValueError("schedule document must be a JSON object")
    try:
        if _json_int(data["version"]) != 1:
            raise ValueError(f"unsupported schedule version {data['version']!r}")
        cfg = ChannelConfig(N=_json_int(data["N"]),
                            offsets=tuple(_json_int(o) for o in data["offsets"]))
        if _json_int(data["K"]) != cfg.K:
            raise ValueError("K does not match the number of offsets")
        if _json_int(data["period"]) != (cfg.K + 1) * cfg.N:
            raise ValueError("period does not match (K+1)*N")
        lam = tuple(_json_int(v) for v in data["lambda"])
        starts = [t["start_group"] for t in data["tuples"]]
        rows = [t["slots"] for t in data["tuples"]]
        flat = list(chain.from_iterable(rows))
        if set(map(type, chain(starts, flat))) - {int}:  # name the first culprit
            _json_int(next(x for g, r in zip(starts, rows) for x in (g, *r) if type(x) is not int))
        if set(map(len, rows)) - {cfg.K + 1}:
            i = next(i for i, row in enumerate(rows) if len(row) != cfg.K + 1)
            raise ValueError(f"thread {i} has {len(rows[i])} slots, expected K+1 = {cfg.K + 1}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed schedule document: {exc!r}") from exc
    return Schedule(cfg=cfg, lam=lam, start_groups=_int_array(starts),
                    slots=_int_array(flat).reshape(-1, cfg.K + 1))
