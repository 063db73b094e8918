import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindalign import scheduler
from blindalign import (
    ChannelConfig,
    Schedule,
    ValidationReport,
    build_schedule,
    closed_form_solution,
    group_profile,
    group_slots,
    schedule_from_dict,
    schedule_json,
    schedule_to_dict,
    slot_group,
    validate_schedule,
    verify_schedule_end_to_end,
)
from helpers import (
    TAMPERINGS,
    block_index_oracle,
    brute_force_solve,
    build_schedule_oracle,
    huge_n_small_slots_doc,
    random_feasible_config,
    schedule_of_threads,
    slot_group_oracle,
    small_certificates,
    tamper_schedule,
    validate_schedule_oracle,
)

FIG_CFG = ChannelConfig(4, (0, 1, 2))
FIG_LAMBDA = (0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)


def build(cfg):
    return build_schedule(cfg, closed_form_solution(group_profile(cfg)))


def assert_same_schedule(got, want):
    assert (got.cfg, got.lam) == (want.cfg, want.lam)
    for a, b in ((got.start_groups, want.start_groups), (got.slots, want.slots)):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


def assert_round_trips(sched):
    # equal after a trip through JSON text, and the same text a second time
    text = json.dumps(schedule_to_dict(sched), sort_keys=True)
    assert schedule_json(sched) == text
    back = schedule_from_dict(json.loads(text))
    assert_same_schedule(back, sched)
    assert json.dumps(schedule_to_dict(back), sort_keys=True) == text


class TestBuildSchedule:
    def test_reference_tiles(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        assert sched.slots.tolist() == [
            [3, 4, 5, 6], [7, 8, 9, 10], [11, 12, 13, 14], [15, 16, 17, 18]]
        assert sched.start_groups.tolist() == [2, 5, 8, 11]
        assert sched.period == 16
        assert sorted((sched.slots % 16).ravel().tolist()) == list(range(16))

    def test_two_user_period(self):
        cfg = ChannelConfig(3, (0, 1))
        sched = build(cfg)
        assert sched.slots.shape == (3, 3) and sched.start_groups.shape == (3,)
        assert len(set((sched.slots % 9).ravel().tolist())) == 9

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            build_schedule(FIG_CFG, (1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1))
        with pytest.raises(ValueError):
            build_schedule(FIG_CFG, (0,) * 12)

    def test_group_accounting(self):
        # group i contributes exactly s[i % K] slots, consumed by threads
        # starting in the K+1 groups ending at i
        rng = np.random.default_rng(41)
        for _ in range(20):
            cfg = random_feasible_config(rng, int(rng.integers(2, 7)), 120)
            sched = build(cfg)
            prof = group_profile(cfg)
            m = cfg.K * (cfg.K + 1)
            base = cfg.offsets[0]
            per_group = {g: 0 for g in range(m)}
            for n in sched.slots.ravel().tolist():
                norm = base + (n - base) % sched.period
                per_group[slot_group(cfg, norm)] += 1
            for g in range(m):
                assert per_group[g] == prof[g % cfg.K]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 6))
    def test_matches_greedy_oracle(self, seed, K):
        cfg = random_feasible_config(np.random.default_rng(seed), K, 80)
        lam = closed_form_solution(group_profile(cfg))
        assert (schedule_to_dict(build_schedule(cfg, lam))
                == schedule_to_dict(build_schedule_oracle(cfg, lam)))

    def test_matches_greedy_oracle_on_every_small_certificate(self):
        for cfg, lam in small_certificates():
            want = schedule_to_dict(build_schedule_oracle(cfg, lam))
            assert schedule_to_dict(build_schedule(cfg, lam)) == want, (cfg, lam)

    def test_threads_span_consecutive_groups(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            cfg = random_feasible_config(rng, int(rng.integers(2, 6)), 60)
            sched = build(cfg)
            for start, row in zip(sched.start_groups.tolist(), sched.slots.tolist()):
                groups = [slot_group(cfg, n) for n in row]
                # exactly at the declared group, as validate_schedule requires
                assert groups == list(range(start, start + cfg.K + 1))


class TestValidateSchedule:
    def test_builder_output_passes(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            cfg = random_feasible_config(rng, int(rng.integers(2, 7)), 200)
            report = validate_schedule(build(cfg))
            assert report.passed, report.failures

    def test_boundary_profiles_pass(self):
        # tight cases: all gaps equal, and max spread at the feasibility edge
        for cfg in (ChannelConfig(5, (0, 1, 2, 3, 4)),
                    ChannelConfig(4, (0, 1, 2)),
                    ChannelConfig(12, (0, 3, 6)),
                    ChannelConfig(200, (0, 50, 100))):
            assert validate_schedule(build(cfg)).passed

    def test_duplicated_slot_fails_coverage(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        slots = sched.slots.copy()
        slots[0] = (slots[0, 0], *slots[0, :3])
        report = validate_schedule(Schedule(sched.cfg, sched.lam, sched.start_groups, slots))
        assert not report.coverage_ok and not report.passed

    def test_nonconsecutive_groups_fail(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        slots = sched.slots.copy()
        slots[0, 3] += 4
        report = validate_schedule(Schedule(sched.cfg, sched.lam, sched.start_groups, slots))
        assert not report.consecutive_ok and not report.passed

    def test_missing_thread_fails(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        report = validate_schedule(Schedule(sched.cfg, sched.lam, sched.start_groups[:-1],
                                            sched.slots[:-1]))
        assert not report.coverage_ok and not report.passed

    def test_forged_lambda_fails(self):
        # too many entries' worth, too few entries, and a genuine certificate
        # of the same config that does not describe these threads
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        for lam in ((9,) * 12, (0, 0, 1, 0, 0)):
            report = validate_schedule(Schedule(sched.cfg, lam, sched.start_groups, sched.slots))
            assert not report.certificate_ok and not report.passed
            assert report.coverage_ok and report.consecutive_ok and report.patterns_ok
        cfg = ChannelConfig(11, (0, 3, 6))
        sol_a, sol_b = brute_force_solve(group_profile(cfg), enumerate_all=True)[:2]
        other = build_schedule(cfg, sol_a)
        assert validate_schedule(other).passed
        report = validate_schedule(Schedule(cfg, sol_b, other.start_groups, other.slots))
        assert not report.certificate_ok and not report.passed

    def test_thread_shifted_by_periods_fails_consecutiveness(self):
        # 16 * 10^18 is a multiple of the period 16, so coverage modulo the
        # period still holds, but the thread no longer starts at its group
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        rows = sched.slots.tolist()
        rows[0] = [n + 16 * 10**18 for n in rows[0]]
        report = validate_schedule(schedule_of_threads(sched.cfg, sched.lam,
                                                       sched.start_groups.tolist(), rows))
        assert report.coverage_ok and report.certificate_ok
        assert not report.consecutive_ok and not report.passed

    def test_int64_slots_with_group_starts_past_int64(self):
        # the slots parse as int64, so only validate_schedule's widening to
        # Python integers keeps the group arithmetic exact
        sched = schedule_from_dict(huge_n_small_slots_doc())
        assert sched.start_groups.dtype == sched.slots.dtype == np.int64
        assert validate_schedule(sched) == ValidationReport(
            coverage_ok=False, consecutive_ok=False, patterns_ok=True, certificate_ok=False,
            failures=(f"coverage: 1 tuples, expected {10**20}",
                      "consecutiveness: thread at group 0, slots (0, 1, 2)",
                      "certificate: lambda does not solve the window equations "
                      "or does not match the threads' start groups"))

    def test_slots_near_int64_min(self):
        # in int64, slot - 9 wraps for slots below -2^63 + 9, and these
        # three would lie in the consecutive long groups 1537228672809129299..301;
        # as Python integers they lie below the benchmark offset
        cfg = ChannelConfig(12, (9, 1))
        sched = build(cfg)
        start, row = 1537228672809129299, [-2**63, -2**63 + 1, -2**63 + 5]
        tampered = schedule_of_threads(cfg, sched.lam, [start] + sched.start_groups.tolist()[1:],
                                       [row] + sched.slots.tolist()[1:])
        assert tampered.slots.dtype == np.int64
        report = validate_schedule(tampered)
        assert report == validate_schedule_oracle(tampered) and not report.consecutive_ok
        assert f"consecutiveness: thread at group {start}, slots {tuple(row)}" in report.failures

    @pytest.mark.parametrize("top", [2**62, 2**63 - 1])
    def test_slots_near_int64_max(self, top):
        # with K > N (duplicate offsets) a slot's group (slot // N) * K passes
        # 2^63 from slots near 2^62 on, though the slots fit int64: the map is
        # taken in Python integers and equals the scalar oracles'
        cfg = ChannelConfig(2, (0, 1, 0, 1, 0))
        rows = [list(range(6)), list(range(top - 5, top + 1))]
        sched = schedule_of_threads(cfg, (1,) * 10, [0, 1], rows)
        assert sched.slots.dtype == np.int64
        S, groups, labels = sched._map
        assert S.tolist() == rows
        assert groups.tolist() == [[slot_group_oracle(cfg, n) for n in row] for row in rows]
        assert labels.tolist() == [[[block_index_oracle(cfg, user, n) for n in row]
                                    for row in rows] for user in range(1, cfg.K + 1)]

    @pytest.mark.parametrize("n_starts, n_cols", [(3, 4), (4, 3)],
                             ids=["one-start-group-cut", "one-slot-column-cut"])
    def test_mismatched_shapes_refused(self, n_starts, n_cols):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        with pytest.raises(ValueError, match=re.escape(
                f"start_groups of shape ({n_starts},) and slots of shape (4, {n_cols}) do "
                "not match: expected (T,) and (T, K+1) = (T, 4)")):
            Schedule(FIG_CFG, FIG_LAMBDA, sched.start_groups[:n_starts],
                     sched.slots[:, :n_cols])


class TestValidateAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 5),
           kind=st.sampled_from((None,) + TAMPERINGS),
           a=st.integers(0, 10**6), b=st.integers(0, 10**6))
    def test_reports_equal(self, seed, K, kind, a, b):
        # field for field, including the order of the failure messages
        sched = build(random_feasible_config(np.random.default_rng(seed), K, 40))
        if kind is not None:
            sched = tamper_schedule(sched, kind, a, b)
        report = validate_schedule(sched)
        assert report == validate_schedule_oracle(sched)
        assert report.passed == (kind is None)

    @pytest.mark.parametrize("edit", [  # (start group, slots) -> the same
        lambda g, row: (g, []),
        lambda g, row: (g, row[:-1]),
        lambda g, row: (g, row + [row[-1] + 1]),
        lambda g, row: (g, [n - 5 for n in row]),
        lambda g, row: (-1, row),
        lambda g, row: (g + 10**30, [n + 10**30 for n in row]),
        lambda g, row: (g, row[::-1]),
    ])
    def test_malformed_threads_equal(self, edit):
        cfg = ChannelConfig(12, (5, 9, 1))
        sched = build(cfg)
        starts, rows = sched.start_groups.tolist(), sched.slots.tolist()
        starts[0], rows[0] = edit(starts[0], rows[0])
        if len(rows[0]) != cfg.K + 1:
            # a Schedule holds K+1 slots per thread, so a document with this thread is refused
            doc = schedule_to_dict(sched)
            doc["tuples"][0] = {"start_group": starts[0], "slots": rows[0]}
            with pytest.raises(ValueError, match=fr"^thread 0 has {len(rows[0])} slots, "):
                schedule_from_dict(doc)
            return
        tampered = schedule_of_threads(cfg, sched.lam, starts, rows)
        report = validate_schedule(tampered)
        assert report == validate_schedule_oracle(tampered) and not report.passed

    @pytest.mark.parametrize("cfg, first", [(FIG_CFG, -1), (ChannelConfig(12, (5, 9, 1)), 4)])
    def test_slot_below_benchmark_offset_equal(self, cfg, first):
        # the other slots lie in groups 1..K, so only the first one is wrong
        sched = build(cfg)
        starts, rows = sched.start_groups.tolist(), sched.slots.tolist()
        starts[0], rows[0] = 0, [first] + [group_slots(cfg, g)[0] for g in range(1, 4)]
        tampered = schedule_of_threads(cfg, sched.lam, starts, rows)
        report = validate_schedule(tampered)
        assert report == validate_schedule_oracle(tampered) and not report.consecutive_ok

    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("cfg", [ChannelConfig(12, (0, 4, 9)), ChannelConfig(12, (5, 9, 1))],
                             ids=["offset-0", "offset-5"])
    def test_threads_below_benchmark_offset_equal(self, cfg, dtype):
        # slots below the benchmark offset lie in long groups below 0: a
        # thread in groups -1..K-1 is consecutive there from start group -1,
        # and one shifted down a period is consecutive from its start group
        # less K(K+1), but neither is consecutive in the schedule
        sched = build(cfg)
        K, m = cfg.K, cfg.K * (cfg.K + 1)
        starts, rows = sched.start_groups.tolist(), sched.slots.tolist()
        partly = [cfg.offsets[0] - 1] + [group_slots(cfg, g)[0] for g in range(K)]
        wholly = [n - sched.period for n in rows[0]]
        for start, row in ((-1, partly), (0, partly), (starts[0], wholly),
                           (starts[0] - m, wholly), (starts[0], [wholly[0]] + rows[0][1:])):
            tampered = Schedule(cfg, sched.lam, np.array([start] + starts[1:], dtype=dtype),
                                np.array([row] + rows[1:], dtype=dtype))
            report = validate_schedule(tampered)
            assert report == validate_schedule_oracle(tampered) and not report.consecutive_ok
            assert f"consecutiveness: thread at group {start}, slots {tuple(row)}" in report.failures

    def test_failing_patterns_are_named(self):
        # consecutive threads always have permutation patterns, so tamper the
        # schedule's map before validation to reach the per-thread walk: user
        # 1's label stays put on the thread at index 1 and changes twice on
        # the thread at index 3, and both threads are named in order
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        S, groups, labels = sched._map
        labels = labels.copy()
        labels[0, 1] = labels[0, 1, 0]
        labels[0, 3] += np.arange(FIG_CFG.K + 1)
        sched.__dict__["_map"] = S, groups, labels
        report = validate_schedule(sched)
        assert report.coverage_ok and report.consecutive_ok and report.certificate_ok
        assert not report.patterns_ok
        assert report.failures == ("pattern: thread at group 5 is not a permutation",
                                   "pattern: thread at group 11 is not a permutation")

    def test_duplicate_offsets_equal(self):
        # zero-size groups hold no slot, so no thread can be consecutive
        cfg = ChannelConfig(6, (0, 2, 2))
        sched = schedule_of_threads(cfg, (1,) + (0,) * 11, list(range(6)),
                                    [list(range(g, g + 4)) for g in range(6)])
        report = validate_schedule(sched)
        assert report == validate_schedule_oracle(sched) and not report.consecutive_ok

    def test_one_map_call_per_validation(self, monkeypatch):
        # the passing path maps all threads at once, not one thread at a time,
        # and takes groups and patterns from that one map
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call
        for name in ("slot_map", "slot_group", "pattern_matrix", "is_feasible_pattern"):
            monkeypatch.setattr(scheduler, name, counted(name, getattr(scheduler, name)))
        assert validate_schedule(build(ChannelConfig(600, (0, 150, 300, 450)))).passed
        assert calls == ["slot_map", "is_feasible_pattern"]


class TestOwnedSchedule:
    """A schedule owns read-only copies of its arrays and validates once."""

    def test_arrays_are_read_only_copies(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        lam, starts, slots = list(FIG_LAMBDA), sched.start_groups.copy(), sched.slots.copy()
        own = Schedule(FIG_CFG, lam, starts, slots)
        report = validate_schedule(own)
        assert report.passed and own.lam == FIG_LAMBDA and type(own.lam) is tuple
        # the caller's arrays change; the schedule and its report do not
        lam[2], starts[:], slots[0, 0] = 5, 0, slots[1, 0]
        assert_same_schedule(own, sched)
        assert own.lam == FIG_LAMBDA and validate_schedule(own) is report and report.passed
        assert not validate_schedule(Schedule(FIG_CFG, lam, starts, slots)).passed
        for a in (own.start_groups, own.slots):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            own.slots = slots

    def test_python_integer_arrays_are_read_only(self):
        doc = schedule_to_dict(build_schedule(FIG_CFG, FIG_LAMBDA))
        doc["tuples"][0]["slots"] = [n + 16 * 10**18 for n in doc["tuples"][0]["slots"]]
        sched = schedule_from_dict(doc)
        assert sched.slots.dtype == object
        with pytest.raises(ValueError, match="read-only"):
            sched.slots[0, 0] = 0

    def test_validated_once_per_schedule(self, monkeypatch):
        # one validation and one slot map per schedule: the verifier reads
        # the schedule's report and map
        calls = []
        for module, name in ((scheduler, "_validate"), (scheduler, "slot_map")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
        cfg = ChannelConfig(60, (0, 15, 30, 45))
        sched = build(cfg)
        report = validate_schedule(sched)
        assert validate_schedule(sched) is report and report.passed
        assert verify_schedule_end_to_end(cfg, sched, seed=0, trials=1).passed
        assert calls == ["_validate", "slot_map"]
        assert validate_schedule(build(cfg)) == report
        assert calls == ["_validate", "slot_map"] * 2

    @pytest.mark.parametrize("kind", TAMPERINGS)
    @pytest.mark.parametrize("validated_first", [False, True])
    def test_verifier_refuses_tampering(self, kind, validated_first):
        # the same message whether the report is computed here or was cached
        sched = tamper_schedule(build(ChannelConfig(12, (5, 9, 1))), kind, 3, 7)
        failures = validate_schedule_oracle(sched).failures
        assert failures
        if validated_first:
            assert validate_schedule(sched).failures == failures
        with pytest.raises(ValueError, match=re.escape(
                f"schedule fails validation: {failures[:3]}")):
            verify_schedule_end_to_end(sched.cfg, sched, seed=0, trials=1)


class TestScheduleJson:
    """``schedule_json`` writes exactly ``json.dumps(schedule_to_dict(s), sort_keys=True)``."""

    @staticmethod
    def assert_canonical(sched):
        assert schedule_json(sched) == json.dumps(schedule_to_dict(sched), sort_keys=True)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 7))
    def test_builder_output(self, seed, K):
        self.assert_canonical(build(random_feasible_config(np.random.default_rng(seed), K, 90)))

    def test_values_past_int64(self):
        doc = schedule_to_dict(build_schedule(FIG_CFG, FIG_LAMBDA))
        doc["tuples"][1]["slots"] = [n - 2**70 for n in doc["tuples"][1]["slots"]]
        doc["tuples"][2]["start_group"] = 3 * 10**25
        sched = schedule_from_dict(doc)
        assert sched.slots.dtype == sched.start_groups.dtype == object
        self.assert_canonical(sched)
        self.assert_canonical(schedule_from_dict(huge_n_small_slots_doc()))

    def test_zero_threads(self):
        doc = {**schedule_to_dict(build_schedule(FIG_CFG, FIG_LAMBDA)), "tuples": []}
        sched = schedule_from_dict(doc)
        assert sched.slots.shape == (0, 4)
        self.assert_canonical(sched)
        assert json.loads(schedule_json(sched)) == doc


class TestDof:
    def test_values(self):
        # 2K symbols per thread, N threads, (K+1)N slots
        for cfg, dof in ((ChannelConfig(4, (0, 1, 2)), Fraction(3, 2)),
                         (ChannelConfig(3, (0, 1)), Fraction(4, 3)),
                         (ChannelConfig(5, (0, 1, 2, 3)), Fraction(8, 5))):
            summary = verify_schedule_end_to_end(cfg, build(cfg), seed=0, trials=2)
            assert summary.symbols_per_slot == dof


class TestSerialization:
    def test_round_trip(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        doc = schedule_to_dict(sched)
        assert doc["version"] == 1 and doc["period"] == 16
        assert all(isinstance(v, int) for v in doc["lambda"])
        text = json.dumps(doc, sort_keys=True)
        back = schedule_from_dict(json.loads(text))
        assert_same_schedule(back, sched)
        assert validate_schedule(back).passed

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 6))
    def test_round_trip_property(self, seed, K):
        assert_round_trips(build(random_feasible_config(np.random.default_rng(seed), K, 80)))

    def test_round_trip_every_small_certificate(self):
        for cfg, lam in small_certificates():
            assert_round_trips(build_schedule(cfg, lam))

    def test_canonical_tuple_order(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            cfg = random_feasible_config(rng, 3, 40)
            doc = schedule_to_dict(build(cfg))
            keys = [(t["start_group"], t["slots"][0]) for t in doc["tuples"]]
            assert keys == sorted(keys)

    def test_malformed_documents(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        doc = schedule_to_dict(sched)
        bad = dict(doc)
        bad["version"] = 2
        with pytest.raises(ValueError):
            schedule_from_dict(bad)
        bad = dict(doc)
        del bad["tuples"]
        with pytest.raises(ValueError):
            schedule_from_dict(bad)
        bad = dict(doc)
        bad["period"] = 15
        with pytest.raises(ValueError):
            schedule_from_dict(bad)
        with pytest.raises(ValueError):
            schedule_from_dict([1, 2, 3])

    @pytest.mark.parametrize("cfg, thread, edit", [
        (FIG_CFG, 0, lambda row: []),
        (ChannelConfig(12, (5, 9, 1)), 0, lambda row: []),
        (ChannelConfig(12, (5, 9, 1)), 0, lambda row: row[:-1]),
        (ChannelConfig(12, (5, 9, 1)), 0, lambda row: row + [row[-1] + 1]),
        (ChannelConfig(12, (5, 9, 1)), 7, lambda row: row[:-1]),
    ], ids=["no-slots-fig", "no-slots", "one-short", "one-extra", "one-short-later"])
    def test_rejects_wrong_length_threads(self, cfg, thread, edit):
        # a thread holds K+1 slots or the document is malformed, whatever its slots are
        doc = schedule_to_dict(build(cfg))
        slots = doc["tuples"][thread]["slots"] = edit(doc["tuples"][thread]["slots"])
        with pytest.raises(ValueError, match=fr"^thread {thread} has {len(slots)} slots, "
                                             fr"expected K\+1 = {cfg.K + 1}$"):
            schedule_from_dict(json.loads(json.dumps(doc)))

    def test_thread_values_checked_in_one_pass(self, monkeypatch):
        # _json_int sees the header integers only, never a thread's
        json_int, calls = scheduler._json_int, []
        monkeypatch.setattr(scheduler, "_json_int", lambda x: calls.append(x) or json_int(x))
        cfg = ChannelConfig(600, (0, 150, 300, 450))
        sched = build(cfg)
        assert_same_schedule(schedule_from_dict(schedule_to_dict(sched)), sched)
        assert len(calls) == 4 + cfg.K + cfg.K * (cfg.K + 1)

    def test_values_past_int64_parse_as_python_integers(self):
        doc = schedule_to_dict(build_schedule(FIG_CFG, FIG_LAMBDA))
        doc["tuples"][0]["slots"] = [n + 16 * 10**18 for n in doc["tuples"][0]["slots"]]
        sched = schedule_from_dict(json.loads(json.dumps(doc)))
        assert sched.start_groups.dtype == np.int64 and sched.slots.dtype == object
        assert sched.slots.shape == (4, 4) and schedule_to_dict(sched) == doc
        assert not validate_schedule(sched).consecutive_ok

    @pytest.mark.parametrize("slots", [5, "3456", None, {"a": 1}])
    def test_rejects_non_list_slots(self, slots):
        # "3456" has K+1 characters and {"a": 1} iterates over a string key
        doc = schedule_to_dict(build_schedule(FIG_CFG, FIG_LAMBDA))
        doc["tuples"][0]["slots"] = slots
        with pytest.raises(ValueError):
            schedule_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("field, value", [
        ("slots", [3.7, 4.7, 5.7, 6.7]),
        ("slots", ["3", 4, 5, 6]),
        ("slots", [True, 4, 5, 6]),
        ("start_group", 2.0),
        ("lambda", [0, 0, True, 0, 0, 1, 0, 0, 1, 0, 0, 1]),
        ("N", "4"),
        ("offsets", [0, 1.0, 2]),
        ("version", True),
    ])
    def test_rejects_non_integer_values(self, field, value):
        doc = schedule_to_dict(build_schedule(FIG_CFG, FIG_LAMBDA))
        if field in ("slots", "start_group"):
            doc["tuples"][0][field] = value
        else:
            doc[field] = value
        with pytest.raises(ValueError, match="integer"):
            schedule_from_dict(json.loads(json.dumps(doc)))
