import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindalign import scheduler
from blindalign import (
    ChannelConfig,
    SuperSymbol,
    Schedule,
    brute_force_solve,
    build_schedule,
    closed_form_solution,
    group_profile,
    group_slots,
    pattern_matrix,
    schedule_from_dict,
    schedule_to_dict,
    slot_group,
    validate_schedule,
    verify_schedule_end_to_end,
)
from helpers import (
    TAMPERINGS,
    build_schedule_oracle,
    random_feasible_config,
    small_certificates,
    tamper_schedule,
    validate_schedule_oracle,
)

FIG_CFG = ChannelConfig(4, (0, 1, 2))
FIG_LAMBDA = (0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)


def build(cfg):
    return build_schedule(cfg, closed_form_solution(group_profile(cfg)))


def assert_round_trips(sched):
    # equal after a trip through JSON text, and the same text a second time
    text = json.dumps(schedule_to_dict(sched), sort_keys=True)
    back = schedule_from_dict(json.loads(text))
    assert back == sched
    assert json.dumps(schedule_to_dict(back), sort_keys=True) == text


class TestBuildSchedule:
    def test_reference_tiles(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        assert [t.slots for t in sched.tuples] == [
            (3, 4, 5, 6), (7, 8, 9, 10), (11, 12, 13, 14), (15, 16, 17, 18)]
        assert [t.start_group for t in sched.tuples] == [2, 5, 8, 11]
        assert sched.period == 16
        residues = sorted(n % 16 for t in sched.tuples for n in t.slots)
        assert residues == list(range(16))

    def test_two_user_period(self):
        cfg = ChannelConfig(3, (0, 1))
        sched = build(cfg)
        assert len(sched.tuples) == 3
        assert all(len(t.slots) == 3 for t in sched.tuples)
        assert len({n % 9 for t in sched.tuples for n in t.slots}) == 9

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
            for t in sched.tuples:
                for n in t.slots:
                    norm = base + (n - base) % sched.period
                    per_group[slot_group(cfg, norm)] += 1
            for g in range(m):
                assert per_group[g] == prof[g % cfg.K]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 6))
    def test_matches_greedy_oracle(self, seed, K):
        cfg = random_feasible_config(np.random.default_rng(seed), K, 80)
        lam = closed_form_solution(group_profile(cfg))
        assert build_schedule(cfg, lam) == build_schedule_oracle(cfg, lam)

    def test_matches_greedy_oracle_on_every_small_certificate(self):
        for cfg, lam in small_certificates():
            assert build_schedule(cfg, lam) == build_schedule_oracle(cfg, lam), (cfg, lam)

    def test_threads_span_consecutive_groups(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            cfg = random_feasible_config(rng, int(rng.integers(2, 6)), 60)
            sched = build(cfg)
            for t in sched.tuples:
                groups = [slot_group(cfg, n) for n in t.slots]
                # exactly at the declared group, as validate_schedule requires
                assert groups == list(range(t.start_group, t.start_group + cfg.K + 1))


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
        tampered = list(sched.tuples)
        t0 = tampered[0]
        tampered[0] = SuperSymbol(t0.start_group, (t0.slots[0],) + t0.slots[:3])
        report = validate_schedule(Schedule(sched.cfg, sched.lam, tuple(tampered)))
        assert not report.coverage_ok and not report.passed

    def test_nonconsecutive_groups_fail(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        tampered = list(sched.tuples)
        t0 = tampered[0]
        tampered[0] = SuperSymbol(t0.start_group, t0.slots[:3] + (t0.slots[3] + 4,))
        report = validate_schedule(Schedule(sched.cfg, sched.lam, tuple(tampered)))
        assert not report.consecutive_ok and not report.passed

    def test_missing_thread_fails(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        report = validate_schedule(Schedule(sched.cfg, sched.lam, sched.tuples[:-1]))
        assert not report.coverage_ok and not report.passed

    def test_forged_lambda_fails(self):
        # too many entries' worth, too few entries, and a genuine certificate
        # of the same config that does not describe these threads
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        for lam in ((9,) * 12, (0, 0, 1, 0, 0)):
            report = validate_schedule(Schedule(sched.cfg, lam, sched.tuples))
            assert not report.certificate_ok and not report.passed
            assert report.coverage_ok and report.consecutive_ok and report.patterns_ok
        cfg = ChannelConfig(11, (0, 3, 6))
        sol_a, sol_b = brute_force_solve(group_profile(cfg), enumerate_all=True)[:2]
        other = build_schedule(cfg, sol_a)
        assert validate_schedule(other).passed
        report = validate_schedule(Schedule(cfg, sol_b, other.tuples))
        assert not report.certificate_ok and not report.passed

    def test_thread_without_slots_fails_consecutiveness(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        tampered = (SuperSymbol(sched.tuples[0].start_group, ()),) + sched.tuples[1:]
        report = validate_schedule(Schedule(sched.cfg, sched.lam, tampered))
        assert not report.consecutive_ok and not report.passed

    def test_thread_shifted_by_periods_fails_consecutiveness(self):
        # 16 * 10^18 is a multiple of the period 16, so coverage modulo the
        # period still holds, but the thread no longer starts at its group
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        t0 = sched.tuples[0]
        shifted = SuperSymbol(t0.start_group, tuple(n + 16 * 10**18 for n in t0.slots))
        report = validate_schedule(Schedule(sched.cfg, sched.lam,
                                            (shifted,) + sched.tuples[1:]))
        assert report.coverage_ok and report.certificate_ok
        assert not report.consecutive_ok and not report.passed


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

    @pytest.mark.parametrize("edit", [
        lambda t: SuperSymbol(t.start_group, ()),
        lambda t: SuperSymbol(t.start_group, t.slots[:-1]),
        lambda t: SuperSymbol(t.start_group, t.slots + (t.slots[-1] + 1,)),
        lambda t: SuperSymbol(t.start_group, tuple(n - 5 for n in t.slots)),
        lambda t: SuperSymbol(-1, t.slots),
        lambda t: SuperSymbol(t.start_group + 10**30, tuple(n + 10**30 for n in t.slots)),
        lambda t: SuperSymbol(t.start_group, tuple(reversed(t.slots))),
    ])
    def test_malformed_threads_equal(self, edit):
        cfg = ChannelConfig(12, (5, 9, 1))
        sched = build(cfg)
        tampered = Schedule(cfg, sched.lam, (edit(sched.tuples[0]),) + sched.tuples[1:])
        report = validate_schedule(tampered)
        assert report == validate_schedule_oracle(tampered) and not report.passed

    @pytest.mark.parametrize("cfg, first", [(FIG_CFG, -1), (ChannelConfig(12, (5, 9, 1)), 4)])
    def test_slot_below_benchmark_offset_equal(self, cfg, first):
        # the other slots lie in groups 1..K, so only the first one is wrong
        sched = build(cfg)
        thread = SuperSymbol(0, (first,) + tuple(group_slots(cfg, g)[0] for g in range(1, 4)))
        tampered = Schedule(cfg, sched.lam, (thread,) + sched.tuples[1:])
        report = validate_schedule(tampered)
        assert report == validate_schedule_oracle(tampered) and not report.consecutive_ok

    def test_failing_patterns_are_named(self, monkeypatch):
        # consecutive threads always have permutation patterns, so break the
        # matrix of the thread at index 1 to reach the per-thread walk
        def broken(cfg, slots):
            M = pattern_matrix(cfg, slots)
            M[1] = 0
            return M
        monkeypatch.setattr(scheduler, "pattern_matrix", broken)
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        report = validate_schedule(sched)
        assert report.coverage_ok and report.consecutive_ok and report.certificate_ok
        assert not report.patterns_ok
        assert report.failures == ("pattern: thread at group 5 is not a permutation",)

    def test_duplicate_offsets_equal(self):
        # zero-size groups hold no slot, so no thread can be consecutive
        cfg = ChannelConfig(6, (0, 2, 2))
        sched = Schedule(cfg, (1,) + (0,) * 11,
                         tuple(SuperSymbol(g, tuple(range(g, g + 4))) for g in range(6)))
        report = validate_schedule(sched)
        assert report == validate_schedule_oracle(sched) and not report.consecutive_ok

    def test_one_map_call_per_validation(self, monkeypatch):
        # the passing path maps all threads at once, not one thread at a time
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call
        for name in ("slot_group", "pattern_matrix", "is_feasible_pattern"):
            monkeypatch.setattr(scheduler, name, counted(name, getattr(scheduler, name)))
        assert validate_schedule(build(ChannelConfig(600, (0, 150, 300, 450)))).passed
        assert sorted(calls) == ["is_feasible_pattern", "pattern_matrix", "slot_group"]


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
        assert back == sched
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
