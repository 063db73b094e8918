import hashlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindalign import (
    MAGNITUDE_FLOOR,
    ChannelConfig,
    SearchBudgetExceeded,
    Witness,
    beamforming_vectors,
    block_index,
    build_schedule,
    check_config,
    closed_form_solution,
    enumerate_feasible_patterns,
    group_profile,
    pattern_matrix,
    signaling,
    slot_map,
    verify_schedule_end_to_end,
)
from helpers import (
    brute_force_solve,
    channel_coeffs_oracle,
    coefficient_candidates,
    frozen_user_draw,
    lemma_blocks,
    random_feasible_config,
    receiver_checks_oracle,
    receiver_margins_generic,
    screen_inputs,
    slot_pairs,
    tamper_schedule,
)

FIG_CFG = ChannelConfig(4, (0, 1, 2))
FIG_LAMBDA = (0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)


def evenly_spread(N, K):
    return ChannelConfig(N, tuple(N * u // K for u in range(K)))


@st.composite
def feasible_configs(draw, k_max=5):
    """Random feasible configs, and evenly spread ones with few distinct threads."""
    K = draw(st.integers(2, k_max))
    if draw(st.booleans()):
        # N >= K(K+1) keeps every gap >= ceil(N/(K+1))
        return evenly_spread(draw(st.integers(K * (K + 1), 60)), K)
    return random_feasible_config(np.random.default_rng(draw(st.integers(0, 2**32))), K, 40)


def schedule_of(cfg):
    return build_schedule(cfg, closed_form_solution(group_profile(cfg)))


def label_rows(cfg, sched):
    """Each thread's block labels as one row (T, K*(K+1))."""
    labels = slot_map(cfg, sched.slots)[1]
    return np.moveaxis(labels, 0, 1).reshape(len(sched.slots), -1)


def grid_coeffs(cfg, slots, grid_of):
    """The coefficients of the grid (K', L', trials, 2) that ``grid_of(L)``
    gives for labels 0..L-1, L one past the slots' largest block label, on
    every thread slot: H (K, trials, T, K+1, 2), as ``channel_coeffs_oracle``
    lays them out, and the labels (K, T, K+1)."""
    blocks = slot_map(cfg, np.asarray(slots, dtype=np.int64))[1]
    H = grid_of(int(blocks.max()) + 1)[np.arange(cfg.K)[:, None, None], blocks]
    return np.moveaxis(H, -2, 1), blocks


def kernel_margins(H, c):
    """The verifier's kernels on coefficients H (K, trials, T, K+1, 2) and
    transition columns ``c`` (T, K): residuals (K, K, trials, T) with a zero
    diagonal and singular values (K, trials, T), in the layout of
    ``receiver_margins_generic``."""
    K = len(H)
    residuals = np.moveaxis(signaling._residuals(slot_pairs(H, c)), -1, 1)
    residuals[range(K), range(K)] = 0.0
    return residuals, signaling._singulars(*screen_inputs(H, c), c)


def thread_margins(cfg, slots, seed, trials=1):
    """``kernel_margins`` of threads ``slots`` (T, K+1) on the oracle's
    coefficients."""
    H, _ = channel_coeffs_oracle(cfg, slots, seed, trials)
    return kernel_margins(H, np.argmax(pattern_matrix(cfg, slots), axis=-1))


def drawn(cfg, slots, seed, trials):
    """``grid_coeffs`` on a ``_draw`` grid of every user on labels 0..L-1."""
    return grid_coeffs(cfg, slots, lambda L: signaling._draw(seed, cfg.K, np.arange(L), trials))


class TestBeamforming:
    def test_classic_3user_example(self):
        v = beamforming_vectors([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert v.tolist() == [[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]]

    def test_2user_examples(self):
        assert beamforming_vectors([[1, 0], [0, 1]]).tolist() == [[1, 1, 0], [0, 1, 1]]
        assert beamforming_vectors([[0, 1], [1, 0]]).tolist() == [[0, 1, 1], [1, 1, 0]]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            beamforming_vectors([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            beamforming_vectors([np.eye(3, dtype=int), [[1, 0, 0], [1, 0, 0], [0, 1, 0]]])
        with pytest.raises(ValueError):
            beamforming_vectors(np.ones((2, 3), dtype=int))

    def test_straddle_property(self):
        patterns = list(enumerate_feasible_patterns(4))
        stacked = beamforming_vectors(np.stack(patterns))
        assert stacked.shape == (24, 4, 5)
        for M, v in zip(patterns, stacked):
            assert np.array_equal(beamforming_vectors(M), v)
            for i in range(4):
                c = int(np.argmax(M[i]))
                assert np.flatnonzero(v[i]).tolist() == [c, c + 1]


class TestChannelDraws:
    """The verifier's ``_draw`` grid, read on thread slots by their block labels."""

    SLOTS = [[3, 4, 5, 6], [1, 3, 5, 7]]

    def test_deterministic(self):
        H, blocks = drawn(FIG_CFG, self.SLOTS, seed=5, trials=3)
        H2, blocks2 = drawn(FIG_CFG, self.SLOTS, seed=5, trials=3)
        assert np.array_equal(H, H2) and np.array_equal(blocks, blocks2)
        assert H.shape == (3, 3, 2, 4, 2) and blocks.shape == (3, 2, 4)
        # trial r reads a fixed slice: fewer trials give a prefix
        assert np.array_equal(drawn(FIG_CFG, self.SLOTS, seed=5, trials=1)[0], H[:, :1])

    def test_block_fading_semantics(self):
        H, blocks = drawn(FIG_CFG, self.SLOTS, seed=9, trials=2)
        for user in (1, 2, 3):
            for t, slots in enumerate(self.SLOTS):
                assert blocks[user - 1, t].tolist() == [
                    block_index(FIG_CFG, user, n) for n in slots]
        # slots 1 and 3 sit in the same block of user 2; slot 5 does not
        assert np.array_equal(H[1, :, 1, 0], H[1, :, 1, 1])
        assert not np.array_equal(H[1, :, 1, 0], H[1, :, 1, 2])
        # slot 5 in either thread is one block of user 2, so one draw
        assert np.array_equal(H[1, :, 0, 2], H[1, :, 1, 2])

    def test_seeds_differ(self):
        a, _ = drawn(FIG_CFG, [[0, 1, 2, 3]], seed=1, trials=1)
        b, _ = drawn(FIG_CFG, [[0, 1, 2, 3]], seed=2, trials=1)
        assert not np.array_equal(a[0, 0, 0, 0], b[0, 0, 0, 0])

    def test_magnitude_floor(self):
        slots = np.arange(2001).reshape(-1, 3)
        H, _ = drawn(ChannelConfig(2, (0, 1)), slots, seed=3, trials=1)
        assert np.abs(H).min() >= MAGNITUDE_FLOOR

    def test_rejection_path_matches_all_candidates(self):
        # at the 0.05 floor about 1 in 800 first candidates fails, so some
        # coefficients here take a later one; the reference tests all 16
        # candidates of every coefficient
        cfg = ChannelConfig(23, (4, 9, 13, 18, 0))
        slots = schedule_of(cfg).slots[:6]
        rejected = 0
        for seed in range(3):
            H, blocks = drawn(cfg, slots, seed, 20)
            want, want_blocks = channel_coeffs_oracle(cfg, slots, seed, 20)
            np.testing.assert_array_equal(H.view(np.int64), want.view(np.int64))
            np.testing.assert_array_equal(blocks, want_blocks)
            first = coefficient_candidates(cfg, slots, seed, 20)[0][..., 0]
            rejected += int((np.abs(first) < MAGNITUDE_FLOOR).sum())
        assert rejected > 0

    def test_candidates_past_the_second(self, monkeypatch):
        # at a floor of 1.0 about 39% of candidates fail: many coefficients
        # take their third candidate or a later one
        monkeypatch.setattr(signaling, "MAGNITUDE_FLOOR", 1.0)
        cfg = ChannelConfig(23, (4, 9, 13, 18, 0))
        slots = schedule_of(cfg).slots[:6]
        H, blocks = drawn(cfg, slots, 4, 20)
        want, want_blocks = channel_coeffs_oracle(cfg, slots, 4, 20)
        assert_bits_equal(H, want)
        np.testing.assert_array_equal(blocks, want_blocks)
        first_two = coefficient_candidates(cfg, slots, 4, 20)[0][..., :2]
        assert (np.abs(first_two) < 1.0).all(axis=-1).sum() > 100

    def test_draw_memory(self):
        # one (trials, 2, 16, 2) candidate buffer at a time: 2 users on 4
        # labels at 20,000 trials peak near 36 MiB, where every pair's
        # candidates at once take 78 MiB alone
        tracemalloc.start()
        try:
            grid = signaling._draw(3, 2, np.arange(4), 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (2, 4, 20_000, 2) and not grid.flags.writeable
        assert peak < 50 * 2**20

    def test_rejection_budget_exhausted(self, monkeypatch):
        # the verifier's grid is primed with these very blocks: the floor is
        # part of its key, so the verifier must draw again and run out of
        # candidates, as a draw does
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        verify_schedule_end_to_end(FIG_CFG, sched, seed=5, trials=3)
        monkeypatch.setattr(signaling, "MAGNITUDE_FLOOR", 100.0)
        with pytest.raises(RuntimeError, match="rejection budget"):
            drawn(FIG_CFG, self.SLOTS, seed=5, trials=3)
        with pytest.raises(RuntimeError, match="rejection budget"):
            verify_schedule_end_to_end(FIG_CFG, sched, seed=5, trials=3)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            drawn(FIG_CFG, self.SLOTS, seed=5, trials=trials)


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_report(got, want):
    assert got == want
    assert float.hex(got.max_residual) == float.hex(want.max_residual)
    assert float.hex(got.min_singular) == float.hex(want.min_singular)


class TestCoefficientStore:
    """The verifier keeps one grid of drawn coefficients, every user on block
    labels 0..L-1, for one key at a time. Each result must equal the
    oracle's, or a verification's from an empty grid."""

    CASES = [(cfg, schedule_of(cfg).slots) for cfg in (
        FIG_CFG, ChannelConfig(23, (4, 9, 13, 18, 0)), evenly_spread(30, 3),
        evenly_spread(20, 4), evenly_spread(60, 5))]

    @pytest.fixture(autouse=True)
    def empty_grid(self, monkeypatch):
        monkeypatch.setattr(signaling, "_grid", [None] * len(signaling._grid))

    @pytest.fixture
    def draws(self, monkeypatch):
        """Every grid drawn, as (seed, trials, K, labels), in order."""
        drawn, draw = [], signaling._draw

        def spy(seed, K, labels, trials):
            drawn.append((seed, trials, K, tuple(np.asarray(labels).tolist())))
            return draw(seed, K, labels, trials)

        monkeypatch.setattr(signaling, "_draw", spy)
        return drawn

    @staticmethod
    def read(cfg, slots, seed, trials):
        """``grid_coeffs`` on the verifier's grid for these slots."""
        return grid_coeffs(cfg, slots,
                           lambda L: signaling._verify_grid(seed, cfg.K, L, trials)[0])

    @classmethod
    def check(cls, cfg, slots, seed, trials):
        H, blocks = cls.read(cfg, slots, seed, trials)
        want, want_blocks = channel_coeffs_oracle(cfg, slots, seed, trials)
        assert_bits_equal(H, want)
        np.testing.assert_array_equal(blocks, want_blocks)
        return H

    @staticmethod
    def cold(cfg, seed, trials):
        """A verification from an empty grid, which it leaves empty."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signaling, "_grid", [None] * len(signaling._grid))
            return verify_schedule_end_to_end(cfg, schedule_of(cfg), seed, trials)

    @pytest.mark.parametrize("order", [1, -1])
    def test_sequence_of_configs_in_either_order(self, order, draws):
        # verifications of growing and shrinking K and L under one key give
        # the reports of an empty grid in either order; the verifier draws
        # only a grid larger than the last
        cases = self.CASES[::order]
        want = [self.cold(cfg, 3, 4) for cfg, _ in cases]
        draws.clear()
        for cfg, report in zip((cfg for cfg, _ in cases), want):
            assert_same_report(verify_schedule_end_to_end(cfg, schedule_of(cfg), 3, 4), report)
        grids = [(K, len(labels)) for _, _, K, labels in draws]
        assert 1 <= len(grids) < len(cases)
        for (K0, L0), (K1, L1) in zip(grids, grids[1:]):
            assert K1 >= K0 and L1 >= L0 and (K1, L1) != (K0, L0)
        assert signaling._grid[1].shape == (5, 8, 4, 2)

    def test_draws_each_pair_once_per_key(self, monkeypatch, draws):
        others = ((FIG_CFG, (3, 6)), (evenly_spread(20, 4), (4, 6)))
        cold = [self.cold(other, 2, 3) for other, _ in others]
        draws.clear()
        # the first verification draws every user on labels 0..L-1
        cfg = evenly_spread(30, 3)
        first = verify_schedule_end_to_end(cfg, schedule_of(cfg), seed=2, trials=3)
        assert draws == [(2, 3, 3, (0, 1, 2, 3, 4))]
        # a repeat under the same key draws nothing, on an equal schedule or
        # on a config with fewer users
        for sched in (schedule_of(cfg), schedule_of(cfg)):
            assert_same_report(verify_schedule_end_to_end(cfg, sched, seed=2, trials=3), first)
        pair = ChannelConfig(3, (0, 1))
        verify_schedule_end_to_end(pair, schedule_of(pair), seed=2, trials=3)
        assert len(draws) == 1
        # a larger L, then a larger K, under the same key redraws a grid
        # that covers the old one too
        for (other, shape), want in zip(others, cold):
            assert_same_report(verify_schedule_end_to_end(other, schedule_of(other), 2, 3), want)
            assert draws[-1][2:] == (shape[0], tuple(range(shape[1])))
            assert signaling._grid[1].shape == (*shape, 3, 2)
        assert_same_report(verify_schedule_end_to_end(cfg, schedule_of(cfg), 2, 3), first)
        assert len(draws) == 3
        # a new key draws again: another seed, other trials, another floor
        for seed, trials in ((3, 3), (2, 2)):
            verify_schedule_end_to_end(cfg, schedule_of(cfg), seed, trials)
            assert draws[-1][:2] == (seed, trials) and signaling._grid[0][:2] == (seed, trials)
        monkeypatch.setattr(signaling, "MAGNITUDE_FLOOR", 0.5)
        verify_schedule_end_to_end(cfg, schedule_of(cfg), 2, 2)
        assert len(draws) == 6 and signaling._grid[0] == (2, 2, 0.5, signaling._CANDIDATES)

    @pytest.mark.parametrize("before, after", [(5, 2), (2, 5)])
    def test_fewer_trials_give_a_prefix(self, before, after):
        cfg, slots = self.CASES[1]
        a = self.check(cfg, slots, 8, before)
        b = self.check(cfg, slots, 8, after)
        n = min(before, after)
        assert_bits_equal(a[:, :n], b[:, :n])

    def test_concurrent_calls(self):
        # two threads, a short switch interval, and grid reads that share and
        # swap keys and grow the grid: each read must get the oracle's arrays
        calls = [(cfg, slots[i::3], seed, trials) for cfg, slots in self.CASES
                 for i in range(3) for seed, trials in ((1, 3), (2, 3), (1, 2))]
        want = [channel_coeffs_oracle(*c)[0] for c in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                got = list(pool.map(lambda c: self.read(*c)[0], calls * 4, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want * 4):
            assert_bits_equal(g, w)

    def test_concurrent_verifications(self):
        # four threads, a short switch interval, and verifications that swap
        # keys and grow the grid: each report must hold the serial bits
        calls = [(cfg, schedule_of(cfg), seed, trials) for cfg, _ in self.CASES
                 for seed, trials in ((1, 3), (2, 3), (1, 2))]
        want = [verify_schedule_end_to_end(*c) for c in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(lambda c: verify_schedule_end_to_end(*c), calls * 4,
                                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want * 4):
            assert_same_report(g, w)

    @pytest.mark.parametrize("offsets, slots", [
        ((0, 1), [[-5, 1, 2], [-9, -8, -7]]),  # labels below 0
        ((0, 1), [[0, 1, 2], [2**63 - 3, 2**63 - 2, 2**63 - 1]]),
        # labels 0..2^62: user * (2^62 + 1) + label would wrap modulo 2^64,
        # and user 4's label 0 would meet user 0's label 4
        ((0, 1, 0, 1, 0), [[0, 8, 9], [2**63 - 3, 2**63 - 2, 2**63 - 1]]),
    ])
    def test_extreme_labels(self, offsets, slots):
        # _draw on the distinct labels of these slots, which its uint64
        # counters wrap as the oracle's do, in either order
        cfg = ChannelConfig(2, offsets)
        for rows in (slots, slots[::-1]):
            H, blocks = channel_coeffs_oracle(cfg, rows, 4, 3)
            labels, inv = np.unique(blocks, return_inverse=True)
            grid = signaling._draw(4, cfg.K, labels, 3)
            got = grid[np.arange(cfg.K)[:, None], inv.reshape(cfg.K, -1)]
            assert_bits_equal(np.moveaxis(got, -2, 1).reshape(H.shape), H)

    def test_store_starts_over_at_its_bound(self, monkeypatch, draws):
        # a grid of at most _VERIFY_CELLS (user, label, trial) cells is kept,
        # with its residual and terms tables
        monkeypatch.setattr(signaling, "_VERIFY_CELLS", 60)
        kept, table, terms = signaling._verify_grid(6, 3, 5, 4)
        assert signaling._grid == [(6, 4, MAGNITUDE_FLOOR, signaling._CANDIDATES), kept, table,
                                   terms]
        again = signaling._verify_grid(6, 2, 4, 4)
        assert again[0] is kept and again[1] is table and again[2] is terms
        assert len(draws) == 1
        # a larger one under the same key, or one under a new key, is drawn
        # on every call and not kept; the kept entries stay
        for args in ((6, 3, 6, 4), (6, 4, 5, 4), (7, 4, 5, 4)):
            for _ in range(2):
                grid, res, screen = signaling._verify_grid(*args)
                assert grid.shape[:3] == (*args[1:3], 4) and grid is not kept
                assert res.shape == (args[1] * args[2], 4) and not res.flags.writeable
                assert screen.shape == (args[1] * (args[2] - 1), 4, 4)
                assert not screen.flags.writeable
                assert signaling._grid[1] is kept and signaling._grid[2] is table
                assert signaling._grid[3] is terms
        assert len(draws) == 7
        # the grid the verifier reads holds the oracle's coefficients
        cfg = evenly_spread(30, 3)
        H, blocks = channel_coeffs_oracle(cfg, schedule_of(cfg).slots, 6, 4)
        users = np.broadcast_to(np.arange(3)[:, None, None], blocks.shape)
        assert_bits_equal(kept[users, blocks], np.moveaxis(H, 1, -2))
        # the table holds each cell's residual, rows user * L + label, read-only
        assert table.shape == (15, 4) and not table.flags.writeable
        pairs = np.repeat(kept[..., None, :], 2, axis=-2).reshape(15, 4, 2, 2)
        assert_bits_equal(table, signaling._residuals(pairs))
        # the terms of each label pair a, a+1, rows user * (L-1) + a, read-only
        assert terms.shape == (12, 4, 4) and not terms.flags.writeable
        blocks = np.stack((kept[:, :-1], kept[:, 1:]), axis=-2).reshape(12, 4, 2, 2)
        assert_bits_equal(terms, signaling._terms(blocks))

    @pytest.mark.parametrize("seed, trials", [(0, 1), (3, 4), (11, 10)])
    def test_terms_match_slot_pair_gather(self, seed, trials):
        # the kept terms of every receiver's own slot pair, on every trial and
        # distinct thread, hold the bits of _terms on the slot pairs gathered
        # from the oracle's coefficients, on the grid the cases grow from
        # empty and on a larger one drawn before them
        big = evenly_spread(60, 6)
        for warm in (False, True):
            if warm:
                verify_schedule_end_to_end(big, schedule_of(big), seed, trials)
            for cfg, _ in self.CASES:
                sched = schedule_of(cfg)
                verify_schedule_end_to_end(cfg, sched, seed, trials)
                _, grid, _, terms = signaling._grid
                K, L = cfg.K, grid.shape[1]
                assert terms.shape == (grid.shape[0] * (L - 1), trials, 4)
                slots = sched.slots[np.sort(np.unique(sched.start_groups, return_index=True)[1])]
                H, blocks = channel_coeffs_oracle(cfg, slots, seed, trials)
                c = np.argmax(pattern_matrix(cfg, slots), axis=-1)
                want = signaling._terms(slot_pairs(H, c)[range(K), :, :, range(K)])
                a = blocks[np.arange(K)[:, None], np.arange(len(slots)), c.T]  # (K, T)
                rows = np.arange(K)[:, None] * (L - 1) + a
                assert_bits_equal(terms[rows[:, None], np.arange(trials)[:, None]], want)

    def test_terms_once_per_draw(self, monkeypatch, draws):
        # the verifier computes screen terms only on a newly drawn grid, which
        # a larger K or L redraws, over the whole grid at once; a warm pass
        # computes none
        computed, terms = [], signaling._terms
        monkeypatch.setattr(signaling, "_terms",
                            lambda D: computed.append(D.shape) or terms(D))
        for cfg, _ in self.CASES:
            verify_schedule_end_to_end(cfg, schedule_of(cfg), seed=4, trials=3)
            assert len(computed) == len(draws)
            _, grid, _, table = signaling._grid
            assert table.shape == (grid.shape[0] * (grid.shape[1] - 1), 3, 4)
        assert computed == [(K, len(labels) - 1, trials, 2, 2)
                            for _, trials, K, labels in draws]
        assert 1 <= len(draws) < len(self.CASES)
        computed.clear()
        for cfg, _ in self.CASES:
            verify_schedule_end_to_end(cfg, schedule_of(cfg), seed=4, trials=3)
        assert computed == []

    def test_residuals_once_per_draw(self, monkeypatch, draws):
        # the verifier computes residuals only on a newly drawn grid, over
        # the whole grid at once, and reads the kept table otherwise
        computed, residuals = [], signaling._residuals
        monkeypatch.setattr(signaling, "_residuals",
                            lambda P: computed.append(P.shape) or residuals(P))
        for cfg, _ in self.CASES * 2:
            verify_schedule_end_to_end(cfg, schedule_of(cfg), seed=4, trials=3)
            assert len(computed) == len(draws)
        assert [shape[:3] for shape in computed] == [(K, len(labels), trials)
                                                    for _, trials, K, labels in draws]
        assert 1 <= len(draws) < len(self.CASES)

    @pytest.mark.parametrize("seed, trials", [(0, 1), (3, 4), (11, 10)])
    def test_emptied_and_warm_grids_agree(self, seed, trials):
        # a verification reads its residuals from a table kept for a larger
        # grid, whose rows user * L + label have another L, with the bits of
        # a verification from an emptied grid
        cold = [self.cold(cfg, seed, trials) for cfg, _ in self.CASES]
        big = evenly_spread(60, 6)
        verify_schedule_end_to_end(big, schedule_of(big), seed, trials)
        table = signaling._grid[2]
        for (cfg, _), want in zip(self.CASES, cold):
            assert_same_report(verify_schedule_end_to_end(cfg, schedule_of(cfg), seed, trials),
                               want)
            assert signaling._grid[2] is table


class TestTupleVerifiers:
    """Negative and positive cases on single threads: the verifier's residual
    and margin kernels on the oracle's coefficients, and the generic path kept
    as their oracle on vectors that leave the chain lemma."""

    THREAD = [(3, 4, 5, 6)]

    def test_alignment_structural(self):
        for seed in range(20):
            residuals, _ = thread_margins(FIG_CFG, self.THREAD, seed)
            assert residuals.max() < 1e-12

    def test_misaligned_tuple_detected(self):
        # slots (3,5,6,7) cross two users in one transition; vectors built as
        # if the pattern were the identity straddle a real channel change
        H, _ = channel_coeffs_oracle(FIG_CFG, [(3, 5, 6, 7)], seed=4, trials=1)
        residuals = signaling._residuals(slot_pairs(H, [range(3)]))[:, 0, 0]
        assert residuals[~np.eye(3, dtype=bool)].max() > 1e-3
        v = beamforming_vectors(np.eye(3, dtype=int))[None]
        assert receiver_margins_generic(H, v)[0].max() > 1e-3

    def test_zero_vector_convention(self):
        # a zeroed vector is no pattern: beamforming_vectors refuses it, and
        # the generic path kept as the kernels' oracle gives the zero
        # vector's residuals 0
        H, _ = channel_coeffs_oracle(FIG_CFG, self.THREAD, seed=4, trials=1)
        M = pattern_matrix(FIG_CFG, self.THREAD)
        v = beamforming_vectors(M)
        v[0, 2] = 0
        residuals = receiver_margins_generic(H, v)[0].max(axis=(2, 3))
        assert residuals[0, 2] == 0.0 and residuals[1, 2] == 0.0
        M[0, 2] = 0
        with pytest.raises(ValueError):
            beamforming_vectors(M)

    def test_decodability_many_seeds(self):
        for seed in range(100):
            residuals, singulars = thread_margins(FIG_CFG, self.THREAD, seed)
            assert residuals.max() < 1e-9 and singulars.min() > 1e-9

    def test_frozen_block_breaks_decodability(self):
        # force user 1's channel to repeat across its transition: its two
        # desired columns become proportional at receiver 1
        H, _ = channel_coeffs_oracle(FIG_CFG, self.THREAD, seed=8, trials=1)
        assert block_index(FIG_CFG, 1, 3) != block_index(FIG_CFG, 1, 4)
        H[0, :, :, 1:] = H[0, :, :, :1]
        c = np.argmax(pattern_matrix(FIG_CFG, self.THREAD), axis=-1)
        _, singulars = kernel_margins(H, c)
        assert singulars[0].min() < 1e-12

    def test_2user_tuple(self):
        cfg = ChannelConfig(3, (0, 1))
        slots = schedule_of(cfg).slots[:1]
        for seed in range(50):
            residuals, singulars = thread_margins(cfg, slots, seed)
            assert residuals.max() < 1e-9 and singulars.min() > 1e-9

    def test_matches_svd_oracle(self):
        # true patterns through the kernels, and fake (random permutation)
        # patterns and partly zeroed indicator vectors, which leave the lemma,
        # through the generic path kept as their oracle
        rng = np.random.default_rng(61)
        for _ in range(12):
            cfg = random_feasible_config(rng, int(rng.integers(2, 6)), 30)
            K = cfg.K
            threads = schedule_of(cfg).slots[:3]
            H, _ = channel_coeffs_oracle(cfg, threads, int(rng.integers(100)), 3)
            M = pattern_matrix(cfg, threads)
            fake = np.eye(K, dtype=int)[rng.permutation(K)]
            zeroed = beamforming_vectors(M)
            zeroed[0, int(rng.integers(K))] = 0
            true = beamforming_vectors(M)
            cases = [(true, kernel_margins(H, np.argmax(M, axis=-1)))]
            for v in (np.broadcast_to(beamforming_vectors(fake), true.shape), zeroed):
                cases.append((v, receiver_margins_generic(H, v)))
            for v, (residuals, singulars) in cases:
                want = receiver_checks_oracle(H, v)
                for g, w in zip((residuals.max(axis=(2, 3)), singulars.min(axis=(1, 2))), want):
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def lemma_thread(K, c, D, rng):
    """H (K, 1, 1, K+1, 2) and M (1, K, K) of one thread whose receiver 1
    has transition column c and block D: h1 is constant on slots 0..c and
    on c+1..K, so every interferer column is a multiple of e_t + e_{t+1}."""
    others = [col for col in range(K) if col != c]
    M = np.zeros((K, K), dtype=int)
    M[0, c] = 1
    M[np.arange(1, K), rng.permutation(others)] = 1
    H = rng.normal(size=(K, 1, 1, K + 1, 2)) + 1j * rng.normal(size=(K, 1, 1, K + 1, 2))
    H[0, 0, 0, :c + 1, 0] = D[0, 0]
    H[0, 0, 0, c + 1:, 0] = D[1, 0]
    H[0, 0, 0, c:c + 2, 1] = D[:, 1]
    return H, M[None]


class TestScreen:
    """The Schur certificate that decides which receiver matrices skip the SVD."""

    @staticmethod
    def lemma_matrix(K, c, D):
        """Normalized receiver matrix of the lemma, built column by column."""
        B = np.zeros((K + 1, K + 1), dtype=complex)
        B[c:c + 2, :2] = D / np.linalg.norm(D, axis=0)
        for col, t in enumerate(t for t in range(K) if t != c):
            B[t:t + 2, col + 2] = 1 / np.sqrt(2)
        return B

    @classmethod
    def schur_oracle(cls, K, c, D):
        """S(lam) as the Schur complement of B^H B - lam I on the lemma
        matrix's two desired columns, solved on its interferer block, and
        mu_min, the smallest eigenvalue of the interferer Gram matrix."""
        B = cls.lemma_matrix(K, c, D)
        G = B.conj().T @ B
        X, Y = G[2:, :2], G[2:, 2:]

        def S(lam):
            return (G[:2, :2] - lam * np.eye(2)
                    - X.conj().T @ np.linalg.solve(Y - lam * np.eye(K - 1), X))
        return S, np.linalg.eigvalsh(Y)[0]

    @pytest.mark.parametrize("K", range(2, 13))
    def test_characteristic_polynomial(self, K):
        # S(sigma^2), built from the lemma matrix, is singular at the smallest
        # singular value sigma and positive definite just below it, and
        # _schur's closed form gives its smallest eigenvalue below mu_min
        rng = np.random.default_rng(K)
        for c in range(K):
            D = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            sigma = np.linalg.svd(self.lemma_matrix(K, c, D), compute_uv=False)[-1]
            S, mu_min = self.schur_oracle(K, c, D)
            assert abs(np.linalg.det(S(sigma ** 2))) < 1e-9
            below = np.linalg.eigvalsh(S(0.999 * sigma ** 2))[0]
            assert below > 0
            schur = signaling._schur(K, c, signaling._terms(D))
            np.testing.assert_allclose(schur(0.999 * sigma ** 2), below, rtol=1e-9)
            levels = np.linspace(0, 0.9 * mu_min, 16)
            np.testing.assert_allclose(schur(levels),
                                       [np.linalg.eigvalsh(S(lam))[0] for lam in levels],
                                       rtol=1e-9)
            # w(0) = 1/(n+1) on both chains, read on an identity block
            w0 = [1 / (c + 1), 1 / (K - c)]
            np.testing.assert_allclose(self.schur_oracle(K, c, np.eye(2))[0](0.0), np.diag(w0),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(signaling._schur(K, c, signaling._terms(np.eye(2)))(0.0),
                                       min(w0), rtol=1e-12)

    @pytest.mark.parametrize("K", range(2, 13))
    def test_certificates_are_sound(self, K):
        # levels around the SVD oracle's sigma, on random blocks, near-singular
        # ones and ones with lambda_min(S(0)) >= mu_min: no level at or above
        # sigma is certified, and every level up to 0.999 sigma is, except on
        # near-singular blocks, where det S lies below its rounding bound
        rng = np.random.default_rng(100 + K)
        levels = np.array([0.5, 0.9, 0.999, 1, 1.001, 1.1, 2, 3])
        certified = {"random": 0, "near-singular": 0, "past mu_min": 0}
        for c in range(K):
            cases = []
            for _ in range(12):
                D = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                cases.append(("random", D))
                near = D.copy()
                near[:, 1] = near[:, 0] * (rng.normal() + 1j * rng.normal())
                near[:, 1] += 1e-12 * (rng.normal(size=2) + 1j * rng.normal(size=2))
                cases.append(("near-singular", near))
                wide = np.eye(2) + 0.05 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                S, mu_min = self.schur_oracle(K, c, wide)
                if np.linalg.eigvalsh(S(0.0))[0] >= mu_min:
                    cases.append(("past mu_min", wide))
            for kind, D in cases:
                H, M = lemma_thread(K, c, D, rng)
                v = beamforming_vectors(M)
                sigma = receiver_checks_oracle(H, v)[1][0]
                lemma, cs, Ds = lemma_blocks(H, v.astype(bool))
                assert lemma[0, 0, 0] and cs[0, 0, 0] == c
                np.testing.assert_array_equal(Ds[0, 0, 0], D)
                ok = signaling._schur(K, c, signaling._terms(D))((levels * sigma) ** 2,
                                                                 certify=True)
                assert not ok[levels >= 1].any(), (kind, c, sigma, ok)
                if kind != "near-singular":
                    assert ok[levels < 1].all(), (kind, c, sigma, ok)
                certified[kind] += ok.sum()
        assert certified["near-singular"] == 0
        assert certified["past mu_min"] > 0 or K < 5  # such blocks exist from K = 5

    def test_lemma_checks_refuse(self):
        # zeroed and user-swapped vectors, a broken h1 and huge coefficients
        # leave the lemma, and the generic oracle says so
        rng = np.random.default_rng(3)
        H, M = lemma_thread(4, 1, rng.normal(size=(2, 2)) + 0j, rng)
        v = beamforming_vectors(M)
        assert lemma_blocks(H, v.astype(bool))[0][0, 0, 0]
        zeroed = v.copy()
        zeroed[0, 2] = 0
        swapped = v[:, [1, 0, 2, 3]]
        broken = H.copy()
        broken[0, 0, 0, 0, 0] *= 1 + 1e-15
        huge = H * 1e200
        for h, vec in ((H, zeroed), (H, swapped), (broken, v), (huge, v)):
            assert not lemma_blocks(h, vec.astype(bool))[0][0, 0, 0]

    @settings(max_examples=30, deadline=None)
    @given(cfg=feasible_configs(), seed=st.integers(0, 1000))
    def test_screen_keeps_minimum_and_witness(self, cfg, seed):
        # with nothing certified every matrix goes through the SVD, and with
        # the first batch picked in reverse or at random the second batch
        # runs: each report must hold the same bits and the same witnesses
        sched = schedule_of(cfg)
        screened = verify_schedule_end_to_end(cfg, sched, seed=seed, trials=6)
        schur = signaling._schur
        rng = np.random.default_rng(seed)
        for variant in (lambda out, certify: np.zeros_like(out) if certify else out,
                        lambda out, certify: out if certify else -out,
                        lambda out, certify: out if certify else rng.random(np.shape(out))):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(signaling, "_schur", lambda *a, variant=variant: (
                    lambda lam, certify=False: variant(schur(*a)(lam, certify), certify)))
                other = verify_schedule_end_to_end(cfg, sched, seed=seed, trials=6)
            assert float.hex(screened.min_singular) == float.hex(other.min_singular)
            assert screened.singular_witness == other.singular_witness
            assert screened == other


class TestPairKernel:
    """The slot-pair kernels against the generic path they replaced, kept as their oracle."""

    @settings(max_examples=40, deadline=None)
    @given(cfg=feasible_configs(k_max=7), seed=st.integers(0, 1000), trials=st.integers(1, 6))
    def test_bits_match_generic_path(self, cfg, seed, trials):
        K = cfg.K
        sched = schedule_of(cfg)
        keep = np.sort(np.unique(sched.start_groups, return_index=True)[1])
        slots = sched.slots[keep]
        H, _ = channel_coeffs_oracle(cfg, slots, seed, trials)
        M = pattern_matrix(cfg, slots)
        want = receiver_margins_generic(H, beamforming_vectors(M))
        for g, w in zip(kernel_margins(H, np.argmax(M, axis=-1)), want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))
        # the whole report, witnesses included: the verifier's residuals come
        # from its (user, block) entries, the expected ones from every slot
        residuals, singulars = want
        residuals[range(K), range(K)] = -1.0
        res, sig = residuals.transpose(3, 2, 0, 1), singulars.transpose(2, 1, 0)
        at_res = np.unravel_index(res.argmax(), res.shape)
        at_sig = np.unravel_index(sig.argmin(), sig.shape)

        def witness(d, trial, receiver, interferer=None):
            return Witness(int(keep[d]), int(sched.start_groups[keep[d]]),
                           tuple(slots[d].tolist()), int(trial), int(receiver) + 1,
                           None if interferer is None else int(interferer) + 1)

        report = verify_schedule_end_to_end(cfg, sched, seed=seed, trials=trials)
        assert float.hex(report.max_residual) == float.hex(res[at_res])
        assert float.hex(report.min_singular) == float.hex(sig[at_sig])
        assert report.residual_witness == witness(*at_res)
        assert report.singular_witness == witness(*at_sig)

    def test_generic_path_ignores_layout(self):
        # the oracle on a swapped-axes copy of H, the same values in another
        # memory layout, must screen the same matrices and give the same bits
        cfg = ChannelConfig(23, (4, 9, 13, 18, 0))
        sched = schedule_of(cfg)
        keep = np.sort(np.unique(sched.start_groups, return_index=True)[1])
        slots = sched.slots[keep[:8]]
        H = channel_coeffs_oracle(cfg, slots, 3, 4)[0]
        v = beamforming_vectors(pattern_matrix(cfg, slots))
        swapped = np.swapaxes(np.swapaxes(H, 1, 2).copy(), 1, 2)
        assert not swapped.flags.c_contiguous
        want = receiver_margins_generic(H, v)
        for got, w in zip(receiver_margins_generic(swapped, v), want):
            assert_bits_equal(got, w)
        assert np.isfinite(want[1]).sum() < want[1].size

    def test_guard_on_interferer_slots(self, monkeypatch):
        # a receiver block boundary between an interferer's two slots would
        # give that interferer two entries and break the per-entry residual;
        # validation rules it out, so only a tampered label map reaches the
        # guard. Receiver 1's labels drop by 1 past user 2's transition on
        # the first thread, which the verifier keeps; that leaves every
        # transition column as it was. The schedule's map is tampered after
        # validation, whose passing report the schedule keeps
        cfg = ChannelConfig(23, (4, 9, 13, 18, 0))
        sched = schedule_of(cfg)
        assert verify_schedule_end_to_end(cfg, sched, seed=5, trials=2).passed
        slots, groups, blocks = sched._map
        blocks = blocks.copy()
        blocks[0, 0, np.argmax(np.diff(blocks[1, 0])) + 1:] -= 1
        monkeypatch.setitem(sched.__dict__, "_map", (slots, groups, blocks))
        with pytest.raises(ValueError, match="two blocks of a receiver"):
            verify_schedule_end_to_end(cfg, sched, seed=5, trials=2)


class TestEndToEnd:
    def test_c05_digest(self, monkeypatch):
        # one sha256 over float.hex of both worst values, both witnesses,
        # n_distinct and passed of the 201 gate-5 configs at seed 7 with 10
        # trials, in one run whose grid grows across the calls from empty.
        # The digest predates the kept residual table and the shared slot map
        monkeypatch.setattr(signaling, "_grid", [None] * len(signaling._grid))
        rng = np.random.default_rng(509)
        configs = [ChannelConfig(4, (0, 1, 2))]
        while len(configs) < 201:
            configs.append(random_feasible_config(rng, int(rng.integers(2, 6)), 60))
        digest = hashlib.sha256()
        for cfg in configs:
            s = verify_schedule_end_to_end(cfg, schedule_of(cfg), seed=7, trials=10)
            digest.update(f"{float.hex(s.max_residual)} {float.hex(s.min_singular)} "
                          f"{s.residual_witness!r} {s.singular_witness!r} "
                          f"{s.n_distinct} {s.passed}\n".encode())
        assert digest.hexdigest() == (
            "b5d4b411ffa9ec12048f2d43f9f8740cbecb5ac3fdc70e14af8e16c902ae127b")

    def test_reference_instance(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        summary = verify_schedule_end_to_end(FIG_CFG, sched, seed=0, trials=100)
        assert summary.passed
        assert summary.max_residual < 1e-9
        assert summary.min_singular > 1e-9
        assert summary.symbols_per_slot == Fraction(3, 2)

    @settings(max_examples=40, deadline=None)
    @given(cfg=feasible_configs(), seed=st.integers(0, 1000))
    @example(cfg=evenly_spread(60, 4), seed=3)
    def test_matches_kernel_on_pattern_matrices(self, cfg, seed):
        # the summary is the kernel's worst case over every thread, with
        # indicator vectors taken from each thread's pattern matrix, although
        # only the first thread of each start group is checked
        assert check_config(cfg).feasible
        sched = schedule_of(cfg)
        summary = verify_schedule_end_to_end(cfg, sched, seed=seed, trials=4)
        H, _ = channel_coeffs_oracle(cfg, sched.slots, seed, 4)
        residuals, singulars = receiver_margins_generic(
            H, beamforming_vectors(pattern_matrix(cfg, sched.slots)))
        assert summary.max_residual == residuals.max()
        assert summary.min_singular == singulars.min()
        assert summary.n_tuples == len(sched.slots) == cfg.N
        assert summary.n_distinct == len(np.unique(label_rows(cfg, sched), axis=0))
        assert summary.n_distinct == sum(v > 0 for v in sched.lam)
        if cfg == evenly_spread(cfg.N, cfg.K) and cfg.N % cfg.K == 0:
            assert summary.n_distinct == cfg.K

    def test_svd_batch_holds_distinct_threads(self, monkeypatch):
        # the benchmark's tracer counts SVD matrices at the same call
        batches = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            batches.append(np.asarray(a).shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(signaling.np.linalg, "svd", counting_svd)
        for cfg, distinct in ((evenly_spread(60, 4), 4), (evenly_spread(600, 3), 3),
                              (FIG_CFG, 4)):
            batches.clear()
            summary = verify_schedule_end_to_end(cfg, schedule_of(cfg), seed=1, trials=5)
            assert summary.n_distinct == distinct
            # at most two calls, each on one stack of receiver matrices, that
            # hold at least one matrix per receiver among its trials x
            # distinct-thread matrices
            assert 1 <= len(batches) <= 2
            assert all(b[1:] == (cfg.K + 1, cfg.K + 1) for b in batches)
            assert batches[0][0] == cfg.K  # one matrix per receiver
            assert cfg.K <= sum(b[0] for b in batches) <= cfg.K * 5 * distinct

    def test_verification_memory(self):
        # a verify_sweep config at seed 2 with 25 distinct threads and 10
        # trials, the grid warm: the screen terms read from the kept table and
        # the slot pairs of the SVD's matrices alone peak near 197 KiB, where a
        # gather of every slot pair took 856 KiB, and the coefficient array
        # with residuals on every slot pair 1,446 KiB
        cfg = ChannelConfig(59, (48, 12, 2, 23, 36))
        sched = schedule_of(cfg)
        warm = verify_schedule_end_to_end(cfg, sched, seed=2, trials=10)
        tracemalloc.start()
        try:
            summary = verify_schedule_end_to_end(cfg, sched, seed=2, trials=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary == warm and summary.n_distinct == 25
        assert peak < 2**19

    def test_uncertified_matrices_memory(self, monkeypatch):
        # verify_long's random config at 400 trials with the screen certifying
        # nothing: the second SVD batch takes every matrix but one per
        # receiver, 49,995 matrices, gathered in slices of _VERIFY_CELLS //
        # (K+1)^4 = 1,618. The peak is about 7.6 MiB, where one gather of the
        # whole batch took 82.9 MiB; the result is the screened one
        cfg = ChannelConfig(3000, (2596, 785, 2006, 196, 1390))
        sched = schedule_of(cfg)
        screened = verify_schedule_end_to_end(cfg, sched, seed=1, trials=400)
        schur = signaling._schur

        def certify_nothing(K, c, terms):
            at = schur(K, c, terms)
            return lambda lam, certify=False: (at(lam, True) & False) if certify else at(lam)

        monkeypatch.setattr(signaling, "_schur", certify_nothing)
        tracemalloc.start()
        try:
            summary = verify_schedule_end_to_end(cfg, sched, seed=1, trials=400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary == screened and summary.n_distinct == 25
        assert summary.min_singular.hex() == screened.min_singular.hex()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("cfg, seed, trials", [
        (FIG_CFG, 0, 100),
        (evenly_spread(60, 4), 2, 10),
        (ChannelConfig(11, (0, 3, 6)), 21, 30),
        (ChannelConfig(23, (4, 9, 13, 18, 0)), 5, 20),
    ])
    def test_witness_reproduces_worst_values(self, cfg, seed, trials):
        sched = schedule_of(cfg)
        summary = verify_schedule_end_to_end(cfg, sched, seed=seed, trials=trials)
        rows = label_rows(cfg, sched)
        res_w, sig_w = summary.residual_witness, summary.singular_witness
        assert res_w.interferer not in (None, res_w.receiver) and sig_w.interferer is None
        for w in (res_w, sig_w):
            assert w.start_group == sched.start_groups[w.thread]
            assert w.slots == tuple(sched.slots[w.thread].tolist())
            assert all(type(n) is int for n in (w.start_group, *w.slots))
            # the first thread in schedule order with these block labels
            assert not (rows[:w.thread] == rows[w.thread]).all(axis=1).any()
        # each witness thread recomputed alone, on its own trial, where every
        # receiver matrix goes through the SVD: the generic kernel gives the
        # same bits, the per-matrix SVD loop the same values to 1e-12
        for w, worst in ((res_w, summary.max_residual), (sig_w, summary.min_singular)):
            H = channel_coeffs_oracle(cfg, [w.slots], seed, trials)[0][:, w.trial:w.trial + 1]
            v = beamforming_vectors(pattern_matrix(cfg, w.slots))[None]
            which = w.interferer is None  # residuals at 0, singular values at 1
            at = w.receiver - 1 if which else (w.receiver - 1, w.interferer - 1)
            assert receiver_margins_generic(H, v)[which][at].item() == worst
            np.testing.assert_allclose(receiver_checks_oracle(H, v)[which][at], worst,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cfg, user", [(FIG_CFG, 0), (evenly_spread(60, 4), 2)])
    def test_frozen_channel_fails_decodability(self, monkeypatch, cfg, user):
        # a draw that repeats one user's coefficients on every label makes its
        # two desired columns proportional at its own receiver: the verdict
        # is a numerical FAIL, with that receiver as the witness
        monkeypatch.setattr(signaling, "_grid", [None] * len(signaling._grid))
        monkeypatch.setattr(signaling, "_draw", frozen_user_draw(user))
        summary = verify_schedule_end_to_end(cfg, schedule_of(cfg), seed=8, trials=3)
        assert summary.aligned_ok and not summary.decodable_ok and not summary.passed
        assert summary.min_singular < 1e-12 and summary.symbols_per_slot is None
        assert summary.singular_witness.receiver == user + 1

    def test_deterministic(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        a = verify_schedule_end_to_end(FIG_CFG, sched, seed=12, trials=10)
        b = verify_schedule_end_to_end(FIG_CFG, sched, seed=12, trials=10)
        assert a == b

    def test_both_certificates_of_nonunique_instance(self):
        cfg = ChannelConfig(11, (0, 3, 6))
        s = group_profile(cfg)
        sols = brute_force_solve(s, enumerate_all=True)
        assert len(sols) >= 2
        for lam in sols:
            sched = build_schedule(cfg, lam)
            summary = verify_schedule_end_to_end(cfg, sched, seed=21, trials=30)
            assert summary.passed, lam

    def test_infeasible_config_refused_upstream(self):
        cfg = ChannelConfig(8, (0, 3, 3))
        assert not check_config(cfg).feasible
        with pytest.raises(ValueError):
            closed_form_solution(group_profile(cfg))

    def test_trials_validation(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                verify_schedule_end_to_end(FIG_CFG, sched, seed=0, trials=trials)
            # after the config and validation checks, before any draw
            with pytest.raises(ValueError, match="differs"):
                verify_schedule_end_to_end(ChannelConfig(5, (0, 1, 2)), sched, seed=0,
                                           trials=trials)
            with pytest.raises(ValueError, match="fails validation"):
                verify_schedule_end_to_end(FIG_CFG, tamper_schedule(sched, "changed lambda", 0, 1),
                                           seed=0, trials=trials)
        # 3 * 10^9 * 4 * 4 coefficient cells, refused before any draw
        with pytest.raises(SearchBudgetExceeded, match="48000000000 coefficient cells"):
            verify_schedule_end_to_end(FIG_CFG, sched, seed=0, trials=10**9)

    def test_config_must_match_schedule(self):
        sched = build_schedule(FIG_CFG, FIG_LAMBDA)
        other = ChannelConfig(5, (0, 1, 2))
        with pytest.raises(ValueError, match="differs") as info:
            verify_schedule_end_to_end(other, sched, seed=0, trials=1)
        assert str(other) in str(info.value) and str(FIG_CFG) in str(info.value)
        # offsets are compared after normalization modulo N
        assert verify_schedule_end_to_end(ChannelConfig(4, (4, 5, 6)), sched,
                                          seed=0, trials=1).passed
