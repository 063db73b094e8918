from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindalign import (
    ChannelConfig,
    block_index,
    enumerate_feasible_patterns,
    group_profile,
    group_slots,
    is_feasible_pattern,
    pattern_matrix,
    slot_group,
    slot_map,
)
from helpers import (
    block_index_oracle,
    pattern_matrix_oracle,
    random_feasible_config,
    slot_group_oracle,
)


class TestBlockIndex:
    def test_known_values(self):
        cfg = ChannelConfig(N=4, offsets=(0, 1, 2))
        assert block_index(cfg, 1, 5) == 1  # floor(5/4)
        assert block_index(cfg, 2, 0) == 0  # before user 2's first boundary
        assert block_index(cfg, 2, 1) == 1
        assert block_index(cfg, 1, 3) == 0
        assert block_index(cfg, 1, 4) == 1
        assert block_index(cfg, 3, 1) == 0
        assert block_index(cfg, 3, 2) == 1

    def test_input_errors(self):
        cfg = ChannelConfig(N=4, offsets=(0, 1, 2))
        with pytest.raises(ValueError):
            block_index(cfg, 0, 3)
        with pytest.raises(ValueError):
            block_index(cfg, 4, 3)
        with pytest.raises(ValueError):
            block_index(cfg, 1, -1)

    def test_boundary_steps(self):
        # the label is nondecreasing and steps by 1 exactly at slots
        # congruent to the user's offset
        rng = np.random.default_rng(101)
        for _ in range(40):
            N = int(rng.integers(1, 25))
            K = int(rng.integers(2, 6))
            cfg = ChannelConfig(N=N, offsets=tuple(int(x) for x in rng.integers(0, N, K)))
            for user in range(1, K + 1):
                labels = [block_index(cfg, user, n) for n in range(4 * N + 1)]
                for slot in range(1, 4 * N + 1):
                    step = labels[slot] - labels[slot - 1]
                    expected = 1 if slot % N == cfg.offsets[user - 1] else 0
                    assert step == expected


class TestSlotMap:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_oracles(self, data):
        N = data.draw(st.integers(1, 40), label="N")
        K = data.draw(st.integers(2, 6), label="K")
        offsets = data.draw(st.lists(st.integers(0, N - 1), min_size=K, max_size=K),
                            label="offsets")
        if data.draw(st.booleans(), label="duplicate"):  # a zero-size group
            i, j = data.draw(st.lists(st.integers(0, K - 1), min_size=2, max_size=2,
                                      unique=True), label="pair")
            offsets[j] = offsets[i]
        if data.draw(st.booleans(), label="benchmark at 0"):
            offsets[0] = 0
        cfg = ChannelConfig(N, tuple(offsets))
        slots = np.arange(4 * N + 1)
        groups, blocks = slot_map(cfg, slots)
        assert groups.shape == slots.shape and blocks.shape == (K, slots.size)
        for user in range(1, K + 1):
            expected = [block_index_oracle(cfg, user, n) for n in range(4 * N + 1)]
            assert blocks[user - 1].tolist() == expected
            assert [block_index(cfg, user, n) for n in range(4 * N + 1)] == expected
        inside = slots[slots >= cfg.offsets[0]]
        expected = [slot_group_oracle(cfg, int(n)) for n in inside]
        assert groups[slots >= cfg.offsets[0]].tolist() == expected
        assert slot_group(cfg, inside).tolist() == expected
        assert [slot_group(cfg, int(n)) for n in inside] == expected

        rows = data.draw(st.lists(
            st.lists(st.integers(0, 4 * N + K), min_size=K + 1, max_size=K + 1,
                     unique=True).map(sorted), min_size=1, max_size=6), label="threads")
        stack = pattern_matrix(cfg, np.array(rows))
        assert stack.shape == (len(rows), K, K)
        for row, M in zip(rows, stack):
            assert M.tolist() == pattern_matrix_oracle(cfg, row).tolist()
            assert pattern_matrix(cfg, tuple(row)).tolist() == M.tolist()
        assert pattern_matrix(cfg, np.array([rows, rows])).shape == (2, len(rows), K, K)

    def test_beyond_int64(self):
        # Python integers are mapped exactly at any size
        N = 10**20
        cfg = ChannelConfig(N, (0, 3 * 10**19, 6 * 10**19))
        slots = (6 * 10**19 - 1, 6 * 10**19, 10**20, 13 * 10**19)
        assert [slot_group(cfg, n) for n in slots] == [slot_group_oracle(cfg, n) for n in slots]
        assert pattern_matrix(cfg, slots).tolist() == pattern_matrix_oracle(cfg, slots).tolist()
        assert block_index(cfg, 3, 2 * N) == block_index_oracle(cfg, 3, 2 * N) == 2

    def test_slot_group_input_errors(self):
        cfg = ChannelConfig(8, (3, 5))
        with pytest.raises(ValueError):
            slot_group(cfg, 2)
        with pytest.raises(ValueError):
            slot_group(cfg, np.array([3, 4, 2]))


class TestGroupProfile:
    def test_known_values(self):
        assert group_profile(ChannelConfig(4, (0, 1, 2))) == (1, 1, 2)
        assert group_profile(ChannelConfig(20, (0, 5, 10))) == (5, 5, 10)
        # unsorted offsets exchange the first two gap roles
        assert group_profile(ChannelConfig(11, (0, 6, 3))) == (3, 3, 5)

    def test_sorted_3user_closed_form(self):
        for N in range(3, 16):
            for n2 in range(1, N):
                for n3 in range(n2 + 1, N):
                    s = group_profile(ChannelConfig(N, (0, n2, n3)))
                    assert s == (n2, n3 - n2, N - n3)

    def test_sum_and_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            N = int(rng.integers(1, 40))
            K = int(rng.integers(2, 7))
            offsets = tuple(int(x) for x in rng.integers(0, N, K))
            prof = group_profile(ChannelConfig(N, offsets))
            assert sum(prof) == N
            shift = int(rng.integers(0, N))
            shifted = tuple((o + shift) % N for o in offsets)
            assert group_profile(ChannelConfig(N, shifted)) == prof

    def test_duplicates_give_zero_gaps(self):
        prof = group_profile(ChannelConfig(8, (0, 3, 3)))
        assert 0 in prof and sum(prof) == 8

    def test_zero_gap_iff_duplicate_offsets(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            N = int(rng.integers(2, 30))
            K = int(rng.integers(2, 6))
            cfg = ChannelConfig(N, tuple(int(x) for x in rng.integers(0, N, K)))
            has_dup = len(set(cfg.offsets)) < cfg.K
            assert (0 in group_profile(cfg)) == has_dup


class TestGroupSlots:
    def test_partition_and_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            cfg = random_feasible_config(rng, int(rng.integers(2, 6)), 40)
            prof = group_profile(cfg)
            K = cfg.K
            seen = []
            for g in range(3 * K):
                slots = list(group_slots(cfg, g))
                assert len(slots) == prof[g % K]
                for n in slots:
                    assert slot_group(cfg, n) == g
                seen.extend(slots)
            # consecutive groups tile the slots contiguously
            assert seen == list(range(cfg.offsets[0], cfg.offsets[0] + 3 * cfg.N))


class TestPatternMatrix:
    def test_first_period_tile(self):
        # tile slots 3..6 of the N=4, offsets (0,1,2) channel: each user
        # changes at its own transition, in user order
        cfg = ChannelConfig(4, (0, 1, 2))
        M = pattern_matrix(cfg, (3, 4, 5, 6))
        assert M.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_matches_block_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            N = int(rng.integers(2, 20))
            K = int(rng.integers(2, 5))
            cfg = ChannelConfig(N, tuple(int(x) for x in rng.integers(0, N, K)))
            slots = sorted(rng.choice(4 * N, size=K + 1, replace=False).tolist())
            M = pattern_matrix(cfg, slots)
            for i in range(K):
                for j in range(K):
                    changed = block_index(cfg, i + 1, slots[j]) != block_index(cfg, i + 1, slots[j + 1])
                    assert M[i, j] == (1 if changed else 0)

    def test_all_zero_within_blocks(self):
        cfg = ChannelConfig(20, (0, 5, 10))
        M = pattern_matrix(cfg, (11, 12, 13, 14))
        assert not M.any()

    def test_second_tile_is_permutation(self):
        cfg = ChannelConfig(4, (0, 1, 2))
        assert is_feasible_pattern(pattern_matrix(cfg, (7, 8, 9, 10)))

    def test_consecutive_group_selection_is_permutation(self):
        # with distinct offsets, picking one slot from each of K+1
        # consecutive groups always yields exactly one 1 per column
        rng = np.random.default_rng(29)
        for _ in range(40):
            cfg = random_feasible_config(rng, int(rng.integers(2, 6)), 40)
            start = int(rng.integers(0, 2 * cfg.K))
            slots = []
            for g in range(start, start + cfg.K + 1):
                choices = list(group_slots(cfg, g))
                slots.append(int(choices[rng.integers(0, len(choices))]))
            M = pattern_matrix(cfg, slots)
            assert (M.sum(axis=0) == 1).all()
            assert is_feasible_pattern(M)

    def test_reordered_transition_pattern(self):
        # offsets (0,3,1): boundary order user1, user3, user2, so a tuple
        # spanning groups 1..4 realizes the classic column order (2,1,3)
        cfg = ChannelConfig(4, (0, 3, 1))
        M = pattern_matrix(cfg, (1, 3, 4, 5))
        assert M.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]

    def test_input_errors(self):
        cfg = ChannelConfig(4, (0, 1, 2))
        with pytest.raises(ValueError):
            pattern_matrix(cfg, (3, 3, 5, 6))
        with pytest.raises(ValueError):
            pattern_matrix(cfg, (5, 4, 6, 7))
        with pytest.raises(ValueError):
            pattern_matrix(cfg, (3, 4, 5))


class TestFeasiblePatterns:
    def test_known_matrices(self):
        assert is_feasible_pattern([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert is_feasible_pattern(np.eye(4, dtype=int))
        assert not is_feasible_pattern([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        assert not is_feasible_pattern([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert not is_feasible_pattern([[2, 0], [0, 1]])

    def test_exhaustive_3x3_against_sum_oracle(self):
        for bits in product((0, 1), repeat=9):
            M = np.array(bits).reshape(3, 3)
            oracle = all(M.sum(axis=0) == 1) and all(M.sum(axis=1) == 1)
            assert is_feasible_pattern(M) == oracle

    def test_enumeration_is_exactly_the_permutations(self):
        mats = [tuple(map(tuple, M)) for M in enumerate_feasible_patterns(3)]
        assert len(mats) == 6 and len(set(mats)) == 6
        for M in enumerate_feasible_patterns(3):
            assert is_feasible_pattern(M)
        # and nothing else qualifies
        all_perm = {tuple(map(tuple, M)) for M in enumerate_feasible_patterns(3)}
        for bits in product((0, 1), repeat=9):
            M = np.array(bits).reshape(3, 3)
            assert (tuple(map(tuple, M)) in all_perm) == is_feasible_pattern(M)
