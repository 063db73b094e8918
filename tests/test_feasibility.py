import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindalign import (
    ChannelConfig,
    check_config,
    check_feasible,
    feasible_region,
    find_feasible_subset,
    group_profile,
)
from blindalign.errors import SearchBudgetExceeded
from blindalign.feasibility import (_REGION_CELLS, _ROW_BLOCK, feasible_sorted_block,
                                    feasible_subset_rows, row_dtype)
from helpers import (brute_force_solve, compositions, find_feasible_subset_single_padding,
                     first_feasible_subset_oracle, lap_order_feasible, subset_rows_oracle)


def whole_config_feasible(offsets, N):
    """The circular gap check on offsets: the k_target = K subset search."""
    offsets = tuple(offsets)
    return find_feasible_subset(offsets, N, len(offsets)) is not None


def sorted_kernel(rows, N, k_target):
    """``feasible_sorted_block`` on every block of the rows, sorted and
    transposed: the greedy-chain kernel at any N, also where
    ``feasible_subset_rows`` takes the word path (N <= 64)."""
    cols = np.sort(np.asarray(rows, dtype=row_dtype(N)), axis=1).T
    return np.concatenate([feasible_sorted_block(cols[:, lo:lo + _ROW_BLOCK], N, k_target)
                           for lo in range(0, cols.shape[1], _ROW_BLOCK)])


def _first_chain_ends_in_time(row, N, k_target):
    """Stage 1 in plain Python: from the smallest offset, jump k_target-1
    times to the first point at least the threshold on; the chain is a
    witness when its closing gap, back to the smallest offset one lap on,
    still meets the threshold."""
    row = sorted(int(x) for x in row)
    need = -(-N // (k_target + 1))
    v = row[0]
    for _ in range(k_target - 1):
        v = next((x for x in row if x >= v + need), row[0] + N)
    return v <= row[0] + N - need


class TestWeakCondition:
    def test_implied_by_full_condition(self):
        # the weak 3-user condition, max gap at most twice the min gap
        for N in range(1, 41):
            for s in compositions(N, 3):
                if check_feasible(s):
                    assert max(s) <= 2 * min(s)


class TestFullCondition:
    def test_known_values(self):
        assert check_feasible((1, 1, 2))
        assert not check_feasible((3, 3, 7))
        assert check_feasible((5, 5, 5, 5))

    def test_zero_gap_always_infeasible(self):
        assert not check_feasible((0, 4, 4))
        assert not check_feasible((2, 0, 2, 2))


class TestThreeFormulations:
    def exhaustive_cases(self):
        for N in range(1, 13):
            for offs in product(range(N), repeat=2):
                yield ChannelConfig(N, (0, *offs))

    def test_exhaustive_3user(self):
        for cfg in self.exhaustive_cases():
            a = check_config(cfg).feasible
            b = check_feasible(group_profile(cfg))
            c = whole_config_feasible(cfg.offsets, cfg.N)
            assert a == b == c

    def test_random_higher_k(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            N = int(rng.integers(1, 31))
            K = int(rng.integers(2, 6))
            cfg = ChannelConfig(N, tuple(int(x) for x in rng.integers(0, N, K)))
            a = check_config(cfg).feasible
            b = check_feasible(group_profile(cfg))
            c = whole_config_feasible(cfg.offsets, cfg.N)
            assert a == b == c

    def test_duplicate_offsets_infeasible(self):
        assert not check_config(ChannelConfig(8, (0, 3, 3))).feasible
        assert not check_config(ChannelConfig(10, (4, 4))).feasible
        rng = np.random.default_rng(5)
        for _ in range(200):
            N = int(rng.integers(2, 40))
            K = int(rng.integers(2, 6))
            offs = [int(x) for x in rng.integers(0, N, K)]
            offs[int(rng.integers(1, K))] = offs[0]  # force a duplicate
            assert not check_config(ChannelConfig(N, tuple(offs))).feasible

    def test_report_fields(self):
        rep = check_config(ChannelConfig(4, (0, 1, 2)))
        assert rep.feasible and rep.min_gap == 1
        assert rep.threshold == 1 and rep.min_gap_required == 1
        rep = check_config(ChannelConfig(20, (0, 5, 10)))
        assert rep.feasible and rep.min_gap == 5 and rep.min_gap_required == 5


class TestCircularGapCheck:
    def test_known_values(self):
        assert whole_config_feasible((0, 1, 2), 4)
        assert whole_config_feasible((0, 4, 8), 16)
        assert not whole_config_feasible((0, 2, 8), 16)

    def test_offsets_past_int64(self):
        N = 3 * 2**63
        for offsets in ((0, 2**63, 2**64), (0, 2**63, 2**64 + 5), (5, -1, 2**70)):
            expected = check_config(ChannelConfig(N, offsets)).feasible
            assert whole_config_feasible(offsets, N) == expected
        assert whole_config_feasible((0, 2**63, 2**64), N)
        assert find_feasible_subset((0, 1, 2**63, 2**64), N, 3) == (1, 3, 4)

    def test_circular_not_linear_differences(self):
        # pairwise |differences| are all >= 5 here, but the ring gap 20-18=2
        # breaks feasibility; the circular reading must reject it
        assert not whole_config_feasible((0, 5, 18), 20)
        assert whole_config_feasible((0, 5, 15), 20)


class TestFeasibleRegion:
    def test_reference_counts(self):
        r20 = feasible_region(20)
        assert r20.count == 42 and r20.ratio == 42 / 400
        r21 = feasible_region(21)
        assert r21.count == 20 and abs(r21.ratio - 20 / 441) < 1e-15

    def test_small_regions(self):
        assert feasible_region(3).points == ((1, 2), (2, 1))
        assert feasible_region(1).count == 0
        assert feasible_region(2).count == 0

    def test_symmetry(self):
        for N in (7, 12, 20, 21):
            pts = set(feasible_region(N).points)
            assert {(b, a) for a, b in pts} == pts

    def test_against_inequality_oracle(self):
        # literal region inequalities with exact rational comparisons,
        # applied to whichever ordering of (n2, n3) is increasing
        for N in range(1, 26):
            expected = set()
            for n2 in range(N):
                for n3 in range(N):
                    lo, hi = min(n2, n3), max(n2, n3)
                    if lo != hi and 4 * lo >= N and 4 * (hi - lo) >= N and 4 * hi <= 3 * N:
                        expected.add((n2, n3))
            assert set(feasible_region(N).points) == expected

    @pytest.mark.parametrize("N", [1025, 10**5, 2**40])
    def test_refuses_a_grid_past_the_limit(self, N):
        # refused before the grid is allocated: N = 10^5 has 10^10 cells
        assert 1024**2 == _REGION_CELLS < N * N
        with pytest.raises(SearchBudgetExceeded, match=f"N\\^2 = {N * N} points"):
            feasible_region(N)

    def test_matches_lap_order_oracle(self):
        # every cell of the word path's grids and of two sorted-kernel grids
        for N in (*range(1, 65), 65, 70):
            expected = {(n2, n3) for n2 in range(N) for n3 in range(N)
                        if lap_order_feasible((0, n2, n3), N, 3)}
            assert set(feasible_region(N).points) == expected, N

    def test_membership(self):
        region = feasible_region(20)
        assert (5, 10) in region and (10, 5) in region
        assert (2, 10) not in region

    def test_membership_matches_set(self):
        # the points are sorted, so lookups bisect them; off-grid pairs and
        # numpy integers answer as a set of the points would
        for N in range(1, 13):
            region = feasible_region(N)
            assert list(region.points) == sorted(region.points)
            pts = set(region.points)
            for n2 in range(-1, N + 1):
                for n3 in range(-1, N + 1):
                    assert ((n2, n3) in region) == ((n2, n3) in pts)
                    assert ((np.int64(n2), np.int64(n3)) in region) == ((n2, n3) in pts)
            assert [N, N] not in region and (0,) not in region and () not in region


class TestFindFeasibleSubset:
    def test_known_values(self):
        # triple (users 2,3,4) has offsets (1,5,10): ring gaps (4,5,3), all >= 3
        assert find_feasible_subset((0, 1, 10, 5), 12, 3) == (2, 3, 4)
        assert find_feasible_subset((0, 4, 8), 12, 3) == (1, 2, 3)
        assert find_feasible_subset((0, 5), 12, 2) == (1, 2)

    def test_none_when_all_subsets_fail(self):
        assert find_feasible_subset((0, 1, 2, 3), 12, 3) is None
        assert find_feasible_subset((0, 1), 12, 2) is None

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            N = int(rng.integers(2, 30))
            K = int(rng.integers(2, 7))
            k_target = int(rng.integers(2, K + 1))
            offsets = tuple(int(x) for x in rng.integers(0, N, K))
            assert (find_feasible_subset(offsets, N, k_target)
                    == first_feasible_subset_oracle(offsets, N, k_target))

    def test_matches_oracle_on_grid(self):
        # every offset tuple with user 1 at 0, K <= 4, N <= 12, every k_target
        for N in range(1, 13):
            for K in range(2, 5):
                for rest in product(range(N), repeat=K - 1):
                    offsets = (0, *rest)
                    for k in range(2, K + 1):
                        assert (find_feasible_subset(offsets, N, k)
                                == first_feasible_subset_oracle(offsets, N, k)), (offsets, N, k)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_property(self, data):
        # points near multiples of N/(k+1) put gaps at the threshold
        N = data.draw(st.integers(1, 60), label="N")
        K = data.draw(st.integers(2, 8), label="K")
        k = data.draw(st.integers(2, K), label="k")
        point = st.one_of(st.integers(0, N - 1),
                          st.builds(lambda q, e: (N * q // (k + 1) + e) % N,
                                    st.integers(0, k), st.integers(-1, 1)))
        offsets = tuple(data.draw(st.lists(point, min_size=K, max_size=K), label="offsets"))
        assert find_feasible_subset(offsets, N, k) == first_feasible_subset_oracle(offsets, N, k)

    def test_planted_subset_among_many_users(self):
        # users 1..10 evenly spread, 30 random users after them
        N = 10**4
        rng = np.random.default_rng(47)
        offsets = (*(i * N // 10 for i in range(10)), *(int(x) for x in rng.integers(0, N, 30)))
        start = time.perf_counter()
        assert find_feasible_subset(offsets, N, 10) == tuple(range(1, 11))
        assert time.perf_counter() - start < 1.0

    def test_forty_users_in_nine_clusters(self):
        # clusters at multiples of N/9, each within 50 of its centre: users
        # of one cluster are closer than ceil(N/10) = 1000, users of two are
        # at least 1011 apart, so 10 users never fit and 9 fit only as one
        # per cluster, the smallest of each first; C(40, 10) = 8.5e8 subsets
        N = 10**4
        rng = np.random.default_rng(53)
        cluster = rng.integers(0, 9, 40)
        offsets = tuple(int(x) for x in cluster * N // 9 + rng.integers(-50, 51, 40))
        start = time.perf_counter()
        assert find_feasible_subset(offsets, N, 10) is None
        firsts = sorted(int(np.flatnonzero(cluster == c)[0]) + 1 for c in range(9))
        assert find_feasible_subset(offsets, N, 9) == tuple(firsts)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_spread_padding_matches_single_padding(self, seed):
        # about 300 users at N = 10^6 around k-1, k or k+1 evenly spread
        # centres, so some searches find a subset and some end with None
        rng = np.random.default_rng(seed)
        N, K, k = 10**6, int(rng.integers(280, 321)), int(rng.integers(3, 11))
        c = k - 1 + seed % 3
        centres = rng.integers(0, N) + np.arange(c) * N // c
        jitter = rng.integers(0, int(rng.integers(1, N // (2 * k + 2))), K)
        offsets = tuple(int(x) for x in (rng.choice(centres, K) + jitter) % N)
        assert (find_feasible_subset(offsets, N, k)
                == find_feasible_subset_single_padding(offsets, N, k))

    def test_subset_feasibility_agrees_with_solver(self):
        # a subset reported feasible must admit a decomposition certificate,
        # and the first rejected subset must not
        rng = np.random.default_rng(37)
        for _ in range(40):
            N = int(rng.integers(3, 16))
            offsets = tuple(int(x) for x in rng.integers(0, N, 4))
            users = find_feasible_subset(offsets, N, 3)
            if users is not None:
                sub_cfg = ChannelConfig(N, tuple(offsets[u - 1] for u in users))
                assert brute_force_solve(group_profile(sub_cfg))
        assert find_feasible_subset((0, 1, 10, 5), 12, 3) == (2, 3, 4)
        s = group_profile(ChannelConfig(12, (1, 10, 5)))
        assert brute_force_solve(s)

    def test_k_target_validation(self):
        with pytest.raises(ValueError):
            find_feasible_subset((0, 1, 2), 8, 1)
        with pytest.raises(ValueError):
            find_feasible_subset((0, 1, 2), 8, 4)

    @pytest.mark.parametrize("N", [0, -5])
    def test_n_validation(self, N):
        with pytest.raises(ValueError, match="N must be >= 1"):
            find_feasible_subset((0, 1, 2), N, 2)


class TestFeasibleSubsetRows:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_combinations_oracle(self, data):
        # N = 1..40 and 60..66, on both sides of the word path's N <= 64
        N = data.draw(st.one_of(st.integers(1, 40), st.integers(60, 66)), label="N")
        K = data.draw(st.integers(2, 9), label="K")
        k = data.draw(st.integers(2, K), label="k")
        rows = data.draw(st.lists(st.lists(st.integers(0, N - 1), min_size=K, max_size=K),
                                  min_size=1, max_size=12), label="rows")
        offs = np.array(rows, dtype=np.int64)
        if data.draw(st.booleans(), label="duplicate"):
            offs[:, -1] = offs[:, 0]
        if data.draw(st.booleans(), label="presorted"):
            offs.sort(axis=1)
        expected = subset_rows_oracle(offs, N, k)
        form = data.draw(st.sampled_from([np.int32, np.int64, list]), label="form")
        given = offs.tolist() if form is list else offs.astype(form)
        assert np.array_equal(feasible_subset_rows(given, N, k), expected)
        assert np.array_equal(sorted_kernel(offs, N, k), expected)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sorted_block_matches_rows_and_oracle(self, data):
        # the block kernel on pre-sorted (K, rows) columns, as the occupancy
        # oracle hands them over; scaling rows and N by c keeps every verdict and
        # moves the columns to int32, int64 or Python-integer rows
        N = data.draw(st.integers(1, 40), label="N")
        K = data.draw(st.integers(2, 9), label="K")
        k = data.draw(st.integers(2, K), label="k")
        rows = data.draw(st.lists(st.lists(st.integers(0, N - 1), min_size=K, max_size=K),
                                  min_size=1, max_size=12), label="rows")
        offs = np.array(rows, dtype=np.int64)
        if data.draw(st.booleans(), label="duplicate"):
            offs[:, -1] = offs[:, 0]
        offs.sort(axis=1)
        expected = subset_rows_oracle(offs, N, k)
        c = data.draw(st.sampled_from([1, 2**40, 2**62]), label="scale")
        scaled = (offs.astype(object) * c).astype(row_dtype(N * c))
        cols = np.ascontiguousarray(scaled.T)
        assert np.array_equal(feasible_sorted_block(cols, N * c, k), expected)
        assert np.array_equal(feasible_subset_rows(scaled, N * c, k), expected)

    def test_every_row_across_blocks(self):
        # more rows than one kernel pass takes, so verdicts cross block edges
        rng = np.random.default_rng(41)
        for N, K, k in ((60, 11, 3), (30, 12, 4), (12, 6, 6), (5, 7, 5), (63, 9, 3), (64, 12, 4)):
            offs = rng.integers(0, N, (3 * _ROW_BLOCK + 7, K))
            expected = subset_rows_oracle(offs, N, k)
            assert np.array_equal(feasible_subset_rows(offs, N, k), expected), (N, K, k)
            assert np.array_equal(sorted_kernel(offs, N, k), expected), (N, K, k)

    @pytest.mark.parametrize("K, k", [(9, 3), (12, 4), (7, 6), (6, 6), (5, 2)])
    def test_same_rows_across_the_word_path_edge(self, K, k):
        # rows on [0, 64) at N = 63, 64 (the word path, up to bit 63) and 65
        # (the sorted kernel), many with points at lap edges and at bit 63
        rng = np.random.default_rng(59 + K)
        for N in (63, 64, 65):
            edge = np.array([N * q // (k + 1) for q in range(k + 1)] + [N - 1])
            q = np.concatenate([rng.integers(0, len(edge), (300, K)),  # and in lap order:
                                np.arange(K) + rng.integers(0, len(edge), (300, 1))])
            near = (edge[q % len(edge)] + rng.integers(-1, 2, (600, K))) % N
            offs = np.concatenate([near, rng.integers(0, min(N, 64), (600, K))])
            expected = subset_rows_oracle(offs, N, k)
            assert np.array_equal(feasible_subset_rows(offs, N, k), expected), N
            assert np.array_equal(sorted_kernel(offs, N, k), expected), N

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 7, 8])
    def test_laps_without_points(self, N):
        # k + 1 > N leaves laps empty, and k = K needs every user
        rng = np.random.default_rng(61)
        for K in range(2, 9):
            for k in range(2, K + 1):
                offs = rng.integers(0, N, (200, K))
                offs[:20] = np.arange(K) * N // K
                expected = subset_rows_oracle(offs, N, k)
                assert np.array_equal(feasible_subset_rows(offs, N, k), expected), (K, k)
                assert np.array_equal(sorted_kernel(offs, N, k), expected), (K, k)

    @staticmethod
    def _rows_of_each_stage():
        # stage 1 proves a row feasible by the chain from its smallest offset;
        # the others, feasible or not, go to stage 2's table. Interleave the
        # three kinds so that every block holds each of them.
        N, K, k = 60, 7, 3
        offs = np.random.default_rng(43).integers(0, N, (4000, K))
        feasible = subset_rows_oracle(offs, N, k)
        first_chain = np.array([_first_chain_ends_in_time(row, N, k) for row in offs])
        assert not (first_chain & ~feasible).any()
        kinds = [offs[first_chain][:300], offs[feasible & ~first_chain][:300], offs[~feasible][:300]]
        assert all(len(rows) == 300 for rows in kinds)
        i = np.arange(_ROW_BLOCK + 301)
        return np.stack(kinds)[i % 3, i // 3 % 300], N, k, i % 3 < 2

    def test_rows_each_stage_decides_across_a_block_edge(self):
        rows, N, k, expected = self._rows_of_each_stage()
        assert np.array_equal(subset_rows_oracle(rows, N, k), expected)
        assert np.array_equal(feasible_subset_rows(rows, N, k), expected)
        assert np.array_equal(sorted_kernel(rows, N, k), expected)

    def test_every_row_type_gives_the_same_verdicts(self):
        # scaling the rows and N by c keeps every verdict (a gap c*g reaches
        # ceil(cN/(k+1)) iff g reaches N/(k+1)), so the int32, int64 and
        # Python-integer kernels must agree on rows of each stage; each takes
        # its rows as int32, int64 or object arrays or as lists alike; at
        # c = 1 the word path and the sorted kernel take the same rows
        rows, N, k, expected = self._rows_of_each_stage()
        for c, types in ((1, (np.int32, np.int64, object, list)),
                         (2**25, (np.int32, np.int64, object, list)),  # N past 2^30
                         (2**57, (np.int64, object, list))):  # N past 2^62
            scaled = rows.astype(object) * c
            for dtype in types:
                given = scaled.tolist() if dtype is list else scaled.astype(dtype)
                verdicts = feasible_subset_rows(given, N * c, k)
                assert np.array_equal(verdicts, expected), (c, dtype)
        assert np.array_equal(sorted_kernel(rows.astype(np.int32), N, k), expected)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_large_n_matches_oracle(self, data):
        # two-lap values reach 2N: int32 holds them up to N = 2^30, int64 up
        # to N = 2^62, Python integers beyond; points near multiples of N/12
        # put gaps at the threshold for k = 2, 3 and 5
        edges = [2**30, 2**31, 2**62, 2**63]
        N = data.draw(st.one_of(st.integers(1, 10**12),
                                *(st.integers(e - 64, e + 64) for e in edges)), label="N")
        K = data.draw(st.integers(2, 7), label="K")
        k = data.draw(st.integers(2, K), label="k")
        point = st.one_of(st.integers(0, N - 1),
                          st.builds(lambda q, e: (N * q // 12 + e) % N,
                                    st.integers(0, 11), st.integers(-2, 2)))
        rows = data.draw(st.lists(st.lists(point, min_size=K, max_size=K),
                                  min_size=1, max_size=8), label="rows")
        assert np.array_equal(feasible_subset_rows(rows, N, k), subset_rows_oracle(rows, N, k))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_lap_order_oracle(self, data):
        # the skipped-lap test shares no lemma with the greedy chains and
        # tries no subsets, so K reaches 40; points near multiples of
        # N/(k+1) tie in fraction and put gaps at the threshold
        k = data.draw(st.integers(2, 8), label="k")
        K = data.draw(st.integers(k, 40), label="K")
        N = data.draw(st.one_of(st.integers(1, 10**6),
                                st.integers(1, 10**5).map(lambda q: q * (k + 1))), label="N")
        span = data.draw(st.integers(1, N), label="span")
        point = st.one_of(st.integers(0, span - 1),
                          st.builds(lambda q, e: (N * q // (k + 1) + e) % N,
                                    st.integers(0, k), st.integers(-2, 2)))
        rows = data.draw(st.lists(st.lists(point, min_size=K, max_size=K),
                                  min_size=1, max_size=4), label="rows")
        expected = [lap_order_feasible(row, N, k) for row in rows]
        assert feasible_subset_rows(rows, N, k).tolist() == expected
        assert sorted_kernel(rows, N, k).tolist() == expected
        for row, feasible in zip(rows, expected):
            users = find_feasible_subset(row, N, k)
            assert (users is not None) == feasible
            assert users is None or lap_order_feasible([row[u - 1] for u in users], N, k)

    @pytest.mark.parametrize("N, k_target, match", [
        (0, 2, "N must be >= 1"),
        (-5, 2, "N must be >= 1"),
        (12, 1, "k_target must be >= 2"),
    ])
    def test_rejects_bad_n_and_k_target(self, N, k_target, match):
        with pytest.raises(ValueError, match=match):
            feasible_subset_rows([[0, 1, 2]], N, k_target)

    @pytest.mark.parametrize("N, value", [
        (12, -1), (12, 12), (12, 64), (12, 2**40), (63, 63), (64, -1), (64, 64), (64, 2**40),
        (65, 65), (65, -1), (2**31, 2**31), (2**31, -1), (2**63, 2**63), (2**63, -2**63),
    ])
    def test_rejects_entries_outside_the_ring(self, N, value):
        # refused on the word path (N <= 64), where a shift by 64 or more
        # would drop the entry, and on the sorted kernel; in any row form
        rows = np.zeros((2 * _ROW_BLOCK, 4), dtype=np.int64 if -2**63 <= value < 2**63 else object)
        rows[:, 1:] = [1, 2, 3]
        rows[-1, 2] = value
        for given in (rows, rows.astype(object), rows.tolist()):
            with pytest.raises(ValueError, match=f"offsets must lie in \\[0, {N}\\)"):
                feasible_subset_rows(given, N, 2)

    @pytest.mark.parametrize("rows", [[0, 1, 2], 5, [[[0, 1]]]])
    def test_rejects_rows_that_are_not_a_table(self, rows):
        with pytest.raises(ValueError, match="offsets must be \\(rows, K\\)"):
            feasible_subset_rows(rows, 12, 2)

    def test_more_targets_than_points_never_feasible(self):
        offs = np.array([[0], [3]])
        assert not feasible_subset_rows(offs, 12, 2).any()
        assert not feasible_subset_rows(np.array([[0, 4, 8]]), 12, 4).any()
