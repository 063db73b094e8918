import hashlib
import math
import os
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindalign import (
    CountResult,
    SearchBudgetExceeded,
    exact_count,
    f_2user,
    f_low_3,
    feasible_region,
    find_feasible_subset,
    gamma_count,
    monte_carlo_p,
    p_upper_3,
    probability_exact,
)
from blindalign import counting
from blindalign.feasibility import row_dtype
from helpers import (chain_dp_oracle, enumeration_count, f_2user_oracle, f_low_3_oracle,
                     occupancy_count_oracle, occupied_sets, stirling2, subset_rows_oracle)


def stirling2_recurrence(n, k):
    """Independent oracle: S(n,k) = k*S(n-1,k) + S(n-1,k-1)."""
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def occupancy_oracle(n, theta, mu):
    """Direct enumeration of all n**theta placements."""
    count = 0
    for placement in product(range(n), repeat=theta):
        if all(box in placement for box in range(mu)):
            count += 1
    return count


def forbid_loops_over_n(monkeypatch):
    """Make any ``range`` in ``counting`` fail at once: a loop or table over
    the arc lengths would run for hours at N = 10^9 and need N/2 powers."""
    def no_range(*args):
        raise AssertionError(f"counting called range{args}")
    monkeypatch.setattr(counting, "range", no_range, raising=False)


def dp_count(N, K, k):
    """exact_count's sum over occupied-set sizes, c_j straight from the lap scan."""
    c = counting.bad_set_counts(N, k, min(K, N))
    return sum(c_j * gamma_count(j, K - 1, j - 1) for j, c_j in enumerate(c, 1))


def f_low_3_proof_path(N, K):
    """Term-by-term re-derivation with explicit inner sums, kept independent
    of the library's closed-coefficient evaluation."""
    T = K - 1

    def g(n, mu):
        if mu > T:
            return 0
        return sum((-1) ** j * math.comb(mu, j) * (n - j) ** T for j in range(mu + 1))

    f1 = 1
    for n in range(2, N // 2 + 1):
        f1 += 2 * (n**T - (n - 1) ** T) + (n - 2) * g(n, 2)
    f2 = 2**T - 1
    for n in range(3, N // 4 + 2):
        for _i in range(N // 2 + 1, n + N // 2):
            f2 += 2 * (n - 3) * g(n, 3) + 3 * g(n, 2)
    for n in range(4, N // 4 + 2):
        for _i in range(N // 2 + 1, n + N // 2):
            f2 += sum((j - 2) * g(n, 4) for j in range(3, n - 1)) + (n - 3) * g(n, 3)
    for n in range(N // 4 + 2, N // 2 + 1):
        for _i in range(N // 2 + 1, n + N // 2):
            f2 += 2 * (N // 2 - n + 1) * g(n, 3) \
                + sum((j - 2) * g(n, 4) for j in range(n - N // 4, N // 4 + 1))
    return f1 + f2


class TestStirling:
    def test_known_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        for k in range(1, 10):
            assert stirling2(k, 1) == 1
        assert stirling2(0, 0) == 1

    def test_against_recurrence(self):
        for n in range(0, 15):
            for k in range(0, n + 1):
                assert stirling2(n, k) == stirling2_recurrence(n, k)

    def test_input_errors(self):
        with pytest.raises(ValueError):
            stirling2(3, 4)
        with pytest.raises(ValueError):
            stirling2(3, -1)


class TestGammaCount:
    def test_known_values(self):
        assert gamma_count(2, 2, 2) == 2
        assert gamma_count(3, 2, 1) == 5
        for n in range(2, 10):
            for K in range(3, 6):
                T = K - 1
                expected = n**T - 2 * (n - 1) ** T + (n - 2) ** T
                assert gamma_count(n, T, 2) == expected

    def test_against_enumeration(self):
        for n in range(1, 5):
            for theta in range(0, 6):
                for mu in range(0, min(n, theta) + 1):
                    assert gamma_count(n, theta, mu) == occupancy_oracle(n, theta, mu)

    def test_more_designated_than_balls_is_zero(self):
        for n in range(4, 12):
            assert gamma_count(n, 2, 3) == 0
            assert gamma_count(n, 2, 4) == 0
            assert gamma_count(n, 3, 4) == 0

    def test_input_errors(self):
        with pytest.raises(ValueError):
            gamma_count(2, 5, 3)  # mu exceeds box count
        with pytest.raises(ValueError):
            gamma_count(-1, 2, 1)


class TestFLow3:
    def test_matches_independent_path(self):
        for N in range(4, 65, 4):
            for K in range(3, 13):
                assert f_low_3(N, K).value == f_low_3_proof_path(N, K), (N, K)

    def test_pinned_value(self):
        # the value the rational-coefficient evaluation gave at (400, 11)
        assert f_low_3(400, 11).value == 5412354352475971940307478

    def test_matches_loop_oracle_grid(self):
        for N in range(4, 401, 4):
            for K in range(3, 25):
                assert f_low_3(N, K).value == f_low_3_oracle(N, K), (N, K)

    @settings(max_examples=60, deadline=None)
    @given(Q=st.integers(1, 250), K=st.integers(3, 40))
    def test_matches_loop_oracle_property(self, Q, K):
        assert f_low_3(4 * Q, K).value == f_low_3_oracle(4 * Q, K)

    def test_huge_n_in_closed_form(self, monkeypatch):
        forbid_loops_over_n(monkeypatch)
        assert p_upper_3(10**9, 11).p == 0.9462785729421044

    def test_lower_bounds_enumeration(self):
        for N in (8, 12):
            for K in (3, 4):
                assert f_low_3(N, K).value <= exact_count(N, K, 3).value

    def test_divisibility_guard(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            f_low_3(10, 3)

    def test_kind(self):
        assert f_low_3(8, 3).kind == "formula_lower_bound"


class TestF2User:
    def test_known_values(self):
        assert f_2user(6, 2).value == 3
        assert f_2user(3, 2).value == 1
        assert f_2user(9, 3).value == 19
        # gate 8b rests on these: P(60,5,2) < 0.95 <= P(60,6,2)
        assert f_2user(60, 5).value == 723901
        assert f_2user(60, 6).value == 16954119

    def test_matches_pairwise_distance_scan(self):
        # independent oracle: over all 60^4 placements, a placement is bad
        # when every pair's circular distance is below ceil(N/3)
        N, T = 60, 4
        d = np.abs(np.arange(N)[:, None] - np.arange(N)[None, :])
        close = np.minimum(d, N - d) < -(-N // 3)
        bad = np.ones((N,) * T, dtype=bool)
        for i in range(T):
            axis_i = [1] * T
            axis_i[i] = N
            bad &= close[0].reshape(axis_i)
            for j in range(i + 1, T):
                axes_ij = list(axis_i)
                axes_ij[j] = N
                bad &= close.reshape(axes_ij)
        assert int(bad.sum()) == f_2user(N, T + 1).value == 723901

    def test_matches_enumeration(self):
        # (27,5) and (30,5) are the multiples of 3 on either side of 95%
        # for K=5: P = 0.950548 and 0.949443
        for N, K in ((6, 2), (9, 3), (9, 4), (12, 3), (12, 4), (15, 3),
                     (27, 5), (30, 5)):
            formula = f_2user(N, K).value
            assert formula == occupancy_count_oracle(N, K, 2), (N, K)
            assert formula == enumeration_count(N, K, 2), (N, K)

    def test_matches_loop_oracle_grid(self):
        for N in range(1, 301):
            for K in range(2, 13):
                assert f_2user(N, K).value == f_2user_oracle(N, K), (N, K)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 2000), K=st.integers(2, 30))
    def test_matches_loop_oracle_property(self, N, K):
        assert f_2user(N, K).value == f_2user_oracle(N, K)

    def test_pair_limit(self, monkeypatch):
        # all K points in an arc of a third of the ring: K / 3^(K-1) as N grows
        forbid_loops_over_n(monkeypatch)
        assert probability_exact(10**9, 11, 2).p == 0.9998137140331759
        for K in range(2, 13):
            p = probability_exact(3 * 10**9, K, 2).p
            assert abs(p - (1 - K / 3 ** (K - 1))) < 1e-8, K

    def test_any_n_matches_exact_count(self):
        # the arc length runs to ceil(N/3), so N need not be a multiple of 3;
        # exact_count answers pairs by f_2user, so check against the lap scan
        for N in (1, 2, 4, 5, 7, 8, 10, 11, 20, 22, 23, 37, 40):
            for K in (2, 3, 4, 5):
                assert f_2user(N, K).value == dp_count(N, K, 2), (N, K)

    def test_exact_count_pairs_are_the_closed_form(self, monkeypatch):
        # no guard and no DP: N = 10^9 is answered in microseconds
        forbid_loops_over_n(monkeypatch)
        t = time.perf_counter()
        res = exact_count(10**9, 11, 2)
        assert time.perf_counter() - t < 0.01
        assert res == f_2user(10**9, 11) and res.kind == "formula"


class TestExactCount:
    def test_3user_matches_region(self):
        for N in range(2, 25):
            expected = N**2 - feasible_region(N).count
            assert exact_count(N, 3, 3).value == expected

    def test_small_cases(self):
        # at N=4 the gap threshold is 1, so every distinct-offset placement
        # is feasible: 6 of 16, leaving 10 without a feasible triple
        assert exact_count(4, 3, 3).value == 16 - feasible_region(4).count == 10
        assert exact_count(8, 3, 3).value == 52
        assert exact_count(6, 2, 2) == CountResult(value=3, kind="formula")

    def test_value_bounded_by_placements(self):
        for N, K in ((8, 3), (8, 4), (6, 5)):
            assert 0 <= exact_count(N, K, 3 if K >= 3 else 2).value <= N ** (K - 1)

    def test_matches_scalar_subset_scan(self):
        N, K = 7, 3
        bad = 0
        for rest in product(range(N), repeat=K - 1):
            if find_feasible_subset((0, *rest), N, 3) is None:
                bad += 1
        assert exact_count(N, K, 3).value == bad

    def test_guard(self, monkeypatch):
        # the scan counts its state visits as it runs: (21,13,3) makes 536;
        # a refused scan is not kept, and an answered one is
        assert counting._SCAN_VISITS == 5 * 10**5
        counting._lap_scan.cache_clear()
        monkeypatch.setattr(counting, "_SCAN_VISITS", 535)
        with pytest.raises(SearchBudgetExceeded, match="past 535 visits; use monte_carlo_p"):
            exact_count(21, 13, 3)
        monkeypatch.setattr(counting, "_SCAN_VISITS", 536)
        assert exact_count(21, 13, 3).kind == "exact_dp"
        monkeypatch.setattr(counting, "_SCAN_VISITS", 0)
        assert exact_count(21, 13, 3).kind == "exact_dp"

    def test_guard_fires_within_seconds(self):
        # at the real bound: a direct scan at k = 7 with all 8 laps at each of
        # its fractions would make about 2.5e6 visits; it stops in about
        # 0.5 s on a shared 2-vCPU host
        t = time.perf_counter()
        with pytest.raises(SearchBudgetExceeded, match="monte_carlo_p"):
            exact_count(64, 8, 7)
        assert time.perf_counter() - t < 10

    def test_matches_enumeration_grid(self):
        for N in range(1, 13):
            for K in range(2, 7):
                if N ** (K - 1) > 2 * 10**5:
                    continue
                for k in range(2, min(K, 4) + 1):
                    assert exact_count(N, K, k).value == enumeration_count(N, K, k), \
                        (N, K, k)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_enumeration_property(self, data):
        # N up to 40, capped so that N^(K-1) stays within 10^5 placements
        K = data.draw(st.integers(2, 6), label="K")
        N = data.draw(st.integers(1, {2: 40, 3: 40, 4: 40, 5: 17, 6: 10}[K]), label="N")
        k = data.draw(st.integers(2, K), label="k")
        assert exact_count(N, K, k).value == enumeration_count(N, K, k)

    def test_pinned_values(self):
        # 1 - 723901/60^4 is the 2-user probability behind gate 8b;
        # 3299206 was checked once against all 16^6 labeled placements
        assert occupancy_count_oracle(60, 5, 2) == 723901 == exact_count(60, 5, 2).value
        assert exact_count(16, 7, 3).value == 3299206

    def test_matches_occupancy_oracle_grid(self):
        # small N end below k_target, sets of fewer than k points are all bad,
        # k = K tests only the full sets; enumeration checks the small instances
        for N in range(1, 21):
            for K in range(2, 8):
                for k in range(2, K + 1):
                    value = exact_count(N, K, k).value
                    assert value == occupancy_count_oracle(N, K, k), (N, K, k)
                    if N ** (K - 1) <= 5 * 10**4:
                        assert value == enumeration_count(N, K, k), (N, K, k)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 40), K=st.integers(2, 7), data=st.data())
    def test_matches_occupancy_oracle_property(self, N, K, data):
        k = data.draw(st.integers(2, K), label="k")
        if K > 5:
            N = min(N, 28)  # keeps the oracle's C(N-1, K-1) sets near 10^5
        assert exact_count(N, K, k).value == occupancy_count_oracle(N, K, k)

    def test_extensions_memory_does_not_grow_with_n(self):
        # pairs never reach the chain DP, whose lanes and fronts grow with N:
        # the closed form answers N = 4*10^6 in a few small integers
        tracemalloc.start()
        try:
            assert exact_count(4_000_000, 2, 2).value == 2_666_667
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_occupied_sets_unrank_every_subset(self):
        # sets come as sorted (j, rows) columns in the kernel's row type;
        # each chunk boundary must continue the same order without gaps
        for N, j in ((1, 1), (5, 1), (7, 3), (9, 4), (12, 6)):
            total = math.comb(N - 1, j - 1)
            cols = occupied_sets(N, j, 0, total)
            assert cols.shape == (j, total) and cols.dtype == row_dtype(N)
            expected = sorted(((0, *c) for c in combinations(range(1, N), j - 1)),
                              key=lambda r: r[::-1])
            assert [tuple(r) for r in cols.T.tolist()] == expected
            for lo, hi in ((0, 1), (1, total), (total // 3, total // 2 + 1)):
                assert np.array_equal(occupied_sets(N, j, lo, hi), cols[:, lo:hi])


def bad_sets_by_scan(N, k, J):
    """c_1..c_J by testing every k-subset of every set {0} ∪ S of each size."""
    return [int((~subset_rows_oracle(occupied_sets(N, j, 0, math.comb(N - 1, j - 1)).T,
                                     N, k)).sum()) if j >= k else math.comb(N - 1, j - 1)
            for j in range(1, J + 1)]


def lagrange(nodes, N):
    """The polynomial through the (x, y) nodes at N, in exact fractions."""
    value = Fraction(0)
    for i, (xi, yi) in enumerate(nodes):
        term = Fraction(yi)
        for m, (xm, _) in enumerate(nodes):
            if m != i:
                term *= Fraction(N - xm, xi - xm)
        value += term
    return value


def class_nodes(period, r, j, J):
    """The first j points N >= period of the class N = r mod period, as
    (N, c_j(N)) from direct scans at J."""
    return [(N, counting.bad_set_counts(N, period - 1, J)[j - 1])
            for N in range(period + r, period * (j + 1) + r, period)]


def newton(N, k, J):
    """exact_count's Newton form at N from the class's first J scans."""
    period = k + 1
    nodes = [counting.bad_set_counts(period * (i + 1) + N % period, k, J) for i in range(J)]
    return counting._bad_sets(nodes, period, N)


def rows_digest(k, n_max):
    """sha256 of the old node table's rows N = 1..n_max at J = 12, regenerated by the scan."""
    rows = [counting.bad_set_counts(N, k, 12) for N in range(1, n_max + 1)]
    return hashlib.sha256(repr(tuple(tuple(row) for row in rows)).encode()).hexdigest()


class TestTripleTable:
    """The lap scan that replaced the triple and quadruple node tables."""

    def test_dp_matches_combination_scan(self):
        for k in (2, 3, 4):
            for N in range(1, 19):
                J = min(N, 7)
                assert counting.bad_set_counts(N, k, J) == bad_sets_by_scan(N, k, J), (N, k)

    def test_scan_matches_chain_dp(self):
        # the greedy-chain DP that the scan replaced, an independent proof
        for k in (2, 3, 4, 5):
            for N in range(1, 31):
                J = min(N, 9)
                assert counting.bad_set_counts(N, k, J) == chain_dp_oracle(N, k, J), (N, k)

    def test_dp_matches_occupancy_oracle_grid(self):
        for N in range(1, 25):
            for K in range(3, 8):
                assert dp_count(N, K, 3) == occupancy_count_oracle(N, K, 3), (N, K)

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(1, 24), K=st.integers(2, 7), data=st.data())
    def test_dp_matches_occupancy_oracle_property(self, N, K, data):
        k = data.draw(st.integers(2, K), label="k")
        assert dp_count(N, K, k) == occupancy_count_oracle(N, K, k)

    def test_table_rows_regenerate(self):
        # the triple table's 51 rows of 12, as the chain DP wrote them
        assert rows_digest(3, 51) == \
            "27f5893b4c063122215981eaa8960d8a5ecda85405c0e6087332e204db59fa8f"

    def test_quadruple_rows_regenerate(self):
        # the quadruple table's 64 rows of 12, as the chain DP wrote them
        assert rows_digest(4, 64) == \
            "0f6eb1daafa77d0744b35ff7804fdf9d2d54881b34d4993e672a9bcf20467ba9"

    def test_interpolation_matches_later_nodes(self):
        # the periodic scan on direct scans past the nodes: the five N past
        # the old triple table, the 95% boundaries of P(N,11,3) at N = 61,
        # 62, 99, 103, 204 and 208, and a k = 5 run past its nodes
        for N in (52, 53, 54, 55, 56, 61, 62, 99, 103, 204, 208):
            assert newton(N, 3, 12) == counting.bad_set_counts(N, 3, 12), N
        for N in (90, 91, 92, 93, 94, 95):
            assert newton(N, 5, 7) == counting.bad_set_counts(N, 5, 7), N

    def test_quadruple_interpolation_matches_later_nodes(self):
        # the same at k = 4: the five N past the old quadruple table, and 150
        for N in (65, 66, 67, 68, 69, 150):
            assert newton(N, 4, 12) == counting.bad_set_counts(N, 4, 12), N

    def test_interpolation_past_the_table(self):
        # the Newton form of exact_count against Lagrange in fractions, on
        # the same nodes, past the direct scans
        for k in (3, 4):
            period = k + 1
            for N in (*range(period * 13, 72), 99, 100, 101, 102, 103, 1000, 10**6 + 3):
                expected = [lagrange(class_nodes(period, N % period, j, 12), N)
                            for j in range(1, 13)]
                assert all(e.denominator == 1 for e in expected)
                assert newton(N, k, 12) == expected, N
                assert newton(N, k, 5) == expected[:5], N

    def test_corrupt_node_raises(self):
        # the only runtime check on the interpolation is a raise, not an
        # assert, so it holds under python -O; the last node of class 3,
        # N = 51, has weight 12 in c_12(55)
        nodes = [counting.bad_set_counts(4 * (i + 1) + 3, 3, 12) for i in range(12)]
        assert counting._bad_sets(nodes, 4, 55)[11] == 892_660_704
        for shift in (10**30, -(10**30)):
            corrupt = [*nodes[:11], [*nodes[11][:11], nodes[11][11] + shift]]
            with pytest.raises(ArithmeticError, match=r"c_12\(55\) = .* outside 0..C\(54, 11\)"):
                counting._bad_sets(corrupt, 4, 55)
        assert counting._bad_sets(nodes, 4, 55)[11] == 892_660_704  # the cache is intact

    def test_pinned_bad_counts_at_60(self):
        # past every node: the chain DP run directly at N = 60 gave both
        assert exact_count(60, 11, 3) == CountResult(24_960_089_920_862_548, "exact_interpolated")
        assert exact_count(60, 10, 3) == CountResult(703_905_045_311_490, "exact_interpolated")
        assert counting.bad_set_counts(60, 3, 11) == newton(60, 3, 11)
        assert probability_exact(60, 11, 3).p == 0.9587205747542848
        assert probability_exact(60, 10, 3).p == 0.930152185051872

    def test_pinned_dp_values(self):
        # the oracle confirms the first two in about 1 s each; (60,8,5) is
        # the value the chain DP gave, where the oracle would test
        # C(59, 7) = 3.4e8 sets
        assert exact_count(21, 13, 3) == CountResult(248_674_434_060_781, "exact_dp")
        assert occupancy_count_oracle(21, 13, 3) == 248_674_434_060_781
        assert exact_count(24, 12, 4) == CountResult(384_951_528_892_614, "exact_dp")
        assert dp_count(24, 12, 4) == occupancy_count_oracle(24, 12, 4) == 384_951_528_892_614
        assert exact_count(60, 8, 5) == CountResult(2_655_086_162_880, "exact_interpolated")
        assert exact_count(16, 7, 3) == CountResult(3_299_206, "exact_dp")
        assert exact_count(16, 6, 3) == CountResult(334_126, "exact_dp")

    def test_huge_n_without_a_walk(self):
        counting._lap_scan.cache_clear()  # cold: the nodes are scanned here
        t = time.perf_counter()
        res = exact_count(10**6, 11, 3)
        assert time.perf_counter() - t < 0.1
        assert res.kind == "exact_interpolated" and 0 < res.value < (10**6) ** 10

    def test_large_k_answers_within_a_second(self):
        # the chain DP refused each of these after 2.5-5.3 s
        for N, K, k in ((100, 5, 5), (150, 5, 5), (200, 5, 5), (100, 6, 6)):
            counting._lap_scan.cache_clear()
            t = time.perf_counter()
            res = exact_count(N, K, k)
            assert time.perf_counter() - t < 1, (N, K, k)
            assert res.kind == "exact_interpolated" and 0 < res.value < N ** (K - 1)
            c = counting.bad_set_counts(N, k, K)
            assert res.value == sum(c_j * gamma_count(j, K - 1, j - 1) for j, c_j in enumerate(c, 1))

    def test_dispatch_by_kind(self):
        # pairs by the closed form; a direct scan below (k+1)(J+1), else the
        # Newton form, J = min(K, N)
        assert exact_count(36, 5, 2).kind == "formula"
        assert exact_count(100, 12, 3).kind == "exact_interpolated"
        assert exact_count(51, 12, 3).kind == exact_count(64, 12, 4).kind == "exact_dp"
        assert exact_count(52, 12, 3).kind == exact_count(65, 12, 4).kind == "exact_interpolated"
        assert exact_count(200, 4, 4).kind == "exact_interpolated"
        for N, K, k in ((16, 6, 5), (14, 13, 3), (24, 13, 4)):
            assert exact_count(N, K, k).kind == "exact_dp"

    def test_scans_are_kept_immutable(self):
        # one scan per (N, k, J): a caller's copy cannot change the next answer
        c = counting.bad_set_counts(30, 3, 8)
        c[2] += 1
        assert counting.bad_set_counts(30, 3, 8) == chain_dp_oracle(30, 3, 8)
        assert isinstance(counting._lap_scan(30, 3, 8), tuple)


@pytest.mark.parametrize("cpus, threads, workers", [
    (4, 100_000, 4), (4, 2, 2), (2, 3, 2), (None, 8, None), (1, 8, None), (8, 1, None)])
def test_pool_capped_at_cpu_count(monkeypatch, cpus, threads, workers):
    # a recording executor that maps serially: no test starts real threads
    opened = []

    class SerialExecutor:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(counting, "ThreadPoolExecutor", SerialExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    est = monte_carlo_p(12, 4, 3, trials=100_000, seed=3, threads=threads)
    assert est.p.hex() == "0x1.68c3f3e0370cep-2"
    assert opened == ([workers] if workers else [])


@pytest.mark.parametrize("call", [
    lambda: exact_count(-4, 3, 3),
    lambda: exact_count(0, 3, 3),
    lambda: probability_exact(0, 3, 2),
    lambda: monte_carlo_p(0, 3, 3, trials=10),
    lambda: monte_carlo_p(8, 3, 3, trials=10, threads=0),
    lambda: f_low_3(0, 3),
    lambda: f_low_3(-4, 3),
    lambda: f_2user(0, 3),
    lambda: f_2user(-3, 3),
])
def test_rejects_nonpositive_sizes(call):
    with pytest.raises(ValueError, match="must be >= 1"):
        call()


class TestProbabilities:
    def test_p_upper_vs_exact(self):
        # the bound must sit on or above the exact probability
        for N in (8, 12):
            for K in (3, 4, 5):
                p_exact = probability_exact(N, K, 3).p
                p_up = p_upper_3(N, K).p
                assert p_exact <= p_up + 1e-12

    def test_exact_value(self):
        assert probability_exact(8, 3, 3).p == 1 - 52 / 64

    def test_monte_carlo_matches_exact(self):
        for N, K in ((8, 3), (8, 4)):
            p = probability_exact(N, K, 3).p
            est = monte_carlo_p(N, K, 3, trials=200_000, seed=17)
            se = math.sqrt(p * (1 - p) / est.trials)
            assert abs(est.p - p) <= 4 * se

    def test_monte_carlo_deterministic_and_thread_invariant(self):
        a = monte_carlo_p(12, 4, 3, trials=100_000, seed=3)
        b = monte_carlo_p(12, 4, 3, trials=100_000, seed=3)
        c = monte_carlo_p(12, 4, 3, trials=100_000, seed=3, threads=4)
        assert a == b == c
        d = monte_carlo_p(12, 4, 3, trials=100_000, seed=4)
        assert d.p != a.p

    @pytest.mark.parametrize("case, expected", [
        ((60, 11, 3, 65536), "0x1.eaf2000000000p-1"),
        ((60, 20, 3, 16384), "0x1.fff8000000000p-1"),
        ((30, 12, 4, 32768), "0x1.924c000000000p-1"),
    ])
    def test_monte_carlo_pinned_values(self, case, expected):
        # the values the C(K,k) subset loop gave, to the last bit
        for threads in (1, 2):
            assert monte_carlo_p(*case, seed=1, threads=threads).p.hex() == expected

    @pytest.mark.parametrize("N", [2**50, 2**62, 2**63 - 1, 2**63])
    def test_monte_carlo_large_n(self, N):
        # the two-lap ring arithmetic must stay inside int64 for every N
        assert monte_carlo_p(N, 8, 3, 4096, seed=1).p == 0.779052734375

    def test_monte_carlo_past_int64_offsets(self):
        # offsets are drawn as int64, so N above 2^63 is refused by name
        with pytest.raises(ValueError, match=r"up to 2\^63.*--method exact"):
            monte_carlo_p(2**63 + 1, 8, 3, 4096, seed=1)

    @pytest.mark.parametrize("N, p", [(2**30, 0.778076171875), (2**31 - 1, 0.778076171875),
                                      (2**31, 0.778076171875), (2**31 + 11, 0.763916015625)])
    def test_monte_carlo_at_the_row_type_edges(self, N, p):
        # int32 rows up to N = 2^30, int32 draws below 2^31, int64 from there;
        # the values the int64 draw and kernel gave
        assert monte_carlo_p(N, 8, 3, 4096, seed=1).p == p

    @pytest.mark.parametrize("N", [1, 2, 30, 60, 2**16 + 1, 2**30, 2**30 + 1, 2**31 - 1])
    def test_int32_draw_equals_int64_draw(self, N):
        # monte_carlo_p draws int32 offsets below 2^31; numpy's bounded draw
        # must give the int64 draw's values there, or estimates would change
        def draw(dtype):
            key = np.array([5, 0xA5A5A5A500000001], dtype=np.uint64)
            counter = np.array([0, 3, 0, 0], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
            return gen.integers(0, N, (2000, 7), dtype)
        assert np.array_equal(draw(np.int32), draw(np.int64))

    def test_exact_pairs_past_the_guard(self):
        # pairs come from the closed form, so exact_count's guard does not apply
        est = probability_exact(100, 8, 2)
        assert est.method == "exact"
        assert est.p == float(1 - Fraction(f_2user(100, 8).value, 100**7))
        for N, K in ((8, 4), (11, 5), (36, 5)):
            p = float(1 - Fraction(occupancy_count_oracle(N, K, 2), N ** (K - 1)))
            assert probability_exact(N, K, 2).p == p

    def test_monte_carlo_fields(self):
        est = monte_carlo_p(8, 3, 3, trials=10_000, seed=0)
        assert est.method == "monte_carlo" and est.trials == 10_000
        assert 0 <= est.p <= 1
        expected_hw = 1.959963984540054 * math.sqrt(est.p * (1 - est.p) / 10_000)
        assert est.half_width == pytest.approx(expected_hw)

    def test_large_k_bound_tends_to_one(self):
        # with N fixed the no-subset count is dominated by N^(K-1)
        values = [p_upper_3(8, K).p for K in (3, 6, 9, 12, 15)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999

    def test_huge_integers_stay_exact(self):
        # the ratio must survive counts far beyond float range
        res = f_low_3(2000, 12)
        assert res.value > 2**64
        p = p_upper_3(2000, 12).p
        assert 0.0 <= p <= 1.0

    def test_two_user_count_matches_continuous_limit(self):
        # independent large-N oracle: "no feasible pair" means all K points
        # fall in an arc shorter than a third of the ring, which for K
        # uniform points has probability K * (1/3)^(K-1) in the continuum
        for K in (3, 5, 7):
            ratio = f_2user(30000, K).value / 30000 ** (K - 1)
            assert ratio == pytest.approx(K * (1 / 3) ** (K - 1), abs=2e-4)
