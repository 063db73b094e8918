import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindalign import (
    SearchBudgetExceeded,
    certificate_count,
    check_feasible,
    closed_form_solution,
    closed_form_solution_3user,
    enumerate_certificates,
    verify_solution,
)
from helpers import brute_force_solve, compositions, random_feasible_gaps

FIG_LAMBDA = (0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)


def window_oracle(s, lam):
    """Literal restatement of the window equations, kept separate on purpose."""
    K = len(s)
    m = K * (K + 1)
    ext = [s[i % K] for i in range(m)]
    for i in range(m):
        window = [lam[(i - d) % m] for d in range(K + 1)]
        if sum(window) != ext[i]:
            return False
    return all(v >= 0 for v in lam)


class TestVerifySolution:
    def test_known_values(self):
        assert verify_solution((1, 1, 2), FIG_LAMBDA)
        assert not verify_solution((1, 1, 2), (0,) * 12)
        assert verify_solution((3, 3, 5), closed_form_solution((3, 3, 5)))

    def test_rejects_negative_entries(self):
        lam = list(closed_form_solution((2, 2, 3)))
        lam[0] += 1
        lam[1] -= 1
        assert not verify_solution((2, 2, 3), lam)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verify_solution((1, 1, 2), (0,) * 11)

    def test_agrees_with_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            K = int(rng.integers(2, 5))
            s = tuple(int(x) for x in rng.integers(0, 6, K))
            lam = tuple(int(x) for x in rng.integers(0, 3, K * (K + 1)))
            assert verify_solution(s, lam) == window_oracle(s, lam)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sliding_windows_match_oracle(self, data):
        # a member of the solution family (min(s) = sum(y) + sum(d)), past
        # int64 at times, then maybe t moved from entry i + K + 1 to entry
        # i: that changes only the windows holding one of the two
        K = data.draw(st.integers(2, 7), label="K")
        m = K * (K + 1)
        size = st.one_of(st.integers(0, 4), st.integers(0, 2**70))
        d = data.draw(st.lists(size, min_size=K, max_size=K), label="d")
        d = [v - min(d) for v in d]
        y = data.draw(st.lists(size, min_size=K + 1, max_size=K + 1), label="y")
        s = tuple(sum(y) + sum(d) + v for v in d)
        lam = [d[i % K] + y[i % (K + 1)] for i in range(m)]
        assert verify_solution(s, lam)
        i, t = data.draw(st.integers(0, m - 1), label="i"), data.draw(size, label="t")
        lam[i] += t
        lam[(i + K + 1) % m] -= t
        assert verify_solution(s, lam) == window_oracle(s, lam)


class TestClosedForms:
    def test_frozen_3user_vectors(self):
        assert closed_form_solution((3, 3, 5)) == (0, 1, 2, 0, 0, 3, 0, 0, 2, 1, 0, 2)
        assert closed_form_solution_3user((3, 3, 5)) == (0, 0, 3, 0, 0, 2, 1, 0, 2, 0, 1, 2)

    def test_constructors_differ(self):
        # the certificate is not unique; the two constructors exhibit that
        assert closed_form_solution((3, 3, 5)) != closed_form_solution_3user((3, 3, 5))

    def test_4user_structure(self):
        s = (2, 2, 3, 3)
        lam = closed_form_solution(s)
        assert verify_solution(s, lam)
        s0, s1, s2, s3 = s
        assert lam[1] == 3 * s0 - (s2 + s3)
        assert lam[6] == 3 * s0 - (s1 + s3)
        assert lam[11] == 3 * s0 - (s1 + s2)
        assert lam[16] == 4 * s0 - (s1 + s2 + s3)
        assert lam[2] == s2 - s0 and lam[5] == s1 - s0 and lam[15] == s3 - s0

    def test_boundary_sum_equals_limit(self):
        # tightest feasible case: every gap equals N/(K+1) scaled
        lam = closed_form_solution((1, 1, 2))
        assert verify_solution((1, 1, 2), lam)
        lam = closed_form_solution((5, 5, 5, 5))
        assert verify_solution((5, 5, 5, 5), lam)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="condition violated"):
            closed_form_solution((3, 3, 7))
        with pytest.raises(ValueError, match="condition violated"):
            closed_form_solution_3user((1, 1, 3))

    def test_3user_rejects_other_k(self):
        with pytest.raises(ValueError, match="K=3 only"):
            closed_form_solution_3user((2, 2, 2, 2))

    def test_all_rotations(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            K = int(rng.integers(2, 7))
            s = random_feasible_gaps(rng, K, 300)
            for r in range(K):
                rot = tuple(s[(i + r) % K] for i in range(K))
                lam = closed_form_solution(rot)
                assert verify_solution(rot, lam)
                assert sum(lam) == sum(rot)
                if K == 3:
                    lam3 = closed_form_solution_3user(rot)
                    assert verify_solution(rot, lam3)

    def test_deterministic_on_tied_minima(self):
        s = (5, 3, 3)  # two minimal entries; smallest index must win, stably
        a = closed_form_solution(s)
        assert a == closed_form_solution(s)
        assert verify_solution(s, a)


class TestBruteForce:
    def test_unique_solution_instance(self):
        assert brute_force_solve((1, 1, 2), enumerate_all=True) == [FIG_LAMBDA]

    def test_infeasible_empty(self):
        assert brute_force_solve((3, 3, 7), enumerate_all=True) == []

    def test_non_uniqueness_instance(self):
        sols = brute_force_solve((3, 3, 5), enumerate_all=True)
        assert len(sols) >= 2
        lam2s = {lam[2] for lam in sols}
        assert 3 in lam2s and 2 in lam2s
        assert closed_form_solution((3, 3, 5)) in sols
        assert closed_form_solution_3user((3, 3, 5)) in sols

    def test_first_solution_is_lexicographic_least(self):
        sols = brute_force_solve((3, 3, 5), enumerate_all=True)
        assert brute_force_solve((3, 3, 5)) == [min(sols)]

    def test_all_solutions_verify_and_sum_to_n(self):
        for s in ((2, 2, 3), (4, 4, 4), (1, 2, 2), (2, 2, 2, 2)):
            for lam in brute_force_solve(s, enumerate_all=True):
                assert verify_solution(s, lam)
                assert sum(lam) == sum(s)

    def test_budget_guard(self):
        with pytest.raises(SearchBudgetExceeded):
            brute_force_solve((40, 40, 40), enumerate_all=True, max_nodes=50)

    def test_equivalence_smoke(self):
        # the full N<=20, K<=4 sweep runs in the acceptance suite
        for K in (2, 3):
            for N in range(1, 13):
                for s in compositions(N, K):
                    assert bool(brute_force_solve(s)) == check_feasible(s)


# a common floor plus small bumps gives feasible vectors with slack, tight
# ones and infeasible ones at every K; the caps keep the oracle's search small
_BUMP_CAPS = {2: 8, 3: 5, 4: 3, 5: 2, 6: 2}
gap_vectors = st.integers(2, 6).flatmap(lambda K: st.builds(
    lambda floor, bumps: tuple(floor + b for b in bumps),
    st.integers(0, 3), st.lists(st.integers(0, _BUMP_CAPS[K]), min_size=K, max_size=K)))


class TestSolutionFamily:
    """The closed-form family against the exhaustive oracle."""

    def test_equals_oracle_on_small_sweep(self):
        checked = 0
        for K, n_max in ((2, 20), (3, 20), (4, 16)):
            for N in range(0, n_max + 1):
                for s in compositions(N, K):
                    sols = brute_force_solve(s, enumerate_all=True)
                    assert list(enumerate_certificates(s)) == sols, s
                    assert certificate_count(s) == len(sols), s
                    checked += 1
        assert checked == 6_847

    @settings(max_examples=300, deadline=None)
    @given(gap_vectors)
    def test_family_matches_oracle(self, s):
        K = len(s)
        sols = brute_force_solve(s, enumerate_all=True)
        assert list(enumerate_certificates(s)) == sols
        assert certificate_count(s) == len(sols)
        if not sols:
            assert not check_feasible(s)
            with pytest.raises(ValueError, match="condition violated"):
                closed_form_solution(s)
            return
        # lam[0..K] ranges over a simplex: each coordinate runs from its
        # lower bound up to the bound plus the slack, and the bounds sum to s[0]
        lows = [min(lam[r] for lam in sols) for r in range(K + 1)]
        highs = [max(lam[r] for lam in sols) for r in range(K + 1)]
        slack = (K + 1) * min(s) - sum(s)
        assert s[0] - sum(lows) == slack
        assert all(hi - lo == slack for lo, hi in zip(lows, highs))
        # each constructor is the vertex holding all the slack on one coordinate
        a = s.index(min(s))
        for c, make in ((1, closed_form_solution), (2, closed_form_solution_3user)):
            if c == 2 and K != 3:
                continue
            r = (a + c) % (K + 1)
            vertex = [lam for lam in sols if lam[r] == highs[r]]
            assert vertex == [make(s)]

    def test_pinned_count(self):
        s = (1000, 1100, 1200, 1150, 1300)
        assert certificate_count(s) == 8_637_487_551
        assert certificate_count((1, 1, 2)) == 1
        assert certificate_count((3, 3, 5)) == 4
        assert certificate_count((3, 3, 7)) == 0

    def test_stream_is_lazy_and_checked_at_the_call(self):
        s = (1000, 1100, 1200, 1150, 1300)  # 8,637,487,551 certificates
        slack = 6 * min(s) - sum(s)
        base = tuple(s[i % 5] - min(s) for i in range(30))
        first = next(enumerate_certificates(s))  # y = (0, ..., 0, slack)
        assert first == tuple(b + slack * (i % 6 == 5) for i, b in enumerate(base))
        assert verify_solution(s, first)
        for bad in ((1,), (3, -1, 5), ()):
            with pytest.raises(ValueError):
                enumerate_certificates(bad)  # before any next()
        assert list(enumerate_certificates((3, 3, 7))) == []
