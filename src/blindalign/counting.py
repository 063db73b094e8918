"""Counting and probability of finding feasible user subsets.

All event counts are exact Python integers (placement counts reach N^(K-1),
far past 64 bits for realistic N, K). Probabilities are formed as exact
integer ratios and rounded to float only at the end. Offsets of users 2..K
are modeled as labeled balls cast uniformly onto a ring of N labeled boxes,
with user 1 fixed at box 0.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SearchBudgetExceeded
from .feasibility import feasible_subset_rows, row_dtype

__all__ = [
    "CountResult",
    "ProbabilityEstimate",
    "gamma_count",
    "f_low_3",
    "f_2user",
    "bad_set_counts",
    "exact_count",
    "probability_exact",
    "p_upper_3",
    "monte_carlo_p",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_MC_CHUNK = 1 << 15  # fixed: estimates are bit-identical for any thread count
_DP_FRONTS = 2 * 10**5  # fronts bad_set_counts may process; past it, use monte_carlo_p


@dataclass(frozen=True)
class CountResult:
    value: int
    kind: str  # formula_lower_bound | formula | exact_table | exact_dp


@dataclass(frozen=True)
class ProbabilityEstimate:
    p: float
    method: str  # closed_form_bound | exact | monte_carlo
    trials: int | None = None
    half_width: float | None = None  # 95% normal-approximation CI half-width


def _check_positive(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def gamma_count(n: int, theta: int, mu: int) -> int:
    """Placements of theta labeled balls into n labeled boxes covering mu
    designated boxes, by inclusion-exclusion over empty designated boxes.

    mu > theta gives 0 (too few balls); mu > n has no meaning and is rejected.
    """
    if n < 0 or theta < 0 or mu < 0:
        raise ValueError("arguments must be nonnegative")
    if mu > n:
        raise ValueError(f"cannot designate mu={mu} boxes out of n={n}")
    return sum((-1) ** j * math.comb(mu, j) * (n - j) ** theta for j in range(mu + 1))


def f_low_3(N: int, K: int) -> CountResult:
    """Closed-form lower bound on placements with no feasible 3-user subset.

    Type I counts all K-1 balls inside one arc of at most M = N/2 boxes;
    Type II counts two-arc configurations whose arc lengths stay within
    Q = N/4. Type I alone is M^K - (M-1)^K, counted as in :func:`f_2user`.
    Both types are sums over arc lengths n of w(n) times the m-th backward
    difference of n^(K-1), with w of degree m-1; summation by parts (Graham,
    Knuth and Patashnik, *Concrete Mathematics* §2.6) collapses each sum to
    boundary terms, which combine into the K-th powers below. The halving is
    exact: M and M-2 have the same parity, so the second difference is even.
    """
    _check_positive(N=N)
    if N % 4 != 0:
        raise ValueError(
            f"N={N} not divisible by 4; the closed form assumes N/4 integer "
            "(use exact_count or monte_carlo_p instead)"
        )
    if K < 3:
        raise ValueError("defined for K >= 3")
    M, Q = N // 2, N // 4
    value = (M + 1) * (M**K - 2 * (M - 1) ** K + (M - 2) ** K) // 2 + Q**K - (Q - 1) ** K
    return CountResult(value=value, kind="formula_lower_bound")


def f_2user(N: int, K: int) -> CountResult:
    """Exact count of placements with no feasible 2-user subset, for every N.

    A pair works iff its circular distance is at least L = ceil(N/3), so
    the bad events are exactly "all K points inside one arc of L boxes".
    The arc's leftmost point p is unique, since the span, below L, is less
    than N/2: L^K - (L-1)^K tuples lie in [p, p+L-1] with a point at p, and
    fixing user 1 at box 0 divides the N choices of p away.
    """
    _check_positive(N=N)
    if K < 2:
        raise ValueError("defined for K >= 2")
    L = -(-N // 3)
    return CountResult(value=L**K - (L - 1) ** K, kind="formula")


def bad_set_counts(N: int, k: int, J: int) -> list[int]:
    """[c_1, ..., c_J], c_j the number of j-point sets {0} ∪ S ⊂ Z_N with no
    feasible k-subset, by a left-to-right DP over the points 1..N-1 (the
    transfer-matrix method, Stanley, *EC1* §4.7). With L = ceil(N/(k+1)), a
    set has a feasible k-subset iff the greedy chain from some start a < L,
    each of its k-1 jumps to the first point at least L further on, ends by
    a + N - L (Gupta, Lee and Leung, *Networks* 12, 1982; a feasible subset
    starting at L or later can swap its first point for 0). A state is the
    Pareto front of the live chains (picks c, distance e from the last pick
    to the next point, capped at L, start a): dominated chains, and chains
    that can no longer end by a + N - L, drop. A set whose chain ends is
    good and leaves; one with no live chain once none can start stays bad.
    Each front keeps its sets' counts by size in W-bit lanes of one integer,
    so taking a point is a shift and sets past J points fall off the top.
    The work, about exponential in L, is counted: past ``_DP_FRONTS``
    fronts the DP refuses."""
    L = -(-N // (k + 1))
    W = max(math.comb(N - 1, j) for j in range(J)).bit_length()  # no lane overflows
    mask = (1 << W * (J + 1)) - 1

    def advance(chains, q):
        """The Pareto front at the next point q of the chains still able to end."""
        front = []
        for t in sorted({(c, e, a) for c, e, a in chains
                         if q + L - e + (k - c - 1) * L <= a + N - L}, reverse=True):
            if not any(u[0] >= t[0] and u[1] >= t[1] and u[2] >= t[2] for u in front):
                front.append(t)
        return tuple(front)

    states, dead, fronts = {((1, 1, 0),): 1 << W}, 0, 0  # {0}: one chain, started at 0
    for p in range(1, N):
        dead += (dead << W) & mask  # bad sets take p or not
        new = {}
        for front, lanes in states.items():
            if (fronts := fronts + 1) > _DP_FRONTS:
                raise SearchBudgetExceeded(f"chain DP past {_DP_FRONTS} fronts; use monte_carlo_p")
            skip = advance([(c, min(e + 1, L), a) for c, e, a in front], p + 1)
            took = [(c + 1, 1, a) if e == L else (c, min(e + 1, L), a) for c, e, a in front]
            outcomes = [(skip, lanes)]
            if all(c < k for c, _, _ in took):  # else a chain ended: the set is good
                took += [(1, 1, p)] if p < L else []
                outcomes.append((advance(took, p + 1), (lanes << W) & mask))
            for f, v in outcomes:
                if not f and p + 1 >= L:
                    dead += v
                elif v:
                    new[f] = new.get(f, 0) + v
        states = new
    total = dead + sum(states.values())
    return [total >> W * j & (1 << W) - 1 for j in range(1, J + 1)]


def _bad_sets(rows: tuple, period: int, N: int, J: int) -> list[int]:
    """[c_1, ..., c_J] at N from a node table of :func:`bad_set_counts` at
    k = period - 1: row N, or past the rows :func:`exact_count`'s interpolation
    in exact Newton form; a c_j outside 0..C(N-1, j-1) raises."""
    if N <= len(rows):
        return list(rows[N - 1][:J])
    base = period + N % period
    t, c = (N - base) // period, []
    for j in range(1, J + 1):
        diffs, value = [rows[base + period * i - 1][j - 1] for i in range(j)], 0
        for i in range(j):
            value += math.comb(t, i) * diffs[0]
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if not 0 <= value <= math.comb(N - 1, j - 1):
            raise ArithmeticError(f"interpolated c_{j}({N}) = {value} outside 0..C({N-1}, {j-1})")
        c.append(value)
    return c


def exact_count(N: int, K: int, k_target: int) -> CountResult:
    """Exact count of the N^(K-1) placements with no feasible subset.

    Pairs are :func:`f_2user`, kind ``formula``, for any N. For larger
    subsets feasibility depends only on the set of occupied boxes, so bad =
    sum_j c_j * gamma_count(j, K-1, j-1) over occupied sets {0} ∪ S of each
    size j, where c_j counts the sets with no feasible k_target-subset and the
    multiplier the ways the K-1 labeled balls land on {0} ∪ S covering S.

    c_j(N) comes from :func:`bad_set_counts` with J = min(K, N), kind
    ``exact_dp``, under its guard; for k_target 3 and 4 with K <= 12, from
    its node tables ``_triples`` (N <= 51) and ``_quadruples`` (N <= 64),
    kind ``exact_table``, for any N. Past the last row c_j is taken to be
    the polynomial through the first j nodes N' >= k_target+1 of N's class
    mod k_target+1 (Ehrhart quasi-polynomials; Beck and Robins, *Computing
    the Continuous Discretely*, ch. 3). That is not proved here: the tests
    and ``tools/bad_sets_table.py --check`` match it with later nodes.
    """
    _check_positive(N=N)
    if not 2 <= k_target <= K:
        raise ValueError(f"k_target must be in 2..{K}")
    if k_target == 2:
        return f_2user(N, K)
    from . import _quadruples, _triples  # compiled by the first count that reads a table
    table = {3: _triples, 4: _quadruples}.get(k_target)
    if table and K <= table.J:
        c, kind = _bad_sets(table.ROWS, k_target + 1, N, min(K, N)), "exact_table"
    else:
        c, kind = bad_set_counts(N, k_target, min(K, N)), "exact_dp"
    return CountResult(sum(c_j * gamma_count(j, K - 1, j - 1) for j, c_j in enumerate(c, 1)), kind)


def probability_exact(N: int, K: int, k_target: int) -> ProbabilityEstimate:
    """P(some k_target-user subset is feasible), exactly: 1 - exact_count / N^(K-1)."""
    p = float(1 - Fraction(exact_count(N, K, k_target).value, N ** (K - 1)))
    return ProbabilityEstimate(p=p, method="exact")


def p_upper_3(N: int, K: int) -> ProbabilityEstimate:
    """Upper bound on P(some feasible 3-user subset): 1 - f_low / N^(K-1).

    The ratio of exact integers is converted with correct rounding, so the
    bound stays meaningful when both integers are astronomically large.
    """
    f = f_low_3(N, K).value
    p = float(1 - Fraction(f, N ** (K - 1)))
    return ProbabilityEstimate(p=p, method="closed_form_bound")


def monte_carlo_p(N: int, K: int, k_target: int, trials: int, seed: int = 0,
                  threads: int = 1) -> ProbabilityEstimate:
    """Estimate P(some k_target-user subset is feasible) from uniform offsets.

    Offsets of users 2..K are i.i.d. uniform on [0, N). Trial t's sample is a
    pure function of (seed, t): trials are generated in fixed-size chunks,
    each from its own counter-stamped stream, so the estimate is identical
    for any thread count or execution order.
    """
    _check_positive(N=N, trials=trials, threads=threads)
    if not 2 <= k_target <= K:
        raise ValueError(f"k_target must be in 2..{K}")
    if N > 2**63:  # offsets are drawn as int64
        raise ValueError(f"Monte Carlo takes N up to 2^63, got {N}; use --method exact or bound")

    def run_chunk(c: int) -> int:
        lo = c * _MC_CHUNK
        size = min(_MC_CHUNK, trials - lo)
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0xA5A5A5A500000001], dtype=np.uint64)
        counter = np.array([0, c, 0, 0], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
        # for N < 2^31 the bounded draw gives the same values in int32 as in int64
        offs = np.zeros((size, K), dtype=row_dtype(N))
        offs[:, 1:] = gen.integers(0, N, (size, K - 1), np.int32 if N < 2**31 else np.int64)
        return int(feasible_subset_rows(offs, N, k_target).sum())

    workers = min(threads, os.cpu_count() or 1)  # at most one per CPU, serial for one
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        hits = sum((pool.map if pool else map)(run_chunk, range(-(-trials // _MC_CHUNK))))

    p = hits / trials
    half_width = _Z95 * math.sqrt(p * (1 - p) / trials)
    return ProbabilityEstimate(p=p, method="monte_carlo", trials=trials,
                               half_width=half_width)

