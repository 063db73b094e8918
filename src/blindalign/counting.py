"""Counting and probability of finding feasible user subsets.

All event counts are exact Python integers (placement counts reach N^(K-1),
far past 64 bits for realistic N, K). Probabilities are formed as exact
integer ratios and rounded to float only at the end. Offsets of users 2..K
are modeled as labeled balls cast uniformly onto a ring of N labeled boxes,
with user 1 fixed at box 0.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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
_SCAN_VISITS = 5 * 10**5  # state visits bad_set_counts may make; past it, use monte_carlo_p


@dataclass(frozen=True)
class CountResult:
    value: int
    kind: str  # formula_lower_bound | formula | exact_dp | exact_interpolated


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
    feasible k-subset, by one scan in lap order (a transfer matrix, Stanley,
    *EC1* §4.7). Scaled by k+1, x has lap ⌊(k+1)x/N⌋ and fraction
    f = (k+1)x mod N, and a gap passes ceil(N/(k+1)) iff it passes N scaled:
    N·d + f' - f for d laps stepped, so iff d ≥ 2, or d = 1 and f' ≥ f. The k
    steps round a subset sum to k+1 laps, so a feasible one steps 1 but once
    2, skipping a lap b: a set has one iff for some b it holds a point on
    each lap b+1, ..., b+k (mod k+1), in that order, with nondecreasing f.
    Scanning f upward, each b keeps its longest matched prefix m_b (a state
    is the k+1 of them): the points at one f have distinct laps, and m_b
    grows while lap b+1+m_b is among those taken, point 0 with them at f = 0
    (ties match in run order, and a longer prefix never hurts). A set whose
    run completes is good and leaves; each state counts its sets by size in
    W-bit lanes of one integer. Past ``_SCAN_VISITS`` visits, one per state
    and subset of an f's points, the scan refuses.

    Periodic scan: x = (aN + f)/(k+1) is a point iff aN + f ≡ 0 (mod k+1), so
    the laps at f depend only on f mod k+1 and r = N mod k+1: on
    N = (k+1)(t+1) + r the scan reads one period of k+1 lap sets t+1 times,
    then r more. A period where nothing is taken keeps the state and
    period 0 holds point 0, so a j-point set uses m ≤ j-1 of the t later
    periods, and its fate depends only on its choices in period 0, in those
    m in order and in the last r: c_j = Σ_{m<j} a_{j,m}·C(t, m), a_{j,m} free
    of t, a polynomial of degree ≤ j-1 in t (period 1, from t = 0), which is
    its Newton form through t = 0..j-1.
    """
    return list(_lap_scan(N, k, J))


@functools.lru_cache(maxsize=4096)
def _lap_scan(N: int, k: int, J: int) -> tuple[int, ...]:
    """:func:`bad_set_counts`, scanned once per (N, k, J) and kept immutable."""
    P = k + 1
    W = math.comb(N - 1, min(J - 1, (N - 1) // 2)).bit_length()  # no lane overflows
    mask = (1 << W * (J + 1)) - 1

    def advance(runs: tuple, taken: int):
        """The match lengths after taking the laps ``taken``; None once a run completes."""
        out = []
        for b, i in enumerate(runs):
            while i < k and taken >> (b + 1 + i) % P & 1:
                i += 1
            out.append(i)
        return None if k in out else tuple(out)

    moves, states, visits = {}, {(0,) * P: 1}, 0
    for f in range(0, N, math.gcd(N, P)):  # the fractions that hold points, gcd(N, P) each
        laps = [1 << a for a in range(P) if (a * N + f) % P == 0]
        if (visits := visits + (len(states) << len(laps))) > _SCAN_VISITS:
            raise SearchBudgetExceeded(f"lap scan past {_SCAN_VISITS} visits; use monte_carlo_p")
        new = {}
        for runs, lanes in states.items():
            if (key := (runs, f % P, f == 0)) not in moves:  # every set takes point 0
                moves[key] = [(nxt, W * n) for n in range(len(laps) + 1)
                              for c in combinations(laps, n)
                              if (f or 1 in c) and (nxt := advance(runs, sum(c)))]
            for nxt, shift in moves[key]:
                if v := lanes << shift & mask:
                    new[nxt] = new.get(nxt, 0) + v
        states = new
    total = sum(states.values())
    return tuple(total >> W * j & (1 << W) - 1 for j in range(1, J + 1))


def _bad_sets(nodes: list, period: int, N: int) -> list[int]:
    """[c_1, ..., c_J] at N, Newton's form through the scans ``nodes`` at t = 0..J-1; a c_j
    outside 0..C(N-1, j-1) raises."""
    t, c = N // period - 1, []
    for j in range(1, len(nodes) + 1):
        diffs, value = [node[j - 1] for node in nodes[:j]], 0
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

    c_j(N), J = min(K, N), is :func:`bad_set_counts` scanned directly when
    N < (k_target+1)(J+1), kind ``exact_dp``, else its Newton form in t through
    the class's first J points N' = (k_target+1)(t+1) + N mod (k_target+1),
    t = 0..J-1, kind ``exact_interpolated``. Scans are kept, so each runs once.
    """
    _check_positive(N=N)
    if not 2 <= k_target <= K:
        raise ValueError(f"k_target must be in 2..{K}")
    if k_target == 2:
        return f_2user(N, K)
    J, period = min(K, N), k_target + 1
    if N < period * (J + 1):
        c, kind = _lap_scan(N, k_target, J), "exact_dp"
    else:
        nodes = [_lap_scan(period * (t + 1) + N % period, k_target, J) for t in range(J)]
        c, kind = _bad_sets(nodes, period, N), "exact_interpolated"
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

