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
from .feasibility import _ROW_BLOCK, feasible_sorted_block, feasible_subset_rows, row_dtype

__all__ = [
    "CountResult",
    "ProbabilityEstimate",
    "gamma_count",
    "f_low_3",
    "f_2user",
    "exact_count",
    "probability_exact",
    "p_upper_3",
    "monte_carlo_p",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_MC_CHUNK = 1 << 15  # fixed: estimates are bit-identical for any thread count
_EXACT_PAIRS = 10**8  # exact_count's size bound; past it, use monte_carlo_p
_EXTEND_CHUNK = 1 << 16  # candidate sets built at once: bounds memory, not the count


@dataclass(frozen=True)
class CountResult:
    value: int
    kind: str  # formula_lower_bound | formula | exact_occupancy | exact_table


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


def _extensions(bad: np.ndarray, N: int):
    """Each set of ``bad`` (sorted (j, n) columns, colex order) with each point
    c above its top added, in colex order, in chunks of at most ``_EXTEND_CHUNK``
    columns: the sets with top c extend the prefix of ``bad`` below c."""
    ends = np.concatenate([[0], np.cumsum(np.searchsorted(bad[-1], np.arange(N)))])
    for lo in range(0, ends[-1], _EXTEND_CHUNK):
        hi = min(lo + _EXTEND_CHUNK, ends[-1])
        first, stop = np.searchsorted(ends, lo, "right") - 1, np.searchsorted(ends, hi)
        runs = np.diff(np.clip(ends[first:stop + 1], lo, hi))  # columns of the tops in the chunk
        src = np.arange(lo, hi) - np.repeat(ends[first:stop], runs)
        cols = np.empty((len(bad) + 1, len(src)), dtype=bad.dtype)
        np.take(bad, src, axis=1, out=cols[:-1])
        cols[-1] = np.repeat(np.arange(first, stop), runs)
        yield cols


def _bad_sets_3(rows: tuple, N: int, j: int) -> int:
    """c_j(N), the j-point sets {0} ∪ S ⊂ Z_N with no feasible 3-subset, from
    the node table ``rows`` (``_triples.ROWS``, rows N = 1, 2, ...): its row N
    if it has one, else the polynomial through the first j nodes N' >= 4
    with N' = N mod 4, in the Newton form on that class's step of 4 (integer
    differences and binomials, so exact)."""
    if N <= len(rows):
        return rows[N - 1][j - 1]
    base = 4 + N % 4
    diffs = [rows[base + 4 * i - 1][j - 1] for i in range(j)]
    t, value = (N - base) // 4, 0
    for i in range(j):
        value += math.comb(t, i) * diffs[0]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert 0 <= value <= math.comb(N - 1, j - 1), (N, j, value)
    return value


def exact_count(N: int, K: int, k_target: int) -> CountResult:
    """Exact count of the N^(K-1) placements with no feasible subset.

    Pairs are :func:`f_2user`, kind ``formula``, for any N. For larger
    subsets feasibility depends only on the set of occupied boxes, so bad =
    sum_j c_j * gamma_count(j, K-1, j-1) over occupied sets {0} ∪ S of each
    size j, where c_j counts the sets with no feasible k_target-subset and the
    multiplier the ways the K-1 labeled balls land on {0} ∪ S covering S.

    Triples with K <= ``_triples.J`` (12) read c_j(N) from a node table, kind
    ``exact_table``, for any N and without a guard. The table holds the chain
    DP's c_j(N) for N <= 51; past it, c_j is taken to be a polynomial of
    degree j-1 on each residue class of N mod 4 (a quasi-polynomial: the bad
    sets are the lattice points of a finite union of rational polytopes with
    denominator 4, Ehrhart; Beck and Robins, *Computing the Continuous
    Discretely*, ch. 3), interpolated through the first j nodes of N's class
    (:func:`_bad_sets_3`). That is not proved here. Checks gate it: in the
    tests every interpolation equals every later node in the table and the
    pinned bad counts at N = 60, and ``tools/bad_sets_table.py --check``
    runs the DP at N = 52..56.
    Every other case walks the occupied sets under a guard
    (:func:`_occupancy_count`).
    """
    _check_positive(N=N)
    if not 2 <= k_target <= K:
        raise ValueError(f"k_target must be in 2..{K}")
    if k_target == 2:
        return f_2user(N, K)
    if k_target == 3:
        from . import _triples  # compiled by the first triple count, not by every import
        if K <= _triples.J:
            value = sum(_bad_sets_3(_triples.ROWS, N, j) * gamma_count(j, K - 1, j - 1)
                        for j in range(1, min(K, N) + 1))
            return CountResult(value=value, kind="exact_table")
    return _occupancy_count(N, K, k_target)


def _occupancy_count(N: int, K: int, k_target: int) -> CountResult:
    """``exact_count`` by a walk over the bad occupied sets, grown a point at a
    time. Subsets of a bad set are bad, so the kernel sees only the bad
    (j-1)-sets plus a point above their top (:func:`_extensions`), and no set
    with j < k_target, where all are bad. ``_EXACT_PAIRS`` bounds the (set,
    k_target-subset) pairs of all sets, sum_j C(N-1, j-1) * C(j, k_target): a
    size bound on the instance, not the work done. Pairs never come here, so
    its j = k_target term C(N-1, k_target-1) keeps N, and arrays over N, small.
    """
    top = min(K, N)
    work = sum(math.comb(N - 1, j - 1) * math.comb(j, k_target) for j in range(1, top + 1))
    if work > _EXACT_PAIRS:
        raise SearchBudgetExceeded(f"{work} (occupied set, {k_target}-subset) pairs exceed "
                                   f"the guard {_EXACT_PAIRS}; use monte_carlo_p instead")
    bad, value = np.zeros((1, 1), dtype=row_dtype(N)), 1  # j = 1: every ball at box 0
    for j in range(2, top + 1):
        kept, count = [], 0
        for cols in _extensions(bad, N):
            if j >= k_target:
                ok = [feasible_sorted_block(cols[:, b:b + _ROW_BLOCK], N, k_target)
                      for b in range(0, cols.shape[1], _ROW_BLOCK)]
                cols = cols[:, ~np.concatenate(ok)]
            count += cols.shape[1]
            if j < top:
                kept.append(cols)
        value += count * gamma_count(j, K - 1, j - 1)
        if not count or j == top:
            break
        bad = np.concatenate(kept, axis=1)
    return CountResult(value=value, kind="exact_occupancy")


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

