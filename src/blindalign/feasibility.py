"""Alignment-feasibility conditions on offsets and group profiles.

The governing condition for K users is sum(s) <= (K+1) * min(s) on the
circular gap vector s, equivalently: every gap >= ceil(N / (K+1)). The
functions here are two views of that one condition plus region and subset
search built on it; every gap test on offsets runs through
:func:`feasible_subset_rows`. For N <= 64 it decides a row on one uint64
occupancy word by the skipped-lap lemma (``counting.bad_set_counts``), with
no sort; past one word it sorts the row for :func:`feasible_sorted_block`,
the greedy-chain kernel, which is then the only path.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SearchBudgetExceeded
from .pattern import ChannelConfig, group_profile

__all__ = [
    "check_feasible",
    "FeasibilityReport",
    "check_config",
    "FeasibleRegion",
    "feasible_region",
    "find_feasible_subset",
    "feasible_subset_rows",
]

_ROW_BLOCK = 4096  # rows per kernel pass: bounds its temporaries, not its result
_REGION_CELLS = 2**20  # region grids live in memory: the CLI peaks at 54 MB at N = 1024


def check_feasible(s) -> bool:
    """Necessary and sufficient condition: sum(s) <= (K+1) * min(s).

    Equals infinite-horizon alignment feasibility of the channel whose
    circular gap vector is ``s`` (K = len(s)).
    """
    s = tuple(s)
    K = len(s)
    if K < 2:
        raise ValueError("need at least 2 users")
    return sum(s) <= (K + 1) * min(s)


def row_dtype(N: int):
    """The row type of :func:`feasible_subset_rows` at this N."""
    return np.int32 if N <= 2**30 else np.int64 if N <= 2**62 else object


def feasible_subset_rows(offsets, N: int, k_target: int) -> np.ndarray:
    """Per row of ``offsets`` (R, K), entries in [0, N): do some k_target of
    its offsets have every circular gap >= ceil(N/(k_target+1))?

    Rows go through in blocks of ``_ROW_BLOCK``. For N <= 64 a block goes to
    :func:`_feasible_word_block`, which needs no sort; past one word it is
    sorted along its rows and goes to :func:`feasible_sorted_block` as
    (K, rows) columns. Rows are int32 for N <= 2^30, int64 for N <= 2^62
    and Python integers beyond (:func:`row_dtype`); rows of that type are
    not copied. An entry outside [0, N) raises ValueError.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if k_target < 2:
        raise ValueError(f"k_target must be >= 2, got {k_target}")
    if not isinstance(offsets, np.ndarray):  # numpy reads a list mixing int64 and larger ints as floats
        offsets = np.array(offsets, dtype=object)
    if offsets.ndim != 2:
        raise ValueError(f"offsets must be (rows, K), got shape {offsets.shape}")
    if offsets.size and (offsets.min() < 0 or offsets.max() >= N):
        raise ValueError(f"offsets must lie in [0, {N})")
    offsets = offsets.astype(row_dtype(N), copy=False)
    ok = np.empty(len(offsets), dtype=bool)
    for lo in range(0, len(offsets), _ROW_BLOCK):
        block = offsets[lo:lo + _ROW_BLOCK]
        ok[lo:lo + _ROW_BLOCK] = (_feasible_word_block(block, N, k_target) if N <= 64 else
                                  feasible_sorted_block(np.sort(block, axis=1).T, N, k_target))
    return ok


def _feasible_word_block(rows, N: int, k_target: int) -> np.ndarray:
    """:func:`feasible_subset_rows` for N <= 64: each row as one uint64 word,
    bit x set for each offset x, split into the k+1 laps
    [ceil(aN/(k+1)), ceil((a+1)N/(k+1))). By the skipped-lap lemma
    (``counting.bad_set_counts``) a row is feasible iff for some b the laps
    b+1, ..., b+k (mod k+1) hold a point each, every step at least ``need``.
    The lowest candidate is the best, so each step keeps the next lap's
    points from the lowest candidate plus ``need`` up: ``c | -c`` shifted
    left by ``need`` (bits past 63 drop: no point lies there), or right by
    N - need where lap k wraps to lap 0. O(K + k^2) word operations a row.
    """
    need = -(-N // (k_target + 1))
    edges = [-(-a * N // (k_target + 1)) for a in range(k_target + 2)]
    occupied = np.zeros(len(rows), dtype=np.uint64)
    for col in rows.T:
        occupied |= 1 << col.astype(np.uint64)
    laps = [occupied & ((1 << hi) - (1 << lo)) for lo, hi in zip(edges, edges[1:])]
    found = np.zeros(len(rows), dtype=np.uint64)
    for start in range(k_target + 1):  # the chain that skips lap start - 1
        lap, c = start, laps[start]
        for _ in range(k_target - 1):
            up = c | -c
            up = up >> (N - need) if lap == k_target else up << need
            lap = (lap + 1) % (k_target + 1)
            c = laps[lap] & up
        found |= c
    return found != 0


def feasible_sorted_block(cols, N: int, k_target: int) -> np.ndarray:
    """:func:`feasible_subset_rows` on one block of at most ``_ROW_BLOCK``
    rows, given as sorted (K, rows) columns of type ``row_dtype(N)``.

    Each row ``a`` is unrolled to two laps, ``two = [a, a + N]``, held as
    (2K, rows) so that every step runs along the rows; values stay below 2N.
    A jump goes to the earliest point at least the threshold further on.
    From a start, k_target-1 jumps leave the largest closing gap any
    selection from it can, so a row is feasible iff some start's chain ends
    at most N - threshold past it. Stage 1 follows each row's chain from its
    smallest offset, stage 2 every start's chain on the rows left open.
    """
    need = -(-N // (k_target + 1))
    K, R = cols.shape
    two = np.empty((2 * K, R), dtype=cols.dtype)
    two[:K] = cols
    np.add(two[:K], N, out=two[K:])
    # a point lies below v + need iff low < v; a jump takes flat index row * len(col) + col
    low, v, col = two[:K] - need, two[0], np.arange(R)
    for _ in range(k_target - 1):
        v = np.take(two, (low < v).sum(0) * len(col) + col)
    done = v <= two[0] + (N - need)
    two, col = two[:, ~done], col[:len(col) - done.sum()]
    # head[m]: the first index past m at least `need` beyond a[m]; the
    # d-th point after a[m] lies ever further on, so count those below
    head, reach = np.repeat(np.arange(1, K + 1)[:, None], len(col), 1), two[:K] + need
    for d in range(1, K):
        below = two[d:d + K] < reach
        if not below.any():
            break
        head += below
    # a chain that runs off the second lap stays on its last point, too late for any start
    nxt = np.minimum(np.concatenate([head, head + K]), 2 * K - 1) * len(col) + col
    end = nxt[:K]  # every start's first jump
    for _ in range(k_target - 2):
        end = np.take(nxt, end)
    done[~done] = (np.take(two, end) <= reach + (N - 2 * need)).any(0)
    return done


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    s: tuple[int, ...]
    min_gap: int
    threshold: Fraction  # N / (K+1); min_gap must reach it

    @property
    def min_gap_required(self) -> int:
        """Integer form of the threshold: ceil(N / (K+1))."""
        return -(-self.threshold.numerator // self.threshold.denominator)


def check_config(cfg: ChannelConfig) -> FeasibilityReport:
    """Full feasibility verdict for a channel config: :func:`check_feasible`
    on its gap tuple, so every circular offset gap is at least N/(K+1);
    duplicated offsets produce a zero gap and are therefore always infeasible.
    """
    s = group_profile(cfg)
    return FeasibilityReport(
        feasible=check_feasible(s),
        s=s,
        min_gap=min(s),
        threshold=Fraction(cfg.N, cfg.K + 1),
    )


@dataclass(frozen=True)
class FeasibleRegion:
    """All feasible (offset_2, offset_3) pairs for a 3-user channel, benchmark
    at 0, in lexicographic order."""

    N: int
    points: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def ratio(self) -> float:
        return self.count / self.N**2

    def __contains__(self, pair) -> bool:
        pair = tuple(pair)
        at = bisect.bisect_left(self.points, pair)
        return at < len(self.points) and self.points[at] == pair


def feasible_region(N: int) -> FeasibleRegion:
    """Enumerate the feasible (n2, n3) grid for 3 users with benchmark offset 0."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N * N > _REGION_CELLS:
        raise SearchBudgetExceeded(f"region grid of N^2 = {N * N} points exceeds {_REGION_CELLS}")
    n2, n3 = np.divmod(np.arange(N * N, dtype=row_dtype(N)), N)
    ok = feasible_subset_rows(np.stack([np.zeros_like(n2), n2, n3], axis=1), N, 3)
    return FeasibleRegion(N=N, points=tuple(zip(n2[ok].tolist(), n3[ok].tolist())))


def find_feasible_subset(offsets, N: int, k_target: int):
    """First (lexicographically smallest) k_target-user subset that is feasible.

    Returns a tuple of 1-based user indices, or None when no subset of that
    size has all circular gaps >= ceil(N/(k_target+1)); k_target = K tests
    the whole config. A prefix search: with users F chosen, each user u that
    far from all of F gives one kernel row, F, u and every user that far
    from all of them, padded with copies of F and u in turn. It is feasible
    iff F and u lie in a feasible subset, so the first such u is next: k_target
    calls on at most K rows, O(K^2 * k_target) cells, not C(K, k_target) subsets.
    """
    offsets = tuple(offsets)
    K = len(offsets)
    if not 2 <= k_target <= K:
        raise ValueError(f"k_target must be in 2..{K}")
    if N < 1:
        raise ValueError("N must be >= 1")
    pos = np.array([int(o) % N for o in offsets], dtype=row_dtype(N))
    gap = (pos[:, None] - pos) % N
    far = np.minimum(gap, N - gap) >= -(-N // (k_target + 1))
    chosen, free, users = [], np.ones(K, dtype=bool), np.arange(K)
    for _ in range(k_target):
        cands = np.flatnonzero(free)
        keep = np.isin(users, chosen) | (users == cands[:, None]) | (free & far[cands])
        ring = users % (len(chosen) + 1)  # a copy adds no subset; few copies per point
        pad = np.where(ring < len(chosen), pos[[*chosen, 0]][ring], pos[cands, None])
        ok = feasible_subset_rows(np.where(keep, pos, pad), N, k_target)
        if not ok.any():
            return None
        chosen.append(int(cands[ok.argmax()]))
        free &= far[chosen[-1]]
    return tuple(u + 1 for u in chosen)
