"""Block-fading channel model: slot-to-block maps, group profiles, pattern matrices.

A homogeneous broadcast channel is described by a coherence time ``N`` shared
by all users and one block offset per user. User ``i``'s channel vector is
constant on each of its fading blocks and redraws at slots congruent to its
offset modulo ``N``. Joint channel state is therefore piecewise constant on
"groups" whose sizes cycle through the circular gaps between the offsets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelConfig",
    "GroupProfile",
    "block_index",
    "group_profile",
    "group_slots",
    "slot_group",
    "pattern_matrix",
    "is_feasible_pattern",
    "count_feasible_patterns",
    "enumerate_feasible_patterns",
]


@dataclass(frozen=True)
class ChannelConfig:
    """A homogeneous K-user channel: coherence time and per-user block offsets.

    Offsets are normalized modulo ``N`` on construction. User indices are
    1-based throughout the package; user 1 (``offsets[0]``) is the benchmark
    that anchors group numbering.
    """

    N: int
    offsets: tuple[int, ...]

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"coherence time must be >= 1, got {self.N}")
        offs = tuple(int(o) % self.N for o in self.offsets)
        if len(offs) < 2:
            raise ValueError("need at least 2 users")
        object.__setattr__(self, "offsets", offs)

    @property
    def K(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class GroupProfile:
    """Circular gaps between sorted offsets, one base period of group sizes.

    ``s[k]`` is the size of group ``k``; the extended view repeats with
    period K, so group ``i`` of the long pattern has size ``s[i % K]``.
    Entries sum to N. A zero entry marks duplicated offsets.
    """

    s: tuple[int, ...]

    @property
    def K(self) -> int:
        return len(self.s)

    @property
    def N(self) -> int:
        return sum(self.s)

    def ext(self, i: int) -> int:
        """Size of group ``i`` in the extended (period-K) view."""
        return self.s[i % len(self.s)]

    def __len__(self):
        return len(self.s)

    def __getitem__(self, i):
        return self.s[i]

    def __iter__(self):
        return iter(self.s)


def block_index(cfg: ChannelConfig, user: int, slot: int) -> int:
    """Label of the fading block user ``user`` sees at absolute ``slot``.

    Two slots share a label exactly when the user's channel vector is
    identical across them. A user with offset 0 has full blocks from slot 0
    on; a positive offset prepends a short block 0 of that many slots.
    """
    if not 1 <= user <= cfg.K:
        raise ValueError(f"user index {user} out of range 1..{cfg.K}")
    if slot < 0:
        raise ValueError("slot must be nonnegative")
    delta = cfg.offsets[user - 1]
    if delta == 0:
        return slot // cfg.N
    if slot < delta:
        return 0
    return 1 + (slot - delta) // cfg.N


def _block_indices(cfg: ChannelConfig, user: int, slots: np.ndarray) -> np.ndarray:
    """Vectorized :func:`block_index` over an array of nonnegative slots."""
    delta = cfg.offsets[user - 1]
    if delta == 0:
        return slots // cfg.N
    return np.where(slots < delta, 0, 1 + (slots - delta) // cfg.N)


def group_profile(cfg: ChannelConfig) -> GroupProfile:
    """Circular gaps of the offset multiset, starting at the benchmark user.

    Gaps are taken in cyclic order from user 1's offset, so group 0 of the
    joint pattern begins at the benchmark's block boundary. Duplicate offsets
    yield zero gaps (flagged as infeasible downstream, never an error here).
    """
    N = cfg.N
    rel = sorted((o - cfg.offsets[0]) % N for o in cfg.offsets)
    gaps = [rel[k + 1] - rel[k] for k in range(len(rel) - 1)]
    gaps.append(N - rel[-1])  # wrap back to the benchmark boundary
    return GroupProfile(tuple(gaps))


def _group_starts(cfg: ChannelConfig) -> tuple[int, ...]:
    """Cumulative start offsets (relative to the benchmark) of groups 0..K."""
    s = group_profile(cfg).s
    starts = [0]
    for g in s:
        starts.append(starts[-1] + g)
    return tuple(starts)


def group_slots(cfg: ChannelConfig, group: int) -> range:
    """Absolute slot range of group ``group`` (any nonnegative long index).

    Group 0 starts at the benchmark offset; the group sequence extends
    indefinitely with period K groups / N slots.
    """
    if group < 0:
        raise ValueError("group index must be nonnegative")
    K = cfg.K
    starts = _group_starts(cfg)
    period_no, k = divmod(group, K)
    base = cfg.offsets[0] + period_no * cfg.N
    return range(base + starts[k], base + starts[k + 1])


def slot_group(cfg: ChannelConfig, slot: int) -> int:
    """Long group index containing ``slot`` (slot must be >= the benchmark offset)."""
    rel = slot - cfg.offsets[0]
    if rel < 0:
        raise ValueError("slot precedes the benchmark user's first block boundary")
    q, r = divmod(rel, cfg.N)
    starts = _group_starts(cfg)
    # exactly one group contains r; zero-size groups contain nothing
    k = next(i for i in range(cfg.K) if starts[i] <= r < starts[i + 1])
    return q * cfg.K + k


def pattern_matrix(cfg: ChannelConfig, slots) -> np.ndarray:
    """K x K 0/1 matrix of per-user channel changes between selected slots.

    Entry (i, j) is 1 when user i+1's block changes between ``slots[j]`` and
    ``slots[j+1]``. Expects K+1 strictly increasing slot indices.
    """
    slots = [int(n) for n in slots]
    K = cfg.K
    if len(slots) != K + 1:
        raise ValueError(f"expected {K + 1} slots, got {len(slots)}")
    if any(b <= a for a, b in zip(slots, slots[1:])):
        raise ValueError("slots must be strictly increasing")
    M = np.zeros((K, K), dtype=np.int64)
    for i in range(K):
        blocks = [block_index(cfg, i + 1, n) for n in slots]
        for j in range(K):
            M[i, j] = 1 if blocks[j] != blocks[j + 1] else 0
    return M


def is_feasible_pattern(M) -> bool:
    """True iff ``M`` is a permutation matrix (one 1 per row and per column).

    A stack ``(..., K, K)`` is accepted when every matrix in it is one.
    """
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        return False
    binary = np.all((M == 0) | (M == 1))
    return bool(binary and np.all(M.sum(axis=-2) == 1) and np.all(M.sum(axis=-1) == 1))


def count_feasible_patterns(K: int) -> int:
    """Number of feasible super-symbol patterns for K users: exactly K!."""
    if K < 2:
        raise ValueError("K must be >= 2")
    return math.factorial(K)


def enumerate_feasible_patterns(K: int):
    """Yield the K! permutation matrices, in lexicographic permutation order."""
    if K < 2:
        raise ValueError("K must be >= 2")
    for perm in itertools.permutations(range(K)):
        M = np.zeros((K, K), dtype=np.int64)
        for i, c in enumerate(perm):
            M[i, c] = 1
        yield M
