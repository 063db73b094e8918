"""Block-fading channel model: slot-to-block maps, gap tuples, pattern matrices.

A homogeneous broadcast channel is described by a coherence time ``N`` shared
by all users and one block offset per user. User ``i``'s channel vector is
constant on each of its fading blocks and redraws at slots congruent to its
offset modulo ``N``. Joint channel state is therefore piecewise constant on
"groups" whose sizes cycle through the circular gaps between the offsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelConfig",
    "block_index",
    "group_profile",
    "slot_map",
    "group_slots",
    "slot_group",
    "pattern_matrix",
    "is_feasible_pattern",
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


def group_profile(cfg: ChannelConfig) -> tuple[int, ...]:
    """Circular gaps between the sorted offsets, starting at the benchmark user.

    Group k of the joint pattern has size ``s[k]``; group 0 begins at the
    benchmark's block boundary and the sizes repeat with period K, so long
    group i has size ``s[i % K]``. The entries sum to N. Duplicate offsets
    give zero entries (flagged as infeasible downstream, never an error here).
    """
    N = cfg.N
    rel = sorted((o - cfg.offsets[0]) % N for o in cfg.offsets)
    gaps = [rel[k + 1] - rel[k] for k in range(len(rel) - 1)]
    gaps.append(N - rel[-1])  # wrap back to the benchmark boundary
    return tuple(gaps)


def _group_starts(cfg: ChannelConfig) -> tuple[int, ...]:
    """Group starts relative to the benchmark boundary, then N: K+1 entries."""
    return (0, *itertools.accumulate(group_profile(cfg)))


def slot_map(cfg: ChannelConfig, slots) -> tuple[np.ndarray, np.ndarray]:
    """Long group index and per-user block label of every slot.

    ``slots`` is an int64 array of any shape, or an object array of Python
    integers where int64 could overflow. Returns the groups (same shape) and
    the block labels (K, *slots.shape). Groups start at the benchmark offset
    and repeat every K groups / N slots; a zero-size group holds no slot.
    User i's label is 0 at slot 0 and steps by 1 at each slot congruent to its offset.
    """
    slots = np.asarray(slots)
    rel = slots - cfg.offsets[0]
    starts = np.array(_group_starts(cfg), dtype=slots.dtype)
    groups = (rel // cfg.N) * cfg.K + np.searchsorted(starts, rel % cfg.N, side="right") - 1
    delta = np.array(cfg.offsets, dtype=slots.dtype).reshape((-1,) + (1,) * slots.ndim)
    return np.asarray(groups), (slots - delta) // cfg.N + (delta != 0)


def _as_slots(slots) -> np.ndarray:
    """Arrays as given; ints and sequences as Python integers, exact at any size."""
    return slots if isinstance(slots, np.ndarray) else np.array(slots, dtype=object)


def block_index(cfg: ChannelConfig, user: int, slot: int) -> int:
    """Label of user ``user``'s fading block at ``slot`` (see :func:`slot_map`)."""
    if not 1 <= user <= cfg.K:
        raise ValueError(f"user index {user} out of range 1..{cfg.K}")
    if slot < 0:
        raise ValueError("slot must be nonnegative")
    return int(slot_map(cfg, _as_slots(slot))[1][user - 1])


def group_slots(cfg: ChannelConfig, group: int) -> range:
    """Absolute slot range of group ``group`` (any nonnegative long index)."""
    if group < 0:
        raise ValueError("group index must be nonnegative")
    starts = _group_starts(cfg)
    period_no, k = divmod(group, cfg.K)
    base = cfg.offsets[0] + period_no * cfg.N
    return range(base + starts[k], base + starts[k + 1])


def slot_group(cfg: ChannelConfig, slot):
    """Long group index of each slot (all >= the benchmark offset); int in, int out."""
    slots = _as_slots(slot)
    if (slots < cfg.offsets[0]).any():
        raise ValueError("slot precedes the benchmark user's first block boundary")
    groups = slot_map(cfg, slots)[0]
    return groups if slots is slot else int(groups)


def pattern_matrix(cfg: ChannelConfig, slots) -> np.ndarray:
    """K x K 0/1 matrices of per-user channel changes between selected slots.

    ``slots`` holds K+1 strictly increasing slots, or a stack (..., K+1) of
    them. Entry (..., i, j) is 1 when user i+1's block changes between
    ``slots[..., j]`` and ``slots[..., j+1]``.
    """
    slots = _as_slots(slots)
    if slots.ndim < 1 or slots.shape[-1] != cfg.K + 1:
        raise ValueError(f"expected {cfg.K + 1} slots, got shape {slots.shape}")
    if (np.diff(slots, axis=-1) <= 0).any():
        raise ValueError("slots must be strictly increasing")
    changed = np.diff(slot_map(cfg, slots)[1], axis=-1) != 0  # (K, ..., K)
    return np.moveaxis(changed, 0, -2).astype(np.int64)


def is_feasible_pattern(M) -> bool:
    """True iff ``M`` is a permutation matrix (one 1 per row and per column).

    A stack ``(..., K, K)`` is accepted when every matrix in it is one.
    """
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        return False
    binary = np.all((M == 0) | (M == 1))
    return bool(binary and np.all(M.sum(axis=-2) == 1) and np.all(M.sum(axis=-1) == 1))


def enumerate_feasible_patterns(K: int):
    """Yield the K! permutation matrices, in lexicographic permutation order."""
    if K < 2:
        raise ValueError("K must be >= 2")
    for perm in itertools.permutations(range(K)):
        yield np.eye(K, dtype=np.int64)[list(perm)]
