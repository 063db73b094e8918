"""Cyclic banded system of nonnegative integer window equations.

A channel with gap vector s (length K) decomposes into super-symbol tuples
iff the system

    sum(lam[i-K .. i]) == s[i % K]   for every i in Z_{K(K+1)}

has a nonnegative integer solution ``lam``. ``lam[i]`` counts the tuples
that start at group i; summing all windows shows sum(lam) == N.
"""

from __future__ import annotations

from .errors import SearchBudgetExceeded
from .feasibility import check_feasible

__all__ = [
    "verify_solution",
    "closed_form_solution",
    "closed_form_solution_3user",
    "brute_force_solve",
]


def _as_gaps(s) -> tuple[int, ...]:
    s = tuple(int(v) for v in s)
    if len(s) < 2:
        raise ValueError("need at least 2 groups per period")
    if any(v < 0 for v in s):
        raise ValueError("group sizes must be nonnegative")
    return s


def verify_solution(s, lam) -> bool:
    """Check all K(K+1) cyclic window sums and nonnegativity of ``lam``."""
    s = _as_gaps(s)
    K = len(s)
    m = K * (K + 1)
    lam = tuple(int(v) for v in lam)
    if len(lam) != m:
        raise ValueError(f"expected {m} entries, got {len(lam)}")
    if any(v < 0 for v in lam):
        return False
    return all(
        sum(lam[(i - d) % m] for d in range(K + 1)) == s[i % K] for i in range(m)
    )


def _rotate_min_first(s):
    """Rotation r putting a minimal entry (smallest index wins) at position 0."""
    r = min(range(len(s)), key=lambda i: (s[i], i))
    return r, tuple(s[(i + r) % len(s)] for i in range(len(s)))


def _unrotate(lam_rot, r, m):
    return tuple(lam_rot[(i - r) % m] for i in range(m))


def closed_form_solution(s) -> tuple[int, ...]:
    """Direct solution for any K, valid whenever sum(s) <= (K+1)*min(s).

    With the minimum rotated to position 0, entry i is s[i % K] - s[0]
    except at the K specially spaced indices (j-1)K + j, which absorb the
    slack; every window then telescopes to the right gap. The result is
    rotated back to the caller's indexing.
    """
    s = _as_gaps(s)
    K = len(s)
    m = K * (K + 1)
    if not check_feasible(s):
        raise ValueError(
            f"feasibility condition violated: sum(s)={sum(s)} > {(K + 1) * min(s)}"
        )
    r, sr = _rotate_min_first(s)
    rest = sum(sr[1:])
    special = {(j - 1) * K + j: j for j in range(1, K)}
    lam = []
    for i in range(m):
        if i == K * K:
            lam.append(K * sr[0] - rest)
        elif i in special:
            j = special[i]
            lam.append((K - 1) * sr[0] - (rest - sr[j]))
        else:
            lam.append(sr[i % K] - sr[0])
    return _unrotate(lam, r, m)


def closed_form_solution_3user(s) -> tuple[int, ...]:
    """Alternative 3-user constructor; generally differs entrywise from
    :func:`closed_form_solution` (the solution is not unique)."""
    s = _as_gaps(s)
    if len(s) != 3:
        raise ValueError("this constructor is for K=3 only")
    if not check_feasible(s):
        raise ValueError(
            f"feasibility condition violated: sum(s)={sum(s)} > {4 * min(s)}"
        )
    r, (s0, s1, s2) = _rotate_min_first(s)
    x = s1 - s0
    y = s0 - x
    lam = (0, x, y, 0, s1 - s0, s2 - s1 + x, 3 * s0 - s1 - s2,
           s1 - s0, s2 - s1 + x, 0, 2 * s0 - s2, s2 - s0)
    return _unrotate(lam, r, 12)


def brute_force_solve(s, enumerate_all: bool = False, max_nodes: int = 2_000_000):
    """Exhaustive search for window-equation solutions; the ground-truth oracle.

    Depth-first over lam[0..K-1] with window-sum pruning; every later entry
    is forced by the equality window ending there, and the wraparound
    windows are checked at the leaves. Returns all solutions sorted
    lexicographically (or just the first found), empty list iff unsolvable.
    """
    s = _as_gaps(s)
    K = len(s)
    m = K * (K + 1)
    lam = [0] * m
    out: list[tuple[int, ...]] = []
    nodes = 0

    def rec(t: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SearchBudgetExceeded(
                f"exceeded {max_nodes} search nodes for s={s}; "
                "raise max_nodes or shrink the instance"
            )
        if t == m:
            # first K windows wrap around; the rest held by construction
            if all(
                sum(lam[(i - d) % m] for d in range(K + 1)) == s[i % K]
                for i in range(K)
            ):
                out.append(tuple(lam))
                return not enumerate_all
            return False
        if t >= K:
            v = s[t % K] - sum(lam[t - K:t])
            if v < 0:
                return False
            lam[t] = v
            done = rec(t + 1)
            lam[t] = 0
            return done
        hi = min(s[t % K], s[0] - sum(lam[:t]))  # window t and window K caps
        for v in range(hi + 1):
            lam[t] = v
            if rec(t + 1):
                lam[t] = 0
                return True
            lam[t] = 0
        return False

    rec(0)
    out.sort()
    return out
