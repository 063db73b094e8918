"""Cyclic banded system of nonnegative integer window equations.

A channel with gap vector s (length K) decomposes into super-symbol tuples
iff the system

    sum(lam[i-K .. i]) == s[i % K]   for every i in Z_{K(K+1)}

has a nonnegative integer solution ``lam``. ``lam[i]`` counts the tuples
that start at group i; summing all windows shows sum(lam) == N.

Adjacent windows give lam[i] - lam[i-K-1] = s[i % K] - s[(i-1) % K], which
telescopes along each residue class mod K+1; with the window ending at K,
the solutions are exactly

    lam[i] = s[i % K] - min(s) + y[i % (K+1)],  y >= 0,  sum(y) = slack,

where slack = (K+1)*min(s) - N: a simplex with C(slack + K, K) integer
points, empty iff the gap condition of ``check_feasible`` fails.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import accumulate, combinations
from operator import eq, sub

from .feasibility import check_feasible

__all__ = [
    "verify_solution",
    "certificate_count",
    "closed_form_solution",
    "closed_form_solution_3user",
    "enumerate_certificates",
]


def _as_gaps(s) -> tuple[int, ...]:
    s = tuple(int(v) for v in s)
    if len(s) < 2:
        raise ValueError("need at least 2 groups per period")
    if any(v < 0 for v in s):
        raise ValueError("group sizes must be nonnegative")
    return s


def verify_solution(s, lam) -> bool:
    """Check nonnegativity and all K(K+1) cyclic window sums, each slid from the last."""
    s = _as_gaps(s)
    K = len(s)
    m = K * (K + 1)
    lam = tuple(int(v) for v in lam)
    if len(lam) != m:
        raise ValueError(f"expected {m} entries, got {len(lam)}")
    if any(v < 0 for v in lam):
        return False
    windows = accumulate(map(sub, lam[1:], lam[-K:] + lam[:-K - 1]), initial=lam[0] + sum(lam[-K:]))
    return all(map(eq, windows, s * (K + 1)))


def _family(s) -> tuple[tuple[int, ...], int]:
    """The solution with y = 0, base[i] = s[i % K] - min(s), and the slack."""
    K = len(s)
    lo = min(s)
    return tuple(s[i % K] - lo for i in range(K * (K + 1))), (K + 1) * lo - sum(s)


def certificate_count(s) -> int:
    """Number of solutions: C(slack + K, K), or 0 when the slack is negative."""
    s = _as_gaps(s)
    return math.comb(_family(s)[1] + len(s), len(s)) if check_feasible(s) else 0


def _vertex(s, c: int) -> tuple[int, ...]:
    """The solution with all the slack on y[(a + c) % (K+1)], where a is the
    first index of min(s)."""
    s = _as_gaps(s)
    K = len(s)
    if not check_feasible(s):
        raise ValueError(
            f"feasibility condition violated: sum(s)={sum(s)} > {(K + 1) * min(s)}"
        )
    base, slack = _family(s)
    r = (s.index(min(s)) + c) % (K + 1)
    return tuple(b + slack * (i % (K + 1) == r) for i, b in enumerate(base))


def closed_form_solution(s) -> tuple[int, ...]:
    """Direct solution for any K, valid whenever sum(s) <= (K+1)*min(s):
    the vertex of the solution simplex with the slack on y[a+1]."""
    return _vertex(s, 1)


def closed_form_solution_3user(s) -> tuple[int, ...]:
    """Alternative 3-user constructor, the vertex with the slack on y[a+2];
    it differs from :func:`closed_form_solution` unless s is tight (the
    solution is not unique)."""
    if len(_as_gaps(s)) != 3:
        raise ValueError("this constructor is for K=3 only")
    return _vertex(s, 2)


def enumerate_certificates(s) -> Iterator[tuple[int, ...]]:
    """Every solution, lazily and in lexicographic order: an iterator over
    ``certificate_count(s)`` tuples, empty iff unsolvable; ``s`` is checked
    at the call.

    lam[0..K] = base[0..K] + y determines lam, so lexicographic order on y
    (the compositions of the slack, read off stars and bars) is
    lexicographic order on lam.
    """
    s = _as_gaps(s)
    K = len(s)
    base, slack = _family(s)

    def certificate(bars):
        y = [b - a - 1 for a, b in zip((-1, *bars), (*bars, slack + K))]
        return tuple(v + y[i % (K + 1)] for i, v in enumerate(base))
    return map(certificate, combinations(range(slack + K), K))
