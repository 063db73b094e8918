"""Shared oracles and samplers for the test suite."""

from itertools import combinations

import numpy as np

from blindalign import ChannelConfig


def compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    for cut in combinations(range(total + parts - 1), parts - 1):
        out = []
        lo = 0
        for c in list(cut) + [total + parts - 1]:
            out.append(c - lo)
            lo = c + 1
        yield tuple(out)


def min_circular_gap(offsets, N):
    rel = sorted(o % N for o in offsets)
    gaps = [rel[i + 1] - rel[i] for i in range(len(rel) - 1)]
    gaps.append(N - rel[-1] + rel[0])
    return min(gaps)


def subset_rows_oracle(offs, N, k_target):
    """Slow oracle for ``feasible_subset_rows``: per row, does some k_target
    of its offsets have every circular gap >= ceil(N/(k_target+1))? Every
    subset is checked with ``itertools.combinations``."""
    offs = np.asarray(offs, dtype=np.int64)
    need = -(-N // (k_target + 1))
    ok = np.zeros(len(offs), dtype=bool)
    for sub in combinations(range(offs.shape[1]), k_target):
        srt = np.sort(offs[:, sub], axis=1)
        gaps = np.diff(srt, axis=1, append=srt[:, :1] + N)
        ok |= gaps.min(axis=1) >= need
    return ok


def enumeration_count(N, K, k_target):
    """Slow oracle for ``exact_count``: all N^(K-1) labeled placements.

    User 1 sits at box 0; a placement is bad when no k_target of its users
    have every circular gap >= ceil(N/(k_target+1)).
    """
    digits = np.indices((N,) * (K - 1)).reshape(K - 1, -1).T
    offs = np.concatenate([np.zeros((len(digits), 1), dtype=digits.dtype), digits], axis=1)
    return int((~subset_rows_oracle(offs, N, k_target)).sum())


def random_feasible_gaps(rng, K, n_max):
    """Gap vector with sum N <= n_max and every entry >= ceil(N/(K+1))."""
    while True:
        N = int(rng.integers(K, n_max + 1))
        base = -(-N // (K + 1))
        if K * base <= N:
            break
    bumps = rng.multinomial(N - K * base, [1.0 / K] * K)
    return tuple(int(base + b) for b in bumps)


def random_feasible_config(rng, K, n_max):
    """Feasible config with random benchmark offset and user order."""
    s = random_feasible_gaps(rng, K, n_max)
    N = sum(s)
    base = int(rng.integers(0, N))
    pos = [base]
    for g in s[:-1]:
        pos.append((pos[-1] + g) % N)
    rest = [pos[i] for i in rng.permutation(range(1, K))]
    return ChannelConfig(N=N, offsets=(pos[0], *rest))


def receiver_checks_oracle(H, v):
    """Per-thread, per-trial SVD reference for ``signaling.receiver_checks``.

    Residual of receiver i against interferer j: sigma_min / sigma_max of the
    2-column stack [h1 * v_j, h2 * v_j] (0 when the stack is all zero).
    Decodability of receiver i: smallest singular value of its K+1 columns
    after each is scaled to unit norm (zero columns stay zero).
    """
    K, trials, T = H.shape[:3]
    residuals = np.zeros((K, K))
    singulars = np.full(K, np.inf)
    for i in range(K):
        for r in range(trials):
            for t in range(T):
                h1, h2 = H[i, r, t, :, 0], H[i, r, t, :, 1]
                for j in range(K):
                    if j == i:
                        continue
                    sv = np.linalg.svd(np.stack([h1 * v[t, j], h2 * v[t, j]], axis=1),
                                       compute_uv=False)
                    ratio = sv[1] / sv[0] if sv[0] > 0 else 0.0
                    residuals[i, j] = max(residuals[i, j], ratio)
                cols = [h1 * v[t, i], h2 * v[t, i]]
                cols += [h1 * v[t, j] for j in range(K) if j != i]
                B = np.stack(cols, axis=1)
                norms = np.linalg.norm(B, axis=0)
                B = B / np.where(norms > 0, norms, 1.0)
                singulars[i] = min(singulars[i], np.linalg.svd(B, compute_uv=False)[-1])
    return residuals, singulars
