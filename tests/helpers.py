"""Shared oracles and samplers for the test suite."""

import math
from collections import Counter
from itertools import accumulate, combinations

import numpy as np

from blindalign import (
    ChannelConfig,
    Schedule,
    SearchBudgetExceeded,
    ValidationReport,
    check_feasible,
    group_profile,
    group_slots,
    is_feasible_pattern,
    signaling,
    slot_map,
    verify_solution,
)
from blindalign.counting import gamma_count
from blindalign.diophantine import _as_gaps
from blindalign.feasibility import (_ROW_BLOCK, feasible_sorted_block, feasible_subset_rows,
                                    row_dtype)


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


def stirling2(k, mu):
    """Stirling number of the second kind S(k, mu), exact."""
    if not 0 <= mu <= k:
        raise ValueError(f"need 0 <= mu <= k, got k={k}, mu={mu}")
    total = sum((-1) ** (mu - j) * math.comb(mu, j) * j**k for j in range(mu + 1))
    return total // math.factorial(mu)


def gamma_stirling(n, theta, mu):
    """Stirling-number form of ``gamma_count``, independent of its
    inclusion-exclusion: choose which k balls fill the mu designated boxes,
    surject them onto those boxes, and place the other theta - k balls in
    the n - mu remaining boxes."""
    return sum(
        math.comb(theta, k) * math.factorial(mu) * stirling2(k, mu)
        * (n - mu) ** (theta - k)
        for k in range(mu, theta + 1)
    )


def f_2user_oracle(N, K):
    """Loop oracle for ``f_2user``: placements with all K points inside one
    arc of at most L = ceil(N/3) boxes, counted by the length n of the
    smallest such arc: user 1 at either end of it, or inside it with both
    ends covered."""
    T = K - 1
    total = 1
    for n in range(2, -(-N // 3) + 1):
        total += 2 * (n**T - (n - 1) ** T) + (n - 2) * gamma_count(n, T, 2)
    return total


def f_low_3_oracle(N, K):
    """Loop oracle for ``f_low_3`` (N % 4 == 0, K >= 3): the Type I and II
    sums over arc lengths, doubled to clear their half-integer coefficients.
    gamma_count(n, K-1, mu) is the mu-th backward difference of n^(K-1) at
    n (valid for n >= mu), so every term comes from one table of powers."""
    T = K - 1
    g = [[n**T for n in range(N // 2 + 1)]]
    for _ in range(4):
        g.append([0, *(b - a for a, b in zip(g[-1], g[-1][1:]))])

    twice = 2 * 2**T  # 1 + (2^T - 1), doubled
    for n in range(2, N // 2 + 1):
        twice += 4 * g[1][n] + 2 * (n - 2) * g[2][n]
    for n in range(3, N // 4 + 2):
        twice += 2 * (n - 1) * (2 * (n - 3) * g[3][n] + 3 * g[2][n])
    # from n=4: the n=3 summand is identically zero via the (n-3) factor and
    # a mu=4 count over 3 boxes is undefined
    for n in range(4, N // 4 + 2):
        twice += (n - 1) * (n - 3) * ((n - 4) * g[4][n] + 2 * g[3][n])
    for n in range(N // 4 + 2, N // 2 + 1):
        twice += (N // 2 - n + 1) * (n - 1) * (4 * g[3][n] + (n - 4) * g[4][n])
    assert twice % 2 == 0, (N, K)
    return twice // 2


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


def first_feasible_subset_oracle(offsets, N, k_target):
    """Slow oracle for ``find_feasible_subset``: the first k_target-subset,
    in ``itertools.combinations`` order, whose circular gaps all reach
    ceil(N/(k_target+1)), as 1-based users, or None."""
    need = -(-N // (k_target + 1))
    for users in combinations(range(1, len(offsets) + 1), k_target):
        if min_circular_gap([offsets[u - 1] for u in users], N) >= need:
            return users
    return None


def find_feasible_subset_single_padding(offsets, N, k_target):
    """``find_feasible_subset`` with every row padded by copies of the
    candidate u's offset alone: the same prefix search, all copies at one
    point. The results must equal the spread padding's."""
    offsets = tuple(offsets)
    K = len(offsets)
    pos = np.array([int(o) % N for o in offsets], dtype=row_dtype(N))
    gap = (pos[:, None] - pos) % N
    far = np.minimum(gap, N - gap) >= -(-N // (k_target + 1))
    chosen, free = [], np.ones(K, dtype=bool)
    for _ in range(k_target):
        cands = np.flatnonzero(free)
        keep = np.isin(np.arange(K), chosen) | (free & far[cands])
        ok = feasible_subset_rows(np.where(keep, pos, pos[cands, None]), N, k_target)
        if not ok.any():
            return None
        chosen.append(int(cands[ok.argmax()]))
        free &= far[chosen[-1]]
    return tuple(u + 1 for u in chosen)


def subset_rows_oracle(offs, N, k_target):
    """Slow oracle for ``feasible_subset_rows``: per row, does some k_target
    of its offsets have every circular gap >= ceil(N/(k_target+1))? Every
    subset is checked with ``itertools.combinations``, in Python integers
    where a gap sum could pass int64."""
    offs = np.asarray(offs, dtype=np.int64 if N < 2**62 else object)
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


def occupied_sets(N, j, lo, hi):
    """Sets lo..hi-1 of {0} ∪ S, S a (j-1)-subset of 1..N-1 in colex order,
    as (j, hi-lo) columns, each set sorted: S's i-th element is the largest
    c with C(c, i) <= the rank left."""
    rank = np.arange(lo, hi, dtype=np.int64)
    cols = np.zeros((j, hi - lo), dtype=row_dtype(N))
    for i in range(j - 1, 0, -1):
        # capped at hi, above every rank, to stay in int64
        table = np.array([min(math.comb(c, i), hi) for c in range(N - 1)],
                         dtype=np.int64)
        c = np.searchsorted(table, rank, side="right") - 1
        cols[i] = c + 1
        rank -= table[c]
    return cols


def occupancy_count_oracle(N, K, k_target):
    """Oracle for ``exact_count``: every occupied set {0} ∪ S of each size j,
    unranked in colex order (``occupied_sets``) and tested by the kernel in
    chunks, bad or not; bad = sum_j c_j * gamma_count(j, K-1, j-1)."""
    chunk = 1 << 20
    value = 0
    for j in range(1, min(K, N) + 1):
        total = math.comb(N - 1, j - 1)
        for lo in range(0, total, chunk):
            cols = occupied_sets(N, j, lo, min(lo + chunk, total))
            good = sum(int(feasible_sorted_block(cols[:, b:b + _ROW_BLOCK], N, k_target).sum())
                       for b in range(0, cols.shape[1], _ROW_BLOCK))
            value += (cols.shape[1] - good) * gamma_count(j, K - 1, j - 1)
    return value


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


def small_certificates():
    """(config, lambda) for every certificate of every feasible gap vector
    with sum <= 20 and K in 2..4, the offsets laid out from 0 in gap order."""
    for K in (2, 3, 4):
        for N in range(1, 21):
            for s in compositions(N, K):
                if not check_feasible(s):
                    continue
                cfg = ChannelConfig(N, tuple(accumulate(s[:-1], initial=0)))
                for lam in brute_force_solve(s, enumerate_all=True):
                    yield cfg, lam


def receiver_checks_oracle(H, v):
    """Per-thread, per-trial SVD reference for the verifier's residuals and
    margins, on coefficients ``H`` (K, trials, T, K+1, 2) and indicator
    vectors ``v`` (T, K, K+1).

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
                # a power of two per column first: exact, and no square overflows
                B = B * np.ldexp(1.0, -np.frexp(np.abs(B).max(axis=0))[1])
                norms = np.linalg.norm(B, axis=0)
                B = B / np.where(norms > 0, norms, 1.0)
                singulars[i] = min(singulars[i], np.linalg.svd(B, compute_uv=False)[-1])
    return residuals, singulars


def coefficient_candidates(cfg, slots, seed, trials):
    """Every candidate of every coefficient, (K, trials, T, K+1, 2, 16), and
    the block labels: each (user, block) pair's Philox stream read as
    ``signaling._draw`` reads it for the verifier's grid, one user at a time."""
    slots = np.asarray(slots, dtype=np.int64)
    blocks = slot_map(cfg, slots)[1]
    h = np.empty((cfg.K, trials, *slots.shape, 2, signaling._CANDIDATES), dtype=complex)
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, signaling._KEY_SALT], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for i, user_blocks in enumerate(blocks):
        ub, inv = np.unique(user_blocks, return_inverse=True)
        z = np.empty((len(ub), trials, 2, signaling._CANDIDATES, 2))
        for row, b in zip(z, ub):
            state["state"]["counter"] = np.array([0, 0, i + 1, b], dtype=np.uint64)
            bitgen.state = state
            gen.standard_normal(out=row)
        h[i] = np.moveaxis((z[..., 0] + 1j * z[..., 1])[inv.reshape(user_blocks.shape)], -3, 0)
    return h, blocks


def channel_coeffs_oracle(cfg, slots, seed, trials):
    """The coefficients of the verifier's ``_draw`` grid on every thread slot,
    H (K, trials, T, K+1, 2), with every candidate tested: each coefficient
    is its first candidate at or above the floor. H[i-1, r, t, n] is user
    i's (h1, h2) in trial r on thread t's n-th slot."""
    h, blocks = coefficient_candidates(cfg, slots, seed, trials)
    ok = np.abs(h) >= signaling.MAGNITUDE_FLOOR
    if not ok.any(axis=-1).all():
        raise RuntimeError("rejection budget exhausted while drawing coefficients")
    return np.take_along_axis(h, np.argmax(ok, axis=-1)[..., None], axis=-1)[..., 0], blocks


def frozen_user_draw(user):
    """A stand-in for ``signaling._draw`` that gives user ``user`` (from 0)
    its label-0 coefficients on every label: its channel never changes
    across its transition, so its own receiver cannot decode."""
    draw = signaling._draw

    def frozen(seed, K, labels, trials):
        grid = draw(seed, K, labels, trials).copy()
        grid[user] = grid[user, :1]
        grid.flags.writeable = False
        return grid
    return frozen


def slot_pairs(H, c):
    """Every receiver's (h1, h2) on the two slots of each user's transition
    column ``c`` (T, K): P (K, trials, T, K, 2, 2), the slot pairs that the
    verifier reads from its grid."""
    T = H.shape[2]
    return H[:, :, np.arange(T)[:, None, None], np.asarray(c)[..., None] + np.arange(2)]


def screen_inputs(H, c):
    """``signaling._singulars``'s inputs on H (K, trials, T, K+1, 2) and
    transition columns ``c`` (T, K): the screen terms (K, trials, T, 4) of
    each receiver's own slot pair, H's cells as rows (receiver, thread, slot)
    by (trial, antenna), and the row of every receiver's slot pairs (K, T, K, 2)."""
    K, trials, T = H.shape[:3]
    P = slot_pairs(H, c)
    cells = np.moveaxis(H, 1, -2).reshape(-1, trials, 2)
    entry = (np.arange(K)[:, None, None, None] * T + np.arange(T)[:, None, None]) * (K + 1)
    return (signaling._terms(P[range(K), :, :, range(K)]), cells,
            entry + np.asarray(c)[..., None] + np.arange(2))


def lemma_blocks(H, mask):
    """Which receiver matrices (K, trials, T) meet the chain lemma on any 0/1
    vectors ``mask`` (T, K, K+1), with their transition columns c (K, 1, T)
    and blocks D (K, trials, T, 2, 2). It tests the lemma's premises on the
    whole coefficient array: the vectors straddle a permutation, each
    receiver's h1 is flat on every interferer's two slots, and every
    magnitude squares without overflow or underflow."""
    K = H.shape[0]
    c = np.minimum(np.argmax(mask, axis=-1), K - 1)  # (T, K), in range on any vectors
    slot = np.arange(K + 1)
    straddle = (slot == c[..., None]) | (slot == c[..., None] + 1)
    structured = ((mask == straddle).all(axis=(-2, -1))
                  & (np.sort(c, axis=-1) == np.arange(K)).all(axis=-1))
    c = c.T[:, None, :]
    h1 = H[..., 0]
    flat = (h1[..., :-1] == h1[..., 1:]) | (np.arange(K) == c[..., None])
    mag = np.abs(H)
    lo, hi = 1e-100, 1e100
    lemma = flat.all(axis=-1) & structured & ((mag > lo) & (mag < hi)).all(axis=(-2, -1))
    at = c[..., None, None]
    D = np.concatenate([np.take_along_axis(H, at, axis=3),
                        np.take_along_axis(H, at + 1, axis=3)], axis=3)
    return lemma, c, D


def smallest_singular_generic(H, mask, where):
    """SVD margins of the receiver matrices selected by ``where``, built from
    any 0/1 vectors ``mask``, through one ``np.linalg.svd`` call."""
    K = H.shape[0]
    i, r, t = np.nonzero(where)
    X = np.where(mask[t, :, :, None], H[i, r, t, None], 0)
    users = np.array([[j, j] + [u for u in range(K) if u != j] for j in range(K)])
    antenna = np.array([0, 1] + [0] * (K - 1))
    B = np.ascontiguousarray(X[np.arange(len(i))[:, None], users[i], :, antenna].swapaxes(-1, -2))
    B = B / np.maximum(np.linalg.norm(B, axis=-2, keepdims=True), 1e-300)
    return np.linalg.svd(B, compute_uv=False)[..., -1]


def receiver_margins_generic(H, v):
    """The verifier kernel on any 0/1 vectors ``v`` (T, K, K+1): residuals
    (K, K, trials, T) one receiver at a time over every slot, and singular
    values (K, trials, T) through the same screen, with the structure of
    the vectors tested instead of assumed. On permutation vectors and drawn
    coefficients, where every matrix meets the lemma, it must give the bits
    of ``signaling._residuals`` and ``signaling._singulars``."""
    K = H.shape[0]
    mask = np.asarray(v, dtype=bool)
    residuals = np.empty((K, K, *H.shape[1:3]))
    for i in range(K):
        x = np.where(mask, H[i, :, :, None, :, 0], 0)
        y = np.where(mask, H[i, :, :, None, :, 1], 0)
        nx2 = (x.real**2 + x.imag**2).sum(axis=-1)
        ny2 = (y.real**2 + y.imag**2).sum(axis=-1)
        alpha = (x.conj() * y).sum(axis=-1) / np.maximum(nx2, 1e-300)
        yperp = y - alpha[..., None] * x
        yperp2 = (yperp.real**2 + yperp.imag**2).sum(axis=-1)
        det = nx2 * yperp2
        tr = nx2 + ny2
        lmax = 0.5 * (tr + np.sqrt(np.maximum(tr**2 - 4 * det, 0.0)))
        residuals[i] = np.moveaxis(np.sqrt(det) / np.maximum(lmax, 1e-300), -1, 0)
        residuals[i, i] = 0.0

    lemma, c, D = lemma_blocks(H, mask)
    guess, certified = signaling._schur(K, c, signaling._terms(D))
    guess = np.where(lemma, guess, np.inf).reshape(K, -1)
    first = np.logical_not(lemma, order="C")  # C order, so the reshape below is a view
    first.reshape(K, -1)[range(K), guess.argmin(axis=1)] = True
    singulars = np.full(lemma.shape, np.inf)
    singulars[first] = smallest_singular_generic(H, mask, first)
    floor = singulars.min(axis=(1, 2)) + signaling._SVD_SLACK * (K + 1) ** 2
    rest = lemma & ~first & ~certified((floor ** 2)[:, None, None])
    if rest.any():
        singulars[rest] = smallest_singular_generic(H, mask, rest)
    return residuals, singulars


def block_index_oracle(cfg, user, slot):
    """Scalar reference for the block labels of ``slot_map``.

    A user with offset 0 has full blocks from slot 0 on; a positive offset
    prepends a short block 0 of that many slots.
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


def slot_group_oracle(cfg, slot):
    """Scalar reference for the groups of ``slot_map``: the one group whose
    cumulative start range holds the slot's position past the benchmark."""
    rel = slot - cfg.offsets[0]
    if rel < 0:
        raise ValueError("slot precedes the benchmark user's first block boundary")
    q, r = divmod(rel, cfg.N)
    starts = [0]
    for g in group_profile(cfg):
        starts.append(starts[-1] + g)
    # exactly one group contains r; zero-size groups contain nothing
    k = next(i for i in range(cfg.K) if starts[i] <= r < starts[i + 1])
    return q * cfg.K + k


def pattern_matrix_oracle(cfg, slots):
    """Scalar reference for ``pattern_matrix`` on one thread of K+1 slots."""
    slots = [int(n) for n in slots]
    K = cfg.K
    if len(slots) != K + 1:
        raise ValueError(f"expected {K + 1} slots, got {len(slots)}")
    if any(b <= a for a, b in zip(slots, slots[1:])):
        raise ValueError("slots must be strictly increasing")
    M = np.zeros((K, K), dtype=np.int64)
    for i in range(K):
        blocks = [block_index_oracle(cfg, i + 1, n) for n in slots]
        for j in range(K):
            M[i, j] = 1 if blocks[j] != blocks[j + 1] else 0
    return M


def build_schedule_oracle(cfg, lam):
    """Greedy reference for ``build_schedule``: walk the groups of one period.

    Within a group, slots go in increasing order to the open threads by start
    group (earliest first, creation order breaking ties), then to the newly
    opened ones. Threads whose start group lies within K of the period end
    also take the leading slots of groups 0..K-1 shifted by one period.
    """
    lam = tuple(int(v) for v in lam)
    if not verify_solution(group_profile(cfg), lam):
        raise ValueError("lambda does not solve the group window equations")
    K = cfg.K
    m = K * (K + 1)
    period = (K + 1) * cfg.N
    slot_lists = {(g, c): [] for g in range(m) for c in range(lam[g])}
    for i in range(m):
        slots_i = list(group_slots(cfg, i))
        pos = 0
        for j in range(i - K, i + 1):
            shift = period if j < 0 else 0
            for c in range(lam[j % m]):
                if pos >= len(slots_i):
                    raise RuntimeError(f"group {i} oversubscribed")
                slot_lists[(j % m, c)].append(slots_i[pos] + shift)
                pos += 1
        if pos != len(slots_i):
            raise RuntimeError(f"group {i} undersubscribed")
    threads = sorted(((g, sorted(sl)) for (g, _), sl in slot_lists.items()),
                     key=lambda t: (t[0], t[1][0]))
    return schedule_of_threads(cfg, lam, [g for g, _ in threads], [sl for _, sl in threads])


def schedule_of_threads(cfg, lam, starts, rows):
    """A ``Schedule`` from per-thread Python integers, with the arrays
    ``schedule_from_dict`` builds: int64, or Python integers where a value
    does not fit int64. ``rows`` must hold K+1 slots each."""
    def as_array(values):
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return np.array(values, dtype=object)
    return Schedule(cfg, tuple(lam), as_array(starts), as_array(rows).reshape(-1, cfg.K + 1))


def huge_n_small_slots_doc():
    """A schedule document with N = 10^20 and one thread [0, 1, 2] at start
    group 0: its slots fit int64, but the group starts (0, 5e19, 1e20) do not."""
    return {"version": 1, "N": 10**20, "K": 2, "offsets": [0, 5 * 10**19],
            "period": 3 * 10**20, "lambda": [0] * 6,
            "tuples": [{"start_group": 0, "slots": [0, 1, 2]}]}


def validate_schedule_oracle(sched):
    """Per-thread reference for ``validate_schedule``, on Python integers."""
    cfg = sched.cfg
    K = cfg.K
    m = K * (K + 1)
    period = sched.period
    failures = []

    starts = sched.start_groups.tolist()
    rows = [tuple(row) for row in sched.slots.tolist()]
    residues = [slot % period for row in rows for slot in row]
    coverage_ok = len(residues) == period and len(set(residues)) == period
    if len(rows) != cfg.N:
        coverage_ok = False
        failures.append(f"coverage: {len(rows)} tuples, expected {cfg.N}")
    if not coverage_ok and not failures:
        failures.append("coverage: residues modulo the period are not a partition")

    consecutive_ok = True
    patterns_ok = True
    for start, row in zip(starts, rows):
        try:
            groups = [slot_group_oracle(cfg, n) for n in row]
        except ValueError:
            groups = None
        if (
            groups is None
            or len(groups) != K + 1
            or groups != list(range(groups[0], groups[0] + K + 1))
            or groups[0] != start
        ):
            consecutive_ok = False
            failures.append(f"consecutiveness: thread at group {start}, slots {row}")
            continue
        if not is_feasible_pattern(pattern_matrix_oracle(cfg, row)):
            patterns_ok = False
            failures.append(f"pattern: thread at group {start} is not a permutation")

    certificate_ok = (
        len(sched.lam) == m
        and verify_solution(group_profile(cfg), sched.lam)
        and Counter(starts) == Counter(dict(enumerate(sched.lam)))
    )
    if not certificate_ok:
        failures.append("certificate: lambda does not solve the window equations "
                        "or does not match the threads' start groups")
    return ValidationReport(coverage_ok, consecutive_ok, patterns_ok, certificate_ok,
                            tuple(failures))


TAMPERINGS = ("moved slot", "changed lambda", "shifted thread", "swapped start groups")


def tamper_schedule(sched, kind, a, b):
    """``sched`` with one of the ``TAMPERINGS``; ``a`` and ``b`` pick the
    thread, the slot, the other thread and the amount. Every result breaks
    coverage, the certificate or consecutiveness."""
    starts, rows, lam = sched.start_groups.tolist(), sched.slots.tolist(), list(sched.lam)
    i = a % len(rows)
    if kind == "moved slot":  # by a nonzero amount below one period, up or down
        step = 1 + b % (sched.period - 1)
        rows[i][b % len(rows[i])] += step if a % 2 else -step
    elif kind == "changed lambda":
        lam[b % len(lam)] += (1 + a % 2) * (1 if b % 2 else -1)
    elif kind == "shifted thread":
        rows[i] = [n + sched.period for n in rows[i]]
    elif kind == "swapped start groups":
        others = [j for j, g in enumerate(starts) if g != starts[i]]
        j = others[b % len(others)]
        starts[i], starts[j] = starts[j], starts[i]
    else:
        raise ValueError(f"unknown tampering {kind!r}")
    return schedule_of_threads(sched.cfg, lam, starts, rows)
