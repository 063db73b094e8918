"""Beamforming construction and numerical alignment/decodability verification.

This is the executable witness that a schedule really works: channel
coefficients are drawn per fading block, each thread's pattern matrix gives
every user's transition column, and alignment/decodability are checked as
scale-invariant rank statements on small complex matrices.

Interference alignment here is structural: an interferer's two transmit
streams use identical 0/1 vectors supported on the two slots straddling the
interferer's own transition, where every other user's channel is constant,
so the two received interference columns are exactly proportional. The
desired user's two columns differ across its transition and stay generically
independent from the K-1 interference directions.

The verifier works on (user, block) entries: an interferer's two slots are
one entry of every receiver (checked once per schedule), so each receiver
matrix's smallest singular value solves a 2x2 secular equation in its own
slot pair. Entry residuals and the equation's terms are computed once per
drawn grid. Each receiver's likeliest minimum goes through the SVD first; a
Schur certificate on that equation (``_schur``) then proves most other
matrices above it, and only the rest gather their slot pairs for an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SearchBudgetExceeded
from .pattern import ChannelConfig, is_feasible_pattern
from .scheduler import Schedule, validate_schedule

__all__ = [
    "MAGNITUDE_FLOOR",
    "ALIGNMENT_TOL",
    "DECODABILITY_TOL",
    "beamforming_vectors",
    "SummaryReport",
    "Witness",
    "verify_schedule_end_to_end",
]

MAGNITUDE_FLOOR = 0.05  # coefficients are redrawn while |h| < this
ALIGNMENT_TOL = 1e-9
DECODABILITY_TOL = 1e-9

_KEY_SALT = 0x9E3779B97F4A7C15  # distinguishes channel streams from other RNG users
_CANDIDATES = 16  # rejection budget per coefficient; P(exhaust) ~ 1e-46
# coefficient cells K * trials * T * (K+1) one verification may hold; it peaks
# at about 21 bytes per cell (45 MB here), 19 if the screen certifies none
_VERIFY_CELLS = 2**21
# the verifier's (key, grid, residual table, terms table), at most
# _VERIFY_CELLS cells of 32 + 8 + 32 bytes (grid 64 MB, residuals 16 MB, terms
# 64 MB); read in one unpack and published in one assignment
_grid: list = [None, None, None, None]

# The decodability screen (see _schur). Schur certificates are used only at
# lambda <= (1 - gap) * mu_min: there w's error is within 13 eps times 2 - w
# (against 40-digit arithmetic, on chains of up to 30 columns).
_POLE_GAP = 0.1
# A sign of tr S or det S counts when it exceeds this times (K+1) times the
# summed magnitudes of the terms forming it, with 2 - w bounding |w|: their
# rounding error stays below about 40 eps, over 100 times less.
_SIGN_TOL = 1e-12
# Allowance, times (K+1)^2, between the singular value of the exact matrix
# and the SVD's result: LAPACK's error is a small multiple of (K+1) eps
# ||B||, ||B|| <= sqrt(K+1), and column normalization rounds by a few eps.
_SVD_SLACK = 1e-14


def beamforming_vectors(M) -> np.ndarray:
    """Indicator vectors from a permutation pattern matrix or a stack of them.

    ``M`` has shape (..., K, K); the result has shape (..., K, K+1). If row i
    has its 1 in column c, user i+1 transmits on slots c and c+1, with the
    same 0/1 vector on both transmit antennas.
    """
    M = np.asarray(M)
    if not is_feasible_pattern(M):
        raise ValueError("pattern matrix must be a permutation matrix")
    c = np.argmax(M, axis=-1)[..., None]
    slot = np.arange(M.shape[-1] + 1)
    return ((slot == c) | (slot == c + 1)).astype(np.int64)


def _draw(seed: int, K: int, labels, trials: int) -> np.ndarray:
    """Accepted coefficients (K, len(labels), trials, 2) of every user, counted
    from 0, on every block label, read-only."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, _KEY_SALT], dtype=np.uint64)
    # labels below 0 wrap modulo 2^64, as a cast to uint64 wraps them
    counters = np.stack(np.broadcast_arrays(0, 0, np.arange(1, K + 1)[:, None], labels), axis=-1)
    z = np.empty((trials, 2, _CANDIDATES, 2))
    grid = np.empty((K, len(labels), trials, 2), dtype=complex)
    for row, counter in zip(grid.reshape(-1, trials, 2), counters.reshape(-1, 4).view(np.uint64)):
        np.random.Generator(np.random.Philox(key=key, counter=counter)).standard_normal(out=z)
        h = z[..., 0] + 1j * z[..., 1]
        ok = np.abs(h) >= MAGNITUDE_FLOOR
        if not ok.any(axis=-1).all():
            raise RuntimeError("rejection budget exhausted while drawing coefficients")
        row[...] = np.take_along_axis(h, ok.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    grid.flags.writeable = False
    return grid


def _verify_grid(seed: int, K: int, L: int, trials: int) -> tuple[np.ndarray, ...]:
    """A ``_draw`` grid of at least users 0..K-1 on labels 0..L-1, its residuals
    at rows user * L + label and the terms of labels a, a+1 at user * (L-1) + a."""
    key = (seed, trials, MAGNITUDE_FLOOR, _CANDIDATES)
    stored, grid, res, terms = _grid
    if stored == key:  # a larger K or L redraws a grid that covers both
        K, L = max(K, grid.shape[0]), max(L, grid.shape[1])
        if grid.shape[:2] == (K, L):
            return grid, res, terms
    grid = _draw(seed, K, np.arange(L), trials)
    res = _residuals(np.repeat(grid[..., None, :], 2, axis=-2)).reshape(-1, trials)
    terms = _terms(np.stack((grid[:, :-1], grid[:, 1:]), axis=-2)).reshape(-1, trials, 4)
    res.flags.writeable = terms.flags.writeable = False
    if K * L * trials <= _VERIFY_CELLS:
        _grid[:] = key, grid, res, terms
    return grid, res, terms


def _sum2(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` over a last axis of length 2, with the same bits and
    several times faster."""
    return a[..., 0] + a[..., 1]


def _terms(D: np.ndarray) -> np.ndarray:
    """Screen terms (..., 4) of blocks ``D`` (..., 2, 2), slots by (h1, h2),
    once its columns are normalized: the row powers p_0 and p_1,
    delta = |det D|^2 and the cross term |D_00 D_11| + |D_01 D_10|."""
    power = (D.conj() * D).real  # np.linalg.norm's terms, added as it adds them
    D = D / np.maximum(np.sqrt(power[..., :1, :] + power[..., 1:, :]), 1e-300)
    p = _sum2(D.real ** 2 + D.imag ** 2)
    a, b = D[..., 0, 0] * D[..., 1, 1], D[..., 0, 1] * D[..., 1, 0]
    return np.stack((p[..., 0], p[..., 1], np.abs(a - b) ** 2, np.abs(a) + np.abs(b)), axis=-1)


def _schur(K: int, c, terms):
    """S(lam) of the receiver matrices with blocks D: a function of ``lam``
    that returns the smallest eigenvalue of S(lam), or with ``certify``
    whether S(lam) is certified positive definite.

    ``terms`` holds :func:`_terms` of D, the receiver's (h1, h2) on slots c
    and c+1 of its transition column ``c`` (broadcast against ``terms`` but
    its last axis, as is ``lam``); the caller guarantees (:func:`_singulars`)
    that D squares without overflow or underflow and that every interferer
    column is a nonzero multiple of e_t + e_{t+1}, t != c: two chains of
    n = c and n = K-1-c columns with Gram matrix tridiag(1/2, 1, 1/2), whose
    smallest eigenvalue is mu_min = 2 sin^2(pi/(2(M+1))), M the longer chain.
    Below mu_min such a normalized B has the 2x2 Schur complement of
    B^H B - lambda I, S(lambda) = D^H diag(w_L, w_R) D - lambda I, where
    w_n(lambda) = 1 - sin(n theta)/sin((n+1) theta), cos theta = 1 - lambda
    (w_0 = 1, w_n(0) = 1/(n+1)). By Haynsworth's inertia additivity, S(lam)
    positive definite proves that B's smallest singular value s has s^2 > lam.
    The certificate is refused past the pole gap, and wherever rounding could
    flip the sign of tr S or det S. The eigenvalue is not certified.
    """
    m = np.multiply.outer(c, [[1], [-1]]) + [[0, 1], [K - 1, K]]  # (n, n+1), n = c and K-1-c
    mu_min = 2 * np.sin(np.pi / (2 * np.maximum(m[..., 0, 1], m[..., 1, 1]))) ** 2
    p, delta, cross = terms[..., :2], terms[..., 2], terms[..., 3]  # p on slots c, c+1

    @np.errstate(all="ignore")  # inf at a pole, nan past lam = 2: neither certifies
    def at(lam, certify=False):
        lam = np.asarray(lam, dtype=float)
        # cos theta = 1 - lam; a tiny lam in place of 0 gives w's limit 1/(n+1)
        s = np.sin(m * (2 * np.arcsin(np.sqrt(np.maximum(lam, 1e-200) / 2)))[..., None, None])
        w = 1 - s[..., 0] / s[..., 1]  # (w_L, w_R)
        pw = _sum2(w * p)
        tr = pw - 2 * lam
        det = w[..., 0] * w[..., 1] * delta - lam * pw + lam * lam
        if not certify:
            return (tr - np.sqrt(np.maximum(tr * tr - 4 * det, 0.0))) / 2
        # below mu_min both sines are >= 0, so |w| <= 2 - w; rounding stays
        # under a small multiple of eps times these sums of magnitudes
        wabs = 2 - w
        apw = _sum2(wabs * p)
        tol = _SIGN_TOL * (K + 1)
        det_tol = tol * (wabs[..., 0] * wabs[..., 1] * cross ** 2 + np.abs(lam) * apw + lam * lam)
        return ((lam <= (1 - _POLE_GAP) * mu_min)
                & (tr > tol * (apw + 2 * np.abs(lam))) & (det > det_tol))
    return at


def _smallest_singular(P: np.ndarray, i: np.ndarray, c: np.ndarray) -> np.ndarray:
    """SVD margins of receiver matrices, one per row of ``P`` (n, K, 2, 2),
    through one ``np.linalg.svd`` call: row m holds receiver ``i[m]``'s
    (h1, h2) on slot ``c[m, j] + s`` of each user j, ``c`` (n, K) a permutation."""
    K = P.shape[1]
    m = np.arange(len(P))[:, None]
    # column order: the receiver's two desired columns, then one per interferer
    users = np.array([[j, j] + [u for u in range(K) if u != j] for j in range(K)])[i]
    antenna = np.array([0, 1] + [0] * (K - 1))
    B = np.zeros((len(P), K + 1, K + 1), dtype=complex)
    B[m[..., None], c[m, users][..., None] + np.arange(2),
      np.arange(K + 1)[:, None]] = P[m, users, :, antenna]
    B = B / np.maximum(np.linalg.norm(B, axis=-2, keepdims=True), 1e-300)
    return np.linalg.svd(B, compute_uv=False)[..., -1]


def _residuals(P: np.ndarray) -> np.ndarray:
    """Singular-value ratio of each 2-column stack [x, y] = ``P`` (..., 2, 2),
    slots by (h1, h2), via an explicit orthogonal rejection of y from x: the
    cancellation happens on vector entries (absolute error ~eps), so exactly
    proportional columns come out at ~1e-16 instead of the ~sqrt(eps) floor
    of Gram-eigenvalue formulas."""
    x, y = P[..., 0], P[..., 1]
    nx2 = _sum2(x.real**2 + x.imag**2)
    tr = nx2 + _sum2(y.real**2 + y.imag**2)
    y = y - (_sum2(x.conj() * y) / np.maximum(nx2, 1e-300))[..., None] * x
    det = nx2 * _sum2(y.real**2 + y.imag**2)  # = lambda_min * lambda_max of the Gram matrix
    lmax = 0.5 * (tr + np.sqrt(np.maximum(tr**2 - 4 * det, 0.0)))
    return np.sqrt(det) / np.maximum(lmax, 1e-300)


def _singulars(terms: np.ndarray, cells: np.ndarray, entry: np.ndarray,
               c: np.ndarray) -> np.ndarray:
    """Normalized smallest singular values (K, trials, T): receiver i's
    (h1, h2) in trial r on slot ``c[t, j] + s`` is ``cells[entry[i, t, j, s],
    r]``, ``terms[i, r, t]`` holds :func:`_terms` of its own slot pair, and
    ``c`` (T, K), a permutation in every thread, holds transition columns.

    Every matrix must meet the chain lemma of :func:`_schur`: the verifier's
    entry guard makes the receiver's h1 equal on each interferer's two slots,
    and :func:`_draw` gives finite coefficients with |h| >= ``MAGNITUDE_FLOOR``.
    The first SVD batch holds, per receiver, the matrix with the smallest
    lambda_min(S(0)), which bounds sigma_min^2 from above since
    w(lambda) <= w(0). Each other matrix whose S((sigma* + slack)^2) is
    certified positive definite, sigma* being its receiver's SVD value, has
    an SVD value strictly above sigma*; it holds +inf. The rest go through a
    second batch, so the minimum and its position are exact. A batch gathers
    the slot pairs of its own matrices only, a bounded slice at a time.
    """
    K = len(terms)
    schur = _schur(K, c.T[:, None, :], terms)

    def svd(where):
        at, step = np.flatnonzero(where), _VERIFY_CELLS // (K + 1) ** 4
        return np.concatenate([_smallest_singular(cells[entry[i, t], r[:, None, None]], i, c[t])
                               for i, r, t in (np.unravel_index(at[a:a + step], where.shape)
                                               for a in range(0, len(at), step))])

    guess = schur(0.0)
    first = np.zeros(guess.shape, dtype=bool)
    first.reshape(K, -1)[range(K), guess.reshape(K, -1).argmin(axis=1)] = True
    singulars = np.full(guess.shape, np.inf)
    singulars[first] = svd(first)
    floor = singulars.min(axis=(1, 2)) + _SVD_SLACK * (K + 1) ** 2
    rest = ~first & ~schur((floor ** 2)[:, None, None], certify=True)
    if rest.any():
        singulars[rest] = svd(rest)
    return singulars


@dataclass(frozen=True)
class Witness:
    """Where a worst value occurs.

    ``thread`` indexes a row of ``sched.slots`` (the first thread in schedule order
    with the witness's start group); ``trial`` counts from 0; ``receiver``
    and ``interferer`` are 1-based users, ``interferer`` is None for a
    decodability witness.
    """

    thread: int
    start_group: int
    slots: tuple[int, ...]
    trial: int
    receiver: int
    interferer: int | None = None

    def __str__(self) -> str:
        against = "" if self.interferer is None else f", interferer {self.interferer}"
        return (f"thread {self.thread} (start group {self.start_group}, slots {self.slots}), "
                f"trial {self.trial}, receiver {self.receiver}{against}")


@dataclass(frozen=True)
class SummaryReport:
    n_tuples: int
    n_distinct: int  # threads with distinct start groups, the ones checked
    trials: int
    max_residual: float
    min_singular: float
    aligned_ok: bool
    decodable_ok: bool
    symbols_per_slot: Fraction | None  # 2K/(K+1) when everything passed
    residual_witness: Witness
    singular_witness: Witness

    @property
    def passed(self) -> bool:
        return self.aligned_ok and self.decodable_ok


def verify_schedule_end_to_end(cfg: ChannelConfig, sched: Schedule, seed: int,
                               trials: int) -> SummaryReport:
    """Run both checks on every thread across independent realizations.

    Each thread's vectors come from its pattern matrix, the same pattern
    definition :func:`validate_schedule` checks. A validated thread lies in
    long groups g..g+K of its start group g; slots in one group share every
    user's block label and each group step raises exactly one label by 1, so
    threads share their block labels exactly when they share a start group.
    Such threads get the same coefficients and the same pattern, hence the
    same receiver matrices, so the checks run once per start group, on the
    first such thread in schedule order; the worst values are exactly those
    of checking every thread.
    """
    if cfg != sched.cfg:
        raise ValueError(f"config {cfg} differs from the schedule's config {sched.cfg}")
    report = validate_schedule(sched)
    if not report.passed:
        raise ValueError(f"schedule fails validation: {report.failures[:3]}")
    keep = np.sort(np.unique(sched.start_groups, return_index=True)[1])
    cells = cfg.K * trials * len(keep) * (cfg.K + 1)
    if cells > _VERIFY_CELLS:
        raise SearchBudgetExceeded(f"{trials} trials of {len(keep)} distinct threads need "
                                   f"{cells} coefficient cells, over the limit {_VERIFY_CELLS}")
    K, slots, blocks = cfg.K, sched.slots[keep], sched._map[2][:, keep].astype(np.int64)
    # the pattern is the diff of the labels; validation made it a permutation
    c = np.argmax(np.diff(blocks), axis=-1).T
    # (K, T, K, 2) labels on the slot pairs; validated labels lie in 0..K+3
    labels = blocks[:, np.arange(len(keep))[:, None, None], c[..., None] + np.arange(2)]
    if ((labels[..., 0] != labels[..., 1]) & ~np.eye(K, dtype=bool)[:, None]).any():
        raise ValueError("an interferer's two slots lie in two blocks of a receiver")
    grid, res, terms = _verify_grid(seed, K, int(labels.max()) + 1, trials)
    entry = np.arange(K)[:, None, None, None] * grid.shape[1] + labels  # user * L + label
    # each receiver's own labels a, a+1 are its terms row user * (L-1) + a
    own = entry[range(K), :, range(K), 0] - np.arange(K)[:, None]
    sig = _singulars(terms[own[:, None], np.arange(trials)[:, None]],
                     grid.reshape(-1, trials, 2), entry, c).transpose(2, 1, 0)

    def witness(d, trial, receiver, interferer=None):
        return Witness(int(keep[d]), int(sched.start_groups[keep[d]]), tuple(slots[d].tolist()),
                       int(trial), int(receiver) + 1,
                       None if interferer is None else int(interferer) + 1)

    # the diagonal is no interferer; worst entries are found in (thread, trial,
    # receiver, interferer) order, so ties go to the earliest thread
    res = res[entry[..., 0]].transpose(1, 3, 0, 2)
    res[..., range(K), range(K)] = -1.0
    at_res = np.unravel_index(res.argmax(), res.shape)
    at_sig = np.unravel_index(sig.argmin(), sig.shape)
    max_residual, min_singular = float(res[at_res]), float(sig[at_sig])
    aligned_ok = max_residual < ALIGNMENT_TOL
    decodable_ok = min_singular > DECODABILITY_TOL
    return SummaryReport(
        n_tuples=len(sched.slots),
        n_distinct=len(keep),
        trials=trials,
        max_residual=max_residual,
        min_singular=min_singular,
        aligned_ok=aligned_ok,
        decodable_ok=decodable_ok,
        symbols_per_slot=Fraction(2 * cfg.K, cfg.K + 1) if (aligned_ok and decodable_ok) else None,
        residual_witness=witness(*at_res),
        singular_witness=witness(*at_sig),
    )
