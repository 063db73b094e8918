"""Beamforming construction and numerical alignment/decodability verification.

This is the executable witness that a schedule really works: channel
coefficients are drawn per fading block, the indicator beamforming vectors
are built from each thread's pattern matrix, and alignment/decodability are
checked as scale-invariant rank statements on small complex matrices.

Interference alignment here is structural: an interferer's two transmit
streams use identical 0/1 vectors supported on the two slots straddling the
interferer's own transition, where every other user's channel is constant,
so the two received interference columns are exactly proportional. The
desired user's two columns differ across its transition and stay generically
independent from the K-1 interference directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .pattern import ChannelConfig, is_feasible_pattern, pattern_matrix, slot_map
from .scheduler import Schedule, validate_schedule

__all__ = [
    "MAGNITUDE_FLOOR",
    "ALIGNMENT_TOL",
    "DECODABILITY_TOL",
    "beamforming_vectors",
    "channel_coeffs",
    "receiver_checks",
    "SummaryReport",
    "Witness",
    "verify_schedule_end_to_end",
]

MAGNITUDE_FLOOR = 0.05  # coefficients are redrawn while |h| < this
ALIGNMENT_TOL = 1e-9
DECODABILITY_TOL = 1e-9

_KEY_SALT = 0x9E3779B97F4A7C15  # distinguishes channel streams from other RNG users
_CANDIDATES = 16  # rejection budget per coefficient; P(exhaust) ~ 1e-46


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


def _block_coeffs(seed: int, user: int, block: int, n_trials: int) -> np.ndarray:
    """(n_trials, 2) complex coefficients for one (user, block) pair.

    Counter-based: the stream is a pure function of (seed, user, block) and
    trial t reads a fixed slice, so values never depend on evaluation order.
    Real/imaginary parts are standard normal; magnitudes below the floor are
    rejected from a per-coefficient candidate budget.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, _KEY_SALT], dtype=np.uint64)
    counter = np.array([0, 0, user, block], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    z = gen.standard_normal((n_trials, 2, _CANDIDATES, 2))
    h = z[..., 0] + 1j * z[..., 1]
    ok = np.abs(h) >= MAGNITUDE_FLOOR
    if not ok.any(axis=-1).all():
        raise RuntimeError("rejection budget exhausted while drawing coefficients")
    first = np.argmax(ok, axis=-1)
    return np.take_along_axis(h, first[..., None], axis=-1)[..., 0]


def channel_coeffs(cfg: ChannelConfig, slots, seed: int,
                   trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of every user on every slot of every thread.

    ``slots`` has shape (T, K+1). Returns ``H`` of shape (K, trials, T, K+1, 2),
    where ``H[i-1, r, t, n]`` is user i's (h1, h2) in trial r on thread t's
    n-th slot, and the block labels (K, T, K+1) the slots fall in. Each
    distinct (user, block) pair is drawn once, so slots in one fading block
    get identical coefficients.
    """
    slots = np.asarray(slots, dtype=np.int64)
    blocks = slot_map(cfg, slots)[1]
    H = np.empty((cfg.K, trials, *slots.shape, 2), dtype=complex)
    for i, user_blocks in enumerate(blocks):
        ub, inv = np.unique(user_blocks, return_inverse=True)
        table = np.stack([_block_coeffs(seed, i + 1, int(b), trials) for b in ub])
        H[i] = np.moveaxis(table[inv.reshape(user_blocks.shape)], -2, 0)
    return H, blocks


def _receiver_margins(H: np.ndarray, v) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial, per-thread form of :func:`receiver_checks`.

    Returns residuals (K, K, trials, T), zero on the receiver = interferer
    diagonal, and normalized smallest singular values (K, trials, T).
    """
    K = H.shape[0]
    mask = np.asarray(v, dtype=bool)[None]  # broadcast over trials
    residuals = np.zeros((K, K, *H.shape[1:3]))
    singulars = np.empty((K, *H.shape[1:3]))
    for i in range(K):
        h1, h2 = H[i, ..., 0], H[i, ..., 1]
        # singular-value ratio of each 2-column stack, computed via an explicit
        # orthogonal rejection: the cancellation happens on vector entries
        # (absolute error ~eps), so exactly proportional columns come out at
        # ~1e-16 instead of the ~sqrt(eps) floor of Gram-eigenvalue formulas
        for j in range(K):
            if i == j:
                continue
            x = np.where(mask[:, :, j], h1, 0)
            y = np.where(mask[:, :, j], h2, 0)
            nx2 = (x.real**2 + x.imag**2).sum(axis=-1)
            ny2 = (y.real**2 + y.imag**2).sum(axis=-1)
            alpha = (x.conj() * y).sum(axis=-1) / np.maximum(nx2, 1e-300)
            yperp = y - alpha[..., None] * x
            yperp2 = (yperp.real**2 + yperp.imag**2).sum(axis=-1)
            det = nx2 * yperp2  # = lambda_min * lambda_max of the Gram matrix
            tr = nx2 + ny2
            lmax = 0.5 * (tr + np.sqrt(np.maximum(tr**2 - 4 * det, 0.0)))
            residuals[i, j] = np.sqrt(det) / np.maximum(lmax, 1e-300)

        cols = [np.where(mask[:, :, i], h1, 0), np.where(mask[:, :, i], h2, 0)]
        cols += [np.where(mask[:, :, j], h1, 0) for j in range(K) if j != i]
        B = np.stack(cols, axis=-1)  # (trials, T, K+1, K+1)
        norms = np.linalg.norm(B, axis=-2, keepdims=True)
        B = B / np.maximum(norms, 1e-300)
        singulars[i] = np.linalg.svd(B, compute_uv=False)[..., -1]
    return residuals, singulars


def receiver_checks(H: np.ndarray, v) -> tuple[np.ndarray, np.ndarray]:
    """Alignment residuals and decodability margins of every receiver.

    ``H`` comes from :func:`channel_coeffs` and ``v`` (T, K, K+1) holds each
    thread's 0/1 indicator vectors. Returns the worst residual over trials
    and threads per (receiver, interferer), shape (K, K) with a zero
    diagonal, and the worst normalized smallest singular value per receiver,
    shape (K,).

    Receiver i sees interferer j through the columns H_i1 * v_j and
    H_i2 * v_j; their residual is the singular-value ratio of the 2-column
    stack (scale invariant; 0 for an all-zero vector). Receiver i's matrix
    holds its two desired columns plus one aligned column per interferer;
    the smallest singular value of the column-normalized matrix above
    tolerance means interference-free detection.
    """
    residuals, singulars = _receiver_margins(H, v)
    return residuals.max(axis=(2, 3)), singulars.min(axis=(1, 2))


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg != sched.cfg:
        raise ValueError(f"config {cfg} differs from the schedule's config {sched.cfg}")
    report = validate_schedule(sched)
    if not report.passed:
        raise ValueError(f"schedule fails validation: {report.failures[:3]}")
    keep = np.sort(np.unique(sched.start_groups, return_index=True)[1])
    slots = np.asarray(sched.slots[keep], dtype=np.int64)
    H, _ = channel_coeffs(cfg, slots, seed, trials)
    v = beamforming_vectors(pattern_matrix(cfg, slots))
    residuals, singulars = _receiver_margins(H, v)

    def witness(d, trial, receiver, interferer=None):
        return Witness(int(keep[d]), int(sched.start_groups[keep[d]]), tuple(slots[d].tolist()),
                       int(trial), int(receiver) + 1,
                       None if interferer is None else int(interferer) + 1)

    # the diagonal is no interferer; worst entries are found in (thread, trial,
    # receiver, interferer) order, so ties go to the earliest thread
    residuals[range(cfg.K), range(cfg.K)] = -1.0
    res = residuals.transpose(3, 2, 0, 1)
    sig = singulars.transpose(2, 1, 0)
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
