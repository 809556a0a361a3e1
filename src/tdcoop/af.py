"""Amplify-and-forward: equivalent channels, trial rates, outage bounds.

An AF helper scales the signal-plus-noise it received from the source
and retransmits it, so across slots the destination sees a triangular
mixing matrix.  The forwarded noise makes the second-slot noise stronger
than white; each affected row is divided by its noise standard deviation
c_s, after which the rate is the standard (1/L) log2 det(I + P HH*) of
the whitened matrix.  The source repeats each codeword over all L slots
of its period, hence the 1/L prefactor and the 2^(L R) coding penalty in
the upper bounds.

The whitened matrix has one of two fixed shapes: 2x2 lower-triangular
when all helpers forward in one slot (``af2_*``), an arrow when each
helper has its own slot (``afmh_*``).  The trial kernels take the rate
from the closed-form determinant of each shape
(``af2_trial_mutual_info``, ``afmh_trial_mutual_info``), which read
received SNRs and, for af2's coherent sum, the phases of the forwarded
paths; ``af_trial_mutual_info`` of the
``*_equivalent_channel`` matrices is the general log-det reference they
are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ddf import BoundPair, _columns, _float_pow, _pow2m1

__all__ = [
    "EquivalentChannel",
    "af_amplifier_gain",
    "af2_equivalent_channel",
    "afmh_equivalent_channel",
    "af_trial_mutual_info",
    "af2_trial_mutual_info",
    "afmh_trial_mutual_info",
    "af_bounds_2hop",
    "af_bounds_multihop",
]


@dataclass(frozen=True)
class EquivalentChannel:
    """Whitened slot-mixing matrix per trial plus the row noise scales.

    matrix has shape (n, L, L); row_scale has shape (n, L) and holds the
    c_s each row was divided by (1 for rows with white noise).
    """

    matrix: np.ndarray
    row_scale: np.ndarray

    @property
    def hops(self) -> int:
        return self.matrix.shape[-1]


def af_amplifier_gain(h_jk_sq, helper_budget, source_burst):
    """Forwarding gain c_j = sqrt(2 Pbar_j / (|H_jk|^2 Pbar_k + 1)).

    h_jk_sq is the received power gain including path loss, so the
    denominator is the helper's total received power.  The factor 2
    normalises the burst to the half-period slot; the fixed gain meets
    the budget per draw by construction.
    """
    h = np.asarray(h_jk_sq, dtype=float)
    budget = np.asarray(helper_budget, dtype=float)
    if np.any(h < 0) or np.any(budget < 0) or source_burst < 0:
        raise ValueError("gains and powers must be nonnegative")
    out = np.sqrt(2.0 * budget / (h * source_burst + 1.0))
    return float(out) if np.ndim(h_jk_sq) == 0 else out


def af2_equivalent_channel(h_dk, h_dj, h_jk, helper_budgets, source_burst) -> EquivalentChannel:
    """Two-slot equivalent channel with all helpers forwarding at once.

    h_dk is (n,), h_dj and h_jk are (n, m) complex gains (path loss
    folded in).  The second row carries the combined forwarded signal
    sum_j c_j H_dj H_jk and is divided by c_s from the forwarded noise.
    """
    h_dk = np.asarray(h_dk)
    h_dj = np.atleast_2d(np.asarray(h_dj))
    h_jk = np.atleast_2d(np.asarray(h_jk))
    n = h_dk.shape[0]
    budgets = np.asarray(helper_budgets, dtype=float)
    c = af_amplifier_gain(np.abs(h_jk) ** 2, budgets, source_burst)
    fwd = (c * h_dj * h_jk).sum(axis=1)
    cs = np.sqrt(1.0 + (np.abs(c * h_dj) ** 2).sum(axis=1))
    mat = np.zeros((n, 2, 2), dtype=complex)
    mat[:, 0, 0] = h_dk
    mat[:, 1, 0] = fwd / cs
    mat[:, 1, 1] = h_dk / cs
    scale = np.ones((n, 2))
    scale[:, 1] = cs
    return EquivalentChannel(matrix=mat, row_scale=scale)


def afmh_equivalent_channel(h_dk, h_dj, h_jk, helper_budgets, source_burst) -> EquivalentChannel:
    """L-slot equivalent channel with one helper forwarding per slot.

    Helper j hears only the first slot and forwards it in slot j+1, so
    row l has the direct repeat on the diagonal and the forwarded term in
    column 0, both divided by that row's own c_s.  The amplifier keeps
    the two-slot normalisation, which underspends the budget for L > 2.
    """
    h_dk = np.asarray(h_dk)
    h_dj = np.atleast_2d(np.asarray(h_dj))
    h_jk = np.atleast_2d(np.asarray(h_jk))
    n, m = h_dj.shape
    L = m + 1
    budgets = np.asarray(helper_budgets, dtype=float)
    c = af_amplifier_gain(np.abs(h_jk) ** 2, budgets, source_burst)
    cs = np.sqrt(1.0 + np.abs(c * h_dj) ** 2)
    mat = np.zeros((n, L, L), dtype=complex)
    mat[:, 0, 0] = h_dk
    for j in range(m):
        mat[:, j + 1, 0] = c[:, j] * h_dj[:, j] * h_jk[:, j] / cs[:, j]
        mat[:, j + 1, j + 1] = h_dk / cs[:, j]
    scale = np.ones((n, L))
    scale[:, 1:] = cs
    return EquivalentChannel(matrix=mat, row_scale=scale)


def af_trial_mutual_info(channel: EquivalentChannel, source_burst):
    """(1/L) log2 det(I + Pbar H H*) per trial.

    The determinant is taken by LU factorisation with partial pivoting on
    the full matrix; no structure is assumed.
    """
    H = channel.matrix
    L = channel.hops
    gram = H @ np.conjugate(np.swapaxes(H, -1, -2))
    eye = np.eye(L)
    sign, logdet = np.linalg.slogdet(eye + source_burst * gram)
    # NaN entries give sign = nan, which must fail this check too
    if not np.all(sign.real > 0.5):
        raise FloatingPointError("det(I + P H H*) must be positive")
    return logdet / (L * math.log(2.0))


def af2_trial_mutual_info(dk_snr, dj_snr, jk_snr, phase=None):
    """Closed form of ``af_trial_mutual_info(af2_equivalent_channel(...))``.

    dk_snr is the direct SNR (n,); dj_snr and jk_snr are (n, m), the d-j
    SNR at the helper's budget and the j-k SNR at the source's burst.
    phase (n, m) is the phase phi_j of H_dj H_jk, which only the coherent
    sum over m >= 2 helpers reads; at m = 1 it drops out and may be None.
    With g_j = 2 / (jk_snr_j + 1), c_s^2 = 1 + sum_j g_j dj_snr_j and
    |F|^2 = |sum_j sqrt(g_j dj_snr_j jk_snr_j) e^{i phi_j}|^2, the
    lower-triangular whitened matrix gives
    det(I + P HH*) - 1 = s + (|F|^2 + s) / c_s^2 + s^2 / c_s^2, s = dk_snr,
    a sum of nonnegative terms.
    """
    s, dj_snr = np.asarray(dk_snr), np.asarray(dj_snr)
    gain_sq = 2.0 / (np.asarray(jk_snr) + 1.0)
    weighted = gain_sq * dj_snr
    power = weighted * jk_snr
    fwd_sq = power.sum(axis=1)
    m = power.shape[1]
    if m > 1 and phase is None:
        raise ValueError("af2 needs the helpers' phases at m >= 2")
    # |F|^2 by pairs: sum_j power_j + 2 sum_{i<j} |F_i| |F_j| cos(phi_i - phi_j).
    for i in range(m):
        for j in range(i + 1, m):
            fwd_sq += 2.0 * np.sqrt(power[:, i] * power[:, j]) * np.cos(phase[:, i] - phase[:, j])
    cs_sq = 1.0 + weighted.sum(axis=1)
    det_m1 = s + (fwd_sq + s) / cs_sq + s * s / cs_sq
    return np.log1p(det_m1) / (2.0 * math.log(2.0))


def afmh_trial_mutual_info(dk_snr, dj_snr, jk_snr):
    """Closed form of ``af_trial_mutual_info(afmh_equivalent_channel(...))``.

    Inputs are as for ``af2_trial_mutual_info``; no phase enters.  Row j
    of the whitened arrow matrix is divided by c_sj, c_sj^2 = 1 + w_j with
    w_j = 2 dj_snr_j / (jk_snr_j + 1), so with s = dk_snr and
    g_j = 1 + s / c_sj^2
    log det(I + P HH*) = sum_j log g_j
    + log(1 + s + sum_j w_j jk_snr_j / (c_sj^2 g_j)).
    """
    s, a_jk = np.asarray(dk_snr), np.asarray(jk_snr)
    w = 2.0 * np.asarray(dj_snr) / (a_jk + 1.0)
    cs_sq = 1.0 + w
    g_m1 = s[:, None] / cs_sq
    logdet = np.log1p(g_m1).sum(axis=1) + np.log1p(
        s + (w * a_jk / cs_sq / (1.0 + g_m1)).sum(axis=1)
    )
    return logdet / ((a_jk.shape[1] + 1) * math.log(2.0))


def af_bounds_2hop(rate, burst_power, dk_pow, dj_pow, jk_pow) -> BoundPair:
    """Outage bounds for the two-slot scheme.

    dk_pow is d^gamma of the source-destination link; dj_pow and jk_pow
    hold the helper-destination and source-helper d^gamma, one helper per
    column of the last axis.  rate is a scalar; a leading axis runs over
    rows, to which dk_pow and burst_power broadcast.  Lower: coherent
    two-antenna array with the helpers merged into one effective branch.
    Upper: orthogonal forwarding with the worst helper path, paying the
    repetition penalty 2^(2R) - 1.
    """
    burst_power, dk_pow, dd, dk = _columns(burst_power, dk_pow, dj_pow, jk_pow)
    eta = float(_pow2m1(rate))
    eta2 = float(_pow2m1(2.0 * rate))
    burst_sq = _float_pow(burst_power, 2)
    lower = eta**2 * dk_pow / (2.0 * burst_sq * (1.0 / dd).sum(axis=-1))
    upper = eta2**2 * dk_pow * (dk + dd).max(axis=-1) / (2.0 * burst_sq)
    return BoundPair(lower=lower, upper=upper)


def af_bounds_multihop(rate, burst_power, dk_pow, dj_pow, jk_pow) -> BoundPair:
    """Outage bounds for the L-slot scheme (L = helpers + 1).

    Arguments are shaped as for ``af_bounds_2hop``.
    """
    burst_power, dk_pow, dd, dk = _columns(burst_power, dk_pow, dj_pow, jk_pow)
    L = dd.shape[-1] + 1
    eta = float(_pow2m1(rate))
    eta_l = float(_pow2m1(L * rate))
    denom = math.factorial(L) * _float_pow(burst_power, L)
    lower = eta**L * dk_pow * np.prod(dd, axis=-1) / denom
    upper = eta_l**L * dk_pow * np.prod(dd + dk, axis=-1) / denom
    return BoundPair(lower=lower, upper=upper)
