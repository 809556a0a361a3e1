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
(``af2_trial_mutual_info``, ``afmh_trial_mutual_info``);
``af_trial_mutual_info`` of the ``*_equivalent_channel`` matrices is the
general log-det reference they are tested against.
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


def _abs2(z):
    """|z|^2 without the square root of np.abs."""
    return z.real**2 + z.imag**2


def _amplifier_gain_sq(h_jk_sq, helper_budgets, source_burst):
    """c_j^2 = 2 Pbar_j / (|H_jk|^2 Pbar_k + 1), unchecked (see af_amplifier_gain)."""
    return 2.0 * np.asarray(helper_budgets, dtype=float) / (h_jk_sq * source_burst + 1.0)


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
    out = np.sqrt(_amplifier_gain_sq(h, budget, source_burst))
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


def af2_trial_mutual_info(h_dk, h_dj, h_jk, helper_budgets, source_burst):
    """Closed form of ``af_trial_mutual_info(af2_equivalent_channel(...))``.

    The whitened matrix is lower-triangular with diagonal (h_dk, h_dk/c_s)
    and f/c_s below it, f = sum_j c_j H_dj H_jk, so
    det(I + P HH*) = 1 + P (|h_dk|^2 + (|f|^2 + |h_dk|^2)/c_s^2)
    + P^2 |h_dk|^4 / c_s^2, a sum of nonnegative terms.  Inputs are shaped
    as for ``af2_equivalent_channel``.
    """
    P = source_burst
    h_dj, h_jk = np.asarray(h_dj), np.asarray(h_jk)
    a_dk = _abs2(np.asarray(h_dk))
    c_sq = _amplifier_gain_sq(_abs2(h_jk), helper_budgets, P)
    fwd_sq = _abs2((np.sqrt(c_sq) * h_dj * h_jk).sum(axis=1))
    cs_sq = 1.0 + (c_sq * _abs2(h_dj)).sum(axis=1)
    det_m1 = P * (a_dk + (fwd_sq + a_dk) / cs_sq) + P * P * a_dk * a_dk / cs_sq
    return np.log1p(det_m1) / (2.0 * math.log(2.0))


def afmh_trial_mutual_info(h_dk, h_dj, h_jk, helper_budgets, source_burst):
    """Closed form of ``af_trial_mutual_info(afmh_equivalent_channel(...))``.

    Row j of the whitened arrow matrix holds u_j = c_j H_dj H_jk / c_sj
    in column 0 and h_dk / c_sj on the diagonal, so with
    g_j = 1 + P |h_dk|^2 / c_sj^2
    det(I + P HH*) = prod_j g_j (1 + P |h_dk|^2 + sum_j P |u_j|^2 / g_j).
    Only magnitudes enter.  Inputs are shaped as for
    ``afmh_equivalent_channel``.
    """
    P = source_burst
    a_dk = _abs2(np.asarray(h_dk))
    a_dj = _abs2(np.asarray(h_dj))
    a_jk = _abs2(np.asarray(h_jk))
    c_sq = _amplifier_gain_sq(a_jk, helper_budgets, P)
    cs_sq = 1.0 + c_sq * a_dj
    g_m1 = P * a_dk[:, None] / cs_sq
    u_sq = c_sq * a_dj * a_jk / cs_sq
    logdet = np.log1p(g_m1).sum(axis=1) + np.log1p(
        P * a_dk + (P * u_sq / (1.0 + g_m1)).sum(axis=1)
    )
    return logdet / ((a_dj.shape[1] + 1) * math.log(2.0))


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
