"""Amplify-and-forward: equivalent channels, trial rates, outage bounds.

An AF helper scales the signal-plus-noise it received from the source
and retransmits it, so across slots the destination sees a triangular
mixing matrix.  The forwarded noise makes the second-slot noise stronger
than white; each affected row is divided by its noise standard deviation
c_s, after which the rate is the standard (1/L) log2 det(I + P HH*) of
the whitened matrix.  The source repeats each codeword over all L slots
of its period, hence the 1/L prefactor and the 2^(L R) coding penalty in
the upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ddf import BoundPair, _pow2m1

__all__ = [
    "EquivalentChannel",
    "af_amplifier_gain",
    "af2_equivalent_channel",
    "afmh_equivalent_channel",
    "af_trial_mutual_info",
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


def af_bounds_2hop(
    rate, burst_power, d_dk, d_dest_helpers, d_helpers_src, gamma
) -> BoundPair:
    """Outage bounds for the two-slot scheme.

    Lower: coherent two-antenna array with the helpers merged into one
    effective branch.  Upper: orthogonal forwarding with the worst helper
    path, paying the repetition penalty 2^(2R) - 1.
    """
    dd = np.asarray(d_dest_helpers, dtype=float) ** gamma
    dk = np.asarray(d_helpers_src, dtype=float) ** gamma
    eta = float(_pow2m1(rate))
    eta2 = float(_pow2m1(2.0 * rate))
    lower = eta**2 * d_dk**gamma / (2.0 * burst_power**2 * float((1.0 / dd).sum()))
    upper = eta2**2 * d_dk**gamma * float((dk + dd).max()) / (2.0 * burst_power**2)
    return BoundPair(lower=lower, upper=upper)


def af_bounds_multihop(
    rate, burst_power, d_dk, d_dest_helpers, d_helpers_src, gamma
) -> BoundPair:
    """Outage bounds for the L-slot scheme (L = helpers + 1)."""
    dd = np.asarray(d_dest_helpers, dtype=float) ** gamma
    dk = np.asarray(d_helpers_src, dtype=float) ** gamma
    L = dd.size + 1
    eta = float(_pow2m1(rate))
    eta_l = float(_pow2m1(L * rate))
    lower = (
        eta**L * d_dk**gamma * float(np.prod(dd)) / (math.factorial(L) * burst_power**L)
    )
    upper = (
        eta_l**L
        * d_dk**gamma
        * float(np.prod(dd + dk))
        / (math.factorial(L) * burst_power**L)
    )
    return BoundPair(lower=lower, upper=upper)
