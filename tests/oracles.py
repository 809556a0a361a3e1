"""Analytic references that only the tests call.

Closed forms and fits the tests check the package against: the listen
fraction's mixed CDF, the multihop clustering condition, the diversity
slope of an outage curve, draws of a weighted sum of unit-mean
exponentials, the AF closed forms on complex amplitudes that the trial
kernels ran before they drew magnitudes, complex gains with the
magnitudes and phases of an AF row, and rc-af's exact cell outage by
quadrature.  The sweep never runs them.
"""

from __future__ import annotations

import math

import numpy as np

from tdcoop.ddf import _columns, _pow2m1


def listen_fraction_cdf(theta, dist_pow_sum, burst_power, rate):
    """Mixed CDF of the listen fraction.

    dist_pow_sum is d^gamma of the source-forwarder link, or the sum of
    d^gamma over helpers in the shared-slot case (the per-helper survival
    probabilities multiply into one exponential).  The distribution has
    an atom at 1: F(theta) = exp(-(2^(R/theta)-1) * dist_pow_sum / Pbar)
    for 0 < theta < 1, and 1 from theta = 1 on.
    """
    t = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        body = np.exp(-_pow2m1(rate / np.maximum(t, 1e-300)) * dist_pow_sum / burst_power)
    out = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, body))
    return float(out) if np.ndim(theta) == 0 else out


def clustering_condition(rate, burst_power, lambdas, dist_dest_pow, dist_to_source_pow):
    """Whether helpers sit close enough for the full-diversity regime.

    Returns (satisfied, threshold) where the condition is
    sum_j d_jk^gamma <= threshold at the split point 1/2.  Only defined
    for three or more cooperating branches.
    """
    lam, dd, dk = _columns(lambdas, dist_dest_pow, dist_to_source_pow)
    L = lam.size
    if L <= 2:
        raise ValueError("clustering condition needs more than two branches")
    threshold = (
        float(_pow2m1(rate / 0.5)) ** (L - 2)
        / (math.factorial(L) * burst_power ** (L - 2))
        * float(np.prod(dd / lam))
        / dd[0]
    )
    return bool(dk.sum() <= threshold), float(threshold)


def diversity_slope(points) -> float:
    """Least-squares slope of -log10(outage) against SNR_dB / 10.

    points is an iterable of (snr_db, outage) pairs; every outage must be
    positive, and at least two points are required.
    """
    pts = [(float(s), float(p)) for s, p in points]
    if len(pts) < 2:
        raise ValueError("diversity_slope needs at least two points")
    if any(p <= 0.0 for _, p in pts):
        raise ValueError("diversity_slope: zero outage in window, not enough events")
    x = np.array([s / 10.0 for s, _ in pts])
    y = np.array([-math.log10(p) for _, p in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def weighted_exp_sum_sample(weights, rng: np.random.Generator, size: int) -> np.ndarray:
    """size draws of sum_l c_l * E_l, E_l i.i.d. unit-mean exponential."""
    w = np.asarray(weights, dtype=float)
    return rng.exponential(size=(size, w.size)) @ w


def _abs2(z):
    """|z|^2 without the square root of np.abs."""
    return z.real**2 + z.imag**2


def af2_complex_mutual_info(dk_snr, dj_amp, jk_amp):
    """af2's closed form on complex amplitudes: dk_snr is the direct SNR
    (n,); dj_amp and jk_amp are (n, m) complex amplitudes whose squared
    magnitudes are the d-j SNR at the helper's budget and the j-k SNR at
    the source's burst.  With g_j = 2 / (|jk_amp_j|^2 + 1),
    c_s^2 = 1 + sum_j g_j |dj_amp_j|^2 and
    F = sum_j sqrt(g_j) dj_amp_j jk_amp_j,
    det(I + P HH*) - 1 = s + (|F|^2 + s) / c_s^2 + s^2 / c_s^2, s = dk_snr.
    """
    s = np.asarray(dk_snr)
    dj_amp, jk_amp = np.asarray(dj_amp), np.asarray(jk_amp)
    gain_sq = 2.0 / (_abs2(jk_amp) + 1.0)
    fwd_sq = _abs2((np.sqrt(gain_sq) * dj_amp * jk_amp).sum(axis=1))
    cs_sq = 1.0 + (gain_sq * _abs2(dj_amp)).sum(axis=1)
    det_m1 = s + (fwd_sq + s) / cs_sq + s * s / cs_sq
    return np.log1p(det_m1) / (2.0 * math.log(2.0))


def afmh_complex_mutual_info(dk_snr, dj_amp, jk_amp):
    """afmh's closed form on complex amplitudes, inputs as for
    ``af2_complex_mutual_info``: with w_j = 2 |dj_amp_j|^2 /
    (|jk_amp_j|^2 + 1), c_sj^2 = 1 + w_j, s = dk_snr and
    g_j = 1 + s / c_sj^2, log det(I + P HH*) = sum_j log g_j
    + log(1 + s + sum_j w_j |jk_amp_j|^2 / (c_sj^2 g_j))."""
    s = np.asarray(dk_snr)
    a_jk = _abs2(np.asarray(jk_amp))
    w = 2.0 * _abs2(np.asarray(dj_amp)) / (a_jk + 1.0)
    cs_sq = 1.0 + w
    g_m1 = s[:, None] / cs_sq
    logdet = np.log1p(g_m1).sum(axis=1) + np.log1p(
        s + (w * a_jk / cs_sq / (1.0 + g_m1)).sum(axis=1)
    )
    return logdet / ((a_jk.shape[1] + 1) * math.log(2.0))


def af_row_gains(params, direct, links):
    """Complex gains (h_dk, h_dj (m), h_jk (m)), path loss folded in, with
    the magnitudes of an AF kernel's row [A_dk | A_jk (m), A_dj (m)]:
    |h|^2 = A / d^gamma.  h_dk and h_jk are real, and h_dj carries the
    phase of H_dj H_jk, which af2's row gives at m >= 2 in m more columns
    as phi_j = 2 pi (1 - exp(-E_j)), and which is 0 otherwise."""
    m = len(params["budgets"])
    phase = -2.0 * math.pi * np.expm1(-links[:, 2 * m :]) if links.shape[1] > 2 * m else 0.0
    h_dj = np.sqrt(links[:, m : 2 * m] / np.asarray(params["dj_pow"])) * np.exp(1j * phase)
    return np.sqrt(direct / params["dk_pow"]), h_dj, np.sqrt(links[:, :m] / np.asarray(params["jk_pow"]))


def _panel_nodes(nodes, fine_at_hi):
    """Gauss-Legendre nodes and weights on [0, 1], in 24 panels whose
    widths shrink geometrically (to 1e-12) towards 1 or towards 0."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    offsets = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 24)))
    edges = 1.0 - offsets[::-1] if fine_at_hi else offsets
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


def rc_af_cell_outage(rate, burst, relay_budget, d_rk, d_dk, d_dr, gamma, nodes=32):
    """Exact rc-af (af2, one relay) outage of one user by quadrature.

    With the received SNRs jk = A_rk burst / d_rk^gamma (source into the
    relay), dj = A_dr budget / d_dr^gamma (relay into the destination) and
    s (direct), g = 2 / (jk + 1), F = g dj jk and c = 1 + g dj, the rate
    (1/2) log2(1 + s + (F + s) / c + s^2 / c) lies below R exactly when s
    lies below s*, the positive root of s^2 + (c + 1) s + (F - c E) = 0
    with E = 2^(2R) - 1 (s* = 0 where F >= c E).  A_dk is a unit
    exponential, so the outage given (A_rk, A_dr) is
    1 - exp(-s* d_dk^gamma / burst), averaged here over the two unit
    exponentials A_rk and A_dr.

    s* > 0 needs g dj (jk - E) < E: for jk <= E every A_dr, for jk > E
    only dj below E / (g (jk - E)).  So the outer gain is split at
    t = E d_rk^gamma / burst (jk = E), each side mapped to u = 1 - exp(-a)
    with panels refined towards t, and the inner gain, mapped to
    v = 1 - exp(-A_dr), runs over [0, 1 - exp(-b_max)] with panels refined
    towards its end.  The region where s* > 0 shrinks with the SNR, and
    the split keeps nodes in it."""
    e = math.expm1(2.0 * rate * math.log(2.0))
    jk_gain, dj_gain = burst / d_rk**gamma, relay_budget / d_dr**gamma
    dk_scale = d_dk**gamma / burst
    t = e / jk_gain
    x, w = _panel_nodes(nodes, fine_at_hi=True)
    # Outer nodes: A_rk in [0, t] (u up to 1 - exp(-t)) and in [t, inf)
    # (u from 0, a = t - log(1 - u), weight exp(-t) du).
    below = -math.expm1(-t)
    a_low, w_low = -np.log1p(-below * x), below * w
    u, wu = _panel_nodes(nodes, fine_at_hi=False)
    a_high, w_high = t - np.log1p(-u), math.exp(-t) * wu
    total = 0.0
    for a, wa in ((a_low, w_low), (a_high, w_high)):
        for block in range(0, len(a), nodes):
            jk = a[block : block + nodes, None] * jk_gain
            g = 2.0 / (jk + 1.0)
            # v_max = 1 - exp(-b_max), b_max = E / (g (jk - E)) in A_dr's units
            with np.errstate(divide="ignore"):
                b_max = np.where(jk > e, e / (g * (jk - e)) / dj_gain, np.inf)
            v_max = -np.expm1(-b_max)
            dj = -np.log1p(-v_max * x) * dj_gain
            c = 1.0 + g * dj
            gap = np.maximum(c * e - g * dj * jk, 0.0)
            root = 2.0 * gap / ((c + 1.0) + np.sqrt((c + 1.0) ** 2 + 4.0 * gap))
            inner = (-np.expm1(-root * dk_scale) * (v_max * w)).sum(axis=1)
            total += float(inner @ wa[block : block + nodes])
    return total
