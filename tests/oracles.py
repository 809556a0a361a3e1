"""Analytic references that only the tests call.

Closed forms and fits the tests check the package against: the listen
fraction's mixed CDF, the multihop clustering condition, the diversity
slope of an outage curve, and draws of a weighted sum of unit-mean
exponentials.  The sweep never runs them.
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
