"""Dynamic decode-and-forward: slot fractions, trial rates, outage bounds.

A forwarder listens to the source until it has collected enough mutual
information to decode, then re-encodes and transmits for the rest of the
period.  The listen fraction is therefore random,

    Theta = min(1, R / C(|A|^2 * Pbar / d^gamma)),

with an atom at 1 when the source-forwarder link is too weak.  The
destination sees a piecewise-constant rate: the direct-only part for the
listen fraction and a higher multi-antenna rate afterwards.  With 3+
hops the decode order is greedy (earliest decoder first, ties to the
lowest node index) and each new decoder boosts its burst power by the
inverse of its remaining transmit time.

All trial-level functions are vectorised over trials.  The bound
functions return the high-SNR lower/upper pair built from the leading
term of the weighted-exponential-sum CDF; they take link distances
already raised to gamma and broadcast over a leading axis of rows, so
one call bounds one sweep cell at every point of the SNR grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathcore import capacity

__all__ = [
    "BoundPair",
    "listen_fraction_rc",
    "listen_fraction_uc2",
    "listen_fraction_cdf",
    "trial_mutual_info_rc",
    "trial_mutual_info_uc2",
    "MultihopSchedule",
    "multihop_schedule",
    "trial_mutual_info_multihop",
    "ddf_bounds_rc",
    "ddf_bounds_uc2",
    "ddf_bounds_multihop",
    "clustering_condition",
]

_THETA_GRID = np.linspace(0.01, 0.99, 99)


@dataclass(frozen=True)
class BoundPair:
    """Analytic outage bounds, one pair or arrays of one shape over rows.

    0 <= lower <= upper holds for every row; the error names the first
    row that breaks it.
    """

    lower: float | np.ndarray
    upper: float | np.ndarray

    def __post_init__(self):
        if np.shape(self.lower) != np.shape(self.upper):
            raise ValueError("lower and upper bounds differ in shape")
        # A Python comparison per row: numpy's comparisons and masks raise
        # peak memory on first use by more than a dozen rows repay.
        pairs = zip(np.ravel(self.lower).tolist(), np.ravel(self.upper).tolist())
        for i, (lo, up) in enumerate(pairs):
            if not 0.0 <= lo <= up:
                row = "" if np.ndim(self.lower) == 0 else f" at row {i}"
                raise ValueError(f"invalid bound pair{row} ({lo}, {up})")


def _pow2m1(x):
    """2**x - 1, exact at 0."""
    return np.expm1(np.asarray(x) * math.log(2.0))


def _grid_pow(x, p):
    """(2**x - 1) ** p with Python's float power; +inf where it overflows.

    The theta grid's outer points reach 2**(rate / 0.01); a bracket that
    overflows there exceeds every finite one, so it counts as +inf in the
    grid's minimum.
    """
    with np.errstate(over="ignore"):
        base = float(_pow2m1(x))
    try:
        return base**p
    except OverflowError:
        return math.inf


def _float_pow(x, p):
    """x ** p per element with Python's float power.

    The bounds raise burst powers the way a scalar formula does; numpy's
    array power can land an ulp away from it.
    """
    x = np.asarray(x, dtype=float)
    return np.array([v**p for v in x.ravel().tolist()]).reshape(x.shape)


def _columns(*arrays):
    return tuple(np.asarray(a, dtype=float) for a in arrays)


def listen_fraction_rc(amp_sq, distance, burst_power, rate, gamma):
    """Listen fraction of a single forwarder on link gain |A|^2.

    min(1, R / C(|A|^2 * Pbar / d^gamma)); a zero gain gives 1 (the
    forwarder never decodes and stays silent).  Co-located nodes have no
    fading link, so a zero distance is rejected.
    """
    if distance <= 0.0:
        raise ValueError("forwarder distance must be positive")
    snr = np.asarray(amp_sq, dtype=float) * burst_power / distance**gamma
    c = capacity(snr)
    with np.errstate(divide="ignore"):
        theta = np.where(c > 0.0, rate / np.maximum(c, 1e-300), np.inf)
    out = np.minimum(theta, 1.0)
    return float(out) if np.ndim(amp_sq) == 0 else out


def listen_fraction_uc2(amp_sq, distances, burst_power, rate, gamma):
    """Shared listen fraction when all helpers must decode before relaying.

    amp_sq has one column per helper; the slot boundary waits for the
    slowest helper, so the fraction is the per-helper maximum capped at 1.
    """
    a = np.atleast_2d(np.asarray(amp_sq, dtype=float))
    d = np.asarray(distances, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("helper distances must be positive")
    snr = a * burst_power / d**gamma
    c = capacity(snr)
    with np.errstate(divide="ignore"):
        theta = np.where(c > 0.0, rate / np.maximum(c, 1e-300), np.inf)
    return np.minimum(theta.max(axis=1), 1.0)


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


def trial_mutual_info_rc(theta, direct_snr, relay_link_snr):
    """Destination rate for one forwarder: theta*G1 + (1-theta)*G2.

    direct_snr is |H_dk|^2 * Pbar_k; relay_link_snr is |H_dr|^2 * P_r at
    the relay's average budget, and the burst boost 1/(1-theta) is applied
    here.  At theta = 1 the relay never transmits and the rate is G1.
    """
    theta = np.asarray(theta, dtype=float)
    g1 = capacity(direct_snr)
    thetabar = 1.0 - theta
    full = thetabar <= 0.0
    safe = np.where(full, 1.0, thetabar)
    g2 = capacity(np.asarray(direct_snr) + np.asarray(relay_link_snr) / safe)
    out = np.where(full, g1, theta * g1 + thetabar * g2)
    return float(out) if out.ndim == 0 else out


def trial_mutual_info_uc2(theta, direct_snr, helper_link_snr):
    """Destination rate with all helpers transmitting the second slot.

    helper_link_snr has one column per helper and carries |H_dj|^2 times
    the helper's average burst budget; the shared boost 1/(1-theta)
    applies to every helper.
    """
    theta = np.asarray(theta, dtype=float)
    g1 = capacity(direct_snr)
    thetabar = 1.0 - theta
    full = thetabar <= 0.0
    safe = np.where(full, 1.0, thetabar)
    boosted = np.asarray(direct_snr) + np.asarray(helper_link_snr).sum(axis=1) / safe
    g2 = capacity(boosted)
    out = np.where(full, g1, theta * g1 + thetabar * g2)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MultihopSchedule:
    """Greedy decode schedule for a batch of trials.

    order[i, p] is the node slot (0 = source, 1.. = helpers in input
    order) transmitting from stage p on; fractions[i] sums to 1 and
    decoded[i] counts the nodes that actually transmit.  Positions at and
    beyond decoded[i] never got any time.
    """

    order: np.ndarray
    fractions: np.ndarray
    decoded: np.ndarray


def multihop_schedule(recv_amp_sq, recv_coef, rate, mode="accumulating"):
    """Greedy stage fractions for the 3+ hop decode-and-forward chain.

    recv_amp_sq is (n, H, L): |A|^2 at helper h from transmitter slot t
    (slot 0 is the source, slots 1..H the helpers in input order).
    recv_coef is (H, L) with entries Pbar_t / d(h, t)^gamma.  At each
    stage the undecided helper needing the smallest additional fraction
    decodes next, ties to the lowest helper index; the stage is capped at
    the remaining time when nobody can decode, which ends the schedule.
    In "accumulating" mode a helper keeps the information collected in
    earlier stages; in "per-fraction" mode it must decode within a single
    stage.

    Each stage works on helper-major (H, n) arrays and selects with
    ``np.where``.  A trial whose stage is capped has no time left, and
    nothing computed for it afterwards is read, so the stage updates run
    over all trials without masking them.  recv_amp_sq stored
    helper-major, e.g. ``x.transpose(2, 0, 1)`` of an (H, L, n) array x,
    is read contiguously.  The returned arrays are trial-major views of
    stage-major storage.
    """
    if mode not in ("accumulating", "per-fraction"):
        raise ValueError(f"unknown multihop mode {mode!r}")
    a = np.asarray(recv_amp_sq, dtype=float)
    coef = np.asarray(recv_coef, dtype=float)
    n, H, L = a.shape
    if H != L - 1 or coef.shape != (H, L):
        raise ValueError("recv_amp_sq must be (n, L-1, L) with matching recv_coef")
    # gain[h, t] = |A|^2 * Pbar_t / d(h, t)^gamma, the SNR at helper h from slot t.
    gain = np.moveaxis(a, 0, -1) * coef[:, :, None]
    order = np.zeros((L, n), dtype=np.int64)
    fractions = np.zeros((L, n))
    decoded = np.ones(n, dtype=np.int64)
    undecided = np.ones((H, n), dtype=bool)
    acc_info = np.zeros((H, n))
    remaining = np.ones(n)  # 0 exactly once a stage is capped
    helper_snr = gain[:, 0].copy()  # source transmits from stage 0
    for s in range(L - 1):
        rate_now = capacity(helper_snr)
        need = rate - acc_info if mode == "accumulating" else rate
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.where(rate_now > 0.0, need / rate_now, np.inf)
        cand = np.where(undecided, np.where(need <= 0.0, 0.0, cand), np.inf)
        # A running minimum over helpers, strict so that ties go to the lowest
        # index.  cand.argmin(axis=0) and cand.min(axis=0) give the same values
        # but the schedule then takes 173 rather than 143 ns per trial at H = 2
        # (n = 8192, 2 vCPUs, numpy 2.4).
        best = np.zeros(n, dtype=np.int64)
        best_theta = cand[0]
        for h in range(1, H):
            better = cand[h] < best_theta
            best = np.where(better, h, best)
            best_theta = np.where(better, cand[h], best_theta)
        decode = best_theta < remaining
        # A capped stage takes the remaining time, which a finished trial has
        # at 0; the trials that decode give up their fraction.
        fractions[s] = np.where(decode, best_theta, remaining)
        remaining = np.where(decode, remaining - best_theta, 0.0)
        if not decode.any():
            break
        if mode == "accumulating":
            acc_info += fractions[s] * rate_now
        order[s + 1] = np.where(decode, best + 1, 0)
        decoded += decode
        # The new decoder's links into every helper join their SNRs.  Row-wise
        # updates of undecided beat one broadcast compare (372 against 400 ns
        # per trial at H = 3).
        joining = gain[:, 1]
        undecided[0] &= best != 0
        for h in range(1, H):
            joining = np.where(best == h, gain[:, h + 1], joining)
            undecided[h] &= best != h
        helper_snr += joining
    fractions[L - 1] = remaining
    return MultihopSchedule(order=order.T, fractions=fractions.T, decoded=decoded)


def trial_mutual_info_multihop(schedule: MultihopSchedule, dest_amp_sq, dest_coef):
    """Destination rate sum_l theta_l * C(stage-l SNR) for the schedule.

    dest_amp_sq is (n, L) with |A|^2 of destination links by node slot;
    dest_coef[t] = Pbar_t / d(d, t)^gamma.  A node entering at position p
    transmits for the remaining time there, so its received power is
    boosted by 1 / remaining.
    """
    a = np.asarray(dest_amp_sq, dtype=float)
    coef = np.asarray(dest_coef, dtype=float)
    n, L = a.shape
    fr = schedule.fractions
    info = np.zeros(n)
    snr = np.zeros(n)
    remaining = np.ones(n)
    rows = np.arange(n)
    for p in range(L):
        active = (p < schedule.decoded) & (remaining > 0.0)
        slot = schedule.order[:, p]
        boost = np.where(active, remaining, 1.0)
        snr = snr + np.where(active, a[rows, slot] * coef[slot] / boost, 0.0)
        theta_p = fr[:, p]
        info = info + np.where(theta_p > 0.0, theta_p * capacity(snr), 0.0)
        remaining = remaining - theta_p
    return info


def _leading_product(rate, burst_power, lambdas, dist_dest_pow):
    """(2^R-1)^L / (L! * Pbar^L) * prod_j d_dj^gamma / lambda_j, per row."""
    L = lambdas.shape[-1]
    eta = float(_pow2m1(rate))
    return (
        eta**L
        / (math.factorial(L) * _float_pow(burst_power, L))
        * np.prod(dist_dest_pow / lambdas, axis=-1)
    )


def ddf_bounds_rc(
    rate,
    burst_power,
    relay_ratio,
    dk_pow,
    dr_pow,
    rk_pow,
    theta_star=0.5,
    optimize=False,
) -> BoundPair:
    """High-SNR outage bounds for one dedicated DDF forwarder.

    relay_ratio is the relay budget over the user burst power; dk_pow,
    dr_pow and rk_pow are d^gamma of the source-destination,
    relay-destination and source-relay links.  rate and theta_star are
    scalars; the other arguments are scalars or columns over rows.  The
    lower bound is the two-branch diversity term; the upper bound
    multiplies it by a bracket evaluated at the split point theta_star
    (or its smallest value over the theta grid).
    """
    if not 0.0 < theta_star < 1.0:
        raise ValueError("theta_star must be in (0, 1)")
    burst_power, relay_ratio, dk_pow, dr_pow, rk_pow = _columns(
        burst_power, relay_ratio, dk_pow, dr_pow, rk_pow
    )
    eta = float(_pow2m1(rate))
    lower = eta**2 * dk_pow * dr_pow / (2.0 * relay_ratio * _float_pow(burst_power, 2))

    def bracket(ts):
        tb = 1.0 - ts
        first = _grid_pow(rate / tb, 2) * tb / eta**2
        second = (
            2.0
            * rk_pow
            * _grid_pow(rate / ts, 2)
            * relay_ratio
            / (dr_pow * eta**2)
        )
        return first + second

    if optimize:
        best = np.min([bracket(ts) for ts in _THETA_GRID], axis=0)
    else:
        best = bracket(theta_star)
    return BoundPair(lower=lower, upper=best * lower)


def ddf_bounds_uc2(
    rate,
    burst_power,
    lambdas,
    dist_dest_pow,
    dist_to_source_pow,
    theta_star=0.5,
    optimize=False,
) -> BoundPair:
    """High-SNR outage bounds for the shared-slot user-cooperation scheme.

    lambdas and dist_dest_pow cover the source plus its helpers (source
    first, lambda_k = 1, distances already raised to gamma);
    dist_to_source_pow are the helper-to-source d^gamma values.  Their
    last axis runs over the branches, any leading axis over rows, to
    which burst_power also broadcasts.
    """
    if not 0.0 < theta_star < 1.0:
        raise ValueError("theta_star must be in (0, 1)")
    burst_power, lam, dd, dk = _columns(burst_power, lambdas, dist_dest_pow, dist_to_source_pow)
    L = lam.shape[-1]
    eta = float(_pow2m1(rate))
    lower = _leading_product(rate, burst_power, lam, dd)
    helper_term = np.prod(dd[..., 1:] / lam[..., 1:], axis=-1)
    dk_sum = dk.sum(axis=-1)
    burst_lm2 = _float_pow(burst_power, L - 2)

    def k2(ts):
        tb = 1.0 - ts
        first = _grid_pow(rate / tb, L) * tb ** (L - 1) / eta**L
        second = (
            _grid_pow(rate / ts, 2)
            * dk_sum
            * math.factorial(L)
            * burst_lm2
            / (eta**L * helper_term)
        )
        return first + second

    if optimize:
        best = np.min([k2(ts) for ts in _THETA_GRID], axis=0)
    else:
        best = k2(theta_star)
    return BoundPair(lower=lower, upper=best * lower)


def _multihop_theta_vector(L, first_fraction=None):
    """Bound split fractions: equal 1/L by default, else (t, rest equal)."""
    if first_fraction is None:
        return np.full(L, 1.0 / L)
    t = float(first_fraction)
    out = np.full(L, (1.0 - t) / (L - 1))
    out[0] = t
    return out


def ddf_bounds_multihop(
    rate,
    burst_power,
    lambdas,
    dist_dest_pow,
    dist_to_source_pow,
    optimize=False,
) -> BoundPair:
    """High-SNR outage bounds for the 3+ hop chain.

    The upper bound is the diversity-L term times (K_c + K_d): K_c covers
    trials where every helper decodes under the split fractions (equal
    1/L, or the best first fraction on the grid when optimising), K_d
    those where none does.  Both products run over all helpers, so
    the decode order does not enter.  Arguments are shaped as for
    ``ddf_bounds_uc2``.
    """
    burst_power, lam, dd, dk = _columns(burst_power, lambdas, dist_dest_pow, dist_to_source_pow)
    L = lam.shape[-1]
    if L < 3:
        raise ValueError("multihop bounds need at least three hops")
    eta = float(_pow2m1(rate))
    lower = _leading_product(rate, burst_power, lam, dd)
    helper_prod = np.prod(dk / lam[..., 1:], axis=-1)

    def kc_kd(tvec):
        tail = 1.0 - np.cumsum(tvec)[:-1]
        thetabar_sum = np.concatenate(([1.0], tail))  # remaining time at each stage
        kc = _grid_pow(rate / tvec[-1], L) * float(np.prod(thetabar_sum)) / eta**L
        kd = _grid_pow(rate / tvec[0], L) * math.factorial(L) / eta**L * helper_prod
        return kc + kd

    if optimize:
        best = np.min([kc_kd(_multihop_theta_vector(L, t)) for t in _THETA_GRID], axis=0)
    else:
        best = kc_kd(_multihop_theta_vector(L))
    return BoundPair(lower=lower, upper=best * lower)


def clustering_condition(
    rate,
    burst_power,
    lambdas,
    dist_dest_pow,
    dist_to_source_pow,
    theta_star=0.5,
):
    """Whether helpers sit close enough for the full-diversity regime.

    Returns (satisfied, threshold) where the condition is
    sum_j d_jk^gamma <= threshold.  Only defined for three or more
    cooperating branches.
    """
    lam = np.asarray(lambdas, dtype=float)
    dd = np.asarray(dist_dest_pow, dtype=float)
    dk = np.asarray(dist_to_source_pow, dtype=float)
    L = lam.size
    if L <= 2:
        raise ValueError("clustering condition needs more than two branches")
    if not 0.0 < theta_star < 1.0:
        raise ValueError("theta_star must be in (0, 1)")
    tb = 1.0 - theta_star
    threshold = (
        float(_pow2m1(rate / tb)) ** (L - 2)
        / (math.factorial(L) * burst_power ** (L - 2))
        * float(np.prod(dd / lam))
        / dd[0]
    )
    return bool(dk.sum() <= threshold), float(threshold)
