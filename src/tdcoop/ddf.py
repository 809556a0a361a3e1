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

The trial-level functions take received SNRs |A|^2 * Pbar / d^gamma,
which the engine forms from its draws and the placement's d^gamma
table; the bound functions take the d^gamma values themselves.  All
trial-level functions are vectorised over trials.  The bound functions
return the high-SNR lower/upper pair built from the leading term of the
weighted-exponential-sum CDF and broadcast over a leading axis of rows,
so one call bounds one sweep cell at every point of the SNR grid.
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
    "trial_mutual_info_rc",
    "trial_mutual_info_uc2",
    "MultihopSchedule",
    "multihop_schedule",
    "trial_mutual_info_multihop",
    "ddf_bounds_rc",
    "ddf_bounds_uc2",
    "ddf_bounds_multihop",
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


def _best_split(bracket, default, optimize):
    """bracket at the default split point, or its smallest value over the theta grid."""
    if optimize:
        return np.min([bracket(ts) for ts in _THETA_GRID], axis=0)
    return bracket(default)


def _columns(*arrays):
    return tuple(np.asarray(a, dtype=float) for a in arrays)


def listen_fraction_rc(snr, rate):
    """Listen fraction of a single forwarder on its received SNR.

    min(1, R / C(snr)) with snr = |A|^2 * Pbar / d^gamma of the
    source-forwarder link; a zero SNR gives 1 (the forwarder never
    decodes and stays silent), and ``capacity`` rejects a negative one.
    The trial kernels call ``listen_fraction_uc2`` for one forwarder too;
    this is its one-forwarder reference.
    """
    c = capacity(np.asarray(snr, dtype=float))
    theta = np.where(c > 0.0, rate / np.maximum(c, 1e-300), np.inf)
    out = np.minimum(theta, 1.0)
    return float(out) if np.ndim(snr) == 0 else out


def listen_fraction_uc2(snr, rate):
    """Shared listen fraction when all forwarders must decode before relaying.

    snr has one column per forwarder, each its received SNR from the
    source; the slot boundary waits for the slowest forwarder, so the
    fraction is the per-forwarder maximum capped at 1.
    """
    # R / c rounds nonincreasing in c, so the slowest forwarder's capacity
    # gives the largest fraction.  Where c is 0, R / 1e-300 caps at 1 for
    # any rate of at least 1e-300; at rate 0 every fraction is 0.
    c = capacity(np.atleast_2d(np.asarray(snr, dtype=float))).min(axis=1)
    return np.minimum(rate / np.maximum(c, 1e-300), 1.0)


def trial_mutual_info_rc(theta, direct_snr, relay_link_snr):
    """Destination rate for one forwarder: theta*G1 + (1-theta)*G2.

    direct_snr is |H_dk|^2 * Pbar_k; relay_link_snr is |H_dr|^2 * P_r at
    the relay's average budget, and the burst boost 1/(1-theta) is applied
    here.  At theta = 1 the relay never transmits and the rate is G1.
    The trial kernels call ``trial_mutual_info_uc2`` for one forwarder
    too; this is its one-forwarder reference.
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
    """Greedy decode schedule for a batch of trials, trial-major (n, L):
    fractions[i, s] is the time of stage s in trial i (summing to 1) and
    stage_snr[i, s] the destination's SNR in it.  A stage after the
    schedule ends has no time and keeps the SNR before it."""

    fractions: np.ndarray
    stage_snr: np.ndarray


def multihop_schedule(recv_snr, dest_snr, rate, mode="accumulating"):
    """Greedy stages of the 3+ hop decode-and-forward chain and the
    destination's SNR in each.

    recv_snr is helper-major (H, L, n): the received SNR at helper h from
    transmitter slot t (slot 0 is the source, slots 1..H the helpers in
    input order) in each of n trials; dest_snr (n, L) is the
    destination's from each slot, at the sender's budget.  At each stage
    the undecided helper needing the smallest additional fraction decodes
    next, ties to the lowest node id (``Strategy`` stores helper sets
    sorted); the stage is capped at the remaining time when nobody can
    decode, which ends the schedule.  A new decoder adds its destination
    SNR over the time left at its entry (the burst boost) to every later
    stage; helpers hear it unboosted.  In "accumulating" mode a helper
    keeps the information collected in earlier stages; in "per-fraction"
    mode it must decode within a single stage.

    Each stage works on (H, n) arrays and selects with ``np.where``.  A
    running minimum over the helpers, seeded with the time left, gives the
    stage's fraction; the helper that last lowered it decodes.  A trial
    whose stage is capped has no time left, and nothing computed for it
    afterwards is read, so the stage updates run over all trials without
    masking them.  The last stage updates only what the destination
    hears.  The returned arrays are trial-major views of stage-major
    storage.
    """
    if mode not in ("accumulating", "per-fraction"):
        raise ValueError(f"unknown multihop mode {mode!r}")
    snr = np.asarray(recv_snr, dtype=float)
    dest = np.asarray(dest_snr, dtype=float)
    if snr.ndim != 3 or snr.shape[0] != snr.shape[1] - 1:
        raise ValueError("recv_snr must be (L-1, L, n)")
    H, L, n = snr.shape
    if dest.shape != (n, L):
        raise ValueError("dest_snr must be (n, L)")
    accumulating = mode == "accumulating"
    fractions = np.zeros((L, n))
    stage_snr = np.empty((L, n))
    stage_snr[0] = dest[:, 0]  # the source transmits from stage 0
    decided = np.zeros((H, n), dtype=bool)
    acc_info = np.zeros((H, n))
    remaining = np.ones(n)  # 0 exactly once a stage is capped
    helper_snr = snr[:, 0].copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(L - 1):
            rate_now = capacity(helper_snr)
            # The additional fraction each helper needs: 0 once it needs
            # nothing more, inf where it hears nothing or has decoded.
            if accumulating:
                need = rate - acc_info
                cand = np.where(need <= 0.0, 0.0, need / rate_now)
            elif rate > 0.0:
                cand = rate / rate_now
            else:
                cand = np.zeros((H, n))
            cand = np.where(decided, np.inf, cand)
            # Strict comparisons, so that ties go to the lowest index and a
            # helper that needs all the time left does not decode.  The stage
            # takes the smallest fraction, or the time left when nobody
            # decodes, so the trials that decode give up their fraction and
            # the capped ones reach 0 exactly.
            frac = fractions[s]
            frac[:] = remaining
            joins = []
            for h in range(H):
                joins.append(cand[h] < frac)
                np.minimum(frac, cand[h], out=frac)
            remaining -= frac
            if not remaining.any():
                stage_snr[s + 1 :] = stage_snr[s]
                break
            # The decoder is the last helper that lowered the minimum.
            later = joins[-1]
            for h in range(H - 2, -1, -1):
                joins[h], later = joins[h] > later, later | joins[h]
            # The decoder's links into the destination and, before the last
            # stage, into every helper join their SNRs.
            last = s == L - 2
            dest_joining, joining = dest[:, 1], snr[:, 1]
            for h in range(1, H):
                dest_joining = np.where(joins[h], dest[:, h + 1], dest_joining)
                if not last:
                    joining = np.where(joins[h], snr[:, h + 1], joining)
            if not last:
                helper_snr += joining
                for h in range(H):
                    decided[h] |= joins[h]
                if accumulating:
                    rate_now *= frac
                    acc_info += rate_now
            # The new decoder transmits for the time left at its entry.
            boost = np.where(remaining > 0.0, dest_joining / remaining, 0.0)
            np.add(stage_snr[s], boost, out=stage_snr[s + 1])
    fractions[L - 1] = remaining
    return MultihopSchedule(fractions=fractions.T, stage_snr=stage_snr.T)


def trial_mutual_info_multihop(schedule: MultihopSchedule):
    """Destination rate sum_s theta_s * C(stage-s SNR) for the schedule;
    a stage without time adds nothing."""
    fractions = schedule.fractions.T
    terms = np.where(fractions > 0.0, fractions * capacity(schedule.stage_snr.T), 0.0)
    info = terms[0].copy()
    for term in terms[1:]:
        info += term
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


def ddf_bounds_rc(rate, burst_power, relay_ratio, dk_pow, dr_pow, rk_pow, optimize=False) -> BoundPair:
    """High-SNR outage bounds for one dedicated DDF forwarder.

    relay_ratio is the relay budget over the user burst power; dk_pow,
    dr_pow and rk_pow are d^gamma of the source-destination,
    relay-destination and source-relay links.  rate is a scalar; the
    other arguments are scalars or columns over rows.  The lower bound is
    the two-branch diversity term; the upper bound multiplies it by a
    bracket evaluated at the split point 1/2 (or its smallest value over
    the theta grid when optimising).
    """
    burst_power, relay_ratio, dk_pow, dr_pow, rk_pow = _columns(
        burst_power, relay_ratio, dk_pow, dr_pow, rk_pow
    )
    eta = float(_pow2m1(rate))
    lower = eta**2 * dk_pow * dr_pow / (2.0 * relay_ratio * _float_pow(burst_power, 2))
    if eta == 0.0:  # rate 0 never fails; the brackets below divide by eta
        return BoundPair(lower=lower, upper=lower)

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

    return BoundPair(lower=lower, upper=_best_split(bracket, 0.5, optimize) * lower)


def ddf_bounds_uc2(
    rate, burst_power, lambdas, dist_dest_pow, dist_to_source_pow, optimize=False
) -> BoundPair:
    """High-SNR outage bounds for the shared-slot user-cooperation scheme.

    lambdas and dist_dest_pow cover the source plus its helpers (source
    first, lambda_k = 1, distances already raised to gamma);
    dist_to_source_pow are the helper-to-source d^gamma values.  Their
    last axis runs over the branches, any leading axis over rows, to
    which burst_power also broadcasts.  The split point is 1/2, or the
    best one on the theta grid when optimising.
    """
    burst_power, lam, dd, dk = _columns(burst_power, lambdas, dist_dest_pow, dist_to_source_pow)
    L = lam.shape[-1]
    eta = float(_pow2m1(rate))
    lower = _leading_product(rate, burst_power, lam, dd)
    if eta == 0.0:  # rate 0 never fails; the brackets below divide by eta
        return BoundPair(lower=lower, upper=lower)
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

    return BoundPair(lower=lower, upper=_best_split(k2, 0.5, optimize) * lower)


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
    if eta == 0.0:  # rate 0 never fails; the brackets below divide by eta
        return BoundPair(lower=lower, upper=lower)
    helper_prod = np.prod(dk / lam[..., 1:], axis=-1)

    def kc_kd(tvec):
        tail = 1.0 - np.cumsum(tvec)[:-1]
        thetabar_sum = np.concatenate(([1.0], tail))  # remaining time at each stage
        kc = _grid_pow(rate / tvec[-1], L) * float(np.prod(thetabar_sum)) / eta**L
        kd = _grid_pow(rate / tvec[0], L) * math.factorial(L) / eta**L * helper_prod
        return kc + kd

    best = _best_split(lambda t: kc_kd(_multihop_theta_vector(L, t)), None, optimize)
    return BoundPair(lower=lower, upper=best * lower)

