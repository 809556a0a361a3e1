"""Independent oracles and output checks for the benchmark workloads.

Nothing here imports tdcoop.  Every expected value is recomputed from the
documented model (README: "Power cost model", the closed-form direct
link, the rc-ddf outage event), so a fault in the program cannot hide
inside its own check.  Each check returns a list of failures naming the
points it finds wrong; an empty list means the check passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# Tolerances.  Monte Carlo against an exact value: |z| <= MC_Z with the
# binomial standard error ci95 / 1.96, which over-states the error of the
# stratified pooled estimate.  A 5 SE shift must fail.
MC_Z = 4.5
SANDWICH_SE = 3.0  # slack of the bound sandwich, as in acceptance 6
REL_TOL = 1e-9  # for quantities the CSV prints with 12 significant digits


def pow2m1(x: float) -> float:
    """2**x - 1 without cancellation near 0."""
    return math.expm1(x * LN2)


def mac_cell_outage(rate: float, d: float, gamma: float, num_users: int, user_power: float) -> float:
    """Direct-link outage 1 - exp(-(2^R - 1) d^gamma / (K P))."""
    return -math.expm1(-pow2m1(rate) * d**gamma / (num_users * user_power))


def mac_area_mean(rate, distances, gamma, num_users, user_power) -> float:
    """Mean direct-link outage over the user-to-destination distances."""
    return float(
        np.mean([mac_cell_outage(rate, d, gamma, num_users, user_power) for d in distances])
    )


# ---------------------------------------------------------------------------
# Power cost model, recomputed from the README's rules: a source encodes its
# own message, a DDF forwarder decodes and re-encodes each message it
# forwards, an AF forwarder does neither, the destination is not charged,
# and a node that processes nothing pays no overhead.


def _processing(n_enc, n_dec, rate, eta, delta, overhead):
    if n_enc == 0 and n_dec == 0:
        return 0.0
    return overhead + (eta * n_enc + delta * n_dec) * rate


def total_power_db(name, num_users, user_power, rate, eta, delta, relay_factor, overhead=0.0):
    """ptot_db of a strategy whose user-cooperation helper sets are all
    other users (the default), so every user forwards for K - 1 others."""
    K = num_users
    ddf = name.endswith("-ddf")
    forwarded = K - 1 if name.startswith("uc") and ddf else 0
    total = K * (
        user_power + _processing(1 + forwarded, forwarded, rate, eta, delta, overhead)
    )
    if name.startswith("rc-"):
        total += relay_factor * user_power
        if ddf:
            total += _processing(K, K, rate, eta, delta, overhead)
    return 10.0 * math.log10(total)


# ---------------------------------------------------------------------------
# rc-ddf outage by quadrature.  With A_rk, A_dk, A_dr unit exponentials,
# burst Pb = K P on the source, relay budget Pr:
#   theta = min(1, R / C(A_rk Pb / d_rk^g)),  s = A_dk Pb / d_dk^g,
#   MI = theta C(s) + (1 - theta) C(s + A_dr Pr / (d_dr^g (1 - theta))).
# Outage MI < R is A_dr < t(A_rk, A_dk), so P = E[1 - exp(-t+)].  For
# A_rk <= a0 the relay never listens long enough (theta = 1) and the
# outage is C(s) < R alone; above a0 the inner variable runs over
# A_dk < b0 = (2^R - 1) d_dk^g / Pb, beyond which C(s) >= R never fails.

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(n: int, lo: float, hi: float):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    x, w = _GL_CACHE[n]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _rc_ddf_threshold(a_rk, a_dk, rate, burst, relay_budget, d_rk_pow, d_dk_pow, d_dr_pow):
    """A_dr below which the trial is in outage, for theta < 1 (a_rk > a0)."""
    theta = rate / (np.log1p(a_rk * burst / d_rk_pow) / LN2)
    s = a_dk * burst / d_dk_pow
    c1 = np.log1p(s) / LN2
    expo = (rate - theta * c1) / (1.0 - theta)
    with np.errstate(over="ignore"):
        need = (1.0 - theta) * (np.expm1(expo * LN2) - s)
    return need * d_dr_pow / relay_budget


def rc_ddf_cell_outage(rate, burst, relay_budget, d_rk, d_dk, d_dr, gamma, nodes=200):
    """Exact rc-ddf outage of one user by piecewise Gauss-Legendre quadrature.

    The outer integral over A_rk > a0 is mapped to u = 1 - exp(-(A_rk - a0))
    and split on a geometric grid towards u = 0, where theta -> 1 makes the
    integrand steep; the inner integral over A_dk in [0, b0] is smooth.
    """
    d_rk_pow, d_dk_pow, d_dr_pow = d_rk**gamma, d_dk**gamma, d_dr**gamma
    a0 = pow2m1(rate) * d_rk_pow / burst
    b0 = pow2m1(rate) * d_dk_pow / burst
    direct_only = -math.expm1(-b0)
    p = -math.expm1(-a0) * direct_only
    b, wb = _gauss_legendre(nodes, 0.0, b0)
    wb = wb * np.exp(-b)
    edges = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 25)))
    outer = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        u, wu = _gauss_legendre(nodes, lo, hi)
        a = a0 - np.log1p(-u)
        a = np.where(u >= 1.0, np.inf, a)
        keep = np.isfinite(a) & (a > a0)
        t = _rc_ddf_threshold(
            a[keep, None], b[None, :], rate, burst, relay_budget, d_rk_pow, d_dk_pow, d_dr_pow
        )
        inner = (-np.expm1(-np.maximum(t, 0.0))) @ wb
        outer += float(inner @ wu[keep])
    return p + math.exp(-a0) * outer


def polar_positions(specs):
    """User coordinates from (radius, angle in degrees) pairs."""
    return [(r * math.cos(math.radians(deg)), r * math.sin(math.radians(deg))) for r, deg in specs]


def rc_ddf_outage(rate, user_power, users, relay, gamma, num_users, relay_factor=0.5):
    """User-averaged rc-ddf outage on a fixed placement (destination at 0)."""
    burst = num_users * user_power
    relay_budget = relay_factor * user_power
    d_dr = math.hypot(*relay)
    return float(
        np.mean(
            [
                rc_ddf_cell_outage(
                    rate,
                    burst,
                    relay_budget,
                    math.hypot(x - relay[0], y - relay[1]),
                    math.hypot(x, y),
                    d_dr,
                    gamma,
                )
                for x, y in users
            ]
        )
    )


# ---------------------------------------------------------------------------
# Row-level checks.  A row is a dict with the CSV's columns already parsed:
# strategy, snr_db, ptot_db, outage, ci95, bound_lower, bound_upper,
# trials, ceiling_flag (outage/ci95 are None in bounds-only rows).


@dataclass(frozen=True)
class Failure:
    """A failed check and the (strategy, snr_db) points it names."""

    check: str
    points: tuple
    detail: str


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def halfwidth(p: float, n: int) -> float:
    return 1.96 * math.sqrt(p * (1.0 - p) / n)


def zscore(p_hat: float, ci95: float, expected: float) -> float:
    se = ci95 / 1.96
    if se == 0.0:
        return 0.0 if p_hat == expected else math.inf
    return (p_hat - expected) / se


def check_rows(rows, ptot_expected, bounds_only: bool):
    """ceiling_flag 0, ptot_db on the cost model (unless ptot_expected is
    None), outage in [0, 1] with the normal-interval half-width (or empty
    with zero trials in bounds-only rows)."""
    out = []
    for r in rows:
        key = (r["strategy"], r["snr_db"])
        if r["ceiling_flag"] != 0:
            out.append(Failure("ceiling", (key,), "stopped at the trial ceiling"))
        if ptot_expected is not None:
            want = ptot_expected(r["strategy"], r["snr_db"])
            if not abs(r["ptot_db"] - want) <= REL_TOL * max(1.0, abs(want)):
                out.append(Failure("ptot_db", (key,), f"{r['ptot_db']!r} != {want!r}"))
        if bounds_only:
            if r["outage"] is not None or r["ci95"] is not None or r["trials"] != 0:
                out.append(Failure("bounds-only", (key,), "outage columns filled"))
            continue
        p, ci, n = r["outage"], r["ci95"], r["trials"]
        if p is None or not 0.0 <= p <= 1.0 or n < 1:
            out.append(Failure("outage-range", (key,), f"outage {p!r} over {n} trials"))
            continue
        want_ci = halfwidth(p, n)
        if not (close(ci, want_ci) or abs(ci - want_ci) <= 1e-15):
            out.append(Failure("ci95", (key,), f"{ci!r} != {want_ci!r}"))
    return out


def check_mc_close(rows, expected, name):
    """Monte Carlo estimates within MC_Z standard errors of exact values."""
    out = []
    for r in rows:
        want = expected(r["snr_db"])
        z = zscore(r["outage"], r["ci95"], want)
        if not abs(z) <= MC_Z:
            key = (r["strategy"], r["snr_db"])
            out.append(Failure(name, (key,), f"outage {r['outage']:.6g} vs {want:.6g}: z = {z:.2f}"))
    return out


def check_bounds_equal(rows, expected, name):
    """Both bound columns equal an exact value to REL_TOL."""
    out = []
    for r in rows:
        want = expected(r["snr_db"])
        for col in ("bound_lower", "bound_upper"):
            if not close(r[col], want):
                key = (r["strategy"], r["snr_db"])
                out.append(Failure(name, (key,), f"{col} {r[col]!r} != {want!r}"))
    return out


def check_lower_bound_decay(rows, order):
    """Adjacent lower bounds fall exactly as P^-L: lower(x) / lower(x + dx)
    equals 10^(L dx / 10) to REL_TOL."""
    out = []
    pts = sorted(rows, key=lambda r: r["snr_db"])
    for a, b in zip(pts, pts[1:]):
        want = 10.0 ** (order * (b["snr_db"] - a["snr_db"]) / 10.0)
        got = a["bound_lower"] / b["bound_lower"]
        if not close(got, want):
            points = ((a["strategy"], a["snr_db"]), (b["strategy"], b["snr_db"]))
            out.append(
                Failure("lower-decay", points, f"ratio {got!r} != 10^({order}*dx/10) = {want!r}")
            )
    return out


def fitted_slope(points) -> float:
    """Least-squares slope of -log10(outage) against SNR_dB / 10."""
    x = np.array([s / 10.0 for s, _ in points])
    y = np.array([-math.log10(p) for _, p in points])
    return float(np.polyfit(x, y, 1)[0])


def check_slope(rows, low=None, high=None):
    """Fitted decay order of one strategy within (low, high]."""
    pts = sorted((r["snr_db"], r["outage"]) for r in rows)
    points = tuple((r["strategy"], r["snr_db"]) for r in rows)
    if any(p <= 0.0 for _, p in pts):
        return [Failure("slope", points, "zero outage in the fit window")]
    s = fitted_slope(pts)
    if (low is not None and not s > low) or (high is not None and not s <= high):
        return [Failure("slope", points, f"slope {s:.3f} outside ({low}, {high}]")]
    return []


def check_sandwich(row):
    """Estimate inside its bound pair with SANDWICH_SE standard errors of slack."""
    se = row["ci95"] / 1.96
    lo, hi = row["bound_lower"] - SANDWICH_SE * se, row["bound_upper"] + SANDWICH_SE * se
    if lo <= row["outage"] <= hi:
        return []
    key = (row["strategy"], row["snr_db"])
    return [Failure("sandwich", (key,), f"{row['outage']:.6g} not in [{lo:.6g}, {hi:.6g}]")]


if __name__ == "__main__":
    # Recompute the precomputable oracle values:  python3 perfbench/checks.py
    import workloads

    print(f"mac, acceptance 3 reference (K=3, d=1, R=0.25, P=1): {mac_cell_outage(0.25, 1.0, 4.0, 3, 1.0):.6f}")
    users = workloads.edge_users()
    for name, rate, grid in workloads.EDGE_SWEEPS:
        for snr in grid:
            p = 10.0 ** (snr / 10.0)
            if name == "mac":
                dists = [math.hypot(x, y) for x, y in users]
                exact = mac_area_mean(rate, dists, workloads.GAMMA, workloads.NUM_USERS, p)
            elif name == "rc-ddf":
                exact = rc_ddf_outage(rate, p, users, workloads.RELAY, workloads.GAMMA, workloads.NUM_USERS)
            else:
                continue
            print(f"edge-highsnr {name} at {snr:g} dB (R = {rate:g}): {exact:.6e}")
