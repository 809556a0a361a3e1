"""End-to-end acceptance benchmarks for the package.

Each check prints one live PASS/FAIL line with its measured quantities
(bypassing capture), so a full run documents how the build performed.
The Monte Carlo checks run on frozen seeds and fixed hand-picked
geometries; every tolerance is stated inline.

Budget note: everything here is sized for a single CPU core.  The
slope benchmark is the expensive part (about three minutes); it is
computed once in a module fixture and shared by the slope and bound
sandwich checks.
"""

import decimal
import math
import time

import numpy as np
import pytest
import yaml

from tdcoop.cli import main
from tdcoop.ddf import listen_fraction_rc
from tdcoop.harness import (
    ExperimentConfig,
    mac_outage,
    run_experiment,
    sweep_fixed_placement,
)
from tdcoop.mathcore import hypoexp_cdf
from tdcoop.network import DESTINATION, RELAY, GeometryParams, NodePlacement, user_id
from tdcoop.power import PowerConfig, total_power, user_burst_power
from tdcoop.strategies import parse_strategy

from oracles import clustering_condition, diversity_slope, listen_fraction_cdf, weighted_exp_sum_sample

GP = GeometryParams()
GAMMA = GP.path_loss_exponent


def polar_placement(specs):
    """Users at (radius, angle degrees); relay and destination at defaults."""
    pos = {DESTINATION: (0.0, 0.0), RELAY: (0.5, 0.0)}
    for k, (r, deg) in zip((1, 2, 3), specs):
        a = math.radians(deg)
        pos[user_id(k)] = (r * math.cos(a), r * math.sin(a))
    return NodePlacement(params=GP, positions=pos)


# Frozen benchmark geometries.  The slope benchmark wants the users in a
# tight cluster near the sector rim: clustering keeps the decode-and-
# forward onset early, the rim maximises direct-path loss so that the
# amplify-and-forward sweep still produces outage events at 45 dB.
EDGE_CLUSTER = ((1.0, 29.0), (0.99, 31.0), (0.98, 33.0))
SPREAD_USERS = ((0.95, 5.0), (0.95, 30.0), (0.95, 55.0))
TIGHT_CLUSTER = ((0.9, 30.05), (0.9, 31.3), (0.9, 32.55))
UNIT_CIRCLE = ((1.0, 10.0), (1.0, 30.0), (1.0, 50.0))

SEED = 2024
GRID_45 = tuple(float(x) for x in range(0, 50, 5))
WINDOW = (30.0, 45.0)  # top 15 dB of the 0-45 sweep

# (strategy, spectral efficiency, trial ceiling); index = stream index.
# Rates are per-strategy: the DDF sweeps need a high rate so their full-
# diversity onset is not already saturated below 30 dB, while AF pays a
# 2^(L R) combining penalty and needs a low rate to keep 45 dB measurable.
SLOPE_BENCH = (
    ("rc-ddf", 9.0, 10**7),
    ("uc2-ddf", 9.0, 10**7),
    ("uc3-ddf", 9.0, 3 * 10**7),
    ("uc2-af", 5.0, 10**7),
    ("uc3-af", 4.0, 10**8),
)


def tell(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def window_points(grid, ests, lo=WINDOW[0], hi=WINDOW[1]):
    return [(s, e) for s, e in zip(grid, ests) if lo <= s <= hi]


def slope_of(grid, ests):
    pts = [(s, e.p_hat) for s, e in window_points(grid, ests) if e.p_hat > 0]
    return diversity_slope(pts)


@pytest.fixture(scope="module")
def slope_sweeps():
    pl = polar_placement(EDGE_CLUSTER)
    out = {}
    t0 = time.perf_counter()
    for idx, (name, rate, ceiling) in enumerate(SLOPE_BENCH):
        out[name] = sweep_fixed_placement(
            parse_strategy(name, 3), pl, PowerConfig(rate=rate), GRID_45, SEED,
            strategy_index=idx, trial_ceiling=ceiling,
        )
    out["elapsed"] = time.perf_counter() - t0
    return out


def partial_fractions_100_digits(weights, eta):
    """sum_l C_l (1 - exp(-eta/c_l)) in 100-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        c = [decimal.Decimal(float(w)) for w in weights]
        x = decimal.Decimal(float(eta))
        total = decimal.Decimal(0)
        for l, cl in enumerate(c):
            coeff = (-cl) ** (len(c) - 1)
            for j, cj in enumerate(c):
                if j != l:
                    coeff /= cj - cl
            total += coeff * (1 - (-x / cl).exp())
        return float(total)


def test_hypoexp_cdf_matches_empirical_sampling(capsys):
    """CDF against 1e6-sample empirical CDFs, orders 1..4, and against the
    partial fractions in exact-enough arithmetic at small eta."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_sup = 0.0
    worst_rel = 0.0
    for L in (1, 2, 3, 4):
        weights = tuple(rng.uniform(0.2, 4.0, size=L).tolist())
        small = min(weights) * np.array([1e-8, 1e-5, 1e-2])
        exact = np.array([partial_fractions_100_digits(weights, e) for e in small])
        worst_rel = max(worst_rel, float(np.max(np.abs(hypoexp_cdf(weights, small) / exact - 1.0))))
        samples = np.sort(weighted_exp_sum_sample(weights, rng, 10**6))
        grid = samples[:: len(samples) // 500]
        emp = np.searchsorted(samples, grid, side="right") / len(samples)
        worst_sup = max(worst_sup, float(np.max(np.abs(hypoexp_cdf(weights, grid) - emp))))
    dt = time.perf_counter() - t0
    ok = worst_sup <= 3e-3 and worst_rel <= 1e-10 and dt < 10.0
    tell(
        capsys,
        f"[acceptance 1] hypoexp sampling oracle: {'PASS' if ok else 'FAIL'} "
        f"(sup-norm {worst_sup:.2e} <= 3e-3, small-eta rel err {worst_rel:.1e} <= 1e-10, "
        f"{dt:.1f}s < 10s)",
    )
    assert worst_sup <= 3e-3
    assert worst_rel <= 1e-10
    assert dt < 10.0


def test_listen_fraction_distribution_law(capsys):
    """Empirical listen-fraction CDF against the analytic law, three setups."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d_rk, pbar, rate in ((0.25, 100.0, 0.25), (0.5, 10.0, 1.0), (0.8, 50.0, 2.0)):
        theta = np.sort(listen_fraction_rc(rng.exponential(size=10**6) * pbar / d_rk**GAMMA, rate))
        grid = np.linspace(0.02, 0.998, 250)
        emp = np.searchsorted(theta, grid, side="right") / theta.size
        law = listen_fraction_cdf(grid, d_rk**GAMMA, pbar, rate)
        worst = max(worst, float(np.max(np.abs(emp - law))))
    dt = time.perf_counter() - t0
    ok = worst <= 3e-3 and dt < 10.0
    tell(
        capsys,
        f"[acceptance 2] listen-fraction law: {'PASS' if ok else 'FAIL'} "
        f"(sup-norm {worst:.2e} <= 3e-3 over 3 setups, {dt:.1f}s < 10s)",
    )
    assert worst <= 3e-3
    assert dt < 10.0


def test_direct_link_closed_form_sweep(capsys):
    """Monte Carlo within its own 95% interval of the closed form, 0-20 dB."""
    t0 = time.perf_counter()
    pl = polar_placement(UNIT_CIRCLE)
    grid = tuple(float(x) for x in range(0, 22, 2))
    ests = sweep_fixed_placement(parse_strategy("mac", 3), pl, PowerConfig(), grid, seed=7)
    worst_z = 0.0
    for snr, est in zip(grid, ests):
        cf = mac_outage(PowerConfig().rate, 3 * 10 ** (snr / 10.0), 1.0**GAMMA)
        worst_z = max(worst_z, abs(est.p_hat - cf) / est.ci95)
    ref_cf = mac_outage(PowerConfig().rate, 3 * 1.0, 1.0**GAMMA)
    ref_ok = abs(ref_cf - 0.061121) < 5e-7 and abs(ests[0].p_hat - ref_cf) <= ests[0].ci95
    dt = time.perf_counter() - t0
    ok = worst_z <= 1.0 and ref_ok and dt < 30.0
    tell(
        capsys,
        f"[acceptance 3] direct-link closed form: {'PASS' if ok else 'FAIL'} "
        f"(max |error|/CI95 {worst_z:.2f} <= 1 over 11 points, reference 0.061121 "
        f"covered={ref_ok}, {dt:.1f}s < 30s)",
    )
    assert worst_z <= 1.0
    assert ref_ok
    assert dt < 30.0


def test_high_snr_diversity_slopes(capsys, slope_sweeps):
    """Fitted decay orders over 30-45 dB on the fixed rim cluster."""
    checks = [
        ("rc-ddf", slope_of(GRID_45, slope_sweeps["rc-ddf"]), 1.75, 2.25),
        ("uc3-ddf", slope_of(GRID_45, slope_sweeps["uc3-ddf"]), 2.75, 3.25),
        ("uc2-af", slope_of(GRID_45, slope_sweeps["uc2-af"]), None, 2.25),
        ("uc3-af", slope_of(GRID_45, slope_sweeps["uc3-af"]), 2.75, 3.25),
    ]
    dt = slope_sweeps["elapsed"]
    ok = dt < 600.0
    parts = []
    for name, got, lo, hi in checks:
        hit = (lo is None or got >= lo) and got <= hi
        ok = ok and hit
        bound = f"<={hi}" if lo is None else f"in [{lo},{hi}]"
        parts.append(f"{name}={got:.3f} {bound}")
    tell(
        capsys,
        f"[acceptance 4] diversity slopes: {'PASS' if ok else 'FAIL'} "
        f"({', '.join(parts)}, {dt:.0f}s < 600s)",
    )
    for name, got, lo, hi in checks:
        if lo is not None:
            assert got >= lo, name
        assert got <= hi, name
    assert dt < 600.0


def test_user_separation_changes_measured_slope(capsys):
    """Shared-slot cooperation: spread users decay near order 2 at high SNR,
    a tight cluster exceeds 2.5 already at mid SNR while the closeness
    condition holds at every window point."""
    t0 = time.perf_counter()
    spread = sweep_fixed_placement(
        parse_strategy("uc2-ddf", 3), polar_placement(SPREAD_USERS),
        PowerConfig(rate=7.0), GRID_45, SEED, trial_ceiling=10**7,
    )
    spread_slope = slope_of(GRID_45, spread)

    pl = polar_placement(TIGHT_CLUSTER)
    clust = sweep_fixed_placement(
        parse_strategy("uc2-ddf", 3), pl, PowerConfig(rate=4.0), GRID_45, SEED,
        trial_ceiling=10**7,
    )
    cl_pts = [(s, e.p_hat) for s, e in zip(GRID_45, clust) if 10 <= s <= 25 and e.p_hat > 0]
    clust_slope = diversity_slope(cl_pts)

    strategy = parse_strategy("uc2-ddf", 3)
    helpers = [user_id(j) for j in strategy.helpers(1)]
    dd = np.array(
        [pl.distance(DESTINATION, user_id(1)) ** GAMMA]
        + [pl.distance(DESTINATION, h) ** GAMMA for h in helpers]
    )
    dk = np.array([pl.distance(h, user_id(1)) ** GAMMA for h in helpers])
    condition = all(
        clustering_condition(
            4.0,
            user_burst_power(strategy, PowerConfig(rate=4.0).with_user_power(10 ** (s / 10)), 1),
            np.ones(3), dd, dk,
        )[0]
        for s in GRID_45
        if 10 <= s <= 25
    )
    dt = time.perf_counter() - t0
    ok = abs(spread_slope - 2.0) <= 0.3 and clust_slope > 2.5 and condition and dt < 600.0
    tell(
        capsys,
        f"[acceptance 5] separation vs slope: {'PASS' if ok else 'FAIL'} "
        f"(spread {spread_slope:.3f} in [1.7,2.3] over 30-45 dB, cluster "
        f"{clust_slope:.3f} > 2.5 over 10-25 dB, condition holds={condition}, "
        f"{dt:.0f}s < 600s)",
    )
    assert abs(spread_slope - 2.0) <= 0.3
    assert clust_slope > 2.5
    assert condition
    assert dt < 600.0


def test_analytic_bounds_sandwich_monte_carlo(capsys, slope_sweeps):
    """Estimates sit between the bound pairs (3 standard errors of slack)
    at the two highest SNR points of the slope benchmark."""
    ok = True
    parts = []
    for name in ("rc-ddf", "uc2-ddf", "uc2-af", "uc3-af"):
        for snr, est in window_points(GRID_45, slope_sweeps[name])[-2:]:
            se = est.ci95 / 1.96
            hit = est.bounds.lower - 3 * se <= est.p_hat <= est.bounds.upper + 3 * se
            ok = ok and hit
            parts.append(f"{name}@{snr:g}dB {'ok' if hit else 'MISS'}")
    tell(
        capsys,
        f"[acceptance 6] bound sandwich: {'PASS' if ok else 'FAIL'} ({', '.join(parts)})",
    )
    for name in ("rc-ddf", "uc2-ddf", "uc2-af", "uc3-af"):
        for snr, est in window_points(GRID_45, slope_sweeps[name])[-2:]:
            se = est.ci95 / 1.96
            assert est.bounds.lower - 3 * se <= est.p_hat, (name, snr)
            assert est.p_hat <= est.bounds.upper + 3 * se, (name, snr)


def crossing_bracket(p_hat, level=1e-2):
    """Index i of the first grid step whose outage falls through level."""
    for i in range(len(p_hat) - 1):
        a, b = p_hat[i], p_hat[i + 1]
        if a >= level > b and b > 0:
            return i
    return None


def interpolate_crossing(ptot_db, p_hat, level=1e-2):
    """Total power (dB) where the outage curve crosses level, log-linear."""
    i = crossing_bracket(p_hat, level)
    if i is None:
        return None
    a, b = p_hat[i], p_hat[i + 1]
    xa, xb = ptot_db[i], ptot_db[i + 1]
    return xa + (math.log10(level) - math.log10(a)) * (xb - xa) / (
        math.log10(b) - math.log10(a)
    )


def crossing_halfwidth(ptot_db, p_hat, ci95, level=1e-2):
    """95 % half-width (dB) of interpolate_crossing from the point CIs.

    With l = log10(outage), the crossing is x* = x_a + t (x_b - x_a),
    t = (log10(level) - l_a) / (l_b - l_a).  Each point's CI maps to
    dl = ci95 / (p ln 10), and |dx*/dl_a| = (1 - t) / |s|,
    |dx*/dl_b| = t / |s| with s = (l_b - l_a) / (x_b - x_a) the local
    slope of the curve, so the point CIs divided by the slope combine in
    quadrature.
    """
    i = crossing_bracket(p_hat, level)
    if i is None:
        return None
    la, lb = math.log10(p_hat[i]), math.log10(p_hat[i + 1])
    slope = abs(lb - la) / (ptot_db[i + 1] - ptot_db[i])
    t = (math.log10(level) - la) / (lb - la)
    dla = ci95[i] / (p_hat[i] * math.log(10.0))
    dlb = ci95[i + 1] / (p_hat[i + 1] * math.log(10.0))
    return math.hypot((1.0 - t) * dla, t * dlb) / slope


def mac_area_outage(p, rate, num_users):
    """Direct-link outage averaged over the user density of sample_placement.

    For gamma = 4 a user at distance r is in outage with probability
    1 - exp(-a r^4), a = (2^R - 1) / (K P).  The radius density
    2r / (rho^2 - r0^2) on [r0, rho] makes u = r^2 uniform on
    [r0^2, rho^2], and E[exp(-a u^2)] is an error-function integral:
    sqrt(pi) / (2 sqrt(a)) * (erf(sqrt(a) rho^2) - erf(sqrt(a) r0^2)) / (rho^2 - r0^2).
    """
    assert GAMMA == 4.0
    r0sq, rhosq = GP.exclusion_radius**2, GP.sector_radius**2
    s = math.sqrt(math.expm1(rate * math.log(2.0)) / (num_users * p))
    mean_success = (
        math.sqrt(math.pi) / (2.0 * s)
        * (math.erf(s * rhosq) - math.erf(s * r0sq)) / (rhosq - r0sq)
    )
    return 1.0 - mean_success


def mac_area_crossing(rate, num_users, level=1e-2):
    """Per-user transmit power P* where mac_area_outage equals level.

    The outage falls strictly in P, so bisection on log P finds the root.
    """
    lo, hi = 1e-3, 1e3
    while hi / lo > 1.0 + 1e-12:
        mid = math.sqrt(lo * hi)
        if mac_area_outage(mid, rate, num_users) > level:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


COST_RATE = 0.25
COST_ETAS = (0.01, 0.5, 1.0)


@pytest.fixture(scope="module")
def processing_cost_curves():
    names = ("mac", "rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc3-af")
    grid = tuple(float(x) for x in range(-12, 14, 2))
    cfg = ExperimentConfig(
        geometry=GP,
        power=PowerConfig(rate=COST_RATE, relay_power_factor=0.5),
        strategies=tuple(parse_strategy(n, 3) for n in names),
        snr_db=grid,
        num_placements=100,
        master_seed=SEED,
    )
    t0 = time.perf_counter()
    curves, cis = {}, {}
    for row in run_experiment(cfg):
        curves.setdefault(row["strategy"], []).append(row["outage"])
        cis.setdefault(row["strategy"], []).append(row["ci95"])
    stars = {"halfwidth": {}}
    for name in names:
        s = parse_strategy(name, 3)
        stars[name] = []
        stars["halfwidth"][name] = []
        for eta in COST_ETAS:
            ptot = [
                10 * math.log10(
                    total_power(
                        s,
                        PowerConfig(
                            user_power=10 ** (snr / 10.0), rate=COST_RATE,
                            relay_power_factor=0.5, encode_factor=eta, decode_factor=eta,
                        ),
                    )
                )
                for snr in grid
            ]
            stars[name].append(interpolate_crossing(ptot, curves[name]))
            stars["halfwidth"][name].append(crossing_halfwidth(ptot, curves[name], cis[name]))
    stars["elapsed"] = time.perf_counter() - t0
    return stars


def test_processing_cost_shifts_total_power(capsys, processing_cost_curves):
    """At 1e-2 outage the total power budget grows strictly with the
    processing-cost factor for every cooperative strategy."""
    stars = processing_cost_curves
    dt = stars["elapsed"]
    ok = dt < 900.0
    parts = []
    for name in ("rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc3-af"):
        xs = stars[name]
        mono = None not in xs and xs[0] < xs[1] < xs[2]
        ok = ok and mono
        shown = ",".join("None" if x is None else f"{x:.3f}" for x in xs)
        parts.append(f"{name}:[{shown}]{'^' if mono else '!'}")
    tell(
        capsys,
        f"[acceptance 7a] processing cost ordering: {'PASS' if ok else 'FAIL'} "
        f"(P_tot* dB at eta 0.01/0.5/1: {' '.join(parts)}, {dt:.0f}s < 900s)",
    )
    for name in ("rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc3-af"):
        xs = stars[name]
        assert None not in xs, name
        assert xs[0] < xs[1] < xs[2], name
    assert dt < 900.0


def test_direct_link_processing_shift_constant(capsys, processing_cost_curves):
    """Direct-only total-power shift at 1e-2 outage between eta 0.01 and 1.

    mac outage does not depend on eta, so every eta crosses 1e-2 at the
    same per-user transmit power P*, the root of the closed-form
    area-averaged outage (mac_area_crossing, not the Monte Carlo curve).
    Only the processing term moves.  Each of the K sources encodes its own
    message once and decodes nothing; the destination is not charged.  So
    P_tot = K P* + K eta R and the shift is
    10 log10((K P* + K eta_1 R) / (K P* + K eta_0 R)).
    """
    xs = processing_cost_curves["mac"]
    assert None not in xs
    shift = xs[2] - xs[0]
    K = GP.num_users
    p_star = mac_area_crossing(COST_RATE, K)
    # Midpoint rule in u = r^2 over the per-user closed form: guards the erf algebra.
    r0sq, rhosq = GP.exclusion_radius**2, GP.sector_radius**2
    n = 4000
    quad = sum(
        mac_outage(COST_RATE, K * p_star, math.sqrt(r0sq + (i + 0.5) / n * (rhosq - r0sq)) ** GAMMA)
        for i in range(n)
    ) / n
    assert abs(quad - 1e-2) <= 1e-7, quad
    encodes_per_source = 1  # its own message; the destination is not charged
    eta_lo, eta_hi = COST_ETAS[0], COST_ETAS[2]

    def ptot(eta):
        return K * p_star + K * encodes_per_source * eta * COST_RATE

    expected = 10 * math.log10(ptot(eta_hi) / ptot(eta_lo))
    ok = abs(shift - expected) <= 0.05
    tell(
        capsys,
        f"[acceptance 7b] direct-link shift constant: {'PASS' if ok else 'FAIL'} "
        f"(measured {shift:.4f} dB vs expected {expected:.4f} dB = "
        f"10log10(({K}P*+{K}*{eta_hi}*{COST_RATE})/({K}P*+{K}*{eta_lo}*{COST_RATE})) "
        f"at closed-form P*={p_star:.4f}, tolerance 0.05)",
    )
    assert ok, f"measured {shift:.4f} dB, expected {expected:.4f} dB at P*={p_star:.4f}"


# Acceptance 9: (eta index, strategy expected lower, strategy expected higher).
# Cheap processing favours full user cooperation; at eta = 1 every DDF
# helper pays to decode and re-encode each message it relays, and the
# dedicated relay wins.
DDF_ORDERINGS = ((0, "uc3-ddf", "rc-ddf"), (2, "rc-ddf", "uc3-ddf"), (2, "rc-ddf", "uc2-ddf"))


def test_relay_beats_user_cooperation_once_processing_counts(capsys, processing_cost_curves):
    """The abstract's claim on the DDF curves: P_tot* at 1e-2 outage.

    Each ordering must hold by more than its margin, the combined 95 %
    half-width of the two crossings (crossing_halfwidth: the point CIs
    divided by the local slope of each curve); the curves are independent
    estimates, so the half-widths add in quadrature.
    """
    stars = processing_cost_curves
    hw = stars["halfwidth"]
    ok = True
    parts = []
    for e, low, high in DDF_ORDERINGS:
        x_low, x_high = stars[low][e], stars[high][e]
        assert None not in (x_low, x_high, hw[low][e], hw[high][e]), (low, high)
        margin = math.hypot(hw[low][e], hw[high][e])
        gap = x_high - x_low
        ok = ok and gap > margin
        parts.append(
            f"eta {COST_ETAS[e]}: {low} {x_low:.3f} < {high} {x_high:.3f} "
            f"(gap {gap:.3f} dB, margin {margin:.3f} dB)"
        )
    tell(
        capsys,
        f"[acceptance 9] relay vs user cooperation by processing cost: "
        f"{'PASS' if ok else 'FAIL'} ({'; '.join(parts)})",
    )
    assert ok, parts


def test_csv_byte_identity_across_workers(capsys, tmp_path, spy_pool):
    """Same CSV bytes for worker counts 1, 2, 8 and across reruns, with
    the pool running tasks.

    Twelve cells run rounds of 24,576, 73,728 and 21,456 trials.  With
    tasks of at most 16,384 trials (no round splits a cell's chunk, so
    the streams are the unpatched ones) and four CPUs, two workers start
    at a 73,728-trial round, and eight are capped to four, which start
    there too.
    """
    pools = spy_pool(task_trials=16_384, cpus=4)
    t0 = time.perf_counter()
    raw = {
        "seed": 11,
        "placements": 4,
        "snr_db": [0.0, 10.0, 20.0],
        "target_events": 100,
        "trial_ceiling": 120000,
        "power": {"rate": 1.0},
        "strategies": ["mac", "rc-ddf", "uc2-af"],
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    blobs = []
    for i, workers in enumerate((1, 2, 8, 1)):
        out = tmp_path / f"run{i}.csv"
        rc = main(
            ["run", "-c", str(cfg_path), "-o", str(out), "--workers", str(workers)]
        )
        assert rc == 0
        blobs.append(out.read_bytes())
    dt = time.perf_counter() - t0
    identical = len(set(blobs)) == 1
    pooled = [(p["workers"], len(p["rounds"])) for p in pools]
    ran = [w for w, rounds in pooled if rounds] == [2, 4]
    ok = identical and ran and dt < 60.0
    tell(
        capsys,
        f"[acceptance 8] CSV byte identity: {'PASS' if ok else 'FAIL'} "
        f"(workers 1/2/8 plus rerun identical={identical}, "
        f"pools (workers, rounds run) {pooled}, {dt:.1f}s < 60s)",
    )
    assert identical
    assert ran, pooled
    assert dt < 60.0
