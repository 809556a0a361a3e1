"""Quick tests of the benchmark's oracles, checks and tracer.

    python3 -m pytest -q perfbench/test_perfbench.py

Every check must be able to fail: each test below breaks one input the
way a faulty program would and expects the check to name the point.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- oracles ---------------------------------------------------------------


def test_mac_closed_form_reference():
    # acceptance 3: K = 3, unit distance, gamma 4, R = 0.25, P = 1
    assert abs(checks.mac_cell_outage(0.25, 1.0, 4.0, 3, 1.0) - 0.061121) < 5e-7


@pytest.mark.parametrize(
    "snr, want", [(30, 4.195e-2), (35, 5.527e-3), (40, 5.596e-4), (45, 4.618e-5)]
)
def test_rc_ddf_quadrature_matches_dblquad_prototype(snr, want):
    users = workloads.edge_users()
    got = checks.rc_ddf_outage(9.0, 10 ** (snr / 10), users, workloads.RELAY, 4.0, 3)
    assert abs(got - want) <= 1e-3 * want


def test_rc_ddf_quadrature_matches_scipy_dblquad():
    integrate = pytest.importorskip("scipy.integrate")
    rate, burst, relay_budget, d_rk, d_dk, d_dr, g = 2.0, 60.0, 10.0, 0.6, 0.9, 0.5, 4.0

    def outage(a_dk, a_rk):
        snr_rk = a_rk * burst / d_rk**g
        s = a_dk * burst / d_dk**g
        c1 = math.log2(1 + s)
        if c1 >= rate:
            return 0.0
        if math.log2(1 + snr_rk) <= rate:
            return math.exp(-a_rk - a_dk)
        t = checks._rc_ddf_threshold(a_rk, a_dk, rate, burst, relay_budget, d_rk**g, d_dk**g, d_dr**g)
        return -math.expm1(-max(t, 0.0)) * math.exp(-a_rk - a_dk)

    b0 = checks.pow2m1(rate) * d_dk**g / burst
    want, _ = integrate.dblquad(outage, 0, 60, 0, b0, epsabs=1e-13, epsrel=1e-10)
    got = checks.rc_ddf_cell_outage(rate, burst, relay_budget, d_rk, d_dk, d_dr, g)
    assert abs(got - want) <= 1e-6 * want


def test_rc_ddf_quadrature_matches_plain_monte_carlo():
    rate, burst, relay_budget, d_rk, d_dk, d_dr, g = 2.0, 60.0, 10.0, 0.6, 0.9, 0.5, 4.0
    rng = np.random.default_rng(5)
    a = rng.exponential(size=(2_000_000, 3))
    c = lambda x: np.log2(1 + x)  # noqa: E731
    theta = np.minimum(1.0, rate / np.maximum(c(a[:, 0] * burst / d_rk**g), 1e-300))
    s = a[:, 1] * burst / d_dk**g
    bar = np.maximum(1.0 - theta, 1e-300)
    mi = theta * c(s) + (1 - theta) * c(s + a[:, 2] * relay_budget / d_dr**g / bar)
    p = float(np.mean(mi < rate))
    se = math.sqrt(p * (1 - p) / a.shape[0])
    got = checks.rc_ddf_cell_outage(rate, burst, relay_budget, d_rk, d_dk, d_dr, g)
    assert abs(got - p) <= 4 * se


def test_cost_model_by_hand():
    # mac, eta = delta = 1, R = 0.25, P = 1: each source encodes its own message
    assert math.isclose(checks.total_power_db("mac", 3, 1.0, 0.25, 1.0, 1.0, 0.5), 10 * math.log10(3.75))
    # uc2-ddf, eta = delta = 0.5: each user forwards for 2 others, 1 + (3 eta + 2 delta) R
    assert math.isclose(checks.total_power_db("uc2-ddf", 3, 1.0, 0.25, 0.5, 0.5, 0.5), 10 * math.log10(4.875))
    # rc-ddf: 3 (1 + eta R) + P_r + (3 eta + 3 delta) R for the relay
    assert math.isclose(checks.total_power_db("rc-ddf", 3, 1.0, 0.25, 0.5, 0.5, 0.5), 10 * math.log10(4.625))
    # AF forwarders pay no processing; the AF relay only its transmit budget
    assert math.isclose(checks.total_power_db("rc-af", 3, 1.0, 0.25, 0.5, 0.5, 0.5), 10 * math.log10(3.875))
    assert math.isclose(checks.total_power_db("uc3-af", 3, 1.0, 0.25, 0.5, 0.5, 0.5), 10 * math.log10(3.375))


# -- checks fail when they should ------------------------------------------


def _mc_row(p, n, snr=0.0, name="mac"):
    return {
        "strategy": name, "snr_db": snr, "ptot_db": 0.0, "outage": p,
        "ci95": checks.halfwidth(p, n), "bound_lower": p, "bound_upper": p,
        "trials": n, "ceiling_flag": 0,
    }


def test_mac_outage_moved_by_five_se_fails():
    exact, n = 0.05, 614400
    se = math.sqrt(exact * (1 - exact) / n)
    assert checks.check_mc_close([_mc_row(exact, n)], lambda snr: exact, "mac") == []
    for shift in (5 * se, -5 * se):
        bad = _mc_row(exact + shift, n)
        assert checks.check_mc_close([bad], lambda snr: exact, "mac")


HEADER = "strategy,user_k,snr_db,ptot_db,outage,ci95,bound_lower,bound_upper,trials,ceiling_flag"


def _bounds_csv(lower_scale=1.0, ceiling=0):
    lines = [HEADER]
    for i, snr in enumerate((-10, -5, 0, 5)):
        lower = 0.3 * 10 ** (-2 * snr / 10)
        if i == 2:
            lower *= lower_scale
        lines.append(f"rc-ddf,avg,{snr},1.5,,,{lower:.12g},{10 * lower:.12g},0,{ceiling if i == 1 else 0}")
    return "\n".join(lines) + "\n"


def test_lower_bound_decay_on_hand_made_csv():
    rows = workloads.parse_csv(_bounds_csv())
    assert checks.check_lower_bound_decay(rows, 2) == []
    assert checks.check_lower_bound_decay(rows, 3)
    moved = workloads.parse_csv(_bounds_csv(lower_scale=1 + 1e-6))
    failures = checks.check_lower_bound_decay(moved, 2)
    assert workloads.failed_points(failures) == {("rc-ddf", -5.0), ("rc-ddf", 0.0), ("rc-ddf", 5.0)}


def test_ceiling_flag_fails_row():
    rows = workloads.parse_csv(_bounds_csv(ceiling=1))
    failures = checks.check_rows(rows, None, bounds_only=True)
    assert [f.check for f in failures] == ["ceiling"]
    assert workloads.failed_points(failures) == {("rc-ddf", -5.0)}


def test_row_checks_catch_cost_interval_and_range():
    good = _mc_row(0.1, 1000)
    assert checks.check_rows([good], lambda s, x: 0.0, bounds_only=False) == []
    assert checks.check_rows([good], lambda s, x: 1e-6, bounds_only=False)
    assert checks.check_rows([{**good, "ci95": good["ci95"] * (1 + 1e-6)}], None, bounds_only=False)
    assert checks.check_rows([{**good, "outage": 1.5}], None, bounds_only=False)
    assert checks.check_rows([good], None, bounds_only=True)  # outage filled in bounds-only


def test_slope_and_sandwich_fail_outside_limits():
    rows = [_mc_row(10 ** (-2 * s / 10), 10**7, s, "rc-ddf") for s in (10, 15, 20)]
    assert checks.check_slope(rows, high=2.25) == []
    assert checks.check_slope(rows, low=2.5)
    top = {**rows[-1], "bound_lower": rows[-1]["outage"] * 2}
    assert checks.check_sandwich(rows[-1]) == []
    assert checks.check_sandwich(top)


def test_workload_check_needs_every_point():
    wl = workloads.WORKLOADS["bounds-grid"]
    failures = wl.check(workloads.parse_csv(_bounds_csv()))
    assert len(workloads.failed_points(failures)) == len(wl.points())


def test_identity_failure_fails_every_point(tmp_path):
    wl = workloads.WORKLOADS["area-lowsnr"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x\n")
    b.write_text("x\n")
    assert run.identity_failures(wl, a, [("b", b)]) == []
    b.write_text("y\n")
    failures = run.identity_failures(wl, a, [("b", b)])
    assert len(workloads.failed_points(failures)) == len(wl.points())


# -- tracer ----------------------------------------------------------------


def test_self_time_is_span_minus_children():
    tr = tracing.Tracer()

    def leaf():
        sum(range(20000))

    leaf_t = tr.timed(leaf, "leaf")

    def outer(depth):
        leaf_t()
        if depth:
            outer_t(depth - 1)

    outer_t = tr.timed(outer, "outer")
    outer_t(2)
    s = tr.summary(wall_s=1.0)
    by = s["by_name"]
    assert by["outer"]["calls"] == 3 and by["leaf"]["calls"] == 3
    # re-entered spans count once inclusively; self times add up to the top span
    assert math.isclose(by["outer"]["incl_s"], s["top_level_s"])
    assert math.isclose(by["outer"]["self_s"] + by["leaf"]["self_s"], s["top_level_s"])


def test_traced_cli_run_accounts_for_its_wall_time(tmp_path):
    from tdcoop import cli

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        '{"seed": 3, "placements": 2, "snr_db": [0.0], "strategies": ["mac", "uc3-ddf", "rc-af"]}\n'
    )
    tr = tracing.Tracer()
    tracing.install(tr, "full")
    try:
        assert cli.main(["run", "-c", str(cfg), "-o", str(tmp_path / "out.csv")]) == 0
    finally:
        tr.restore()
    full = tr.summary(wall_s=10.0)
    m = tracing.layer_metrics(full, full, None, workers=1, points=3)
    assert m["mc.points"][0] == 3 and m["harness.cells"][0] == 3 * 2 * 3
    assert set(full["kernel_trials"]) == {"mac", "ucmh-ddf", "af2"}
    assert m["network.placements"][0] == 2 and m["mathcore.capacity_calls"][0] > 0
    parts = sum(m[name][0] for name in tracing.SELF_TIME_PARTS)
    assert math.isclose(parts + m["trace.unattributed_s"][0], 10.0, rel_tol=1e-9)
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")


def test_benchmark_json_names_what_the_runs_print():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
    empty = tracing.Tracer().summary(wall_s=1.0)
    layer = tracing.layer_metrics(empty, empty, None, workers=1, points=1)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layer.items()]
