"""Tests for the sweep harness: estimates, averaging, slopes, CSV rows."""

import math
import multiprocessing

import numpy as np
import pytest

from tdcoop import harness, mc
from tdcoop.harness import (
    CSV_HEADER,
    ExperimentConfig,
    estimate_outage,
    format_rows,
    mac_outage,
    run_experiment,
    sweep_fixed_placement,
)
from tdcoop.network import DESTINATION, RELAY, GeometryParams, NodePlacement, sample_placement, user_id
from tdcoop.power import PowerConfig, relay_power, total_power, user_burst_power
from tdcoop.strategies import Strategy, parse_strategy

from oracles import diversity_slope

MAC_REF = 0.06112134716664841


def unit_circle_placement(num_users=3):
    pos = {DESTINATION: (0.0, 0.0), RELAY: (0.5, 0.0)}
    for k, deg in zip(range(1, num_users + 1), (10.0, 30.0, 50.0)):
        a = math.radians(deg)
        pos[user_id(k)] = (math.cos(a), math.sin(a))
    return NodePlacement(params=GeometryParams(num_users=num_users), positions=pos)


def tiny_config(**kw):
    defaults = dict(
        geometry=GeometryParams(),
        power=PowerConfig(),
        strategies=(parse_strategy("mac", 3),),
        snr_db=(0.0, 10.0),
        num_placements=2,
        master_seed=5,
        target_events=50,
        trial_ceiling=60_000,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestMacOutage:
    """mac_outage takes the burst K * P_k of a K = 3 network."""

    def test_reference_value(self):
        np.testing.assert_allclose(
            mac_outage(0.25, 3 * 1.0, 1.0**4.0), MAC_REF, rtol=1e-12
        )

    def test_vanishes_at_high_power(self):
        assert mac_outage(0.25, 3 * 1e12, 1.0**4.0) < 1e-10

    def test_vanishes_at_zero_rate(self):
        assert mac_outage(0.0, 3 * 1.0, 1.0**4.0) == 0.0

    def test_zero_power_certain_outage(self):
        assert mac_outage(0.25, 0.0, 1.0**4.0) == 1.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            mac_outage(0.25, 3 * 1.0, 0.0**4.0)
        with pytest.raises(ValueError, match="at row 0"):
            mac_outage(0.25, -1.0, 1.0)
        with pytest.raises(ValueError, match="at row 0"):
            mac_outage(0.25, float("nan"), 1.0)
        with pytest.raises(ValueError, match="at row 1"):
            mac_outage(0.25, np.array([3.0, -1.0]), 1.0)


class TestEstimateOutage:
    def test_within_ci_of_closed_form(self):
        pl = unit_circle_placement()
        est = estimate_outage(parse_strategy("mac", 3), pl, PowerConfig(), 200_000, seed=42)
        assert abs(est.p_hat - MAC_REF) <= est.ci95
        assert est.trials == 600_000
        np.testing.assert_allclose(est.bounds.lower, MAC_REF, rtol=1e-12)
        np.testing.assert_allclose(est.bounds.upper, MAC_REF, rtol=1e-12)

    def test_zero_rate_never_in_outage(self):
        pl = unit_circle_placement()
        est = estimate_outage(
            parse_strategy("mac", 3), pl, PowerConfig(rate=0.0), 5_000, seed=1
        )
        assert est.p_hat == 0.0

    def test_zero_power_always_in_outage(self):
        pl = unit_circle_placement()
        est = estimate_outage(
            parse_strategy("mac", 3), pl, PowerConfig(user_power=0.0), 5_000, seed=1
        )
        assert est.p_hat == 1.0

    @pytest.mark.parametrize("rate", (0.25, 0.0))
    @pytest.mark.parametrize("name", ("mac", "rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc2-af", "uc3-af"))
    def test_silent_source_is_certain(self, name, rate):
        """At P = 0 every trial fails at a positive rate and none at rate 0,
        and both bound columns say the same, for every scheme."""
        placement = sample_placement(GeometryParams(), mc.derive_stream(1, 0, 0))
        pc = PowerConfig(user_power=0.0, rate=rate)
        est = estimate_outage(parse_strategy(name, 3), placement, pc, trials=1000, seed=5)
        certain = float(rate > 0.0)
        assert (est.p_hat, est.ci95) == (certain, 0.0)
        assert (est.trials, est.events) == (3000, 3000 * int(certain))
        assert (est.bounds.lower, est.bounds.upper) == (certain, certain)

    def test_silent_grid_row_bounds(self):
        """On a grid with a P = 0 row, that row's columns are 1 and the
        other rows are the bounds of the grid without it."""
        strategy = parse_strategy("uc3-ddf", 3)
        cells = harness._cells(strategy, [unit_circle_placement()])
        grid = [PowerConfig(user_power=p) for p in (1.0, 0.0, 10.0)]
        lower, upper = harness._bounds(cells, harness._user_powers(strategy, grid), 0.25, False)
        live = [grid[0], grid[2]]
        want = harness._bounds(cells, harness._user_powers(strategy, live), 0.25, False)
        for got, ref in zip((lower, upper), want):
            assert (got[1] == 1.0).all()
            np.testing.assert_array_equal(got[[0, 2]], ref)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate_outage(parse_strategy("mac", 3), unit_circle_placement(), PowerConfig(), 0, 1)

    @pytest.mark.parametrize("trials", (10.0, True), ids=("float", "bool"))
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="^trials must be an integer >= 1"):
            estimate_outage(parse_strategy("mac", 3), unit_circle_placement(), PowerConfig(), trials, 1)

    @pytest.mark.parametrize(
        "seed", (1.5, True, -1, 2**64), ids=("float", "bool", "negative", "2^64")
    )
    def test_seed_must_be_a_64_bit_word(self, seed):
        """A fractional or bool seed would run another seed's streams, and a
        negative one would reach the stream key through a lossy cast."""
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\^64\)"):
            estimate_outage(parse_strategy("mac", 3), unit_circle_placement(), PowerConfig(), 10, seed)
        estimate_outage(parse_strategy("mac", 3), unit_circle_placement(), PowerConfig(), 10, 2**64 - 1)

    @pytest.mark.parametrize("sized_for", (2, 5))
    def test_strategy_sized_for_another_user_count_rejected(self, sized_for):
        """The library entry point makes the sweep's user-count check, and
        both name both counts."""
        placement = sample_placement(GeometryParams(), mc.derive_stream(3, 0, 0))
        strategy = parse_strategy("mac", sized_for)
        message = f"^strategy mac is sized for {sized_for} users, but the geometry has 3$"
        with pytest.raises(ValueError, match=message):
            estimate_outage(strategy, placement, PowerConfig(), trials=10, seed=1)
        with pytest.raises(ValueError, match=message):
            tiny_config(strategies=(strategy,))

    @pytest.mark.parametrize(
        "name,power,rate,what",
        (
            ("uc3-ddf", 10.0, 400.0, "rate 400"),
            ("mac", 10.0, 2000.0, "rate 2000"),
            ("uc3-ddf", 1e200, 0.25, "snr_db 2000"),
            ("rc-ddf", 1e-200, 0.25, "snr_db -2000"),
        ),
    )
    def test_inputs_outside_the_float_range_rejected(self, name, power, rate, what):
        """The library entry point makes the sweep's range checks: the
        bounds would overflow or turn infinite here."""
        pc = PowerConfig(user_power=power, rate=rate)
        with pytest.raises(ValueError, match=f"^{what} is out of range for {name}: .* must not exceed"):
            estimate_outage(parse_strategy(name, 3), unit_circle_placement(), pc, trials=10, seed=1)

    def test_rate_just_inside_the_float_range_runs(self):
        pc = PowerConfig(user_power=10.0, rate=110.0)
        est = estimate_outage(parse_strategy("uc3-ddf", 3), unit_circle_placement(), pc, trials=10, seed=1)
        assert est.p_hat == 1.0 and 0.0 < est.bounds.lower <= est.bounds.upper < math.inf

    def test_deterministic(self):
        pl = unit_circle_placement()
        s = parse_strategy("rc-ddf", 3)
        a = estimate_outage(s, pl, PowerConfig(rate=2.0), 20_000, seed=9)
        b = estimate_outage(s, pl, PowerConfig(rate=2.0), 20_000, seed=9)
        assert a.p_hat == b.p_hat and a.events == b.events

    def test_helper_order_does_not_change_the_estimate(self):
        """A direct Strategy with unsorted helper sets is the parsed spec,
        so it draws the same streams under the same label."""
        pl, pc = unit_circle_placement(), PowerConfig(user_power=0.3, rate=1.0)
        direct = Strategy("uc3-ddf", 3, ((3, 2), (3, 1), (2, 1)))
        a = estimate_outage(direct, pl, pc, 20_000, seed=5)
        b = estimate_outage(parse_strategy("uc3-ddf", 3), pl, pc, 20_000, seed=5)
        assert repr(a) == repr(b)


class TestAreaAveraged:
    def test_single_placement_matches_fixed_estimate(self):
        """One placement run to its ceiling reproduces estimate_outage."""
        cfg = tiny_config(
            snr_db=(0.0,),
            num_placements=1,
            target_events=10**9,
            trial_ceiling=18_000,
        )
        [avg] = run_experiment(cfg)
        pl = cfg.placements()[0]
        est = estimate_outage(
            cfg.strategies[0], pl, PowerConfig(), 6_000,
            seed=mc.mix64(cfg.master_seed, 1, 0, 0),
        )
        assert avg["ceiling_flag"]
        assert avg["events"] == est.events
        assert avg["outage"] == est.p_hat
        assert avg["trials"] == est.trials == 18_000

    def test_every_one_placement_point_matches_fixed_estimate(self):
        """A point of a one-placement sweep, stopped at its target or at its
        ceiling, is estimate_outage at seed mix64(seed, 1, s, i) with the
        per-user trial count its row reports."""
        cfg = tiny_config(
            strategies=(parse_strategy("mac", 3), parse_strategy("rc-ddf", 3)),
            snr_db=(0.0, 10.0, 20.0),
            num_placements=1,
        )
        rows = iter(run_experiment(cfg))
        placement = cfg.placements()[0]
        for s, strategy in enumerate(cfg.strategies):
            for i, snr in enumerate(cfg.snr_db):
                row = next(rows)
                est = estimate_outage(
                    strategy, placement, cfg.power.with_user_power(10.0 ** (snr / 10.0)),
                    row["trials"] // 3, seed=mc.mix64(cfg.master_seed, 1, s, i),
                )
                assert (est.p_hat, est.trials, est.events) == (
                    row["outage"], row["trials"], row["events"]
                )
                assert (est.bounds.lower, est.bounds.upper) == (
                    row["bound_lower"], row["bound_upper"]
                )

    def test_reproducible_to_last_bit(self):
        cfg = tiny_config(snr_db=(10.0,))
        [a] = run_experiment(cfg)
        [b] = run_experiment(cfg)
        assert a == b

    def test_worker_count_invariance(self, spy_pool):
        # Six cells run rounds of 12,288 and 36,864 trials; with tasks of
        # at most 8192 trials no cell's round splits, and two workers
        # start at the second round (2 * 8192 trials).
        pools = spy_pool(task_trials=8192, cpus=2)
        base = tiny_config(snr_db=(10.0,))
        multi = tiny_config(snr_db=(10.0,), workers=2)
        [a] = run_experiment(base)
        [b] = run_experiment(multi)
        assert a["outage"] == b["outage"] and a["events"] == b["events"]
        assert [(p["workers"], p["method"]) for p in pools] == [(2, "spawn")]
        assert pools[0]["rounds"]


class TestDiversitySlope:
    def test_inverse_square_law(self):
        snr = np.arange(0.0, 50.0, 5.0)
        pts = [(s, 0.3 * 10 ** (-2.0 * s / 10.0)) for s in snr]
        np.testing.assert_allclose(diversity_slope(pts), 2.0, atol=1e-9)

    def test_inverse_cube_law(self):
        snr = np.arange(10.0, 45.0, 5.0)
        pts = [(s, 5.0 * 10 ** (-3.0 * s / 10.0)) for s in snr]
        np.testing.assert_allclose(diversity_slope(pts), 3.0, atol=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            diversity_slope([(10.0, 0.1)])

    def test_zero_outage_rejected(self):
        with pytest.raises(ValueError, match="zero outage"):
            diversity_slope([(10.0, 0.1), (20.0, 0.0)])


class TestSweepFixedPlacement:
    def test_mac_bounds_track_closed_form(self):
        pl = unit_circle_placement()
        grid = (0.0, 10.0, 20.0)
        ests = sweep_fixed_placement(
            parse_strategy("mac", 3), pl, PowerConfig(), grid, seed=2024
        )
        for snr, est in zip(grid, ests):
            cf = mac_outage(0.25, 3 * 10 ** (snr / 10.0), 1.0**4.0)
            np.testing.assert_allclose(est.bounds.lower, cf, rtol=1e-12)
            np.testing.assert_allclose(est.bounds.upper, cf, rtol=1e-12)
            assert abs(est.p_hat - cf) <= est.ci95

    def test_ceiling_flag_propagates(self):
        pl = unit_circle_placement()
        ests = sweep_fixed_placement(
            parse_strategy("mac", 3), pl, PowerConfig(rate=0.0), (0.0,), seed=1,
            trial_ceiling=6_000,
        )
        assert ests[0].ceiling_flag
        assert ests[0].p_hat == 0.0


    @pytest.mark.parametrize("index", (1.5, True, -1), ids=("float", "bool", "negative"))
    def test_strategy_index_must_be_a_count(self, index):
        """A fractional or bool index would run index 1's streams."""
        with pytest.raises(ValueError, match="^strategy_index must be an integer >= 0"):
            sweep_fixed_placement(
                parse_strategy("mac", 3), unit_circle_placement(), PowerConfig(), (0.0,), seed=1,
                strategy_index=index, trial_ceiling=3_000,
            )


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "snr_db",
        ((float("nan"),), (0.0, float("inf")), (float("-inf"), 0.0)),
        ids=("nan", "inf", "-inf"),
    )
    def test_nonfinite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            tiny_config(snr_db=snr_db)

    def test_repeated_strategy_names_rejected(self):
        """Two rows may not share one CSV label, in the library as in a config."""
        with pytest.raises(ValueError, match=r"duplicate strategy names in \['rc-ddf', 'rc-ddf'\]"):
            tiny_config(strategies=(parse_strategy("rc-ddf", 3),) * 2)
        tiny_config(strategies=(parse_strategy("rc-ddf", 3), parse_strategy("rc-af", 3)))

    @pytest.mark.parametrize(
        "field,value",
        (
            ("num_placements", 2.0), ("master_seed", 5.0), ("target_events", 50.0),
            ("trial_ceiling", 60_000.0), ("workers", 1.5), ("workers", True),
        ),
    )
    def test_counts_must_be_integers(self, field, value):
        """A whole float or a bool is refused when the config is built, not
        deep in the sweep."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            tiny_config(**{field: value})

    def test_master_seed_below_2_to_the_53(self):
        """Seeds from 2^53 on would lose low bits in the stream key."""
        for seed in (-1, 2**53, 2**64):
            with pytest.raises(ValueError, match="master_seed"):
                tiny_config(master_seed=seed)
        with pytest.raises(ValueError, match="master_seed"):
            sweep_fixed_placement(
                parse_strategy("mac", 3), unit_circle_placement(), PowerConfig(), (0.0,), seed=2**53
            )
        cfg = tiny_config(master_seed=2**53 - 1, bounds_only=True)
        assert len(run_experiment(cfg)) == 2
        # Neighbouring seeds share no placement, whatever the path word.
        a, b = (
            tiny_config(master_seed=s, num_placements=16).placements() for s in (2**53 - 2, 2**53 - 1)
        )
        assert all(x.positions != y.positions for x, y in zip(a, b))


RECORD_KEYS = {"rate", "burst", "budgets", "mode", "dk_pow", "dj_pow", "jk_pow", "hh_pow"}
RING = {1: [2], 2: [3], 3: [1]}
# Users with two, one and one helper: budgets of uneven width.
UNEVEN = {1: [2, 3], 2: [3], 3: [1]}
SEVEN = ("mac", "rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc2-af", "uc3-af")


class TestKernelRecords:
    """Every task handed to ``mc.run_cells`` carries the engine's documented
    8-key record in Python floats and tuples (it is pickled for the pool),
    with the burst and budgets of the power rules at the task's point."""

    @staticmethod
    def check(tasks, strategy, pc, placements):
        K = strategy.num_users
        assert [(i, u) for i, u, _, _ in tasks] == [(i, u) for i in range(placements) for u in range(K)]
        assert all(kernel == strategy.kernel for _, _, kernel, _ in tasks)
        for _, u, _, params in tasks:
            k = u + 1
            assert set(params) == RECORD_KEYS
            burst, budgets = params["burst"], params["budgets"]
            assert type(burst) is float and type(budgets) is tuple
            assert all(type(f) is float for f in budgets)
            assert burst == user_burst_power(strategy, pc, k)
            if strategy.uses_relay:
                assert budgets == (relay_power(pc),)
            else:
                assert budgets == tuple(user_burst_power(strategy, pc, j) for j in strategy.helpers(k))
            assert type(params["rate"]) is float and params["mode"] == strategy.multihop_mode
            assert type(params["dk_pow"]) is float
            for links in (params["dj_pow"], params["jk_pow"], *params["hh_pow"]):
                assert type(links) is tuple and all(type(x) is float for x in links)

    @pytest.mark.parametrize(
        "num_users,name,coop_sets",
        [(3, n, None) for n in SEVEN]
        + [(3, n, sets) for sets in (RING, UNEVEN) for n in ("uc2-ddf", "uc2-af")]
        + [(4, "uc4-ddf", None), (4, "uc4-af", None)],
        ids=lambda x: "ring" if x is RING else "uneven" if x is UNEVEN else str(x),
    )
    def test_tasks_are_the_documented_record(self, monkeypatch, num_users, name, coop_sets):
        strategy = parse_strategy(name, num_users, coop_sets=coop_sets)
        handed = []

        def run_cells(tasks, seed, **kwargs):
            handed.append(tasks)
            return np.zeros(len(tasks), dtype=np.int64), 1, False

        monkeypatch.setattr(mc, "run_cells", run_cells)
        cfg = tiny_config(
            geometry=GeometryParams(num_users=num_users),
            strategies=(strategy,),
            snr_db=(-10.0, 0.0, 17.5, 40.0),
            num_placements=3,
        )
        run_experiment(cfg)
        assert len(handed) == len(cfg.snr_db)
        for snr, tasks in zip(cfg.snr_db, handed):
            self.check(tasks, strategy, cfg.power.with_user_power(10.0 ** (snr / 10.0)), 3)
        for pc in (PowerConfig(user_power=7.0, rate=1.5), PowerConfig(user_power=0.0)):
            estimate_outage(strategy, cfg.placements()[0], pc, trials=1, seed=1)
            self.check(handed[-1], strategy, pc, 1)


class TestFormatRows:
    def test_header_and_layout(self):
        rows = [
            {
                "strategy": "mac", "user_k": "avg", "snr_db": 0.0,
                "ptot_db": 4.771212547197, "outage": 0.06112134716664841,
                "ci95": 0.0001, "bound_lower": 0.06112134716664841,
                "bound_upper": 0.06112134716664841, "trials": 600000,
                "ceiling_flag": False,
            }
        ]
        text = format_rows(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == (
            "strategy,user_k,snr_db,ptot_db,outage,ci95,"
            "bound_lower,bound_upper,trials,ceiling_flag"
        )
        fields = lines[1].split(",")
        assert fields[0] == "mac" and fields[1] == "avg"
        assert fields[4] == "0.0611213471666"  # twelve significant digits
        assert fields[9] == "0"
        assert text.endswith("\n")

    def test_bounds_only_rows_leave_estimate_blank(self):
        rows = [
            {
                "strategy": "rc-ddf", "user_k": 1, "snr_db": 5.0, "ptot_db": 6.0,
                "outage": None, "ci95": None, "bound_lower": 1e-3,
                "bound_upper": 2e-3, "trials": 0, "ceiling_flag": False,
            }
        ]
        fields = format_rows(rows).splitlines()[1].split(",")
        assert fields[4] == "" and fields[5] == ""
        assert fields[6] == "0.001"


class TestRunExperiment:
    def test_row_order_and_count(self):
        cfg = tiny_config(
            strategies=(parse_strategy("mac", 3), parse_strategy("rc-ddf", 3)),
            trial_ceiling=30_000,
        )
        rows = run_experiment(cfg)
        assert [(r["strategy"], r["snr_db"]) for r in rows] == [
            ("mac", 0.0), ("mac", 10.0), ("rc-ddf", 0.0), ("rc-ddf", 10.0),
        ]
        for r in rows:
            pc = cfg.power.with_user_power(10 ** (r["snr_db"] / 10.0))
            s = next(s for s in cfg.strategies if s.name == r["strategy"])
            np.testing.assert_allclose(
                r["ptot_db"], 10 * math.log10(total_power(s, pc)), rtol=1e-12
            )

    def test_per_user_rows(self):
        cfg = tiny_config(snr_db=(0.0,), per_user_rows=True)
        rows = run_experiment(cfg)
        assert [r["user_k"] for r in rows] == ["avg", 1, 2, 3]
        pooled = sum(r["outage"] * r["trials"] for r in rows[1:])
        np.testing.assert_allclose(rows[0]["outage"] * rows[0]["trials"], pooled, rtol=1e-12)

    def test_bounds_only_skips_monte_carlo(self):
        cfg = tiny_config(snr_db=(0.0,), bounds_only=True)
        rows = run_experiment(cfg)
        assert rows[0]["outage"] is None and rows[0]["trials"] == 0
        assert rows[0]["bound_lower"] > 0

    def test_bounds_only_prints_the_full_run_bounds(self):
        names = ("mac", "rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc2-af", "uc3-af")
        strategies = tuple(parse_strategy(n, 3) for n in names)
        for optimize in (False, True):
            kw = dict(
                strategies=strategies, snr_db=(0.0, 20.0), trial_ceiling=6_000,
                per_user_rows=True, optimize_bounds=optimize,
            )
            full = run_experiment(tiny_config(**kw))
            bounds_only = run_experiment(tiny_config(bounds_only=True, **kw))
            cols = ("strategy", "user_k", "snr_db", "ptot_db", "bound_lower", "bound_upper")
            assert len(full) == len(strategies) * 2 * 4
            assert [[r[c] for c in cols] for r in bounds_only] == [
                [r[c] for c in cols] for r in full
            ]

    def test_a_silent_relay_gives_the_direct_link_bounds(self):
        """At relay factor 0 the relay adds nothing: a silent DDF forwarder
        leaves the rate at the direct link's capacity, and an AF gain of 0
        leaves det(I + P HH*) = (1 + P |h_dk|^2)^2.  Both rc schemes' bound
        columns are then mac's closed form in every row, and their
        averaged estimates agree with it."""
        names = ("mac", "rc-ddf", "rc-af")
        cfg = tiny_config(
            power=PowerConfig(relay_power_factor=0.0),
            strategies=tuple(parse_strategy(n, 3) for n in names),
            snr_db=(0.0, 20.0), num_placements=4, master_seed=3,
            target_events=400, trial_ceiling=400_000, per_user_rows=True,
        )
        rows = {name: [r for r in run_experiment(cfg) if r["strategy"] == name] for name in names}
        for name in ("rc-ddf", "rc-af"):
            assert len(rows[name]) == len(rows["mac"]) == 2 * 4
            for mac, row in zip(rows["mac"], rows[name]):
                assert row["bound_lower"] == row["bound_upper"] == mac["bound_lower"] == mac["bound_upper"]
                if row["user_k"] == "avg":
                    assert abs(row["outage"] - mac["bound_lower"]) <= 2.0 * row["ci95"]

    def test_one_worker_pool_per_run(self, tmp_path, spy_pool):
        """All points of a run share one pool; the CSV matches one worker."""
        # Rounds of 12,288 then 36,864 trials (six cells) against a start
        # threshold of 2 * 8192: the pool starts at a second round.
        pools = spy_pool(task_trials=8192, cpus=2)
        strategies = (parse_strategy("rc-ddf", 3), parse_strategy("uc2-af", 3))
        blobs = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}.csv"
            run_experiment(
                tiny_config(strategies=strategies, workers=workers, output_path=str(out))
            )
            blobs.append(out.read_bytes())
        assert [(p["workers"], p["method"]) for p in pools] == [(2, "spawn")]
        # It starts at a second round and keeps later first rounds.
        assert pools[0]["rounds"][0] == 36_864 and 12_288 in pools[0]["rounds"]
        assert blobs[0] == blobs[1]
        assert multiprocessing.active_children() == []

    def test_small_rounds_start_no_worker(self, tmp_path, monkeypatch):
        """A run whose rounds all stay below workers * MAX_TASK_TRIALS
        trials starts no process, and its CSV matches one worker's."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(mc, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(mc, "_cpu_count", lambda: 2)
        strategies = (parse_strategy("rc-ddf", 3), parse_strategy("uc2-af", 3))
        blobs = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}.csv"
            run_experiment(
                tiny_config(strategies=strategies, workers=workers, output_path=str(out))
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert multiprocessing.active_children() == []

    def test_writes_csv_when_configured(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = tiny_config(snr_db=(0.0,), output_path=str(out))
        rows = run_experiment(cfg)
        text = out.read_text()
        assert text == format_rows(rows)
        assert text.splitlines()[0] == CSV_HEADER

    def test_empty_strategy_list_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(strategies=())

    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(snr_db=(10.0, 0.0))
