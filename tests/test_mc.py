"""Tests for the deterministic trial engine.

The scheduling rules (geometric rounds, fixed chunking, keyed streams)
are what make results independent of worker count, so they are pinned
here in detail.
"""

import math

import numpy as np
import pytest

from tdcoop import mc


class TestMix64:
    def test_deterministic(self):
        assert mc.mix64(1, 2, 3) == mc.mix64(1, 2, 3)

    def test_order_sensitive(self):
        assert mc.mix64(1, 2) != mc.mix64(2, 1)

    def test_length_sensitive(self):
        assert mc.mix64(0) != mc.mix64(0, 0)

    def test_fits_64_bits(self):
        for path in [(0,), (1, 2, 3), (2**63, 5)]:
            assert 0 <= mc.mix64(*path) < 2**64


class TestDeriveStream:
    def test_same_path_same_draws(self):
        a = mc.derive_stream(9, 1, 2, 3).standard_normal(8)
        b = mc.derive_stream(9, 1, 2, 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_path_different_draws(self):
        a = mc.derive_stream(9, 1, 2, 3).standard_normal(8)
        b = mc.derive_stream(9, 1, 2, 4).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_different_seed_different_draws(self):
        a = mc.derive_stream(9, 1).standard_normal(8)
        b = mc.derive_stream(10, 1).standard_normal(8)
        assert not np.array_equal(a, b)


class TestRoundTargets:
    def test_quadrupling_up_to_cap(self):
        assert mc.round_targets(10_000_000) == [
            2048, 8192, 32768, 131072, 524288, 2097152, 8388608, 10_000_000,
        ]

    def test_small_cap_single_round(self):
        assert mc.round_targets(100) == [100]
        assert mc.round_targets(2048) == [2048]

    def test_last_target_is_cap(self):
        for cap in (1, 2049, 50_000, 123_457):
            targets = mc.round_targets(cap)
            assert targets[-1] == cap
            assert all(b > a for a, b in zip(targets, targets[1:]))

    def test_zero_cap_rejected(self):
        with pytest.raises(ValueError):
            mc.round_targets(0)


class TestChunkSizes:
    def test_small_additions_stay_whole(self):
        assert mc.chunk_sizes(5) == [5]
        assert mc.chunk_sizes(mc.MAX_TASK_TRIALS) == [mc.MAX_TASK_TRIALS]

    def test_large_additions_split(self):
        got = mc.chunk_sizes(mc.MAX_TASK_TRIALS + 5)
        assert got == [mc.MAX_TASK_TRIALS, 5]

    def test_sum_preserved(self):
        rng = np.random.default_rng(0)
        for n in rng.integers(1, 5 * mc.MAX_TASK_TRIALS, size=20):
            assert sum(mc.chunk_sizes(int(n))) == n


# One full kernel record (two forwarders, gamma 4): every kernel takes
# the same keys and reads what it needs.
RECORD = {
    "rate": 1.0, "burst": 3.0, "budgets": (1.0, 1.2), "mode": "accumulating",
    "gamma": 4.0, "d_jk": (0.6, 0.7),
    "dk_pow": 1.0, "dj_pow": (0.9, 1.1), "jk_pow": (0.6**4, 0.7**4),
    "hh_pow": ((0.0, 0.5), (0.5, 0.0)),
    "dk_scale": 1.0, "dj_scale": (0.9**-0.5, 1.1**-0.5), "jk_scale": (0.6**-2, 0.7**-2),
}
MAC_PARAMS = dict(RECORD, rate=0.25)
# Each kernel's outage probability sits well inside (0, 1) at 70,000
# trials.
KERNEL_PARAMS = {
    "mac": MAC_PARAMS,
    "rc-ddf": RECORD,
    "uc2-ddf": RECORD,
    "ucmh-ddf": dict(RECORD, rate=1.5),
    "af2": RECORD,
    "afmh": RECORD,
}


class TestCountEvents:
    def test_deterministic(self):
        a = mc.count_events("mac", MAC_PARAMS, 5, (0, 0, 0, 0), 4096)
        b = mc.count_events("mac", MAC_PARAMS, 5, (0, 0, 0, 0), 4096)
        assert a == b

    def test_internal_batching_continues_one_stream(self):
        """A task larger than the batch size consumes one stream serially."""
        trials = mc._BATCH + 777
        got = mc.count_events("mac", MAC_PARAMS, 5, (1, 2, 3, 4), trials)
        rng = mc.derive_stream(5, 1, 2, 3, 4)
        threshold = math.expm1(0.25 * math.log(2.0)) / 3.0
        manual = 0
        for step in (mc._BATCH, 777):
            manual += int((rng.exponential(size=(step, 1))[:, 0] < threshold).sum())
        assert got == manual

    @pytest.mark.parametrize("kernel", sorted(KERNEL_PARAMS))
    def test_counts_do_not_depend_on_batch_size(self, kernel, monkeypatch):
        """Every kernel gives the same count for any internal batch size."""
        params = KERNEL_PARAMS[kernel]
        trials = 70_000
        counts = set()
        for batch in (1000, 8192, 65536):
            monkeypatch.setattr(mc, "_BATCH", batch)
            counts.add(mc.count_events(kernel, params, 13, (2, 1, 0, 0), trials))
        assert len(counts) == 1
        assert 0 < counts.pop() < trials

    def test_rate_zero_never_fails(self):
        params = dict(MAC_PARAMS, rate=0.0)
        assert mc.count_events("mac", params, 5, (0,), 10_000) == 0

    def test_zero_power_always_fails(self):
        params = dict(MAC_PARAMS, burst=0.0)
        assert mc.count_events("mac", params, 5, (0,), 10_000) == 10_000

    def test_event_fraction_tracks_closed_form(self):
        n = 200_000
        got = mc.count_events("mac", MAC_PARAMS, 7, (0,), n)
        p = -math.expm1(-math.expm1(0.25 * math.log(2.0)) / 3.0)
        assert abs(got / n - p) < 3.0 * math.sqrt(p * (1 - p) / n)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            mc.count_events("nope", MAC_PARAMS, 5, (0,), 16)


# Three helpers (K = 4) for the multihop chain.
RECORD3 = dict(
    RECORD,
    budgets=(1.0, 1.2, 0.8),
    d_jk=(0.6, 0.7, 0.8),
    dj_pow=(0.9, 1.1, 1.0),
    jk_pow=(0.6**4, 0.7**4, 0.8**4),
    hh_pow=((0.0, 0.5, 0.4), (0.5, 0.0, 0.3), (0.4, 0.3, 0.0)),
)
# (kernel, record, column of A_dk, columns of the kernel's draw table)
SCREENED = {
    "rc-ddf": ("rc-ddf", RECORD, 1, 3),
    "uc2-ddf": ("uc2-ddf", RECORD, 2, 5),
    "ucmh-accumulating": ("ucmh-ddf", RECORD, 3, 6),
    "ucmh-per-fraction": ("ucmh-ddf", dict(RECORD, mode="per-fraction"), 3, 6),
    "ucmh-k4": ("ucmh-ddf", RECORD3, 6, 10),
}


def scaled(params, rate, snr_db):
    """params at another rate, with burst and budgets scaled by 10^(snr_db/10)."""
    scale = 10.0 ** (snr_db / 10.0)
    budgets = tuple(b * scale for b in params["budgets"])
    return dict(params, rate=rate, burst=params["burst"] * scale, budgets=budgets)


def keep_every_row(a, dk_col, params):
    return a


class StubDraws:
    """Stands in for a kernel's generator and hands it a fixed draw table."""

    def __init__(self, table):
        self.table = table

    def exponential(self, size):
        assert size == self.table.shape
        return self.table.copy()


class TestDirectScreen:
    """The DDF kernels send only rows whose direct link may miss the rate
    through the rate step; the counts must not change."""

    @pytest.mark.parametrize("rate", (0.0, 0.25, 1.0, 9.0))
    @pytest.mark.parametrize("case", sorted(SCREENED))
    def test_counts_equal_the_unscreened_stream(self, case, rate, monkeypatch):
        kernel, record, _, _ = SCREENED[case]
        kept = []

        def spy(a, dk_col, params):
            out = screen(a, dk_col, params)
            kept.append((len(a), len(out)))
            return out

        screen = mc._direct_screen
        for snr_db in (-10, 0, 10, 20, 30, 40, 50):
            params = scaled(record, rate, snr_db)
            path = (snr_db + 10, 0, 0, 0)
            kept.clear()
            monkeypatch.setattr(mc, "_direct_screen", spy)
            screened = mc.count_events(kernel, params, 21, path, 40_000)
            monkeypatch.setattr(mc, "_direct_screen", keep_every_row)
            assert screened == mc.count_events(kernel, params, 21, path, 40_000), snr_db
            if rate > 0.0 and snr_db >= 30:
                assert sum(k for _, k in kept) < sum(n for n, _ in kept) // 2
        zero = dict(scaled(record, rate, 0), burst=0.0)
        monkeypatch.setattr(mc, "_direct_screen", screen)
        got = mc.count_events(kernel, zero, 21, (0,), 5000)
        assert got == (5000 if rate > 0.0 else 0)

    @pytest.mark.parametrize("case", sorted(SCREENED))
    def test_batch_with_no_surviving_row(self, case):
        kernel, record, dk_col, cols = SCREENED[case]
        params = scaled(record, 0.25, 50)
        table = mc.derive_stream(3, 0).exponential(size=(64, cols))
        table[:, dk_col] = 2.0 * mc._direct_threshold(params)
        assert len(mc._direct_screen(table, dk_col, params)) == 0
        assert mc._KERNELS[kernel](params, StubDraws(table), 64) == 0

    @staticmethod
    def outages_at_cut(case, rate, snr_db, factor, monkeypatch):
        """Unscreened outage count of rows whose A_dk sits at the cut
        threshold * factor and up to four ulps above it, once with every
        helper link zero (the helpers never decode, so theta = 1) and in
        rows with random helper links."""
        kernel, record, dk_col, cols = SCREENED[case]
        params = scaled(record, rate, snr_db)
        cut = mc._direct_threshold(params) * factor
        steps = [cut]
        for _ in range(4):
            steps.append(np.nextafter(steps[-1], np.inf))
        rng = np.random.default_rng(int(rate * 100) + snr_db)
        table = rng.exponential(size=(len(steps), 33, cols))
        table[:, 0] = 0.0
        table[:, :, dk_col] = np.array(steps)[:, None]
        table = table.reshape(-1, cols)
        monkeypatch.setattr(mc, "_direct_screen", keep_every_row)
        return mc._KERNELS[kernel](params, StubDraws(table), len(table))

    @pytest.mark.parametrize("case", sorted(SCREENED))
    def test_dropped_rows_meet_the_rate(self, case, monkeypatch):
        """Every row the screen drops meets the rate through the kernel's own
        rate step, and a cut 1e-9 below the threshold would drop rows
        that do not."""
        for rate in (0.25, 0.5, 1.0, 2.0, 4.0, 9.0):
            for snr_db in (-10, 10, 30, 50):
                keep_cut = 1.0 + mc._SCREEN_MARGIN
                assert self.outages_at_cut(case, rate, snr_db, keep_cut, monkeypatch) == 0
                assert self.outages_at_cut(case, rate, snr_db, 1.0 - 1e-9, monkeypatch) > 0


class TestRayleighDraw:
    """The AF kernels' complex amplitude draw."""

    def test_amp_sq_unit_mean(self):
        amp = mc._rayleigh_complex(np.random.default_rng(9), 10**6, 1)
        np.testing.assert_allclose((np.abs(amp) ** 2).mean(), 1.0, atol=4e-3)

    def test_phase_draw_components(self):
        """Complex amplitudes have two independent N(0, 1/2) components."""
        amp = mc._rayleigh_complex(np.random.default_rng(10), 10**5, 2)
        assert amp.shape == (10**5, 2)
        np.testing.assert_allclose(amp.real.var(), 0.5, atol=1e-2)
        np.testing.assert_allclose(amp.imag.var(), 0.5, atol=1e-2)
        assert abs(np.corrcoef(amp.real[:, 0], amp.imag[:, 0])[0, 1]) < 0.01

    def test_links_uncorrelated(self):
        amp_sq = np.abs(mc._rayleigh_complex(np.random.default_rng(12), 10**5, 3)) ** 2
        corr = np.corrcoef(amp_sq.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.01)


def mac_cells(n_cells, burst=3.0):
    return [(i, 0, "mac", dict(MAC_PARAMS, burst=burst)) for i in range(n_cells)]


class TestRunCells:
    def test_stops_at_first_satisfied_round(self):
        # p ~ 0.066, so the first 2048-trial round already pools > 100 events
        results, flagged = mc.run_cells(mac_cells(1), point_seed=3, target_events=100)
        assert not flagged
        assert results[0].trials == mc.MIN_CELL_TRIALS
        assert results[0].events >= 100

    def test_ceiling_flag_when_events_short(self):
        cells = [(0, 0, "mac", dict(MAC_PARAMS, rate=0.0))]
        results, flagged = mc.run_cells(
            cells, point_seed=3, target_events=10, trial_ceiling=5000
        )
        assert flagged
        assert results[0].trials == 5000
        assert results[0].events == 0

    def test_equal_shares_of_ceiling(self):
        cells = mac_cells(4)
        for c in cells:
            c[3]["rate"] = 0.0
        results, flagged = mc.run_cells(
            cells, point_seed=3, target_events=1, trial_ceiling=40_000
        )
        assert flagged
        assert {r.trials for r in results} == {10_000}

    def test_worker_count_invariance(self):
        cells = mac_cells(3)
        seq, f1 = mc.run_cells(cells, point_seed=11, target_events=500, trial_ceiling=30_000)
        par, f2 = mc.run_cells(
            cells, point_seed=11, target_events=500, trial_ceiling=30_000, workers=2
        )
        assert f1 == f2
        assert seq == par

    def test_cell_list_order_irrelevant(self):
        """Streams are keyed by cell indices, not list position."""
        cells = mac_cells(3)
        fwd, _ = mc.run_cells(cells, point_seed=11, target_events=500, trial_ceiling=30_000)
        rev, _ = mc.run_cells(cells[::-1], point_seed=11, target_events=500, trial_ceiling=30_000)
        assert sorted(fwd, key=lambda c: c.placement_idx) == sorted(
            rev, key=lambda c: c.placement_idx
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.run_cells([], point_seed=1)
        with pytest.raises(ValueError):
            mc.run_cells(mac_cells(5), point_seed=1, trial_ceiling=3)
