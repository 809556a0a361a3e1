"""Tests for the deterministic trial engine.

The scheduling rules (geometric rounds, fixed chunking, keyed streams)
are what make results independent of worker count, so they are pinned
here in detail.
"""

import math
import multiprocessing
import re
from pathlib import Path

import numpy as np
import pytest

from tdcoop import harness, mc
from tdcoop.af import (
    af2_equivalent_channel,
    af2_trial_mutual_info,
    af_trial_mutual_info,
    afmh_trial_mutual_info,
)
from tdcoop.ddf import listen_fraction_rc, trial_mutual_info_rc
from tdcoop.network import DESTINATION, RELAY, GeometryParams, NodePlacement, sample_placement, user_id
from tdcoop.power import PowerConfig
from tdcoop.strategies import parse_strategy


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
    "dk_pow": 1.0, "dj_pow": (0.9, 1.1), "jk_pow": (0.6**4, 0.7**4),
    "hh_pow": ((0.0, 0.5), (0.5, 0.0)),
}
# The relay as the one forwarder: the shared-slot kernel sizes its draws
# from the budgets.
RECORD1 = dict(RECORD, budgets=(1.0,), dj_pow=(0.9,), jk_pow=(0.6**4,), hh_pow=())
MAC_PARAMS = dict(RECORD, rate=0.25)
# Each kernel's outage probability sits well inside (0, 1) at 70,000
# trials.
KERNEL_PARAMS = {
    "mac": MAC_PARAMS,
    "rc-ddf": RECORD1,
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

    @pytest.mark.parametrize("kernel", sorted(KERNEL_PARAMS))
    def test_certain_outcomes_draw_nothing(self, kernel, monkeypatch):
        """At rate 0 no trial fails and with a silent source every trial
        does; count_events decides both before it derives a stream.  The
        kernel's own rate step agrees on rows drawn in full (mac's
        threshold divides by the burst, so it runs at rate 0 only)."""
        idle = dict(KERNEL_PARAMS[kernel], rate=0.0)
        silent = dict(KERNEL_PARAMS[kernel], burst=0.0)
        for params, certain in ((idle, 0), (silent, 5000)):
            if kernel != "mac" or params is idle:
                rows = layout_rows(kernel, params, np.random.default_rng(3), 5000)
                assert rate_count(kernel, params, *rows) == certain
            with monkeypatch.context() as patch:
                patch.setattr(mc, "derive_stream", lambda seed, *path: NoDraws())
                assert mc.count_events(kernel, params, 5, (0,), 5000) == certain

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
    dj_pow=(0.9, 1.1, 1.0),
    jk_pow=(0.6**4, 0.7**4, 0.8**4),
    hh_pow=((0.0, 0.5, 0.4), (0.5, 0.0, 0.3), (0.4, 0.3, 0.0)),
)
# (kernel, record, draw, columns of one trial's row): the DDF kernels
# read exponential rows [A_dk, links...], af2 standard-normal rows, the
# real then the imaginary parts of its 1 + 2m complex links.
SCREENED = {
    "rc-ddf": ("rc-ddf", RECORD1, "exponential", 3),
    "uc2-ddf": ("uc2-ddf", RECORD, "exponential", 5),
    "ucmh-accumulating": ("ucmh-ddf", RECORD, "exponential", 6),
    "ucmh-per-fraction": ("ucmh-ddf", dict(RECORD, mode="per-fraction"), "exponential", 6),
    "ucmh-k4": ("ucmh-ddf", RECORD3, "exponential", 10),
    "af2-m1": ("af2", RECORD1, "standard_normal", 6),
    "af2-m2": ("af2", RECORD, "standard_normal", 10),
}


def scaled(params, rate, snr_db):
    """params at another rate, with burst and budgets scaled by 10^(snr_db/10)."""
    scale = 10.0 ** (snr_db / 10.0)
    budgets = tuple(b * scale for b in params["budgets"])
    return dict(params, rate=rate, burst=params["burst"] * scale, budgets=budgets)


def layout_rows(kernel, params, rng, n, q=None):
    """n trials' (direct gain, links) in the kernel's declared layout, drawn
    from rng as the engine draws them."""
    (draw, columns), _, _ = mc._KERNELS[kernel]
    return mc._rows(draw, columns(len(params["budgets"])), rng, n, q)


def rate_count(kernel, params, direct, links):
    """Outage count of rows handed straight to the kernel's rate function;
    mac, which has none, counts A_dk below its one-slot threshold."""
    rate_of = mc._KERNELS[kernel][1]
    if rate_of is None:
        return int((direct < mc._direct_threshold(params, 1)).sum())
    return int((rate_of(params, direct, links) < params["rate"]).sum())


def complex_links(parts):
    """Complex links from a standard-normal table in the documented layout:
    the real then the imaginary parts, times sqrt(1/2)."""
    links = parts.shape[1] // 2
    return math.sqrt(0.5) * (parts[:, :links] + 1j * parts[:, links:])


class NoDraws:
    """A generator the kernel must not draw from."""

    def exponential(self, size):
        raise AssertionError(f"unexpected draw of {size}")

    standard_normal = exponential

    def binomial(self, n, p):
        raise AssertionError(f"unexpected binomial draw ({n}, {p})")


class RecordedStream:
    """A task's generator that logs each draw: ("binomial", n), or the
    draw's name and its row count."""

    def __init__(self, gen, log):
        self.gen, self.log = gen, log

    def binomial(self, n, p):
        self.log.append(("binomial", n))
        return self.gen.binomial(n, p)

    def exponential(self, size):
        self.log.append(("exponential", size[0]))
        return self.gen.exponential(size=size)

    def standard_normal(self, size):
        self.log.append(("standard_normal", size[0]))
        return self.gen.standard_normal(size)


def documented_rows(kernel, params, seed, path, trials, draw, cols):
    """One task's rows as the documented layout reads them, in one piece.

    The stream first gives the survivor count, binomial (trials, q) with
    q = 1 - exp(-t') and t' the widened direct-link threshold at the
    kernel's slot count (no trial at rate 0, every trial without a draw
    at zero burst), then one row of ``cols`` draws per survivor.  Returns
    the rows as drawn and q (None at zero burst)."""
    rng = mc.derive_stream(seed, *path)
    q = None
    if params["rate"] <= 0.0:
        survivors = 0
    elif params["burst"] <= 0.0:
        survivors = trials
    else:
        slots = 2 if kernel == "af2" else 1
        q = -math.expm1(-mc._direct_threshold(params, slots) * (1.0 + mc._SCREEN_MARGIN))
        survivors = rng.binomial(trials, q)
    if draw == "exponential":
        return rng.exponential(size=(survivors, cols)), q
    return rng.standard_normal((survivors, cols)), q


def truncated(e, q):
    """A_dk given A_dk < t' from an exponential draw, by inversion."""
    return e if q is None else -np.log1p(q * np.expm1(-e))


def unscreened_count(kernel, params, rows, q=None):
    """The outage count of the table's trials, in one batch.

    DDF rows [A_dk, links...] run through the kernel's rate step with
    column 0 conditioned by q.  af2 rows are standard-normal parts,
    sqrt(1/2) (re + i im), of the links [d-k, d-j, j-k]; A_dk is |h_dk|^2
    conditioned by q, and the count comes from the general log-det."""
    if not len(rows):
        return 0
    if kernel == "af2":
        m = len(params["budgets"])
        amp = complex_links(rows)
        ch = af2_equivalent_channel(
            np.sqrt(truncated(np.abs(amp[:, 0]) ** 2, q) / params["dk_pow"]),
            amp[:, 1 : 1 + m] / np.sqrt(params["dj_pow"]),
            amp[:, 1 + m :] / np.sqrt(params["jk_pow"]),
            np.asarray(params["budgets"]),
            params["burst"],
        )
        return int((af_trial_mutual_info(ch, params["burst"]) < params["rate"]).sum())
    return rate_count(kernel, params, truncated(rows[:, 0], q), rows[:, 1:])


class TestDirectScreen:
    """The DDF and af2 kernels draw a task's survivor count and then rows
    for the survivors only, which run the rate step; a dropped trial must
    meet the rate."""

    def spy(self, monkeypatch):
        """Record (task trials, survivors) of every screened task."""
        kept = []
        survivors = mc._survivors

        def spy(params, rng, trials, slots):
            out = survivors(params, rng, trials, slots)
            kept.append((trials, out[0]))
            return out

        monkeypatch.setattr(mc, "_survivors", spy)
        return kept

    @pytest.mark.parametrize("rate", (0.0, 0.25, 1.0, 9.0))
    @pytest.mark.parametrize("case", sorted(SCREENED))
    def test_counts_equal_the_unscreened_stream(self, case, rate, monkeypatch):
        """A task counts what the rate step gives over its documented rows
        in one batch, across the batch boundary."""
        kernel, record, draw, cols = SCREENED[case]
        kept = self.spy(monkeypatch)
        trials = 40_000
        for snr_db in (-10, 0, 10, 20, 30, 40, 50):
            params = scaled(record, rate, snr_db)
            path = (snr_db + 10, 0, 0, 0)
            kept.clear()
            got = mc.count_events(kernel, params, 21, path, trials)
            rows, q = documented_rows(kernel, params, 21, path, trials, draw, cols)
            # At rate 0 the task has no survivor step.
            assert kept == ([(trials, len(rows))] if rate > 0.0 else [])
            assert got == unscreened_count(kernel, params, rows, q), snr_db
            if rate > 0.0 and snr_db == -10:
                assert len(rows) > 2 * mc._BATCH
            # af2's threshold is 2^(2R) - 1: at rate 9 it keeps most rows.
            if 0.0 < rate * (2 if kernel == "af2" else 1) <= 9.0 and snr_db >= 30:
                assert len(rows) < trials // 2
        zero = dict(scaled(record, rate, 0), burst=0.0)
        got = mc.count_events(kernel, zero, 21, (0,), 5000)
        assert got == (5000 if rate > 0.0 else 0)
        rows, q = documented_rows(kernel, zero, 21, (0,), 5000, draw, cols)
        assert got == unscreened_count(kernel, zero, rows, q)

    @pytest.mark.parametrize("case", sorted(SCREENED))
    def test_counts_across_batches_with_no_kept_trial(self, case, monkeypatch):
        """At 64-row batches a task's survivor rows span many batches and
        count as in one; a task with no survivor draws nothing after its
        count, and the task after it counts as it would alone."""
        kernel, record, draw, cols = SCREENED[case]
        monkeypatch.setattr(mc, "_BATCH", 64)
        tasks = (
            (scaled(record, 1.0, 10), (1, 0, 0, 0), 64 * 200 + 7),
            (scaled(record, 1.0, 50), (2, 0, 0, 0), 500),
            (scaled(record, 1.0, 10), (3, 0, 0, 0), 64 * 200 + 7),
        )
        want = [documented_rows(kernel, params, 23, path, trials, draw, cols) for params, path, trials in tasks]
        logs = {}
        derive = mc.derive_stream
        monkeypatch.setattr(
            mc, "derive_stream", lambda seed, *path: RecordedStream(derive(seed, *path), logs.setdefault(path, []))
        )
        for (params, path, trials), (rows, q) in zip(tasks, want):
            got = mc.count_events(kernel, params, 23, path, trials)
            assert got == unscreened_count(kernel, params, rows, q), path
            batches = -(-len(rows) // 64)
            assert logs[path] == [("binomial", trials)] + [
                (draw, min(64, len(rows) - 64 * b)) for b in range(batches)
            ]
        assert len(logs[(2, 0, 0, 0)]) == 1
        assert len(logs[(1, 0, 0, 0)]) > 2 and len(logs[(3, 0, 0, 0)]) > 2

    @pytest.mark.parametrize("case", sorted(SCREENED))
    def test_batch_with_no_surviving_row(self, case, monkeypatch):
        """A task with no survivor draws no row and counts no event; at
        rate 0 it draws nothing at all."""
        kernel, record, _, _ = SCREENED[case]

        class NoSurvivor(NoDraws):
            def binomial(self, n, p):
                return 0

        for params, stream in ((scaled(record, 0.25, 50), NoSurvivor()), (scaled(record, 0.0, 0), NoDraws())):
            monkeypatch.setattr(mc, "derive_stream", lambda seed, *path: stream)
            assert mc.count_events(kernel, params, 1, (0,), 5000) == 0

    @staticmethod
    def outages_at_cut(case, rate, snr_db, factor):
        """Outage count, through the kernel's own rate step, of trials
        whose A_dk sits at the cut threshold * factor and up to four ulps
        above it: once with the forwarders as weak as the scheme allows
        and in trials with random forwarder links.

        DDF: every forwarder link zero, so the forwarders never decode and
        theta = 1.  af2: the helpers hear nothing (h_jk = 0) and reach the
        destination with gain 1e24, so the forwarded noise leaves the
        second slot little more than the direct term over c_s^2 and the
        rate is within about 1e-24 of (1/2) C(P |h_dk|^2).  The af2 links
        are random complex amplitudes, phases included."""
        kernel, record, draw, cols = SCREENED[case]
        params = scaled(record, rate, snr_db)
        cut = mc._direct_threshold(params, 2 if kernel == "af2" else 1) * factor
        steps = [cut]
        for _ in range(4):
            steps.append(np.nextafter(steps[-1], np.inf))
        a_dk = np.repeat(steps, 33)
        rng = np.random.default_rng(int(rate * 100) + snr_db)
        if draw == "exponential":
            fwd = rng.exponential(size=(len(steps), 33, cols - 1))
            fwd[:, 0] = 0.0
            rows = np.column_stack((a_dk, fwd.reshape(-1, cols - 1)))
            return unscreened_count(kernel, params, rows)
        m = len(params["budgets"])
        parts = rng.standard_normal((len(steps), 33, cols))
        weak = parts[:, 0]
        weak[:, 1 : 1 + m] = 1e12
        weak[:, 2 + 2 * m : 2 + 3 * m] = 0.0
        weak[:, 1 + m : 1 + 2 * m] = 0.0
        weak[:, 2 + 3 * m :] = 0.0
        return rate_count(kernel, params, a_dk, complex_links(parts.reshape(-1, cols))[:, 1:])

    @pytest.mark.parametrize("case", sorted(SCREENED))
    def test_dropped_rows_meet_the_rate(self, case):
        """Every trial the screen drops meets the rate through the kernel's
        own rate step, and a cut 1e-9 below the threshold would drop
        trials that do not."""
        for rate in (0.25, 0.5, 1.0, 2.0, 4.0, 9.0):
            for snr_db in (-10, 10, 30, 50):
                keep_cut = 1.0 + mc._SCREEN_MARGIN
                assert self.outages_at_cut(case, rate, snr_db, keep_cut) == 0
                assert self.outages_at_cut(case, rate, snr_db, 1.0 - 1e-9) > 0


# (kernel, record) of every rate step: each DDF multihop mode and each AF
# closed form at two forwarder counts.
RATE_CASES = {
    "mac": ("mac", MAC_PARAMS),
    "rc-ddf": ("rc-ddf", RECORD1),
    "uc2-ddf": ("uc2-ddf", RECORD),
    "ucmh-accumulating": ("ucmh-ddf", RECORD),
    "ucmh-per-fraction": ("ucmh-ddf", dict(RECORD, mode="per-fraction")),
    "af2-m1": ("af2", RECORD1),
    "af2-m2": ("af2", RECORD),
    "afmh-m2": ("afmh", RECORD),
    "afmh-m3": ("afmh", RECORD3),
}


class TestRateFunctions:
    """What an estimator that moves the direct gain relies on."""

    @pytest.mark.parametrize("case", sorted(RATE_CASES))
    def test_rate_nondecreasing_in_the_direct_gain(self, case):
        """Raising column 0 of random rows, by an ulp up to a factor 1e4,
        never lowers the rate by more than 1e-12 relative (mac: never puts
        a trial into outage), and a rate function leaves its rows as they
        were."""
        kernel, record = RATE_CASES[case]
        rate_of = mc._KERNELS[kernel][1]
        rng = np.random.default_rng(43)
        for rate in (0.25, 1.0, 4.0, 9.0):
            for snr_db in (-10, 0, 10, 20, 30, 40, 50):
                params = scaled(record, rate, snr_db)
                direct, links = layout_rows(kernel, params, rng, 3000)
                direct[:500] = 0.0
                raised = direct * 10.0 ** rng.uniform(0.0, 4.0, len(direct)) + rng.exponential(1e-3, len(direct))
                raised[250:750] = np.nextafter(direct[250:750], np.inf)
                if rate_of is None:
                    threshold = mc._direct_threshold(params, 1)
                    assert not np.any((raised < threshold) & (direct >= threshold))
                    continue
                rows = direct.copy(), links.copy()
                low = rate_of(params, direct, links)
                high = rate_of(params, raised, links)
                assert np.array_equal(direct, rows[0]) and np.array_equal(links, rows[1])
                assert np.all(high >= low - 1e-12 * np.abs(low)), (rate, snr_db)
                assert np.any(high > low), (rate, snr_db)


def layout_table(rows):
    """{kernel: (draw, columns at m = 1, 2, 3, screen L)} from the cells of
    a layout table's rows; a column count reads like 1 + 2m."""
    out = {}
    for kernel, draw, columns, slots in rows:
        formula = re.sub(r"(?<=[0-9m)])(?=[m(])", "*", columns)
        counts = tuple(eval(formula, {"__builtins__": {}}, {"m": m}) for m in (1, 2, 3))
        out[kernel.strip("`")] = (draw, counts, None if slots == "-" else int(slots))
    return out


def test_layout_tables_match_the_kernels():
    """The layout tables of the ``mc`` docstring and of README
    "Determinism" both say what ``mc._KERNELS`` declares."""
    want = {
        kernel: (draw, tuple(columns(m) for m in (1, 2, 3)), slots)
        for kernel, ((draw, columns), _, slots) in mc._KERNELS.items()
    }
    doc = mc.__doc__.splitlines()
    top = next(i for i, line in enumerate(doc) if line.split()[:2] == ["kernel", "draw"])
    end = doc.index("", top)
    assert layout_table(re.split(r"\s{2,}", line.strip()) for line in doc[top + 1 : end]) == want
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    top = readme.index("| kernel | draw | columns at m forwarders | screen L |")
    end = readme.index("", top)
    cells = ([cell.strip() for cell in line.strip("|").split("|")] for line in readme[top + 2 : end])
    assert layout_table(cells) == want


def ks_truncated(x, q):
    """Kolmogorov-Smirnov distance of the sample x to (1 - e^-x)/q."""
    x = np.sort(x)
    n = len(x)
    cdf = -np.expm1(-x) / q
    ranks = np.arange(1, n + 1) / n
    return max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n)))


class TestConditionedDirectGain:
    """A survivor's A_dk is the exponential conditioned below the widened
    threshold t', drawn by inversion; af2 takes the exponential from its
    d-k normal pair."""

    @staticmethod
    def params_for(q, slots):
        """A record whose ``slots``-slot survival probability is q."""
        widened = -math.log1p(-q)
        burst = math.expm1(slots * math.log(2.0)) * (1.0 + mc._SCREEN_MARGIN) / widened
        return dict(RECORD1, rate=1.0, dk_pow=1.0, burst=burst)

    @pytest.mark.parametrize("q", (1e-6, 0.05, 0.5, 1.0 - 1e-9))
    def test_truncated_exponential(self, q):
        """Every value lies in [0, t'), and the empirical CDF matches
        (1 - e^-x)/q: the Kolmogorov-Smirnov distance stays below its 1 %
        critical value, 1.63/sqrt(n)."""
        params = self.params_for(q, 1)
        cut = mc._direct_threshold(params, 1) * (1.0 + mc._SCREEN_MARGIN)
        q = -math.expm1(-cut)
        n = 200_000
        x, links = layout_rows("mac", params, np.random.default_rng(31), n, q)
        assert x.shape == (n,) and links.shape == (n, 0) and x.min() >= 0.0 and x.max() < cut
        assert ks_truncated(x, q) < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("q", (1e-6, 0.05, 0.5, 1.0 - 1e-9))
    def test_af2_gain_from_the_normal_pair(self, q, monkeypatch):
        """af2 conditions E = |h_dk|^2 of its d-k normal pair, 0.5 (re^2 +
        im^2), which lies in [0, t') after it and passes the same KS check."""
        params = self.params_for(q, 2)
        cut = mc._direct_threshold(params, 2) * (1.0 + mc._SCREEN_MARGIN)
        q = -math.expm1(-cut)
        seen = []
        conditioned = mc._conditioned

        def spy(e, q):
            # Copies: the kernel works on these arrays in place.
            seen.append(e.copy())
            out = conditioned(e, q)
            seen.append(out.copy())
            return out

        monkeypatch.setattr(mc, "_conditioned", spy)
        n = 200_000
        layout_rows("af2", params, np.random.default_rng(37), n, q)
        e, x = seen
        parts = np.random.default_rng(37).standard_normal((n, 6))
        np.testing.assert_allclose(e, 0.5 * (parts[:, 0] ** 2 + parts[:, 3] ** 2), rtol=1e-15)
        assert x.shape == (n,) and x.min() >= 0.0 and x.max() < cut
        assert ks_truncated(x, q) < 1.63 / math.sqrt(n)

    def test_zero_burst_keeps_the_draw(self):
        """With q None (no screen) every row keeps A_dk as drawn: the
        reference path on which the tests run a kernel's rate step."""
        direct, links = layout_rows("uc2-ddf", RECORD, np.random.default_rng(5), 100)
        got = np.column_stack((direct, links))
        np.testing.assert_array_equal(got, np.random.default_rng(5).exponential(size=(100, 5)))


def count_rc_ddf(params, rng, n, q):
    """The one-forwarder DDF kernel that rc-ddf ran on before it shared the
    uc2 kernel, on the one-stream layout.  Draws: n surviving rows
    [A_dk, A_rk, A_dr], exponential (n, 3) with A_dk conditioned by q;
    the rows go through the one-forwarder rate references."""
    rate, burst = params["rate"], params["burst"]
    a = rng.exponential(size=(n, 3))
    a[:, 0] = truncated(a[:, 0], q)
    theta = listen_fraction_rc(a[:, 1], params["jk_pow"][0], burst, rate)
    mi = trial_mutual_info_rc(
        theta,
        a[:, 0] * burst / params["dk_pow"],
        a[:, 2] * params["budgets"][0] / params["dj_pow"][0],
    )
    return int((mi < rate).sum())


class TestRelayOnSharedSlotKernel:
    """rc-ddf is uc2-ddf with the relay as the one forwarder."""

    def test_one_kernel(self):
        (rc_draw, rc_columns), rc_rate, rc_slots = mc._KERNELS["rc-ddf"]
        (uc2_draw, uc2_columns), uc2_rate, uc2_slots = mc._KERNELS["uc2-ddf"]
        assert rc_rate is uc2_rate
        assert (rc_draw, rc_slots) == (uc2_draw, uc2_slots)
        assert [rc_columns(m) for m in (1, 2, 3)] == [uc2_columns(m) for m in (1, 2, 3)]

    @pytest.mark.parametrize("rate", (0.0, 0.25, 1.0, 9.0))
    @pytest.mark.parametrize(
        "record",
        (RECORD1, dict(RECORD1, dj_pow=(0.4**4,), jk_pow=(1.3**4,))),
        ids=("near-relay", "far-relay"),
    )
    def test_counts_equal_the_one_forwarder_kernel(self, record, rate):
        """Same stream, same counts, across the batch boundary."""
        trials = 2 * mc._BATCH + 777
        counts = []
        for snr_db in (-10, 0, 10, 20, 30, 40, 50):
            params = scaled(record, rate, snr_db)
            path = (snr_db + 10, 1, 0, 0)
            rng = mc.derive_stream(29, *path)
            want = 0
            # At rate 0 the task has no survivor step.
            if rate > 0.0:
                survivors, q = mc._survivors(params, rng, trials, 1)
                for start in range(0, survivors, mc._BATCH):
                    want += count_rc_ddf(params, rng, min(mc._BATCH, survivors - start), q)
            assert mc.count_events("rc-ddf", params, 29, path, trials) == want, snr_db
            counts.append(want)
        assert any(0 < c < trials for c in counts) == (rate > 0.0)


def complex_afmh(params, rng, n):
    """afmh as it counted with its own function: the complex d-k
    amplitude scaled by 1/sqrt(d^gamma), phase kept, into the closed form."""
    m = len(params["budgets"])
    h = complex_links(rng.standard_normal((n, 2 * (1 + 2 * m))))
    h *= 1.0 / np.sqrt(np.array((params["dk_pow"], *params["dj_pow"], *params["jk_pow"])))
    mi = afmh_trial_mutual_info(
        h[:, 0], h[:, 1 : 1 + m], h[:, 1 + m :], params["budgets"], params["burst"]
    )
    return int((mi < params["rate"]).sum())


class TestOneAfCountFunction:
    """af2 and afmh share one row layout and one route into their closed
    forms: they differ only in the closed form their rate function runs
    and in af2's screen."""

    def test_one_function(self):
        """Each AF rate function is its closed form on sqrt(|h_dk|^2 /
        d^gamma) and the links scaled by 1/sqrt(d^gamma), on rows of the
        one complex layout."""
        (af2_draw, af2_columns), af2_rate, _ = mc._KERNELS["af2"]
        (afmh_draw, afmh_columns), afmh_rate, _ = mc._KERNELS["afmh"]
        assert af2_draw == afmh_draw == "complex"
        for record in (RECORD1, RECORD, RECORD3):
            m = len(record["budgets"])
            assert af2_columns(m) == afmh_columns(m) == 1 + 2 * m
            direct, links = layout_rows("af2", record, np.random.default_rng(41), 1000)
            h_dk = np.sqrt(direct * (1.0 / record["dk_pow"]))
            h = links * (1.0 / np.sqrt(np.array((*record["dj_pow"], *record["jk_pow"]))))
            for rate_of, closed_form in ((af2_rate, af2_trial_mutual_info), (afmh_rate, afmh_trial_mutual_info)):
                want = closed_form(h_dk, h[:, :m], h[:, m:], record["budgets"], record["burst"])
                np.testing.assert_array_equal(rate_of(record, direct, links), want)

    @pytest.mark.parametrize("record", (RECORD1, RECORD, RECORD3), ids=("m1", "m2", "m3"))
    def test_afmh_counts_as_its_complex_direct_gain(self, record):
        """afmh's direct gain takes af2's route, sqrt(|h_dk|^2 / d^gamma),
        which moves it by at most an ulp: on the same draws every count
        equals the complex amplitude's."""
        counts = []
        for rate in (0.25, 1.0, 4.0):
            for snr_db in (-10, 0, 10, 20, 30, 40):
                params = scaled(record, rate, snr_db)
                seed = 100 * int(rate * 4) + snr_db + 10
                got = rate_count("afmh", params, *layout_rows("afmh", params, np.random.default_rng(seed), 20_000))
                assert got == complex_afmh(params, np.random.default_rng(seed), 20_000), (rate, snr_db)
                counts.append(got)
        assert any(0 < c < 20_000 for c in counts)


# The acceptance slope benchmark's rim cluster, with a fourth rim user for K = 4.
RIM = ((1.0, 29.0), (0.99, 31.0), (0.98, 33.0), (0.97, 35.0))


def rim_cluster(num_users):
    pos = {DESTINATION: (0.0, 0.0), RELAY: (0.5, 0.0)}
    for k, (r, deg) in enumerate(RIM[:num_users], start=1):
        a = math.radians(deg)
        pos[user_id(k)] = (r * math.cos(a), r * math.sin(a))
    return NodePlacement(params=GeometryParams(num_users=num_users), positions=pos)


def plain_count_events(kernel, params, seed, path, trials):
    """A task as plain Monte Carlo counts it: the certain outcomes as the
    engine decides them, then every trial's row from the task's stream,
    A_dk as drawn, in batches of ``mc._BATCH``; af2 draws with
    ``plain_af2``, every other kernel its declared layout."""
    if params["rate"] <= 0.0:
        return 0
    if params["burst"] <= 0.0:
        return trials
    rng = mc.derive_stream(seed, *path)
    events = 0
    for done in range(0, trials, mc._BATCH):
        n = min(mc._BATCH, trials - done)
        if kernel == "af2":
            events += plain_af2(params, rng, n)
        else:
            events += rate_count(kernel, params, *layout_rows(kernel, params, rng, n))
    return events


def plain_af2(params, rng, n):
    """The af2 kernel without the screen, as it drew before: every trial's
    complex amplitudes [d-k, d-j (m), j-k (m)], d-k phase included,
    scaled by 1/sqrt(d^gamma), through ``af2_trial_mutual_info``."""
    m = len(params["budgets"])
    h = complex_links(rng.standard_normal((n, 2 * (1 + 2 * m))))
    h *= 1.0 / np.sqrt(np.array((params["dk_pow"], *params["dj_pow"], *params["jk_pow"])))
    mi = af2_trial_mutual_info(h[:, 0], h[:, 1 : 1 + m], h[:, 1 + m :], params["budgets"], params["burst"])
    return int((mi < params["rate"]).sum())


class TestTwoStreamLayoutOracle:
    """Thinned sampling (a binomial survivor count, then only the
    survivors' rows) samples the same outage distribution as plain Monte
    Carlo that draws every trial unconditioned and runs it through the
    rate step: event rates from independent seeds agree within 4.5 pooled
    standard errors at 2^20 or more trials per side.  The DDF kernels run
    on the rim cluster; af2 on the rim cluster and on one default-geometry
    placement at low SNR, against the unscreened layout with the d-k
    phase."""

    THINNED_SEED, PLAIN_SEED = 1009, 2003
    # Three SNRs per rate, where the outage runs from about 1e-4 to 0.6.
    POINTS = tuple(
        (rate, snr_db)
        for rate, grid in ((0.25, (-10, -5, 0)), (1.0, (-5, 0, 5)), (9.0, (25, 30, 35)))
        for snr_db in grid
    )

    @pytest.mark.parametrize(
        "name,num_users,mode",
        (
            ("rc-ddf", 3, "accumulating"),
            ("uc2-ddf", 3, "accumulating"),
            ("uc3-ddf", 3, "accumulating"),
            ("uc3-ddf", 3, "per-fraction"),
            ("uc4-ddf", 4, "accumulating"),
        ),
    )
    def test_event_rates_agree(self, name, num_users, mode, monkeypatch):
        strategy = parse_strategy(name, num_users, multihop_mode=mode)
        assert self.agreeing_events(strategy, rim_cluster(num_users), self.POINTS, monkeypatch) > 1000

    # Rate 5 on the rim cluster, where af2's outage runs from about 4e-4
    # to 0.04; rate 0.25 at low SNR on a placement of the default geometry.
    AF2_POINTS = {"rim": ((5.0, 25), (5.0, 30), (5.0, 35)), "area": ((0.25, -10), (0.25, 0))}

    @pytest.mark.parametrize("where", ("rim", "area"))
    @pytest.mark.parametrize(
        "name,coop_sets",
        (("rc-af", None), ("uc2-af", {1: [2], 2: [3], 3: [1]}), ("uc2-af", None)),
        ids=("rc-af", "uc2-af-m1", "uc2-af-m2"),
    )
    def test_af2_event_rates_agree(self, name, coop_sets, where, monkeypatch):
        strategy = parse_strategy(name, 3, coop_sets=coop_sets)
        if where == "rim":
            placement = rim_cluster(3)
        else:
            placement = sample_placement(GeometryParams(), mc.derive_stream(1, 0, 0))
        assert self.agreeing_events(strategy, placement, self.AF2_POINTS[where], monkeypatch) > 1000

    def agreeing_events(self, strategy, placement, points, monkeypatch):
        """Check each point's thinned and plain event rates against each
        other; return the thinned events summed over the points."""
        num_users = placement.params.num_users
        per_user = -(-(1 << 20) // num_users)
        total = 0
        for rate, snr_db in points:
            pc = PowerConfig(rate=rate, user_power=10.0 ** (snr_db / 10.0))
            thinned = harness.estimate_outage(strategy, placement, pc, per_user, self.THINNED_SEED)
            with monkeypatch.context() as patch:
                # Every trial is a row with its A_dk as drawn: no kernel
                # screens, and af2 draws its d-k phase.
                patch.setattr(mc, "count_events", plain_count_events)
                plain = harness.estimate_outage(strategy, placement, pc, per_user, self.PLAIN_SEED)
            n = thinned.trials
            assert n == plain.trials >= 1 << 20
            pooled = (thinned.events + plain.events) / (2 * n)
            se = math.sqrt(2.0 * pooled * (1.0 - pooled) / n)
            assert abs(thinned.events - plain.events) / n <= 4.5 * se, (rate, snr_db, thinned, plain)
            total += thinned.events
        return total


class TestRayleighDraw:
    """The AF kernels' complex amplitude draw."""

    def test_amp_sq_unit_mean(self):
        amp_sq, _ = mc._rows("complex", 1, np.random.default_rng(9), 10**6, None)
        np.testing.assert_allclose(amp_sq.mean(), 1.0, atol=4e-3)

    def test_phase_draw_components(self):
        """Complex amplitudes have two independent N(0, 1/2) components."""
        _, amp = mc._rows("complex", 3, np.random.default_rng(10), 10**5, None)
        assert amp.shape == (10**5, 2)
        np.testing.assert_allclose(amp.real.var(), 0.5, atol=1e-2)
        np.testing.assert_allclose(amp.imag.var(), 0.5, atol=1e-2)
        assert abs(np.corrcoef(amp.real[:, 0], amp.imag[:, 0])[0, 1]) < 0.01

    def test_links_uncorrelated(self):
        direct, links = mc._rows("complex", 3, np.random.default_rng(12), 10**5, None)
        amp_sq = np.column_stack((direct, np.abs(links) ** 2))
        corr = np.corrcoef(amp_sq.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.01)


def mac_cells(n_cells, burst=3.0):
    return [(i, 0, "mac", dict(MAC_PARAMS, burst=burst)) for i in range(n_cells)]


class TestRunCells:
    def test_stops_at_first_satisfied_round(self):
        # p ~ 0.066, so the first 2048-trial round already pools > 100 events
        events, trials, flagged = mc.run_cells(mac_cells(1), point_seed=3, target_events=100)
        assert not flagged
        assert trials == mc.MIN_CELL_TRIALS
        assert events.dtype.kind == "i" and events[0] >= 100

    def test_ceiling_flag_when_events_short(self):
        cells = [(0, 0, "mac", dict(MAC_PARAMS, rate=0.0))]
        events, trials, flagged = mc.run_cells(
            cells, point_seed=3, target_events=10, trial_ceiling=5000
        )
        assert flagged
        assert trials == 5000
        assert events.tolist() == [0]

    def test_equal_shares_of_ceiling(self):
        cells = mac_cells(4)
        for c in cells:
            c[3]["rate"] = 0.0
        events, trials, flagged = mc.run_cells(
            cells, point_seed=3, target_events=1, trial_ceiling=40_000
        )
        assert flagged
        assert trials == 10_000
        assert events.shape == (4,)

    def test_worker_count_invariance(self, spy_pool):
        """Without a pool every round runs in this process, also one past
        the start threshold; a 2-worker handle gives the same table."""
        # Rounds of 6,144 then 18,432 trials against a start threshold of
        # 2 * 4096: the second round runs on the two workers.
        pools = spy_pool(task_trials=4096, cpus=2)
        cells = mac_cells(3)
        seq = mc.run_cells(cells, point_seed=11, target_events=500, trial_ceiling=30_000)
        assert pools == []
        with mc.worker_pool(2) as pool:
            par = mc.run_cells(cells, point_seed=11, target_events=500, trial_ceiling=30_000, pool=pool)
        assert seq[1:] == par[1:]
        assert seq[0].tolist() == par[0].tolist()
        assert pools == [dict(workers=2, method="spawn", rounds=[18_432])]

    def test_workers_start_once_and_run_every_later_round(self, spy_pool, monkeypatch):
        """A sweep's rounds run in its own process until the first round of
        at least workers * MAX_TASK_TRIALS trials.  The workers start
        there, once, and run every later round of the sweep, small ones
        included; the count tables match one worker's."""
        pools = spy_pool(task_trials=4096, cpus=2)
        in_process = []
        count_events = mc.count_events

        def counted(kernel, params, seed, path, trials):
            in_process.append(trials)
            return count_events(kernel, params, seed, path, trials)

        monkeypatch.setattr(mc, "count_events", counted)
        # One 2,048-trial round, then 6,144 and 18,432 (the threshold is
        # 2 * 4096), then one 2,048-trial round again.
        points = [(mac_cells(1), 100, 40_000), (mac_cells(3), 500, 30_000), (mac_cells(1), 100, 40_000)]

        def sweep(workers):
            with mc.worker_pool(workers) as pool:
                tables = [
                    mc.run_cells(cells, point_seed=seed, target_events=target, trial_ceiling=ceiling, pool=pool)
                    for seed, (cells, target, ceiling) in enumerate(points)
                ]
            return [(events.tolist(), trials, flagged) for events, trials, flagged in tables]

        par = sweep(2)
        assert pools == [dict(workers=2, method="spawn", rounds=[18_432, 2048])]
        assert in_process == [2048] * 4
        assert multiprocessing.active_children() == []
        in_process.clear()
        assert sweep(1) == par
        assert sum(in_process) == 2048 + 3 * 8192 + 2048
        assert len(pools) == 1

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        """The pool never has more workers than CPUs, and the start
        threshold uses that capped count."""
        built = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                built.append(max_workers)

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

            def shutdown(self):
                pass

        monkeypatch.setattr(mc, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(mc, "MAX_TASK_TRIALS", 2048)
        monkeypatch.setattr(mc, "_cpu_count", lambda: 3)
        # Rounds of 4,096 then 12,288 trials: below and above 3 * 2048,
        # far below 1000 * 2048.
        cells = mac_cells(2)
        seq = mc.run_cells(cells, point_seed=11, target_events=500, trial_ceiling=30_000)
        with mc.worker_pool(1000) as pool:
            par = mc.run_cells(cells, point_seed=11, target_events=500, trial_ceiling=30_000, pool=pool)
        assert built == [3]
        assert seq[1:] == par[1:] == (8192, False)
        assert seq[0].tolist() == par[0].tolist()

    def test_cell_list_order_irrelevant(self):
        """Streams are keyed by cell indices, not list position; events come
        back in the order of the cells passed."""
        cells = mac_cells(3)
        fwd = mc.run_cells(cells, point_seed=11, target_events=500, trial_ceiling=30_000)
        rev = mc.run_cells(cells[::-1], point_seed=11, target_events=500, trial_ceiling=30_000)
        assert fwd[1:] == rev[1:]
        assert fwd[0].tolist() == rev[0][::-1].tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.run_cells([], point_seed=1)
        with pytest.raises(ValueError):
            mc.run_cells(mac_cells(5), point_seed=1, trial_ceiling=3)
