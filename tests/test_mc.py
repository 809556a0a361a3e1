"""Tests for the deterministic trial engine.

The scheduling rules (geometric rounds, fixed chunking, keyed streams)
are what make results independent of worker count, so they are pinned
here in detail.
"""

import math
import multiprocessing
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from tdcoop import harness, mc
from tdcoop.af import (
    af2_equivalent_channel,
    af2_trial_mutual_info,
    af_trial_mutual_info,
    afmh_equivalent_channel,
    afmh_trial_mutual_info,
)
from tdcoop.ddf import listen_fraction_rc, trial_mutual_info_rc
from tdcoop.network import DESTINATION, RELAY, GeometryParams, NodePlacement, sample_placement, user_id
from tdcoop.power import PowerConfig
from tdcoop.strategies import parse_strategy

from oracles import af2_complex_mutual_info, af_row_gains, afmh_complex_mutual_info


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

    def test_key_words_are_the_ones_numpy_makes_from_the_list(self, monkeypatch):
        """On 20,000 keys the Philox state equals that of
        ``Philox(key=[seed, path word])``, whose list numpy turns into
        float64 when it straddles 2^63: seeds and path words near 0, 2^53,
        2^63 and 2^64 and random ones across the 64-bit range.  The path
        word is given as it is (``mix64`` stands aside)."""
        monkeypatch.setattr(mc, "mix64", lambda word: word)
        corners = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 5, 2**64 - 1]
        rng = np.random.default_rng(59)
        words = [int(w) for w in rng.integers(0, 2**64, size=2 * 19_900, dtype=np.uint64)]
        words += [int(w) for w in rng.integers(0, 2**53, size=2 * 100)]
        keys = [(a, b) for a in corners for b in corners] + list(zip(words[::2], words[1::2]))
        assert len(keys) >= 20_000
        with np.errstate(invalid="ignore"):
            for seed, word in keys:
                got = mc.derive_stream(seed, word).bit_generator.state
                want = np.random.Philox(key=[seed, word]).state
                assert got.keys() == want.keys() and got["state"].keys() == want["state"].keys()
                for name in ("counter", "key"):
                    assert np.array_equal(got["state"][name], want["state"][name]), (seed, word)
                for name in ("buffer", "buffer_pos", "has_uint32", "uinteger"):
                    assert np.array_equal(got[name], want[name]), (seed, word)

    def test_reads_no_os_entropy(self):
        """Deriving a stream never calls ``SystemRandom.getrandbits``, which
        ``Philox(key=...)`` calls for a seed sequence it then drops."""
        target = random.SystemRandom.getrandbits.__code__

        def getrandbits_calls(derive):
            calls = []

            def profile(frame, event, arg):
                if event == "call" and frame.f_code is target:
                    calls.append(event)

            sys.setprofile(profile)
            try:
                for i in range(100):
                    derive(9, i)
            finally:
                sys.setprofile(None)
            return len(calls)

        # The probe sees the calls that Philox(key=...) makes.
        assert getrandbits_calls(lambda seed, i: np.random.Philox(key=[seed, i])) >= 100
        assert getrandbits_calls(mc.derive_stream) == 0


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
        kernel's own rate step agrees on rows drawn in full."""
        idle = dict(KERNEL_PARAMS[kernel], rate=0.0)
        silent = dict(KERNEL_PARAMS[kernel], burst=0.0)
        for params, certain in ((idle, 0), (silent, 5000)):
            snr = layout_snrs(kernel, params, np.random.default_rng(3), 5000)
            assert rate_count(kernel, params, snr) == certain
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
# (kernel, record, columns of one trial's exponential row [A_dk,
# links...]): af2 at m = 2 ends its row in two phase columns.
SCREENED = {
    "rc-ddf": ("rc-ddf", RECORD1, 3),
    "uc2-ddf": ("uc2-ddf", RECORD, 5),
    "ucmh-accumulating": ("ucmh-ddf", RECORD, 6),
    "ucmh-per-fraction": ("ucmh-ddf", dict(RECORD, mode="per-fraction"), 6),
    "ucmh-k4": ("ucmh-ddf", RECORD3, 10),
    "af2-m1": ("af2", RECORD1, 3),
    "af2-m2": ("af2", RECORD, 7),
}


def scaled(params, rate, snr_db):
    """params at another rate, with burst and budgets scaled by 10^(snr_db/10)."""
    scale = 10.0 ** (snr_db / 10.0)
    budgets = tuple(b * scale for b in params["budgets"])
    return dict(params, rate=rate, burst=params["burst"] * scale, budgets=budgets)


def direct_threshold(params, slots):
    """The documented screen threshold, read from the record: the direct
    draw A_dk at which (1/slots) C(A_dk * burst / dk_pow) equals the rate,
    expm1(slots R ln 2) over the direct gain burst / dk_pow."""
    return math.expm1(slots * params["rate"] * math.log(2.0)) / (params["burst"] / params["dk_pow"])


def layout_rows(kernel, params, rng, n):
    """n trials' unconditioned rows in the kernel's declared layout, one
    ``exponential`` (n, width) draw with the width of the cell's SNR
    table."""
    columns, _, _ = mc._snr_table(kernel, params)
    return rng.exponential(size=(n, columns[-1] + 1))


def row_snrs(kernel, params, rows):
    """The received SNRs of rows [A_dk, links...]: the cell's SNR table's
    product rows[:, columns] * gains."""
    columns, gains, _ = mc._snr_table(kernel, params)
    return rows[:, columns] * gains


def layout_snrs(kernel, params, rng, n, q=None):
    """n trials' received SNRs as the engine forms them from rng, the
    direct draw conditioned by q."""
    columns, gains, _ = mc._snr_table(kernel, params)
    return mc._snrs(columns, gains, rng, n, q)


def rate_count(kernel, params, snr):
    """Outage count of SNRs handed straight to the kernel's rate function."""
    rate_of, _ = mc._KERNELS[kernel]
    m = mc._snr_table(kernel, params)[2]
    return int((rate_of(snr, m, params["rate"], params["mode"]) < params["rate"]).sum())


def slogdet_count(kernel, params, gains):
    """Outage count, through the general log-det of the AF kernel's
    equivalent-channel matrix, of complex gains (h_dk, h_dj, h_jk)."""
    build = af2_equivalent_channel if kernel == "af2" else afmh_equivalent_channel
    ch = build(*gains, np.asarray(params["budgets"]), params["burst"])
    return int((af_trial_mutual_info(ch, params["burst"]) < params["rate"]).sum())


class NoDraws:
    """A generator the kernel must not draw from."""

    def exponential(self, size):
        raise AssertionError(f"unexpected draw of {size}")

    def binomial(self, n, p):
        raise AssertionError(f"unexpected binomial draw ({n}, {p})")


class RecordedStream:
    """A task's generator that logs each draw: ("binomial", n) or
    ("exponential", its row count)."""

    def __init__(self, gen, log):
        self.gen, self.log = gen, log

    def binomial(self, n, p):
        self.log.append(("binomial", n))
        return self.gen.binomial(n, p)

    def exponential(self, size):
        self.log.append(("exponential", size[0]))
        return self.gen.exponential(size=size)


def documented_rows(kernel, params, seed, path, trials, cols):
    """One task's rows as the documented layout reads them, in one piece.

    The stream first gives the survivor count, binomial (trials, q) with
    q = 1 - exp(-t') and t' the widened direct-link threshold at the
    kernel's slot count (no trial at rate 0, every trial without a draw
    at zero burst), then one row of ``cols`` exponentials per survivor.  Returns
    the rows as drawn and q (None at zero burst)."""
    rng = mc.derive_stream(seed, *path)
    q = None
    if params["rate"] <= 0.0:
        survivors = 0
    elif params["burst"] <= 0.0:
        survivors = trials
    else:
        slots = 2 if kernel == "af2" else 1
        q = -math.expm1(-direct_threshold(params, slots) * (1.0 + mc._SCREEN_MARGIN))
        survivors = rng.binomial(trials, q)
    return rng.exponential(size=(survivors, cols)), q


def truncated(e, q):
    """A_dk given A_dk < t' from an exponential draw, by inversion."""
    return e if q is None else -np.log1p(q * np.expm1(-e))


def unscreened_count(kernel, params, rows, q=None):
    """The outage count of the table's trials, in one batch.

    Rows [A_dk, links...] have column 0 conditioned by q.  DDF rows run
    through the kernel's rate step on their received SNRs; af2 rows
    become complex gains with their magnitudes and phases, and the count
    comes from the general log-det."""
    if not len(rows):
        return 0
    rows = np.column_stack((truncated(rows[:, 0], q), rows[:, 1:]))
    if kernel == "af2":
        return slogdet_count(kernel, params, af_row_gains(params, rows[:, 0], rows[:, 1:]))
    return rate_count(kernel, params, row_snrs(kernel, params, rows))


class TestDirectScreen:
    """The DDF and af2 kernels draw a task's survivor count and then rows
    for the survivors only, which run the rate step; a dropped trial must
    meet the rate."""

    def spy(self, monkeypatch):
        """Record (task trials, survivors) of every screened task."""
        kept = []
        survivors = mc._survivors

        def spy(rng, trials, rate, gain, slots):
            out = survivors(rng, trials, rate, gain, slots)
            kept.append((trials, out[0]))
            return out

        monkeypatch.setattr(mc, "_survivors", spy)
        return kept

    @pytest.mark.parametrize("rate", (0.0, 0.25, 1.0, 9.0))
    @pytest.mark.parametrize("case", sorted(SCREENED))
    def test_counts_equal_the_unscreened_stream(self, case, rate, monkeypatch):
        """A task counts what the rate step gives over its documented rows
        in one batch, across the batch boundary."""
        kernel, record, cols = SCREENED[case]
        kept = self.spy(monkeypatch)
        trials = 40_000
        for snr_db in (-10, 0, 10, 20, 30, 40, 50):
            params = scaled(record, rate, snr_db)
            path = (snr_db + 10, 0, 0, 0)
            kept.clear()
            got = mc.count_events(kernel, params, 21, path, trials)
            rows, q = documented_rows(kernel, params, 21, path, trials, cols)
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
        rows, q = documented_rows(kernel, zero, 21, (0,), 5000, cols)
        assert got == unscreened_count(kernel, zero, rows, q)

    @pytest.mark.parametrize("case", sorted(SCREENED))
    def test_counts_across_batches_with_no_kept_trial(self, case, monkeypatch):
        """At 64-row batches a task's survivor rows span many batches and
        count as in one; a task with no survivor draws nothing after its
        count, and the task after it counts as it would alone."""
        kernel, record, cols = SCREENED[case]
        monkeypatch.setattr(mc, "_BATCH", 64)
        tasks = (
            (scaled(record, 1.0, 10), (1, 0, 0, 0), 64 * 200 + 7),
            (scaled(record, 1.0, 50), (2, 0, 0, 0), 500),
            (scaled(record, 1.0, 10), (3, 0, 0, 0), 64 * 200 + 7),
        )
        want = [documented_rows(kernel, params, 23, path, trials, cols) for params, path, trials in tasks]
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
                ("exponential", min(64, len(rows) - 64 * b)) for b in range(batches)
            ]
        assert len(logs[(2, 0, 0, 0)]) == 1
        assert len(logs[(1, 0, 0, 0)]) > 2 and len(logs[(3, 0, 0, 0)]) > 2

    @pytest.mark.parametrize("case", sorted(SCREENED))
    def test_batch_with_no_surviving_row(self, case, monkeypatch):
        """A task with no survivor draws no row and counts no event; at
        rate 0 it draws nothing at all."""
        kernel, record, _ = SCREENED[case]

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
        theta = 1.  af2: the helpers hear nothing (A_jk = 0) and reach the
        destination with gain A_dj = 1e24, so the forwarded noise leaves
        the second slot little more than the direct term over c_s^2 and
        the rate is within about 1e-24 of (1/2) C(P A_dk / dk_pow).  The
        af2 rows keep their random phase columns."""
        kernel, record, cols = SCREENED[case]
        params = scaled(record, rate, snr_db)
        cut = direct_threshold(params, 2 if kernel == "af2" else 1) * factor
        steps = [cut]
        for _ in range(4):
            steps.append(np.nextafter(steps[-1], np.inf))
        a_dk = np.repeat(steps, 33)
        rng = np.random.default_rng(int(rate * 100) + snr_db)
        fwd = rng.exponential(size=(len(steps), 33, cols - 1))
        if kernel == "af2":
            m = len(params["budgets"])
            fwd[:, 0, :m] = 0.0
            fwd[:, 0, m : 2 * m] = 1e24
        else:
            fwd[:, 0] = 0.0
        rows = np.column_stack((a_dk, fwd.reshape(-1, cols - 1)))
        return rate_count(kernel, params, row_snrs(kernel, params, rows))

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

# (kernel, record) of every rate function at each forwarder count it runs
# at: mac has no forwarder, rc-ddf one.
RECEIVED_CASES = {
    "mac": ("mac", RECORD),
    "rc-ddf": ("rc-ddf", RECORD1),
    **{
        f"{kernel}-m{len(record['budgets'])}": (kernel, record)
        for kernel in ("uc2-ddf", "ucmh-ddf", "af2", "afmh")
        for record in (RECORD1, RECORD, RECORD3)
    },
}


class TestRateFunctions:
    """What an estimator that moves the direct gain relies on."""

    @pytest.mark.parametrize("case", sorted(RATE_CASES))
    def test_rate_nondecreasing_in_the_direct_gain(self, case):
        """Raising the direct SNR (column 0) of random SNR rows, by an ulp
        up to a factor 1e4, never lowers the rate by more than 1e-12
        relative, and a rate function leaves its SNRs as they were."""
        kernel, record = RATE_CASES[case]
        rate_of, _ = mc._KERNELS[kernel]
        rng = np.random.default_rng(43)
        for rate in (0.25, 1.0, 4.0, 9.0):
            for snr_db in (-10, 0, 10, 20, 30, 40, 50):
                params = scaled(record, rate, snr_db)
                m = mc._snr_table(kernel, params)[2]
                snr = layout_snrs(kernel, params, rng, 3000)
                snr[:500, 0] = 0.0
                raised = snr.copy()
                raised[:, 0] = snr[:, 0] * 10.0 ** rng.uniform(0.0, 4.0, len(snr)) + rng.exponential(1e-3, len(snr))
                raised[250:750, 0] = np.nextafter(snr[250:750, 0], np.inf)
                before = snr.copy(), raised.copy()
                low = rate_of(snr, m, rate, params["mode"])
                high = rate_of(raised, m, rate, params["mode"])
                assert np.array_equal(snr, before[0]) and np.array_equal(raised, before[1])
                assert np.all(high >= low - 1e-12 * np.abs(low)), (rate, snr_db)
                assert np.any(high > low), (rate, snr_db)

    @pytest.mark.parametrize("case", sorted(RECEIVED_CASES))
    def test_rate_reads_only_received_snrs(self, case):
        """Scaling the burst, dk_pow and jk_pow by one factor and the
        budgets, dj_pow and hh_pow by another keeps the SNR table: the
        same columns and forwarder count, every gain P/d^gamma to 1e-15
        relative, and so the rate function's mutual information on the
        same draws to 1e-12 relative."""
        kernel, record = RECEIVED_CASES[case]
        rate_of, _ = mc._KERNELS[kernel]
        rng = np.random.default_rng(47)
        for source, forwarder in ((10.0**0.37, 10.0**-1.3), (10.0**-2.1, 10.0**1.7)):
            for rate in (0.25, 1.0, 4.0):
                for snr_db in (-10, 10, 30, 50):
                    params = scaled(record, rate, snr_db)
                    moved = dict(
                        params,
                        burst=params["burst"] * source,
                        dk_pow=params["dk_pow"] * source,
                        jk_pow=tuple(p * source for p in params["jk_pow"]),
                        budgets=tuple(b * forwarder for b in params["budgets"]),
                        dj_pow=tuple(p * forwarder for p in params["dj_pow"]),
                        hh_pow=tuple(tuple(p * forwarder for p in row) for row in params["hh_pow"]),
                    )
                    columns, gains, m = mc._snr_table(kernel, params)
                    moved_columns, moved_gains, moved_m = mc._snr_table(kernel, moved)
                    assert np.array_equal(moved_columns, columns) and moved_m == m
                    np.testing.assert_allclose(moved_gains, gains, rtol=1e-15, atol=0.0)
                    rows = layout_rows(kernel, params, rng, 2000)
                    want = rate_of(rows[:, columns] * gains, m, rate, params["mode"])
                    assert np.all(want > 0.0)
                    got = rate_of(rows[:, columns] * moved_gains, m, rate, params["mode"])
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def layout_table(rows):
    """{kernel: (columns at m = 1, 2, 3, screen L)} from the cells of a
    layout table's rows; a column count reads like 1 + 2m, or like
    "1 + 2m, 1 + 3m at m >= 2" where it changes at m = 2."""
    out = {}
    for kernel, columns, slots in rows:
        formulas = [
            re.sub(r"(?<=[0-9m)])(?=[m(])", "*", f) for f in columns.removesuffix(" at m >= 2").split(", ")
        ]
        counts = tuple(eval(formulas[min(m, len(formulas)) - 1], {"__builtins__": {}}, {"m": m}) for m in (1, 2, 3))
        out[kernel.strip("`")] = (counts, None if slots == "-" else int(slots))
    return out


def draw_width(kernel, record):
    """Columns of a kernel's row: the draw width of its SNR table."""
    return int(mc._snr_table(kernel, record)[0][-1]) + 1


def test_layout_tables_match_the_kernels():
    """The layout tables of the ``mc`` docstring and of README
    "Determinism" both give the draw widths of the kernels' SNR tables
    at m = 1, 2 and 3 forwarders and the screens ``mc._KERNELS``
    declares."""
    want = {
        kernel: (tuple(draw_width(kernel, record) for record in (RECORD1, RECORD, RECORD3)), slots)
        for kernel, (_, slots) in mc._KERNELS.items()
    }
    doc = mc.__doc__.splitlines()
    top = next(i for i, line in enumerate(doc) if line.split()[:2] == ["kernel", "columns"])
    end = doc.index("", top)
    assert layout_table(re.split(r"\s{2,}", line.strip()) for line in doc[top + 1 : end]) == want
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    top = readme.index("| kernel | columns at m forwarders | screen L |")
    end = readme.index("", top)
    cells = ([cell.strip() for cell in line.strip("|").split("|")] for line in readme[top + 2 : end])
    assert layout_table(cells) == want


def documented_snrs(kernel, record, rng, n):
    """n trials' received SNRs, read from the record apart from ``mc``:
    one row of exponentials per trial, A_dk, then A_jk (m), ucmh-ddf's
    helper pairs, A_dj (m) and af2's phase draws at m >= 2, and each draw
    times its sender's power over the link's d^gamma.  The columns: the
    direct link, the source into each forwarder, the helper pairs (h < j,
    row-major; h hearing j at budgets[j], then j hearing h at
    budgets[h]), each forwarder into the destination, then the phase
    draws as they are.  mac has no forwarder."""
    m = 0 if kernel == "mac" else len(record["budgets"])
    burst, budgets = record["burst"], record["budgets"]
    pairs = m * (m - 1) // 2 if kernel == "ucmh-ddf" else 0
    phases = m if kernel == "af2" and m > 1 else 0
    draws = iter(rng.exponential(size=(n, 1 + 2 * m + pairs + phases)).T)
    out = [next(draws) * burst / record["dk_pow"]]
    out += [next(draws) * burst / record["jk_pow"][j] for j in range(m)]
    if kernel == "ucmh-ddf":
        for h in range(m):
            for j in range(h + 1, m):
                a = next(draws)
                out += [a * budgets[j] / record["hh_pow"][h][j], a * budgets[h] / record["hh_pow"][j][h]]
    out += [next(draws) * budgets[j] / record["dj_pow"][j] for j in range(m)]
    out += [next(draws) for _ in range(phases)]
    return np.column_stack(out)


# Unequal budgets and one-way d^gamma between helpers, so that a pair
# read in the wrong direction moves its SNR.
SKEWED3 = dict(RECORD3, hh_pow=((0.0, 0.5, 0.4), (0.45, 0.0, 0.3), (0.35, 0.25, 0.0)))


@pytest.mark.parametrize("record", (RECORD1, RECORD, RECORD3, SKEWED3), ids=("m1", "m2", "m3", "m3-skewed"))
@pytest.mark.parametrize("kernel", sorted(mc._KERNELS))
def test_snr_table_reads_each_link(kernel, record):
    """Every SNR column the engine forms from a stream is its draw times
    the sender's power over d^gamma, read from the record apart from
    ``mc``, to 1e-15 relative, on rows of the same width.  mac reads only
    the direct link although its record lists budgets."""
    snr = layout_snrs(kernel, record, np.random.default_rng(53), 500)
    want = documented_snrs(kernel, record, np.random.default_rng(53), 500)
    assert snr.shape == want.shape
    np.testing.assert_allclose(snr, want, rtol=1e-15, atol=0.0)


def ks_two_sample(a, b):
    """Kolmogorov-Smirnov distance between the samples a and b."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate((a, b))
    return np.max(np.abs(np.searchsorted(a, grid, "right") / len(a) - np.searchsorted(b, grid, "right") / len(b)))


def ks_truncated(x, q):
    """Kolmogorov-Smirnov distance of the sample x to (1 - e^-x)/q."""
    x = np.sort(x)
    n = len(x)
    cdf = -np.expm1(-x) / q
    ranks = np.arange(1, n + 1) / n
    return max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n)))


class TestConditionedDirectGain:
    """A survivor's A_dk is the exponential conditioned below the widened
    threshold t', drawn by inversion; af2's exponential has the law of the
    |h_dk|^2 of the d-k normal pair it drew before."""

    @staticmethod
    def params_for(q, slots):
        """A record whose ``slots``-slot survival probability is q."""
        widened = -math.log1p(-q)
        burst = math.expm1(slots * math.log(2.0)) * (1.0 + mc._SCREEN_MARGIN) / widened
        return dict(RECORD1, rate=1.0, dk_pow=1.0, burst=burst)

    @staticmethod
    def conditioned_draws(kernel, params, seed, n, q, monkeypatch):
        """The direct draws E of n trials' SNRs formed from
        default_rng(seed) with the screen's q, before and after
        ``mc._conditioned``, and the SNRs."""
        seen = []
        conditioned = mc._conditioned

        def spy(e, q):
            # Copies: the engine works on these arrays in place.
            seen.append(e.copy())
            out = conditioned(e, q)
            seen.append(out.copy())
            return out

        monkeypatch.setattr(mc, "_conditioned", spy)
        snr = layout_snrs(kernel, params, np.random.default_rng(seed), n, q)
        return (*seen, snr)

    @pytest.mark.parametrize("q", (1e-6, 0.05, 0.5, 1.0 - 1e-9))
    def test_truncated_exponential(self, q, monkeypatch):
        """Every value lies in [0, t'), and the empirical CDF matches
        (1 - e^-x)/q: the Kolmogorov-Smirnov distance stays below its 1 %
        critical value, 1.63/sqrt(n).  mac's one SNR column is x times
        burst / dk_pow."""
        params = self.params_for(q, 1)
        cut = direct_threshold(params, 1) * (1.0 + mc._SCREEN_MARGIN)
        q = -math.expm1(-cut)
        n = 200_000
        _, x, snr = self.conditioned_draws("mac", params, 31, n, q, monkeypatch)
        assert x.shape == (n,) and snr.shape == (n, 1) and x.min() >= 0.0 and x.max() < cut
        np.testing.assert_array_equal(snr[:, 0], x * (params["burst"] / params["dk_pow"]))
        assert ks_truncated(x, q) < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("q", (1e-6, 0.05, 0.5, 1.0 - 1e-9))
    def test_af2_gain_from_the_normal_pair(self, q, monkeypatch):
        """af2 conditions column 0 of its exponential row, E, whose law is
        that of |h_dk|^2 = 0.5 (re^2 + im^2) of a d-k normal pair: the
        two-sample KS distance stays below its 1 % critical value,
        1.63 sqrt(2/n).  E lies in [0, t') after it and passes the same KS
        check."""
        params = self.params_for(q, 2)
        cut = direct_threshold(params, 2) * (1.0 + mc._SCREEN_MARGIN)
        q = -math.expm1(-cut)
        n = 200_000
        e, x, _ = self.conditioned_draws("af2", params, 37, n, q, monkeypatch)
        np.testing.assert_array_equal(e, np.random.default_rng(37).exponential(size=(n, 3))[:, 0])
        parts = np.random.default_rng(38).standard_normal((n, 2))
        assert ks_two_sample(e, 0.5 * (parts[:, 0] ** 2 + parts[:, 1] ** 2)) < 1.63 * math.sqrt(2.0 / n)
        assert x.shape == (n,) and x.min() >= 0.0 and x.max() < cut
        assert ks_truncated(x, q) < 1.63 / math.sqrt(n)

    def test_zero_burst_keeps_the_draw(self):
        """With q None (no screen) every row keeps A_dk as drawn: the
        reference path on which the tests run a kernel's rate step."""
        snr = layout_snrs("uc2-ddf", RECORD, np.random.default_rng(5), 100)
        want = row_snrs("uc2-ddf", RECORD, np.random.default_rng(5).exponential(size=(100, 5)))
        np.testing.assert_array_equal(snr, want)


def count_rc_ddf(params, rng, n, q):
    """The one-forwarder DDF kernel that rc-ddf ran on before it shared the
    uc2 kernel, on the one-stream layout.  Draws: n surviving rows
    [A_dk, A_rk, A_dr], exponential (n, 3) with A_dk conditioned by q;
    the rows go through the one-forwarder rate references, each SNR
    formed as the engine forms it, A * (P / d^gamma)."""
    rate, burst = params["rate"], params["burst"]
    a = rng.exponential(size=(n, 3))
    a[:, 0] = truncated(a[:, 0], q)
    theta = listen_fraction_rc(a[:, 1] * (burst / params["jk_pow"][0]), rate)
    mi = trial_mutual_info_rc(
        theta,
        a[:, 0] * (burst / params["dk_pow"]),
        a[:, 2] * (params["budgets"][0] / params["dj_pow"][0]),
    )
    return int((mi < rate).sum())


class TestRelayOnSharedSlotKernel:
    """rc-ddf is uc2-ddf with the relay as the one forwarder."""

    def test_one_kernel(self):
        rc_rate, rc_slots = mc._KERNELS["rc-ddf"]
        uc2_rate, uc2_slots = mc._KERNELS["uc2-ddf"]
        assert rc_rate is uc2_rate
        assert rc_slots == uc2_slots
        for record in (RECORD1, RECORD, RECORD3):
            rc_table, uc2_table = mc._snr_table("rc-ddf", record), mc._snr_table("uc2-ddf", record)
            assert all(np.array_equal(a, b) for a, b in zip(rc_table, uc2_table))

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
                survivors, q = mc._survivors(rng, trials, rate, params["burst"] / params["dk_pow"], 1)
                for start in range(0, survivors, mc._BATCH):
                    want += count_rc_ddf(params, rng, min(mc._BATCH, survivors - start), q)
            assert mc.count_events("rc-ddf", params, 29, path, trials) == want, snr_db
            counts.append(want)
        assert any(0 < c < trials for c in counts) == (rate > 0.0)


def complex_count(kernel, params, rng, n):
    """An AF kernel's outage count on the complex layout it drew before:
    every trial's amplitudes [d-k, d-j (m), j-k (m)] from
    ``rng.standard_normal`` (n, 2(1 + 2m)), the real then the imaginary
    parts times sqrt(1/2), scaled by 1/sqrt(d^gamma), through the retired
    complex closed forms: the burst times |h_dk|^2, h_dj times
    sqrt(budget) and h_jk times sqrt(burst).  No screen; every phase is
    kept."""
    m = len(params["budgets"])
    burst = params["burst"]
    parts = rng.standard_normal((n, 2 * (1 + 2 * m)))
    h = math.sqrt(0.5) * (parts[:, : 1 + 2 * m] + 1j * parts[:, 1 + 2 * m :])
    h *= 1.0 / np.sqrt(np.array((params["dk_pow"], *params["dj_pow"], *params["jk_pow"])))
    closed_form = af2_complex_mutual_info if kernel == "af2" else afmh_complex_mutual_info
    dj_amp = h[:, 1 : 1 + m] * np.sqrt(params["budgets"])
    mi = closed_form(burst * np.abs(h[:, 0]) ** 2, dj_amp, h[:, 1 + m :] * math.sqrt(burst))
    return int((mi < params["rate"]).sum())


class TestOneAfCountFunction:
    """af2 and afmh share one row layout and one route into their closed
    forms: they differ only in the closed form their rate function runs,
    in af2's phase columns at m >= 2 and in af2's screen."""

    def test_one_function(self):
        """afmh's SNR table is af2's without the phase columns, and each AF
        rate function is its closed form on the table's received SNRs:
        the direct SNR, the forwarders into the destination and the source
        into the forwarders; af2 at m >= 2 also reads the phases
        2 pi (1 - exp(-E_j)) of its last m columns."""
        af2_rate, _ = mc._KERNELS["af2"]
        afmh_rate, _ = mc._KERNELS["afmh"]
        for record in (RECORD1, RECORD, RECORD3):
            m = len(record["budgets"])
            af2_columns, af2_gains, _ = mc._snr_table("af2", record)
            afmh_columns, afmh_gains, _ = mc._snr_table("afmh", record)
            assert len(af2_columns) == (3 if m == 1 else 1 + 3 * m)
            assert np.array_equal(af2_columns[: 2 * m + 1], afmh_columns)
            assert np.array_equal(af2_gains[: 2 * m + 1], afmh_gains) and np.all(af2_gains[2 * m + 1 :] == 1.0)
            snr = layout_snrs("af2", record, np.random.default_rng(41), 1000)
            snrs = (snr[:, 0], snr[:, m + 1 : 2 * m + 1], snr[:, 1 : m + 1])
            phase = -2.0 * math.pi * np.expm1(-snr[:, 2 * m + 1 :]) if m > 1 else None
            np.testing.assert_array_equal(af2_rate(snr, m, 1.0, None), af2_trial_mutual_info(*snrs, phase))
            np.testing.assert_array_equal(afmh_rate(snr[:, : 2 * m + 1], m, 1.0, None), afmh_trial_mutual_info(*snrs))

    @pytest.mark.parametrize("record", (RECORD1, RECORD, RECORD3), ids=("m1", "m2", "m3"))
    def test_afmh_counts_as_its_complex_direct_gain(self, record):
        """afmh reads only magnitudes: on the same rows every count equals
        the log-det count of complex gains with the rows' magnitudes and a
        random phase on every link, the direct one included."""
        counts = []
        for rate in (0.25, 1.0, 4.0):
            for snr_db in (-10, 0, 10, 20, 30, 40):
                params = scaled(record, rate, snr_db)
                seed = 100 * int(rate * 4) + snr_db + 10
                rows = layout_rows("afmh", params, np.random.default_rng(seed), 20_000)
                got = rate_count("afmh", params, row_snrs("afmh", params, rows))
                turn = np.random.default_rng(seed + 1)
                row_gains = af_row_gains(params, rows[:, 0], rows[:, 1:])
                gains = [g * np.exp(2j * math.pi * turn.random(g.shape)) for g in row_gains]
                assert got == slogdet_count("afmh", params, gains), (rate, snr_db)
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


def plain_task(batch_count):
    """A stand-in for ``mc.count_events``: the certain outcomes as the
    engine decides them, then ``batch_count(kernel, params, rng, n)`` over
    every trial of the task's stream, in batches of ``mc._BATCH``, with no
    screen."""

    def count_events(kernel, params, seed, path, trials):
        if params["rate"] <= 0.0:
            return 0
        if params["burst"] <= 0.0:
            return trials
        rng = mc.derive_stream(seed, *path)
        return sum(batch_count(kernel, params, rng, min(mc._BATCH, trials - done)) for done in range(0, trials, mc._BATCH))

    return count_events


# Plain Monte Carlo: every trial's row in the kernel's declared layout,
# A_dk as drawn.
plain_count_events = plain_task(lambda kernel, params, rng, n: rate_count(kernel, params, layout_snrs(kernel, params, rng, n)))


def agreeing_events(strategy, placement, points, seeds, reference, z, monkeypatch):
    """Check each (rate, snr_db) point's engine event rate, at seed
    seeds[0], against the one counted with ``reference`` in place of
    ``mc.count_events``, at seed seeds[1]: within z pooled standard errors
    at 2^20 or more trials per side.  Return the engine's events summed
    over the points."""
    num_users = placement.params.num_users
    per_user = -(-(1 << 20) // num_users)
    total = 0
    for rate, snr_db in points:
        pc = PowerConfig(rate=rate, user_power=10.0 ** (snr_db / 10.0))
        engine = harness.estimate_outage(strategy, placement, pc, per_user, seeds[0])
        with monkeypatch.context() as patch:
            patch.setattr(mc, "count_events", reference)
            other = harness.estimate_outage(strategy, placement, pc, per_user, seeds[1])
        n = engine.trials
        assert n == other.trials >= 1 << 20
        pooled = (engine.events + other.events) / (2 * n)
        se = math.sqrt(2.0 * pooled * (1.0 - pooled) / n)
        assert abs(engine.events - other.events) / n <= z * se, (rate, snr_db, engine, other)
        total += engine.events
    return total


class TestTwoStreamLayoutOracle:
    """Thinned sampling (a binomial survivor count, then only the
    survivors' rows) samples the same outage distribution as plain Monte
    Carlo that draws every trial unconditioned and runs it through the
    rate step: event rates from independent seeds agree within 4.5 pooled
    standard errors at 2^20 or more trials per side.  The DDF kernels run
    on the rim cluster; af2 on the rim cluster and on one default-geometry
    placement at low SNR."""

    SEEDS = (1009, 2003)
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
        events = agreeing_events(
            strategy, rim_cluster(num_users), self.POINTS, self.SEEDS, plain_count_events, 4.5, monkeypatch
        )
        assert events > 1000

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
        points = self.AF2_POINTS[where]
        assert agreeing_events(strategy, placement, points, self.SEEDS, plain_count_events, 4.5, monkeypatch) > 1000


class TestComplexLayoutOracle:
    """The AF kernels' exponential rows sample the outage distribution of
    the complex layout they replaced.  The engine's event rate and the one
    counted on the complex layout (``complex_count``: every trial, no
    screen, an independent seed) agree within 4 pooled standard errors at
    2^20 or more trials per side.  Cases: af2 at m = 1 (rc-af), 2 (uc2-af)
    and 3 (uc2-af at K = 4), afmh at m = 2 (uc3-af) and 3 (uc4-af), each
    on the rim cluster and on one placement of the default geometry."""

    SEEDS = (5003, 6007)
    # One point per place, where every case's outage lies between about
    # 0.01 and 0.08.
    POINTS = {"rim": ((4.0, 20),), "area": ((1.0, 0),)}

    @pytest.mark.parametrize("where", ("rim", "area"))
    @pytest.mark.parametrize(
        "name,num_users",
        (("rc-af", 3), ("uc2-af", 3), ("uc2-af", 4), ("uc3-af", 3), ("uc4-af", 4)),
        ids=("af2-m1", "af2-m2", "af2-m3", "afmh-m2", "afmh-m3"),
    )
    def test_event_rates_agree(self, name, num_users, where, monkeypatch):
        if where == "rim":
            placement = rim_cluster(num_users)
        else:
            placement = sample_placement(GeometryParams(num_users=num_users), mc.derive_stream(1, 0, 0))
        complex_count_events = plain_task(complex_count)
        events = agreeing_events(
            parse_strategy(name, num_users), placement, self.POINTS[where], self.SEEDS, complex_count_events, 4.0, monkeypatch
        )
        assert events > 1000


# Unit powers over unit d^gamma: every gain is 1, so the engine's SNRs
# are its draws as they are.
UNIT = dict(RECORD, burst=1.0, budgets=(1.0, 1.0), dk_pow=1.0, dj_pow=(1.0, 1.0), jk_pow=(1.0, 1.0))
UNIT1 = dict(UNIT, budgets=(1.0,), dj_pow=(1.0,), jk_pow=(1.0,), hh_pow=())


class TestRayleighDraw:
    """The kernels' fading: a row's A is |h|^2 of a unit-power complex
    normal gain, and af2's phase column gives the phase of H_dj H_jk."""

    def test_amp_sq_unit_mean(self):
        amp_sq = layout_snrs("mac", UNIT, np.random.default_rng(9), 10**6)
        np.testing.assert_allclose(amp_sq.mean(), 1.0, atol=4e-3)

    def test_phase_draw_components(self):
        """sqrt(A) e^{i phi}, with phi = 2 pi (1 - exp(-E)) from af2's phase
        column, has two independent N(0, 1/2) components."""
        rows = layout_snrs("af2", UNIT, np.random.default_rng(10), 10**5)
        amp = np.sqrt(rows[:, 3:5]) * np.exp(-2j * math.pi * np.expm1(-rows[:, 5:]))
        assert amp.shape == (10**5, 2)
        np.testing.assert_allclose(amp.real.var(), 0.5, atol=1e-2)
        np.testing.assert_allclose(amp.imag.var(), 0.5, atol=1e-2)
        assert abs(np.corrcoef(amp.real[:, 0], amp.imag[:, 0])[0, 1]) < 0.01

    def test_links_uncorrelated(self):
        amp_sq = layout_snrs("uc2-ddf", UNIT1, np.random.default_rng(12), 10**5)
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
