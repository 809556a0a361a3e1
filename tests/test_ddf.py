"""Tests for dynamic decode-and-forward trials, schedules, and bounds.

Frozen values come from hand substitution into the listen-fraction and
mutual-information formulas.  Distributional claims are checked against
independent oracles: empirical CDFs of the sampled listen fraction and a
quadrature of the first-stage fraction's survival function.  The greedy
multihop schedule is checked bit for bit against a trial-major reference
implementation that selects with boolean-mask scatters.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from tdcoop import mc
from tdcoop.ddf import (
    BoundPair,
    MultihopSchedule,
    ddf_bounds_multihop,
    ddf_bounds_rc,
    ddf_bounds_uc2,
    listen_fraction_rc,
    listen_fraction_uc2,
    multihop_schedule,
    trial_mutual_info_multihop,
    trial_mutual_info_rc,
    trial_mutual_info_uc2,
)
from tdcoop.mathcore import capacity, hypoexp_leading_cdf_term

from oracles import clustering_condition, listen_fraction_cdf


class TestListenFractionRc:
    def test_half_when_capacity_is_twice_rate(self):
        # receive SNR 2^{2R}-1 makes C = 2R
        rate = 0.25
        amp = (2 ** (2 * rate) - 1) * 0.5**4 / 100.0
        np.testing.assert_allclose(
            listen_fraction_rc(amp * 100.0 / 0.5**4, rate), 0.5, rtol=1e-12
        )

    def test_zero_gain_never_decodes(self):
        assert listen_fraction_rc(0.0, 0.25) == 1.0

    def test_strong_link_decodes_fast(self):
        theta = listen_fraction_rc(50.0 * 1000.0 / 0.3**4, 0.25)
        assert 0.0 < theta < 0.02

    def test_cdf_frozen_point(self):
        # exp(-(2^{0.5}-1) * 0.5^4 / 100) at theta = 0.5
        want = math.exp(-(2**0.5 - 1) * 0.0625 / 100.0)
        got = listen_fraction_cdf(0.5, 0.0625, 100.0, 0.25)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        np.testing.assert_allclose(got, 0.999741, atol=5e-7)

    def test_cdf_matches_empirical(self):
        """Sampled listen fractions reproduce the mixed CDF within 3e-3."""
        rng = np.random.default_rng(101)
        amp = rng.exponential(size=10**6)
        theta = listen_fraction_rc(amp * 100.0 / 0.5**4, 0.25)
        grid = np.linspace(0.05, 0.999, 97)
        emp = np.searchsorted(np.sort(theta), grid, side="right") / theta.size
        np.testing.assert_allclose(
            listen_fraction_cdf(grid, 0.0625, 100.0, 0.25), emp, atol=3e-3
        )

    def test_cdf_atom_at_one(self):
        assert listen_fraction_cdf(1.0, 0.0625, 100.0, 0.25) == 1.0
        assert listen_fraction_cdf(0.0, 0.0625, 100.0, 0.25) == 0.0
        # mass at 1: P(theta = 1) = 1 - lim_{t->1-} F(t) > 0
        below = listen_fraction_cdf(1.0 - 1e-9, 0.0625, 1.0, 2.0)
        assert below < 1.0

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError, match="snr >= 0"):
            listen_fraction_rc(-1.0, 0.25)
        with pytest.raises(ValueError, match="snr >= 0"):
            listen_fraction_rc(np.array([1.0, -1e-300]), 0.25)


class TestListenFractionUc2:
    def test_single_helper_reduces_to_rc(self):
        rng = np.random.default_rng(7)
        amp = rng.exponential(size=500)
        snr = amp * 50.0 / 0.4**4
        via_rc = listen_fraction_rc(snr, 0.25)
        via_uc = listen_fraction_uc2(snr[:, None], 0.25)
        np.testing.assert_allclose(via_uc, via_rc, rtol=1e-14)

    def test_equal_snrs_give_half(self):
        rate = 0.25
        d = np.array([0.2, 0.3])
        amp = (2 ** (2 * rate) - 1) * d**4 / 100.0
        out = listen_fraction_uc2((amp * 100.0 / d**4)[None, :], rate)
        np.testing.assert_allclose(out, [0.5], rtol=1e-12)

    def test_slowest_helper_sets_fraction(self):
        amp = np.array([[5.0, 0.01]])
        out = listen_fraction_uc2(amp * 100.0 / 0.3**4, 0.25)
        slow = listen_fraction_rc(0.01 * 100.0 / 0.3**4, 0.25)
        np.testing.assert_allclose(out, [slow], rtol=1e-14)

    def test_product_cdf_clustered_oracle(self):
        """Two helpers at d = 0.1: empirical CDF matches the product form."""
        rng = np.random.default_rng(23)
        n = 10**6
        d = np.array([0.1, 0.1])
        amp = rng.exponential(size=(n, 2))
        theta = listen_fraction_uc2(amp * 100.0 / d**4, 0.25)
        want = listen_fraction_cdf(0.5, float((d**4).sum()), 100.0, 0.25)
        emp = float(np.mean(theta <= 0.5))
        se = math.sqrt(want * (1 - want) / n)
        assert abs(emp - want) <= 3 * se + 1e-12


class TestTrialMutualInfoTwoHop:
    def test_full_listen_is_direct_only(self):
        np.testing.assert_allclose(trial_mutual_info_rc(1.0, 1.0, 7.0), 1.0, rtol=1e-14)

    def test_hand_value_rc(self):
        # theta 0.5, direct SNR 1, relay term 1.5 boosted by 1/0.5 to 3
        np.testing.assert_allclose(
            trial_mutual_info_rc(0.5, 1.0, 1.5), 1.660964047443681, rtol=1e-14
        )

    def test_small_theta_limit_is_g2(self):
        got = trial_mutual_info_rc(1e-12, 1.0, 1.5)
        np.testing.assert_allclose(got, math.log2(1.0 + 1.0 + 1.5), rtol=1e-9)

    def test_hand_value_uc2(self):
        # helpers contribute 1 and 2 after the shared boost
        got = trial_mutual_info_uc2(0.5, 1.0, np.array([[0.5, 1.0]]))
        np.testing.assert_allclose(got, [1.660964047443681], rtol=1e-14)

    def test_uc2_with_dead_helpers_equals_rc_without_relay(self):
        theta = 0.37
        a = trial_mutual_info_uc2(theta, 2.2, np.array([[0.0, 0.0]]))
        b = trial_mutual_info_rc(theta, 2.2, 0.0)
        np.testing.assert_allclose(a, [b], rtol=1e-14)

    def test_relay_never_hurts(self):
        """G2 >= G1, so the rate is at least the direct-only rate."""
        rng = np.random.default_rng(31)
        theta = rng.uniform(0.01, 1.0, size=2000)
        direct = rng.exponential(size=2000)
        relay = rng.exponential(size=2000)
        got = trial_mutual_info_rc(theta, direct, relay)
        g1 = np.log2(1.0 + direct)
        assert np.all(got >= g1 - 1e-12)


class TestMultihopSchedule:
    def test_fastest_decoder_goes_first(self):
        # helper 0 sees capacity 1.0, helper 1 capacity 0.5
        snr = np.zeros((2, 3, 1))
        snr[:, 0, 0] = [1.0, 2**0.5 - 1]
        sched = multihop_schedule(snr, rate=0.25)
        assert sched.order[0, 1] == 1
        np.testing.assert_allclose(sched.fractions[0, 0], 0.25, rtol=1e-12)
        assert sched.decoded[0] >= 2

    def test_dead_links_collapse_to_direct(self):
        sched = multihop_schedule(np.zeros((2, 3, 1)), rate=0.25)
        assert sched.decoded[0] == 1
        np.testing.assert_allclose(sched.fractions[0], [1.0, 0.0, 0.0])

    def test_fractions_partition_the_period(self):
        rng = np.random.default_rng(41)
        n = 4000
        a = rng.exponential(size=(n, 2, 3))
        coef = rng.uniform(5.0, 50.0, size=(2, 3))
        for mode in ("accumulating", "per-fraction"):
            sched = multihop_schedule(helper_major(a * coef), rate=0.8, mode=mode)
            np.testing.assert_allclose(sched.fractions.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(sched.fractions >= 0.0)
            assert np.all(sched.decoded >= 1)
            # no time assigned past the last transmitting node
            for i in range(0, n, 173):
                assert np.all(sched.fractions[i, sched.decoded[i]:] == 0.0)

    def test_accumulating_never_decodes_later_than_per_fraction(self):
        rng = np.random.default_rng(43)
        n = 2000
        a = rng.exponential(size=(n, 2, 3))
        coef = rng.uniform(2.0, 20.0, size=(2, 3))
        snr = helper_major(a * coef)
        acc = multihop_schedule(snr, rate=1.2, mode="accumulating")
        per = multihop_schedule(snr, rate=1.2, mode="per-fraction")
        assert np.all(acc.decoded >= per.decoded)

    def test_first_stage_mean_matches_quadrature(self):
        """E[first fraction] against integrating the survival function.

        For two helpers with i.i.d. unit-mean exponential gains and SNR
        coefficient c, P(theta_1 > t) = prod_j (1 - exp(-(2^{R/t}-1)/c)),
        and the first stage is capped at 1.
        """
        rate, c = 0.5, 160.0
        n = 10**6
        rng = np.random.default_rng(47)
        a = np.zeros((n, 2, 3))
        a[:, :, 0] = rng.exponential(size=(n, 2))
        coef = np.zeros((2, 3))
        coef[:, 0] = c
        sched = multihop_schedule(helper_major(a * coef), rate=rate)
        mc_mean = sched.fractions[:, 0].mean()

        def survival(t):
            # as t -> 0 the decode threshold explodes and survival -> 1
            if rate / t > 500.0:
                return 1.0
            return (1.0 - math.exp(-(2 ** (rate / t) - 1.0) / c)) ** 2

        want, _ = integrate.quad(survival, 0.0, 1.0, limit=200)
        se = sched.fractions[:, 0].std() / math.sqrt(n)
        assert abs(mc_mean - want) <= 3 * se

    def test_bad_mode_and_shapes_rejected(self):
        with pytest.raises(ValueError):
            multihop_schedule(np.zeros((2, 3, 1)), rate=0.5, mode="bogus")
        with pytest.raises(ValueError):
            multihop_schedule(np.zeros((2, 4, 1)), rate=0.5)


class TestTrialMutualInfoMultihop:
    def test_direct_only_schedule(self):
        sched = multihop_schedule(np.zeros((2, 3, 1)), rate=0.25)
        dest = np.array([[3.0, 9.9, 9.9]])
        got = trial_mutual_info_multihop(sched, dest)
        np.testing.assert_allclose(got, [2.0], rtol=1e-12)

    def test_hand_two_stage_value(self):
        sched = MultihopSchedule(
            order=np.array([[0, 1]]),
            fractions=np.array([[0.5, 0.5]]),
            decoded=np.array([2]),
        )
        dest = np.array([[1.0, 1.5]])
        got = trial_mutual_info_multihop(sched, dest)
        np.testing.assert_allclose(got, [1.660964047443681], rtol=1e-13)

    def test_two_hop_equivalence_with_uc2(self):
        """L = 2 multihop reproduces the shared-slot trial rate exactly."""
        rng = np.random.default_rng(53)
        n = 2000
        burst, d_jk, d_dk, d_dj, gamma, rate = 40.0, 0.45, 0.9, 0.85, 4.0, 1.0
        a_jk = rng.exponential(size=n)
        a_dk = rng.exponential(size=n)
        a_dj = rng.exponential(size=n)

        theta = listen_fraction_rc(a_jk * burst / d_jk**gamma, rate)
        uc2 = trial_mutual_info_uc2(
            theta,
            a_dk * burst / d_dk**gamma,
            (a_dj * burst / d_dj**gamma)[:, None],
        )

        recv = np.zeros((1, 2, n))
        recv[0, 0] = a_jk * (burst / d_jk**gamma)
        sched = multihop_schedule(recv, rate=rate)
        dest = np.stack([a_dk * (burst / d_dk**gamma), a_dj * (burst / d_dj**gamma)], axis=1)
        mh = trial_mutual_info_multihop(sched, dest)
        np.testing.assert_allclose(mh, uc2, atol=1e-12)


def helper_major(snr):
    """Trial-major (n, H, L) received SNRs in the schedule's (H, L, n) layout."""
    return np.moveaxis(snr, 0, -1)


def scatter_multihop_schedule(recv_snr, rate, mode="accumulating"):
    """Reference greedy schedule: trial-major (n, H, L) SNRs, boolean-mask
    scatters and a fancy gather, ties to the lowest helper index through
    argmin."""
    a = np.asarray(recv_snr, dtype=float)
    n, H, L = a.shape
    order = np.zeros((n, L), dtype=np.int64)
    fractions = np.zeros((n, L))
    decoded = np.ones(n, dtype=np.int64)
    undecided = np.ones((n, H), dtype=bool)
    acc_info = np.zeros((n, H))
    remaining = np.ones(n)
    alive = np.ones(n, dtype=bool)
    rows = np.arange(n)
    helper_snr = a[:, :, 0].copy()
    for s in range(L - 1):
        rate_now = capacity(helper_snr)
        need = rate - acc_info if mode == "accumulating" else np.full((n, H), rate)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.where(need <= 0.0, 0.0, need / np.where(rate_now > 0.0, rate_now, np.nan))
        cand = np.where(np.isnan(cand), np.inf, cand)
        cand[~undecided] = np.inf
        best = np.argmin(cand, axis=1)
        best_theta = cand[rows, best]
        decode = alive & (best_theta < remaining)
        cap = alive & ~decode
        fractions[cap, s] = remaining[cap]
        remaining[cap] = 0.0
        alive[cap] = False
        if not decode.any():
            break
        theta_s = np.where(decode, best_theta, 0.0)
        fractions[decode, s] = best_theta[decode]
        if mode == "accumulating":
            acc_info[decode] += theta_s[decode, None] * rate_now[decode]
        remaining[decode] = remaining[decode] - best_theta[decode]
        order[decode, s + 1] = best[decode] + 1
        decoded[decode] += 1
        undecided[rows[decode], best[decode]] = False
        new_slot = best[decode] + 1
        helper_snr[decode] += a[rows[decode], :, new_slot]
    fractions[alive, L - 1] = remaining[alive]
    return MultihopSchedule(order=order, fractions=fractions, decoded=decoded)


def gather_trial_mutual_info_multihop(schedule, dest_snr):
    """Reference destination rate: a per-trial gather of the entering slot,
    with the boost guarding remaining > 0 on its own."""
    a = np.asarray(dest_snr, dtype=float)
    n, L = a.shape
    info = np.zeros(n)
    snr = np.zeros(n)
    remaining = np.ones(n)
    rows = np.arange(n)
    for p in range(L):
        active = (p < schedule.decoded) & (remaining > 0.0)
        slot = schedule.order[:, p]
        boost = np.where(active, np.where(remaining > 0.0, remaining, 1.0), 1.0)
        snr = snr + np.where(active, a[rows, slot] / boost, 0.0)
        theta_p = schedule.fractions[:, p]
        info = info + np.where(theta_p > 0.0, theta_p * capacity(snr), 0.0)
        remaining = remaining - theta_p
    return info


def edge_case_inputs(H, seed, n=6000):
    """Random trial-major multihop SNRs, helpers' (n, H, L) and the
    destination's (n, L), with blocks of edge cases (rate 0.5).

    Every helper's self-link is 0.  Rows 0-499: no helper hears the
    source, so the schedule caps at stage 0.  Rows 500-999: every source
    link gives SNR 1 exactly (capacity 1 bit), an exact tie in which the
    other helpers then need nothing more in accumulating mode.  Rows
    1000-1499: exact ties at random gains.  Rows 1500-1999: helper 0
    hears no one and nobody hears it.  Destination links are dead in
    rows 2000-2499.
    """
    rng = np.random.default_rng(seed)
    L = H + 1
    a = rng.exponential(size=(n, H, L))
    coef = rng.uniform(2.0, 20.0, size=(H, L))
    coef[:, 0] = 4.0
    for h in range(H):
        a[:, h, h + 1] = 0.0
    a[:500, :, 0] = 0.0
    a[500:1000, :, 0] = 0.25
    a[1000:1500, :, 0] = a[1000:1500, :1, 0]
    a[1500:2000, 0, :] = 0.0
    a[1500:2000, :, 1] = 0.0
    dest = rng.exponential(size=(n, L))
    dest[2000:2500] = 0.0
    dest_coef = rng.uniform(1.0, 10.0, size=L)
    return a * coef, dest * dest_coef


UCMH_ORACLE_RATE = 0.5


def oracle_coefficients(params):
    """The ucmh-ddf link SNR coefficients of a kernel record, built as
    whole arrays: helper h hears the source at burst / jk_pow[h] and
    helper j at budgets[j] / hh_pow[h][j]; the destination hears the
    source at burst / dk_pow and helper j at budgets[j] / dj_pow[j]."""
    burst = params["burst"]
    budgets = np.asarray(params["budgets"], dtype=float)
    hh = np.asarray(params["hh_pow"], dtype=float)
    heard = np.divide(budgets, hh, out=np.zeros_like(hh), where=~np.eye(budgets.size, dtype=bool))
    recv_coef = np.column_stack((burst / np.asarray(params["jk_pow"]), heard))
    dest_coef = np.concatenate(([burst / params["dk_pow"]], budgets / np.asarray(params["dj_pow"])))
    return recv_coef, dest_coef


def oracle_count_events(params, seed, path, trials):
    """Reference ucmh-ddf kernel: the engine's one stream and draw layout
    drawn in one piece, trial-major link arrays, the scatter schedule.

    The stream gives the task's survivor count, binomial (trials, q) with
    q = 1 - exp(-t') and t' the direct-link threshold expm1(R ln 2) over
    the direct gain burst / dk_pow, widened, then one row per survivor:
    A_dk given A_dk < t' by inversion, then the forwarder links."""
    recv_coef, dest_coef = oracle_coefficients(params)
    m, L = recv_coef.shape
    npairs = m * (m - 1) // 2
    rng = mc.derive_stream(seed, *path)
    threshold = math.expm1(params["rate"] * math.log(2.0)) / (params["burst"] / params["dk_pow"])
    q = -math.expm1(-threshold * (1.0 + mc._SCREEN_MARGIN))
    rows = rng.exponential(size=(rng.binomial(trials, q), 1 + m + npairs + m))
    a_dk = -np.log1p(q * np.expm1(-rows[:, 0]))
    a = rows[:, 1:]
    recv = np.zeros((len(a), m, L))
    recv[:, :, 0] = a[:, :m]
    col = m
    for h in range(m):
        for j in range(h + 1, m):
            recv[:, h, j + 1] = a[:, col]
            recv[:, j, h + 1] = a[:, col]
            col += 1
    sched = scatter_multihop_schedule(recv * recv_coef, params["rate"], params["mode"])
    dest = np.column_stack((a_dk, a[:, m + npairs :]))
    mi = gather_trial_mutual_info_multihop(sched, dest * dest_coef)
    return int((mi < params["rate"]).sum())


class TestMultihopScatterOracle:
    """The helper-major schedule reproduces the scatter reference exactly."""

    @pytest.mark.parametrize("mode", ("accumulating", "per-fraction"))
    @pytest.mark.parametrize("H", (1, 2, 3))
    def test_bitwise_equal(self, H, mode):
        snr, dest = edge_case_inputs(H, seed=200 + H)
        # At rate 0 every helper needs nothing, one that hears no one included.
        for rate in (0.0, UCMH_ORACLE_RATE):
            want = scatter_multihop_schedule(snr, rate, mode)
            got = multihop_schedule(helper_major(snr), rate, mode)
            for field in ("order", "fractions", "decoded"):
                w, g = getattr(want, field), getattr(got, field)
                assert g.shape == w.shape and g.dtype == w.dtype, field
                assert np.array_equal(g, w), (rate, field)
            want_mi = gather_trial_mutual_info_multihop(want, dest)
            got_mi = trial_mutual_info_multihop(got, dest)
            assert np.array_equal(got_mi, want_mi), rate
        # The edge cases occur: stage-0 caps, and (two or more helpers)
        # ties and helpers that need nothing more.
        capped = (want.decoded == 1) & (want.fractions[:, 0] == 1.0)
        assert capped[:500].all()
        if H >= 2:
            assert np.all(want.order[500:1000, 1] == 1)
            assert np.all(want.order[1000:1500, 1] <= 1)
            if mode == "accumulating":
                assert np.all(want.fractions[500:1000, 1] == 0.0)
                assert np.all(want.decoded[500:1000] == H + 1)

    def test_ties_go_to_the_lowest_index(self):
        snr = np.zeros((3, 4, 1))
        snr[:, 0, 0] = 0.5
        for mode in ("accumulating", "per-fraction"):
            sched = multihop_schedule(snr, rate=0.25, mode=mode)
            assert sched.order[0, 1] == 1

    @pytest.mark.parametrize(
        "m,mode,seed,path,trials",
        (
            (2, "accumulating", 3, (0, 0, 0, 0), (1 << 13) + 1),
            (2, "accumulating", 17, (4, 2, 1, 0), (1 << 16) + 3000),
            (2, "per-fraction", 17, (4, 2, 1, 0), (1 << 14) + 3000),
            (3, "accumulating", 29, (1, 1, 3, 2), (1 << 14) + 3000),
            (3, "per-fraction", 31, (2, 0, 0, 1), (1 << 14) + 3000),
        ),
    )
    def test_engine_counts_match_scatter_kernel(self, m, mode, seed, path, trials):
        params = {
            "rate": 1.5,
            "burst": 3.0,
            "budgets": tuple(2.0 + 0.5 * j for j in range(m)),
            "mode": mode,
            "jk_pow": tuple(1.0 - 0.1 * h for h in range(m)),
            "hh_pow": tuple(
                tuple(0.0 if h == j else 0.5 + 0.1 * (h + j) for j in range(m)) for h in range(m)
            ),
            "dk_pow": 3.0,
            "dj_pow": tuple(1.0 + 0.25 * j for j in range(m)),
        }
        assert trials > mc._BATCH
        want = oracle_count_events(params, seed, path, trials)
        assert 0.02 * trials < want < 0.98 * trials
        assert mc.count_events("ucmh-ddf", params, seed, path, trials) == want


class TestBounds:
    def test_rc_frozen_values(self):
        got = ddf_bounds_rc(
            rate=1.0, burst_power=10.0, relay_ratio=1.0,
            dk_pow=1.0**4.0, dr_pow=1.0**4.0, rk_pow=0.5**4.0,
        )
        np.testing.assert_allclose(got.lower, 0.005, rtol=1e-12)
        np.testing.assert_allclose(got.upper, 0.028125, rtol=1e-12)

    def test_rc_optimized_no_worse(self):
        base = ddf_bounds_rc(0.75, 50.0, 0.5, 0.9**4.0, 0.8**4.0, 0.4**4.0)
        opt = ddf_bounds_rc(0.75, 50.0, 0.5, 0.9**4.0, 0.8**4.0, 0.4**4.0, optimize=True)
        assert opt.upper <= base.upper + 1e-15
        np.testing.assert_allclose(opt.lower, base.lower, rtol=1e-14)

    def test_uc2_lower_matches_leading_term(self):
        """Symmetric three-branch case against the weighted-sum tail."""
        got = ddf_bounds_uc2(
            rate=0.25, burst_power=100.0,
            lambdas=(1.0, 1.0, 1.0),
            dist_dest_pow=(1.0, 1.0, 1.0),
            dist_to_source_pow=(1.0, 1.0),
        )
        np.testing.assert_allclose(got.lower, 1.1289147327178563e-09, rtol=1e-12)
        eta = 2**0.25 - 1
        via_tail = hypoexp_leading_cdf_term((100.0, 100.0, 100.0), eta)
        np.testing.assert_allclose(got.lower, via_tail, rtol=1e-12)

    def test_multihop_lower_same_diversity_term(self):
        uc2 = ddf_bounds_uc2(0.25, 100.0, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0))
        mh = ddf_bounds_multihop(0.25, 100.0, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0))
        np.testing.assert_allclose(mh.lower, uc2.lower, rtol=1e-14)
        assert mh.upper >= mh.lower

    def test_ordering_random_parameter_sets(self):
        """lower <= upper over 1e4 random parameter draws."""
        rng = np.random.default_rng(61)
        for _ in range(2500):
            rate = rng.uniform(0.05, 3.0)
            burst = rng.uniform(1.0, 1e4)
            got = ddf_bounds_rc(
                rate, burst, rng.uniform(0.1, 2.0),
                rng.uniform(0.2, 1.5) ** 4.0,
                rng.uniform(0.2, 1.5) ** 4.0,
                rng.uniform(0.05, 1.0) ** 4.0,
            )
            assert got.lower <= got.upper
        for _ in range(2500):
            L = int(rng.integers(2, 5))
            bounds = ddf_bounds_uc2(
                rng.uniform(0.05, 2.0), rng.uniform(1.0, 1e4),
                np.concatenate(([1.0], rng.uniform(0.2, 2.0, L - 1))),
                rng.uniform(0.05, 2.0, L),
                rng.uniform(0.01, 1.5, L - 1),
            )
            assert bounds.lower <= bounds.upper
        for _ in range(2500):
            L = int(rng.integers(3, 6))
            bounds = ddf_bounds_multihop(
                rng.uniform(0.05, 2.0), rng.uniform(1.0, 1e4),
                np.concatenate(([1.0], rng.uniform(0.2, 2.0, L - 1))),
                rng.uniform(0.05, 2.0, L),
                rng.uniform(0.01, 1.5, L - 1),
            )
            assert bounds.lower <= bounds.upper

    @pytest.mark.parametrize("optimize", (False, True))
    def test_rate_zero_gives_zero_pairs(self, optimize):
        """Rate 0 never fails: every DDF bound is (0, 0), for one pair and
        for rows, where the theta brackets would divide by 2^0 - 1."""
        burst = np.array([1.0, 10.0, 1e4])
        lam = np.array([[1.0, 0.5, 0.7]] * 3)
        dest = np.array([[1.0, 0.8, 1.2]] * 3)
        src = np.array([[0.3, 0.4]] * 3)
        calls = (
            lambda b, i: ddf_bounds_rc(0.0, b, 0.5, 1.0, 0.8, src[i, 0], optimize=optimize),
            lambda b, i: ddf_bounds_uc2(0.0, b, lam[i], dest[i], src[i], optimize=optimize),
            lambda b, i: ddf_bounds_multihop(0.0, b, lam[i], dest[i], src[i], optimize=optimize),
        )
        for call in calls:
            one = call(10.0, 0)
            assert np.shape(one.lower) == () and one.lower == one.upper == 0.0
            rows = call(burst, slice(None))
            assert np.shape(rows.lower) == (3,)
            assert not np.any(rows.lower) and not np.any(rows.upper)

    def test_bound_pair_validation(self):
        with pytest.raises(ValueError):
            BoundPair(lower=0.2, upper=0.1)
        with pytest.raises(ValueError):
            BoundPair(lower=-0.1, upper=0.1)


class TestClusteringCondition:
    def test_frozen_threshold(self):
        ok, threshold = clustering_condition(
            rate=0.25, burst_power=10.0,
            lambdas=(1.0, 1.0, 1.0),
            dist_dest_pow=(1.0, 1.0, 1.0),
            dist_to_source_pow=(0.001, 0.001),
        )
        np.testing.assert_allclose(threshold, 0.0069035593728849175, rtol=1e-12)
        assert ok

    def test_tight_cluster_satisfies(self):
        ok, _ = clustering_condition(0.25, 10.0, (1, 1, 1), (1, 1, 1), (1e-6, 1e-6))
        assert ok

    def test_high_power_eventually_fails(self):
        ok, _ = clustering_condition(0.25, 1e9, (1, 1, 1), (1, 1, 1), (0.01, 0.01))
        assert not ok

    def test_two_branches_rejected(self):
        with pytest.raises(ValueError):
            clustering_condition(0.25, 10.0, (1.0, 1.0), (1.0, 1.0), (1.0,))
