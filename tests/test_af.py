"""Tests for amplify-and-forward equivalent channels, rates, and bounds.

The whitening algebra is validated against a direct simulation of the
forwarded noise path and against the generic correlated-noise log-det
formula; the two-hop scalar shortcut is compared and its discrepancy
reported rather than asserted away.
"""

import math

import numpy as np
import pytest

from tdcoop import mc
from tdcoop.af import (
    EquivalentChannel,
    af2_equivalent_channel,
    af2_trial_mutual_info,
    af_amplifier_gain,
    af_bounds_2hop,
    af_bounds_multihop,
    af_trial_mutual_info,
    afmh_equivalent_channel,
    afmh_trial_mutual_info,
)
from tdcoop.mathcore import hypoexp_leading_cdf_term

from oracles import af2_complex_mutual_info, af_row_gains, afmh_complex_mutual_info


def random_complex(rng, shape):
    return math.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestAmplifierGain:
    def test_dead_link_unit_gain(self):
        np.testing.assert_allclose(af_amplifier_gain(0.0, 0.5, 100.0), 1.0, rtol=1e-15)

    def test_unit_receive_power(self):
        np.testing.assert_allclose(af_amplifier_gain(1.0 / 100.0, 1.0, 100.0), 1.0, rtol=1e-15)

    def test_budget_identity_per_draw(self):
        """c^2 (|H|^2 Pbar + 1) / 2 returns the helper budget exactly."""
        rng = np.random.default_rng(71)
        h_sq = rng.exponential(size=10**6) / 0.7**4
        budget = 1.3
        c = af_amplifier_gain(h_sq, budget, 250.0)
        np.testing.assert_allclose(c**2 * (h_sq * 250.0 + 1.0) / 2.0, budget, rtol=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            af_amplifier_gain(-0.1, 1.0, 10.0)
        with pytest.raises(ValueError):
            af_amplifier_gain(0.1, -1.0, 10.0)


class TestAf2EquivalentChannel:
    def test_dead_cooperators_give_diagonal(self):
        n = 4
        h_dk = np.full(n, 0.8 + 0.1j)
        zeros = np.zeros((n, 2), dtype=complex)
        ch = af2_equivalent_channel(h_dk, zeros, zeros, (0.5, 0.5), 100.0)
        np.testing.assert_allclose(ch.row_scale, 1.0, rtol=1e-14)
        np.testing.assert_allclose(ch.matrix[:, 0, 0], h_dk)
        np.testing.assert_allclose(ch.matrix[:, 1, 1], h_dk)
        np.testing.assert_allclose(ch.matrix[:, 1, 0], 0.0)

    def test_row_scale_at_least_one(self):
        rng = np.random.default_rng(73)
        n = 5000
        ch = af2_equivalent_channel(
            random_complex(rng, n),
            random_complex(rng, (n, 2)) / 0.4**2,
            random_complex(rng, (n, 2)) / 0.3**2,
            (1.5, 1.5), 300.0,
        )
        assert np.all(ch.row_scale >= 1.0)
        assert np.all(ch.row_scale[:, 0] == 1.0)

    def test_whitened_noise_variance_oracle(self):
        """Simulated forwarded-noise power after scaling is 1 within 1%."""
        rng = np.random.default_rng(79)
        h_dj = random_complex(rng, 2) / 0.5**2
        h_jk = random_complex(rng, 2) / 0.4**2
        c = af_amplifier_gain(np.abs(h_jk) ** 2, np.array([1.0, 1.0]), 100.0)
        cs = math.sqrt(1.0 + float((np.abs(c * h_dj) ** 2).sum()))
        m = 10**5
        w = random_complex(rng, (m, 2))
        z = random_complex(rng, m)
        noise = (c * h_dj * w).sum(axis=1) + z
        var = float(np.mean(np.abs(noise / cs) ** 2))
        np.testing.assert_allclose(var, 1.0, atol=1e-2)
        ch = af2_equivalent_channel(
            np.array([0.5 + 0j]), h_dj[None, :], h_jk[None, :], np.array([1.0, 1.0]), 100.0
        )
        np.testing.assert_allclose(ch.row_scale[0, 1], cs, rtol=1e-12)

    def test_single_cooperator_matches_relay_construction(self):
        rng = np.random.default_rng(83)
        n = 100
        h_dk = random_complex(rng, n)
        h_dj = random_complex(rng, (n, 1)) / 0.6**2
        h_jk = random_complex(rng, (n, 1)) / 0.5**2
        two = af2_equivalent_channel(h_dk, h_dj, h_jk, (0.5,), 120.0)
        multi = afmh_equivalent_channel(h_dk, h_dj, h_jk, (0.5,), 120.0)
        np.testing.assert_allclose(two.matrix, multi.matrix, rtol=1e-13)
        np.testing.assert_allclose(two.row_scale, multi.row_scale, rtol=1e-13)


class TestAfmhEquivalentChannel:
    def test_structure_and_zeros(self):
        rng = np.random.default_rng(89)
        n = 10
        ch = afmh_equivalent_channel(
            random_complex(rng, n),
            random_complex(rng, (n, 2)),
            random_complex(rng, (n, 2)),
            (1.0, 1.0), 50.0,
        )
        assert ch.hops == 3
        mat = ch.matrix
        # zeros everywhere except column 0 and the diagonal
        mask = np.zeros((3, 3), dtype=bool)
        mask[:, 0] = True
        np.fill_diagonal(mask, True)
        np.testing.assert_allclose(mat[:, ~mask], 0.0)

    def test_dead_cross_links_decouple(self):
        n = 6
        h_dk = np.full(n, 1.1 - 0.2j)
        zeros = np.zeros((n, 2), dtype=complex)
        ch = afmh_equivalent_channel(h_dk, zeros, zeros, (1.0, 1.0), 50.0)
        for l in range(3):
            np.testing.assert_allclose(ch.matrix[:, l, l], h_dk)
        np.testing.assert_allclose(ch.row_scale, 1.0)

    def test_forwarding_cannot_reduce_rate(self):
        """Zeroing the forwarded column entries never raises the log-det."""
        rng = np.random.default_rng(97)
        n = 3000
        ch = afmh_equivalent_channel(
            random_complex(rng, n),
            random_complex(rng, (n, 2)) / 0.5**2,
            random_complex(rng, (n, 2)) / 0.5**2,
            (1.0, 1.0), 200.0,
        )
        full = af_trial_mutual_info(ch, 200.0)
        stripped = ch.matrix.copy()
        stripped[:, 1:, 0] = 0.0
        crippled = af_trial_mutual_info(
            EquivalentChannel(matrix=stripped, row_scale=ch.row_scale), 200.0
        )
        assert np.all(full >= crippled - 1e-10)


class TestTrialMutualInfo:
    def test_identity_channel(self):
        ch = EquivalentChannel(matrix=np.eye(2)[None, :, :], row_scale=np.ones((1, 2)))
        np.testing.assert_allclose(af_trial_mutual_info(ch, 1.0), [1.0], rtol=1e-14)

    def test_zero_channel(self):
        ch = EquivalentChannel(matrix=np.zeros((1, 2, 2)), row_scale=np.ones((1, 2)))
        np.testing.assert_allclose(af_trial_mutual_info(ch, 5.0), [0.0], atol=1e-15)

    def test_hand_two_by_two(self):
        mat = np.array([[[1.0, 0.0], [1.0, 1.0]]], dtype=complex)
        ch = EquivalentChannel(matrix=mat, row_scale=np.ones((1, 2)))
        np.testing.assert_allclose(
            af_trial_mutual_info(ch, 1.0), [math.log2(5.0) / 2.0], rtol=1e-14
        )
        np.testing.assert_allclose(af_trial_mutual_info(ch, 1.0), [1.160964047443681], rtol=5e-15)

    def test_phase_rotation_invariance(self):
        """Rates depend on H only through H H*: row phases drop out."""
        rng = np.random.default_rng(103)
        n = 500
        ch = af2_equivalent_channel(
            random_complex(rng, n),
            random_complex(rng, (n, 2)) / 0.6**2,
            random_complex(rng, (n, 2)) / 0.6**2,
            (0.5, 0.5), 150.0,
        )
        base = af_trial_mutual_info(ch, 150.0)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
        rotated = ch.matrix.copy()
        rotated[:, 1, :] *= phases[:, None]
        got = af_trial_mutual_info(
            EquivalentChannel(matrix=rotated, row_scale=ch.row_scale), 150.0
        )
        np.testing.assert_allclose(got, base, atol=1e-12)

    def test_correlated_noise_formula_equivalence(self):
        """Row scaling agrees with the generic noise-covariance log-det.

        Rebuild the unwhitened mixing matrix G = diag(row_scale) @ H and
        the diagonal noise covariance, then evaluate
        det(I + Pbar S^-1/2 G G* S^-1/2) without using the row structure.
        """
        rng = np.random.default_rng(107)
        n = 200
        for builder, m in ((af2_equivalent_channel, 2), (afmh_equivalent_channel, 2)):
            ch = builder(
                random_complex(rng, n),
                random_complex(rng, (n, m)) / 0.5**2,
                random_complex(rng, (n, m)) / 0.5**2,
                np.full(m, 0.8), 90.0,
            )
            L = ch.hops
            G = ch.matrix * ch.row_scale[:, :, None]
            inv_sqrt = 1.0 / ch.row_scale
            white = inv_sqrt[:, :, None] * G
            gram = white @ np.conjugate(np.swapaxes(white, -1, -2))
            sign, logdet = np.linalg.slogdet(np.eye(L) + 90.0 * gram)
            assert np.all(sign.real > 0)
            np.testing.assert_allclose(
                logdet / (L * math.log(2)), af_trial_mutual_info(ch, 90.0), atol=1e-10
            )

    def test_multihop_two_hop_draw_for_draw(self):
        rng = np.random.default_rng(109)
        n = 1000
        h_dk = random_complex(rng, n)
        h_dj = random_complex(rng, (n, 1)) / 0.7**2
        h_jk = random_complex(rng, (n, 1)) / 0.4**2
        a = af_trial_mutual_info(af2_equivalent_channel(h_dk, h_dj, h_jk, (0.5,), 80.0), 80.0)
        b = af_trial_mutual_info(afmh_equivalent_channel(h_dk, h_dj, h_jk, (0.5,), 80.0), 80.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_scalar_shortcut_discrepancy_reported(self):
        """Compare the matrix rate with the printed scalar shortcut.

        The shortcut reads (1/2) C(|H_dk|^2 Pbar (1 + 1/c_s)
        + (Pbar/c_s^2) |sum_j (c_j/c_s) H_dj H_jk|^2).  The matrix model is
        normative; this test only reports how far the two sit apart.
        """
        rng = np.random.default_rng(113)
        n = 20000
        pbar = 100.0
        h_dk = random_complex(rng, n)
        h_dj = random_complex(rng, (n, 1)) / 0.6**2
        h_jk = random_complex(rng, (n, 1)) / 0.5**2
        ch = af2_equivalent_channel(h_dk, h_dj, h_jk, (0.5,), pbar)
        matrix_rate = af_trial_mutual_info(ch, pbar)

        c = af_amplifier_gain(np.abs(h_jk[:, 0]) ** 2, 0.5, pbar)
        cs = np.sqrt(1.0 + np.abs(c * h_dj[:, 0]) ** 2)
        fwd = c * h_dj[:, 0] * h_jk[:, 0]
        scalar_rate = 0.5 * np.log2(
            1.0
            + np.abs(h_dk) ** 2 * pbar * (1.0 + 1.0 / cs)
            + pbar / cs**2 * np.abs(fwd / cs) ** 2
        )
        gap = matrix_rate - scalar_rate
        print(
            "\ntwo-hop scalar shortcut vs matrix rate: "
            f"mean gap {gap.mean():+.4f} bits, max |gap| {np.abs(gap).max():.4f} bits, "
            f"sign agreement on outage at R=0.25: "
            f"{np.mean((matrix_rate < 0.25) == (scalar_rate < 0.25)):.4f}"
        )
        assert np.all(np.isfinite(scalar_rate))
        assert np.all(np.isfinite(matrix_rate))

    def test_nonfinite_entries_rejected(self):
        mat = np.full((1, 2, 2), np.nan, dtype=complex)
        ch = EquivalentChannel(matrix=mat, row_scale=np.ones((1, 2)))
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            af_trial_mutual_info(ch, 1.0)


SHAPES = (
    ("af2", af2_equivalent_channel, af2_trial_mutual_info, af2_complex_mutual_info),
    ("afmh", afmh_equivalent_channel, afmh_trial_mutual_info, afmh_complex_mutual_info),
)


def closed_form_args(name, h_dk, h_dj, h_jk, budgets, pbar):
    """A closed form's arguments from complex gains with the path loss
    folded in: the received SNRs P |h_dk|^2, budget |h_dj|^2 and
    P |h_jk|^2, and for af2 the phases of H_dj H_jk."""
    snrs = (pbar * np.abs(h_dk) ** 2, budgets * np.abs(h_dj) ** 2, pbar * np.abs(h_jk) ** 2)
    return snrs + (np.angle(h_dj * h_jk),) if name == "af2" else snrs


def slogdet_count_events(kernel, params, seed, path, trials):
    """Reference AF kernel: the engine's stream and row layout, the
    general log-det rate of the equivalent-channel matrix.

    afmh reads one row per trial.  af2 first draws its survivor count,
    binomial (trials, q) with q = 1 - exp(-t') and t' the two-slot direct
    threshold (2^(2R) - 1) dk_pow / burst widened by ``_SCREEN_MARGIN``,
    then one row per survivor, whose A_dk becomes A_dk given A_dk < t' by
    inversion.  A row [A_dk, A_jk (m), A_dj (m)] of exponentials, with m
    phase columns more for af2 at m >= 2, gives the complex gains of
    ``af_row_gains``."""
    build = afmh_equivalent_channel if kernel == "afmh" else af2_equivalent_channel
    m = len(params["budgets"])
    phases = m if kernel == "af2" and m > 1 else 0
    rng = mc.derive_stream(seed, *path)
    q = None
    if kernel == "af2":
        t = math.expm1(2.0 * params["rate"] * math.log(2.0)) * params["dk_pow"] / params["burst"]
        q = -math.expm1(-t * (1.0 + mc._SCREEN_MARGIN))
        trials = rng.binomial(trials, q)
    events = 0
    for start in range(0, trials, 1 << 16):
        n = min(1 << 16, trials - start)
        row = rng.exponential(size=(n, 1 + 2 * m + phases))
        if q is not None:
            row[:, 0] = -np.log1p(q * np.expm1(-row[:, 0]))
        ch = build(*af_row_gains(params, row[:, 0], row[:, 1:]), np.asarray(params["budgets"]), params["burst"])
        events += int((af_trial_mutual_info(ch, params["burst"]) < params["rate"]).sum())
    return events


class TestClosedFormRates:
    """The kernel's closed-form rates against the general log-det path."""

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("name,build,closed_form,complex_form", SHAPES)
    def test_match_slogdet_oracle(self, name, build, closed_form, complex_form, m):
        """On complex gains, the closed form of the received SNRs (with
        af2's product phases) and the retired closed form of the complex
        amplitudes both give the log-det rate to 1e-10 relative."""
        rng = np.random.default_rng(127 + m)
        n = 2000
        for pbar in np.logspace(-2, 6, 9):
            # Link scales d^(-gamma/2) for distances 0.3..2 at gamma 4.
            scale = rng.uniform(0.3, 2.0, size=1 + 2 * m) ** -2.0
            h_dk = random_complex(rng, n) * scale[0]
            h_dj = random_complex(rng, (n, m)) * scale[1 : 1 + m]
            h_jk = random_complex(rng, (n, m)) * scale[1 + m :]
            budgets = rng.uniform(0.1, 3.0, size=m)
            want = af_trial_mutual_info(build(h_dk, h_dj, h_jk, budgets, pbar), pbar)
            got = closed_form(*closed_form_args(name, h_dk, h_dj, h_jk, budgets, pbar))
            assert got.shape == (n,)
            np.testing.assert_allclose(got, want, rtol=1e-10, err_msg=f"{name} P={pbar:g}")
            old = complex_form(pbar * np.abs(h_dk) ** 2, h_dj * np.sqrt(budgets), h_jk * math.sqrt(pbar))
            np.testing.assert_allclose(old, want, rtol=1e-10, err_msg=f"{name} complex P={pbar:g}")

    def test_dead_cooperators_leave_the_direct_link(self):
        h_dk = np.array([0.8 + 0.1j, 0.0, 2.0j])
        zeros = np.zeros((3, 2))
        a_dk = np.abs(h_dk) ** 2
        for name, _, closed_form, _ in SHAPES:
            phase = (zeros,) if name == "af2" else ()
            got = closed_form(10.0 * a_dk, zeros, zeros, *phase)
            np.testing.assert_allclose(got, np.log2(1.0 + 10.0 * a_dk), rtol=1e-14)

    def test_af2_rate_is_blind_to_a_common_phase(self):
        """Turning every helper's phase by one constant leaves af2's rate
        unchanged to 1e-12 relative; at m = 1 af2's row has no phase
        column, and its rate needs no phase."""
        rng = np.random.default_rng(131)
        n = 4000
        for m in (2, 3):
            snrs = (rng.exponential(size=n) * 30.0, *(rng.exponential(size=(2, n, m)) * 50.0))
            phase = rng.uniform(0.0, 2.0 * math.pi, size=(n, m))
            base = af2_trial_mutual_info(*snrs, phase)
            for turn in (0.3, math.pi, 5.9, -40.0):
                np.testing.assert_allclose(af2_trial_mutual_info(*snrs, phase + turn), base, rtol=1e-12, atol=0.0)
            with pytest.raises(ValueError):
                af2_trial_mutual_info(*snrs)
        rate_of, _ = mc._KERNELS["af2"]
        params = dict(
            rate=1.0, burst=3.0, budgets=(1.2,), dk_pow=0.9**4, dj_pow=(0.8**4,), jk_pow=(0.5**4,)
        )
        columns, gains, m = mc._snr_table("af2", params)
        assert m == 1 and columns.tolist() == [0, 1, 2]
        row = rng.exponential(size=(n, 3))
        snrs = (row[:, 0] * (3.0 / 0.9**4), row[:, 2:] * (1.2 / 0.8**4), row[:, 1:2] * (3.0 / 0.5**4))
        np.testing.assert_array_equal(rate_of(row * gains, 1, 1.0, None), af2_trial_mutual_info(*snrs))
        np.testing.assert_allclose(
            af2_trial_mutual_info(*snrs, rng.uniform(0.0, 2.0 * math.pi, size=(n, 1))),
            af2_trial_mutual_info(*snrs),
            rtol=1e-12,
            atol=0.0,
        )

    @pytest.mark.parametrize(
        "kernel,budgets,seed,path,trials",
        (
            ("af2", (1.2,), 3, (0, 0, 0, 0), 5000),
            ("af2", (0.7, 1.6), 17, (4, 2, 1, 0), (1 << 16) + 3000),
            ("afmh", (0.7, 1.6), 17, (4, 2, 1, 0), 5000),
            ("afmh", (1.1, 0.4), 29, (1, 1, 3, 2), (1 << 16) + 3000),
        ),
    )
    def test_engine_counts_match_slogdet_kernel(self, kernel, budgets, seed, path, trials):
        m = len(budgets)
        params = {
            "rate": 1.0,
            "burst": 3.0,
            "budgets": budgets,
            "dk_pow": 0.9**4,
            "dj_pow": tuple(0.8**4 for _ in range(m)),
            "jk_pow": tuple(0.5**4 for _ in range(m)),
        }
        want = slogdet_count_events(kernel, params, seed, path, trials)
        assert 0.02 * trials < want < 0.98 * trials
        assert mc.count_events(kernel, params, seed, path, trials) == want


class TestAfBounds:
    def test_two_hop_frozen_values(self):
        got = af_bounds_2hop(
            rate=0.25, burst_power=100.0, dk_pow=1.0**4.0,
            dj_pow=np.array((1.0,)) ** 4.0, jk_pow=np.array((0.5,)) ** 4.0,
        )
        np.testing.assert_allclose(got.lower, 1.7899666183826455e-06, rtol=1e-12)
        np.testing.assert_allclose(got.upper, 9.11480899785865e-06, rtol=1e-12)
        # and the printed three-digit forms
        np.testing.assert_allclose(got.lower, 1.790e-6, rtol=1e-3)
        np.testing.assert_allclose(got.upper, 9.115e-6, rtol=1e-3)

    def test_multihop_frozen_lower(self):
        got = af_bounds_multihop(
            rate=0.25, burst_power=100.0, dk_pow=1.0**4.0,
            dj_pow=np.array((1.0, 1.0)) ** 4.0, jk_pow=np.array((1.0, 1.0)) ** 4.0,
        )
        np.testing.assert_allclose(got.lower, 1.1289147327178563e-09, rtol=1e-12)
        eta = 2**0.25 - 1
        np.testing.assert_allclose(
            got.lower, hypoexp_leading_cdf_term((100.0, 100.0, 100.0), eta), rtol=1e-12
        )
        assert got.upper >= got.lower

    def test_ordering_random_parameter_sets(self):
        rng = np.random.default_rng(127)
        for _ in range(5000):
            m = int(rng.integers(1, 4))
            kwargs = dict(
                rate=rng.uniform(0.05, 2.0),
                burst_power=rng.uniform(1.0, 1e4),
                dk_pow=rng.uniform(0.2, 1.5) ** 4.0,
                dj_pow=rng.uniform(0.2, 1.5, m) ** 4.0,
                jk_pow=rng.uniform(0.05, 1.2, m) ** 4.0,
            )
            two = af_bounds_2hop(**kwargs)
            assert two.lower <= two.upper
            if m >= 2:
                multi = af_bounds_multihop(**kwargs)
                assert multi.lower <= multi.upper
