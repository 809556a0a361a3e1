"""Tests for the capacity function and weighted-exponential-sum machinery.

The CDF values are checked against oracles that share no code with the
uniformized evaluation: frozen digits of the partial-fraction form
worked by hand, the same form summed in 150-digit ``decimal``
arithmetic, the regularized incomplete gamma function for equal weights,
and Monte Carlo empirical CDFs.
"""

import decimal
import math

import numpy as np
import pytest
from scipy.special import gammainc

from tdcoop.mathcore import (
    capacity,
    hypoexp_cdf,
    hypoexp_leading_cdf_term,
)

from oracles import weighted_exp_sum_sample


def empirical_cdf_at(samples: np.ndarray, eta: float) -> float:
    return float(np.mean(samples <= eta))


def decimal_partial_fractions(weights, eta, digits=150) -> float:
    """sum_l C_l (1 - exp(-eta/c_l)) for distinct weights, in `digits`-digit
    decimal arithmetic, so the cancelling O(C_l) terms leave F exact to
    float precision even where F is 1e-40."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
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


class TestCapacity:
    def test_anchor_points(self):
        assert capacity(0.0) == 0.0
        np.testing.assert_allclose(capacity(1.0), 1.0, rtol=1e-15)
        np.testing.assert_allclose(capacity(3.0), 2.0, rtol=1e-15)

    def test_monotone_and_vectorised(self):
        x = np.linspace(0.0, 50.0, 1001)
        y = capacity(x)
        assert y.shape == x.shape
        assert np.all(np.diff(y) > 0)

    def test_small_snr_precision(self):
        # log1p path: capacity(x) ~ x/ln2 for tiny x
        x = 1e-14
        np.testing.assert_allclose(capacity(x), x / math.log(2), rtol=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            capacity(-0.1)
        with pytest.raises(ValueError):
            capacity(np.array([0.5, -2.0]))

    def test_nan_rejected_and_inf_kept(self):
        for bad in (float("nan"), -1.0, np.array([1.0, np.nan]), np.array([[2.0], [-1.0]])):
            with pytest.raises(ValueError, match="snr >= 0"):
                capacity(bad)
        assert capacity(math.inf) == math.inf
        assert np.array_equal(capacity(np.array([0.0, np.inf])), [0.0, np.inf])

    def test_float_exactly_for_a_0d_result(self):
        for x in (3.0, 3, np.float64(3.0), np.array(3.0)):
            assert type(capacity(x)) is float and capacity(x) == 2.0
        for x in (np.array([3.0]), [3.0], np.zeros((2, 0))):
            assert isinstance(capacity(x), np.ndarray)


class TestCdf:
    def test_exponential_median(self):
        np.testing.assert_allclose(hypoexp_cdf((1.0,), math.log(2)), 0.5, rtol=1e-14)

    def test_frozen_two_weight_value(self):
        # -1*(1-e^-1) + 2*(1-e^-0.5) evaluated by hand
        np.testing.assert_allclose(
            hypoexp_cdf((1.0, 2.0), 1.0), 0.15481812174617555, rtol=1e-12
        )

    def test_two_weight_monte_carlo_oracle(self):
        """Empirical CDF of E1 + 2*E2 over 1e7 draws pins the same value."""
        rng = np.random.default_rng(2024)
        samples = weighted_exp_sum_sample((1.0, 2.0), rng, 10**7)
        emp = empirical_cdf_at(samples, 1.0)
        np.testing.assert_allclose(emp, 0.15481812174617555, atol=3e-4)
        np.testing.assert_allclose(hypoexp_cdf((1.0, 2.0), 1.0), emp, atol=3e-3)

    def test_near_degenerate_erlang_oracle(self):
        """Weights 1 and 1+1e-9 behave like an Erlang-2: 1-(1+eta)e^-eta."""
        eta = np.linspace(0.1, 6.0, 40)
        erlang = 1.0 - (1.0 + eta) * np.exp(-eta)
        got = hypoexp_cdf((1.0, 1.0 + 1e-9), eta)
        np.testing.assert_allclose(got, erlang, atol=1e-6)
        np.testing.assert_allclose(
            hypoexp_cdf((1.0, 1.0 + 1e-9), 1.0), 0.26424111765711533, atol=1e-6
        )

    def test_exact_duplicates_are_erlang(self):
        # a triple duplicate is the Erlang-3 law; the closed form cancels
        # below eta ~ 0.1, so the small value is e^-eta * sum_{n>=3} eta^n/n!
        eta = np.array([0.5, 2.0, 10.0])
        erlang3 = 1.0 - (1.0 + eta + eta**2 / 2.0) * np.exp(-eta)
        np.testing.assert_allclose(hypoexp_cdf((1.0, 1.0, 1.0), eta), erlang3, rtol=1e-12)
        small = math.exp(-1e-3) * sum(1e-3**n / math.factorial(n) for n in range(3, 12))
        np.testing.assert_allclose(hypoexp_cdf((1.0, 1.0, 1.0), 1e-3), small, rtol=1e-12)

    def test_zero_is_exact(self):
        assert hypoexp_cdf((0.3, 1.7), 0.0) == 0.0
        out = hypoexp_cdf((0.3, 1.7), np.array([0.0, 1.0]))
        assert out[0] == 0.0

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            L = int(rng.integers(1, 5))
            w = tuple(rng.uniform(0.05, 10.0, size=L))
            eta = np.linspace(0.0, 20.0 * sum(w), 400)
            f = hypoexp_cdf(w, eta)
            assert np.all(f >= 0.0) and np.all(f <= 1.0)
            assert np.all(np.diff(f) >= -1e-12)
            assert f[-1] > 0.999

    def test_infinite_or_huge_eta_is_one(self):
        with np.errstate(over="raise", invalid="raise"):
            assert hypoexp_cdf((1.0, 2.0), math.inf) == 1.0
            assert hypoexp_cdf((1e-10, 1.0), 1e300) == 1.0

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            hypoexp_cdf((1.0,), -0.5)

    def test_empirical_supnorm_random_sets(self):
        """Closed form tracks 1e6-draw empirical CDFs within 3e-3 sup-norm."""
        rng = np.random.default_rng(5)
        for L in (1, 2, 3, 4):
            w = tuple(rng.uniform(0.2, 4.0, size=L))
            samples = np.sort(weighted_exp_sum_sample(w, rng, 10**6))
            grid = samples[:: len(samples) // 500]
            emp = np.searchsorted(samples, grid, side="right") / len(samples)
            np.testing.assert_allclose(hypoexp_cdf(w, grid), emp, atol=3e-3)


class TestAccuracy:
    """Relative error, not absolute: a bound needs F right where it is 1e-20."""

    def test_distinct_weights_match_decimal_partial_fractions(self):
        rng = np.random.default_rng(16)
        ratios = np.logspace(-8.0, math.log10(30.0), 10)
        worst = 0.0
        for _ in range(300):
            w = rng.uniform(0.05, 5.0, size=int(rng.integers(1, 6)))
            eta = ratios * w.min()
            got = hypoexp_cdf(tuple(w), eta)
            want = np.array([decimal_partial_fractions(w, e) for e in eta])
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst <= 1e-10

    @pytest.mark.parametrize("spread", (1e3, 1e4, 1e5, 1e6))
    def test_wide_weight_spreads_match_decimal_partial_fractions(self, spread):
        """The rounding error grows with max c / min c: at most 4e-15 times
        the spread s, from 1e-6 of the smallest weight to 30 times the
        largest (measured: about 1.2e-15 s on this grid)."""
        s = spread
        worst = 0.0
        for w in ((1.0 / s, 1.0), (1.0, s), (0.5, 0.5 * s, 0.7 * s)):
            eta = np.logspace(math.log10(1e-6 * min(w)), math.log10(30.0 * max(w)), 200)
            got = hypoexp_cdf(w, eta)
            want = np.array([decimal_partial_fractions(w, e) for e in eta])
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst <= 4e-15 * s

    @pytest.mark.parametrize("order", (2, 3, 4))
    def test_equal_weights_match_gammainc(self, order):
        eta = np.logspace(-6.0, math.log10(40.0), 60)
        for c in (0.3, 1.0, 2.5):
            want = gammainc(order, eta / c)
            np.testing.assert_allclose(hypoexp_cdf((c,) * order, eta), want, rtol=1e-12)

    def test_cases_the_partial_fractions_got_wrong(self):
        np.testing.assert_allclose(
            hypoexp_cdf((0.5, 0.7, 1.9, 2.4), 1e-5),
            decimal_partial_fractions((0.5, 0.7, 1.9, 2.4), 1e-5),
            rtol=1e-12,
        )
        np.testing.assert_allclose(hypoexp_cdf((1.0,) * 4, 0.5), gammainc(4, 0.5), rtol=1e-12)

    def test_scalar_in_scalar_out(self):
        assert isinstance(hypoexp_cdf((1.0, 2.0), 1.0), float)
        assert hypoexp_cdf((1.0, 2.0), [1.0]).shape == (1,)


class TestLeadingTerm:
    def test_first_order(self):
        np.testing.assert_allclose(hypoexp_leading_cdf_term((1.0,), 0.01), 0.01, rtol=1e-15)

    def test_second_order(self):
        np.testing.assert_allclose(
            hypoexp_leading_cdf_term((1.0, 2.0), 0.1), 0.0025, rtol=1e-14
        )

    def test_ratio_to_cdf_tends_to_one(self):
        # the first correction is eta * sum(1/c_j) / (L + 1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            L = int(rng.integers(1, 5))
            w = [float(rng.uniform(0.1, 2.0))]
            for _ in range(L - 1):
                w.append(w[-1] * float(rng.uniform(1.3, 3.0)))
            eta = 1e-2 * min(w)
            ratio = hypoexp_cdf(tuple(w), eta) / hypoexp_leading_cdf_term(tuple(w), eta)
            np.testing.assert_allclose(ratio, 1.0, rtol=1e-2)

    def test_duplicates_allowed(self):
        # repeated weights enter a plain product
        np.testing.assert_allclose(
            hypoexp_leading_cdf_term((2.0, 2.0), 0.2), 0.2**2 / (2 * 4.0), rtol=1e-14
        )


class TestWeightedExpSum:
    """The weights c_l of the sum, as both hypoexp functions take them."""

    def test_rejects_empty_and_nonpositive(self):
        for func in (hypoexp_cdf, hypoexp_leading_cdf_term):
            for weights in ((), (1.0, 0.0), (1.0, -2.0), (math.inf,)):
                with pytest.raises(ValueError):
                    func(weights, 0.5)

    def test_order_and_mean(self):
        weights = (0.5, 1.5, 2.0)
        # the order L = 3 is the leading term's power of eta
        ratio = hypoexp_leading_cdf_term(weights, 0.2) / hypoexp_leading_cdf_term(weights, 0.1)
        np.testing.assert_allclose(ratio, 2.0**3, rtol=1e-14)
        rng = np.random.default_rng(17)
        samples = weighted_exp_sum_sample(weights, rng, 200_000)
        np.testing.assert_allclose(samples.mean(), 4.0, rtol=2e-2)
