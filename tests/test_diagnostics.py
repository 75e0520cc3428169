"""Tests for autocorrelation and IAT estimation."""

import math
import warnings

import numpy as np
import pytest

from slicegap.diagnostics import autocorr, iat, iat_bound_from_gap
from slicegap.errors import (
    DomainError,
    InsufficientDataError,
    ZeroVarianceError,
)


def ar1(n, rho, seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n)
    y = np.empty(n)
    y[0] = e[0] / math.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        y[i] = rho * y[i - 1] + e[i]
    return y


class TestAutocorr:
    def test_alternating_trace(self):
        n = 1000
        x = np.tile([1.0, -1.0], n // 2)
        rho = autocorr(x, 1)
        assert rho.shape == (2,)
        assert abs(rho[1] + 1.0) <= 2.0 / n
        assert rho[0] == 1.0

    def test_two_dimensional_trace_rejected(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            autocorr(np.ones((2, 500)), 1)

    def test_white_noise_band(self):
        rng = np.random.default_rng(314)
        x = rng.normal(size=100_000)
        rho = autocorr(x, 20)
        assert np.all(np.abs(rho[1:]) <= 4.0 / math.sqrt(100_000))

    def test_constant_trace(self):
        with pytest.raises(ZeroVarianceError):
            autocorr(np.full(100, 3.0), 5)

    @pytest.mark.parametrize("value", [0.1, 1.7e308])
    def test_constant_trace_of_inexact_mean(self, value):
        # the mean of 100 copies of 0.1 is one ulp off it; 1.7e308 * 100
        # overflows unless the trace is scaled first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroVarianceError):
                autocorr(np.full(100, value), 5)

    @pytest.mark.parametrize("pair", [(1e200, -1e200), (1.7e308, 1.6e308)])
    def test_huge_finite_trace(self, pair):
        # unscaled, the squares of the first trace overflow and so does the
        # sum behind the mean of the second
        x = np.tile(pair, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = autocorr(x, 3)
            est = iat(x)
        np.testing.assert_allclose(rho, [1.0, -0.99, 0.98, -0.97], rtol=1e-12, atol=0)
        assert est.truncation_lag == 1

    def test_power_of_two_scaling_moves_no_bit(self):
        # autocorr scales the trace by a power of two itself, so any other
        # power of two gives the same floats, deep into overflow and underflow
        # of the unscaled squares
        x = ar1(2000, 0.7, seed=5)
        want = autocorr(x, 50)
        for k in (-900, -3, 5, 900):
            np.testing.assert_array_equal(autocorr(np.ldexp(x, k), 50), want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_trace(self, bad):
        # rejected before the mean is taken, so an inf value does not warn
        x = np.arange(100.0)
        x[17] = bad
        with pytest.raises(DomainError, match="finite"):
            autocorr(x, 5)
        with pytest.raises(DomainError, match="finite"):
            iat(x)

    def test_short_trace(self):
        with pytest.raises(InsufficientDataError):
            autocorr(np.arange(5.0), 2)

    def test_bad_max_lag(self):
        with pytest.raises(DomainError):
            autocorr(np.arange(20.0), 25)

    def test_fft_matches_direct(self):
        rng = np.random.default_rng(99)
        x = rng.normal(size=3000)
        xc = x - x.mean()
        gamma = np.array([np.dot(xc[:x.size - k], xc[k:]) for k in range(501)])
        direct = gamma / gamma[0]
        assert np.max(np.abs(autocorr(x, 500) - direct)) < 1e-10

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=400).cumsum()
        a = autocorr(x, 50)
        b = autocorr(x[::-1], 50)
        assert np.allclose(a, b, rtol=0, atol=1e-12)


class TestIat:
    def test_iid_trace_near_one(self):
        rng = np.random.default_rng(11)
        est = iat(rng.normal(size=100_000))
        assert 0.9 <= est.iat <= 1.1

    def test_ar1_analytic_value(self):
        # (1 + rho) / (1 - rho) = 3 at rho = 1/2
        est = iat(ar1(100_000, 0.5, seed=21))
        assert 2.7 <= est.iat <= 3.3
        assert est.truncation_lag >= 3

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            iat(np.arange(5.0))

    def test_consistency_doubling_n(self):
        # median error over replications shrinks when n doubles
        errs_small = [abs(iat(ar1(2000, 0.5, seed=s)).iat - 3.0)
                      for s in range(40)]
        errs_large = [abs(iat(ar1(8000, 0.5, seed=1000 + s)).iat - 3.0)
                      for s in range(40)]
        assert np.median(errs_large) < np.median(errs_small)

    def test_truncation_cap(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        est = iat(x)
        assert est.truncation_lag <= 32

    @staticmethod
    def _loop_iat(x, max_lag):
        """The truncation rule as a scan over the odd lags."""
        rho = autocorr(x, max_lag)
        trunc = max_lag
        k = 1
        while k + 1 <= max_lag:
            if rho[k] + rho[k + 1] < 0.0:
                trunc = k
                break
            k += 2
        return 1.0 + 2.0 * float(np.sum(rho[1:trunc])), trunc

    @pytest.mark.parametrize("max_lag", [None, 0, 1, 2, 7, 40, 41, 499])
    def test_truncation_matches_loop(self, max_lag):
        for seed, coef in enumerate((-0.5, 0.0, 0.5, 0.9)):
            x = ar1(1000, coef, seed=seed)
            lag = x.size // 2 if max_lag is None else max_lag  # the default cap
            est = iat(x, max_lag)
            assert (est.iat, est.truncation_lag) == self._loop_iat(x, lag)

    def test_no_negative_pair_sums_whole_window(self):
        x = np.arange(100.0)  # a trend: every autocorrelation up to lag 30 is positive
        assert np.all(autocorr(x, 30) > 0.0)
        for max_lag in (29, 30):
            est = iat(x, max_lag)
            assert est.truncation_lag == max_lag
            assert (est.iat, est.truncation_lag) == self._loop_iat(x, max_lag)


class TestGapBound:
    def test_values(self):
        assert iat_bound_from_gap(0.5) == pytest.approx(4.0)
        assert iat_bound_from_gap(1.0) == pytest.approx(2.0)

    def test_zero_gap_rejected(self):
        with pytest.raises(DomainError):
            iat_bound_from_gap(0.0)
        with pytest.raises(DomainError):
            iat_bound_from_gap(-0.1)

    def test_truncation_sanity_on_pss_trace(self):
        # IAT of a stationary-start PSS radius trace respects 2/gap + slack
        from slicegap.kernel import build_tgrid, discretize_pt, spectral_gap
        from slicegap.levelset import level_set_function
        from slicegap.samplers import run_x_chain
        from slicegap.targets import RadialFactorization, exponential

        d = 5
        target = exponential(d)
        fac = RadialFactorization.pss(d)
        ell = level_set_function(target, fac)
        gap = spectral_gap(discretize_pt(ell, build_tgrid(ell, 512))).gap
        trace = run_x_chain(target, fac, 100_000, float(d - 1), seed=77)
        est = iat(trace)
        assert est.iat <= 2.0 / gap + 0.5
