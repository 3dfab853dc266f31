import math

import numpy as np
import pytest
from scipy.stats import kstest

from depnorm import (
    CalibrationBudget,
    CalibrationError,
    CovarianceSequence,
    DegenerateSampleError,
    GaussianSurrogate,
    RngStream,
    calibrate_null,
    colored_scalar_null_moments,
    iid_null_moments,
    resolve_max_lag,
    simulate_gaussian,
    simulate_gaussian_batch,
)


def _ar1_cov(a, max_lag, p=1, s0=1.0):
    seq = s0 * a ** np.arange(max_lag + 1)
    lags = seq[:, None, None] * np.eye(p)[None, :, :]
    return CovarianceSequence(lags)


def _white_cov(p):
    return CovarianceSequence(np.eye(p)[None, :, :])


class TestBudget:
    def test_minimum_replicates(self):
        with pytest.raises(ValueError):
            CalibrationBudget(replicates=50)

    def test_max_lag_resolution(self):
        assert resolve_max_lag(None, 1000) == 999
        assert resolve_max_lag(50, 1000) == 50
        assert resolve_max_lag(5000, 1000) == 999


class TestSurrogate:
    def test_white_bivariate_is_decorrelated(self):
        n = 100_000
        sur = GaussianSurrogate(_white_cov(2), n)
        x = simulate_gaussian(sur, RngStream(3))
        d = x.data - x.data.mean(axis=1, keepdims=True)
        lag1 = d[:, :-1] @ d[:, 1:].T / n
        assert np.all(np.abs(lag1) < 0.01)

    def test_ar1_autocorrelation(self):
        n = 100_000
        sur = GaussianSurrogate(_ar1_cov(0.8, 60), n)
        x = simulate_gaussian(sur, RngStream(5)).data[0]
        x = x - x.mean()
        acf3 = np.dot(x[:-3], x[3:]) / np.dot(x, x)
        assert acf3 == pytest.approx(0.512, abs=0.02)

    def test_marginal_gaussianity(self):
        n = 10_000
        sur = GaussianSurrogate(_ar1_cov(0.6, 40, s0=2.5), n)
        x = simulate_gaussian(sur, RngStream(7)).data[0]
        stat = kstest(x / x.std(), "norm").statistic
        assert stat < 1.63 / math.sqrt(n)

    def test_batch_replicates_independent(self):
        sur = GaussianSurrogate(_white_cov(1), 2000)
        batch = simulate_gaussian_batch(sur, RngStream(9), 64)
        assert batch.shape == (64, 1, 2000)
        corr = np.corrcoef(batch[:, 0, :])
        off = corr[~np.eye(64, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1

    def test_full_lag_model_never_clips(self):
        # the full biased covariance sequence is a periodogram, hence PSD
        gen = RngStream(11).generator()
        data = np.cumsum(gen.standard_normal((2, 500)), axis=1) * 0.1
        data -= data.mean(axis=1, keepdims=True)
        from depnorm import TimeSeriesSample, sample_cross_covariance

        cov = sample_cross_covariance(TimeSeriesSample(data), 499)
        sur = GaussianSurrogate(cov, 500)
        assert sur.clipping_norm < 1e-12

    def test_invalid_model_aborts(self):
        lags = np.array([[[1.0]], [[5.0]]])  # S(1) >> S(0): spectrum < 0
        with pytest.raises(CalibrationError):
            GaussianSurrogate(CovarianceSequence(lags), 100)

    def test_deterministic(self):
        sur = GaussianSurrogate(_ar1_cov(0.5, 20), 300)
        a = simulate_gaussian(sur, RngStream(13))
        b = simulate_gaussian(sur, RngStream(13))
        np.testing.assert_array_equal(a.data, b.data)


class TestCalibrateNull:
    def test_white_bivariate_leading_terms(self):
        n = 1000
        res = calibrate_null(
            GaussianSurrogate(_white_cov(2), n),
            budget=CalibrationBudget(replicates=2000, seed=RngStream(17)),
        )
        assert abs(res.mean - 7.984) < 3 * res.se_mean
        assert 0.75 * 64 / n < res.variance < 1.35 * 64 / n
        assert res.replicates == 2000
        assert res.clipping_norm < 1e-12

    def test_white_scalar_matches_iid_closed_form(self):
        n = 1000
        res = calibrate_null(
            GaussianSurrogate(_white_cov(1), n),
            budget=CalibrationBudget(replicates=2000, seed=RngStream(19)),
        )
        iid = iid_null_moments(1, n)
        assert abs(res.mean - iid.mean) < 3 * res.se_mean
        assert abs(res.variance - iid.variance) < 3 * res.se_variance

    def test_scalar_colored_cross_validation(self):
        # closed form vs calibration on the same AR(1) model; at a = 0.5 and
        # N = 2000 the closed form's asymptotic remainder is far below the
        # Monte Carlo resolution, so 3 combined standard errors must cover it
        a, n = 0.5, 2000
        closed = colored_scalar_null_moments(_ar1_cov(a, n - 1), n)
        res = calibrate_null(
            GaussianSurrogate(_ar1_cov(a, 200), n),
            budget=CalibrationBudget(replicates=1500, seed=RngStream(23)),
        )
        assert abs(res.mean - closed.mean) < 3 * res.se_mean
        assert abs(res.variance - closed.variance) < 3 * res.se_variance

    def test_variance_scales_inversely_with_length(self):
        # a = 0.5 keeps the process inside its asymptotic regime at N = 500;
        # at a = 0.8 the N * variance curve is still climbing toward its
        # limit there (44 -> 51.5 -> 51.9 measured), which is a property of
        # the statistic, not of the calibration
        scaled = []
        for n in (500, 1000, 2000):
            res = calibrate_null(
                GaussianSurrogate(_ar1_cov(0.5, 50), n),
                budget=CalibrationBudget(replicates=2000, seed=RngStream(29)),
            )
            scaled.append(res.variance * n)
        for v in scaled[1:]:
            assert v == pytest.approx(scaled[0], rel=0.15)

    def test_two_seeds_agree(self):
        sur = GaussianSurrogate(_white_cov(2), 500)
        r1 = calibrate_null(sur, budget=CalibrationBudget(replicates=1000, seed=RngStream(31)))
        r2 = calibrate_null(sur, budget=CalibrationBudget(replicates=1000, seed=RngStream(37)))
        assert abs(r1.mean - r2.mean) < 3 * math.hypot(r1.se_mean, r2.se_mean)
        assert abs(r1.variance - r2.variance) < 3 * math.hypot(r1.se_variance, r2.se_variance)

    def test_deterministic_given_budget(self):
        sur = GaussianSurrogate(_white_cov(2), 400)
        budget = CalibrationBudget(replicates=500, seed=RngStream(41))
        r1 = calibrate_null(sur, budget=budget)
        r2 = calibrate_null(sur, budget=budget)
        assert r1 == r2

    def test_collinear_replicates_raise(self):
        sur = GaussianSurrogate(CovarianceSequence(np.ones((1, 2, 2))), 200)
        with pytest.raises(DegenerateSampleError):
            calibrate_null(sur, budget=CalibrationBudget(replicates=100, seed=RngStream(43)))

    def test_kurtosis_quantiles(self):
        sur = GaussianSurrogate(_white_cov(1), 300)
        res = calibrate_null(
            sur, budget=CalibrationBudget(replicates=400, seed=RngStream(43)),
            quantile_probs=(0.1, 0.5, 0.9),
        )
        qs = res.quantiles
        assert qs is not None and qs[0.1] < qs[0.5] < qs[0.9]
        assert qs[0.1] < res.mean < qs[0.9]
        assert "quantiles" in res.to_dict()

    def test_json_record_fields(self):
        sur = GaussianSurrogate(_white_cov(1), 200)
        res = calibrate_null(sur, budget=CalibrationBudget(replicates=200, seed=RngStream(47)))
        d = res.to_dict()
        assert set(d) == {
            "mean", "variance", "se_mean", "se_variance", "replicates",
            "clipping_norm",
        }
