import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depnorm import (
    ArchimedeanFamily,
    CalibrationBudget,
    CovarianceSequence,
    DegenerateSampleError,
    GeneratorConfig,
    MomentSource,
    RngStream,
    TestKind,
    TimeSeriesSample,
    center,
    colored_bivariate_null_moments,
    colored_scalar_null_moments,
    generate,
    iid_null_moments,
    mardia_kurtosis,
    run_test,
    sample_cross_covariance,
    two_sided_p_value,
)
from depnorm.kurtosis import KurtosisValue


def _scalar_cov(ratios, s0=1.0):
    """CovarianceSequence for p=1 from S(tau)/S(0) ratios (tau >= 1)."""
    seq = s0 * np.concatenate([[1.0], np.asarray(ratios)])
    return CovarianceSequence(seq[:, None, None])


def _brute_scalar_moments(ratios, n):
    """Eq-by-eq double loop evaluation of the colored scalar moments."""
    mean_sum = 0.0
    var_sum = 0.0
    for tau, r in enumerate(ratios, start=1):
        if tau > n - 1:
            break
        mean_sum += (n - tau) * r**2
        var_sum += (n - tau) * r**4
    mean = 3 - 6 / n - 12 / n**2 * mean_sum
    var = 24 / n * (1 + 2 / n * var_sum)
    return mean, var


class TestMardiaKurtosis:
    def test_two_point_scalar_attains_bound(self):
        x = TimeSeriesSample([[2.0, -2.0, 2.0, -2.0, 2.0, -2.0]])
        k = mardia_kurtosis(x)
        assert k.value == pytest.approx(1.0, rel=1e-12)
        assert (k.p, k.n) == (1, 6)

    def test_gaussian_mean_matches_theorem(self):
        # average of 200 replicates of B_2 at N=1000; tolerance is
        # 3 * sqrt(Var / replicates) with Var = 8 p (p+2) / N
        gen = RngStream(2024).generator()
        vals = [
            mardia_kurtosis(TimeSeriesSample(gen.standard_normal((2, 1000)))).value
            for _ in range(200)
        ]
        target = 8 * 999 / 1001
        assert abs(np.mean(vals) - target) < 3 * math.sqrt(0.064 / 200)

    def test_affine_invariance(self):
        gen = RngStream(15).generator()
        x = TimeSeriesSample(gen.standard_normal((3, 400)))
        base = mardia_kurtosis(x).value
        for _ in range(20):
            a = gen.standard_normal((3, 3)) + 2 * np.eye(3)
            shifted = TimeSeriesSample(a @ x.data + gen.normal(size=(3, 1)))
            assert mardia_kurtosis(shifted).value == pytest.approx(base, rel=1e-8)

    def test_singular_covariance_rejected(self):
        x = TimeSeriesSample(np.vstack([np.arange(50.0), 2 * np.arange(50.0)]))
        with pytest.raises(DegenerateSampleError):
            mardia_kurtosis(x)

    def test_constant_scalar_rejected(self):
        # cond() of a 1x1 covariance is always 1, so degeneracy must be
        # caught through the diagonal
        with pytest.raises(DegenerateSampleError):
            mardia_kurtosis(TimeSeriesSample(np.ones((1, 30))))

    def test_lower_bound_enforced(self):
        with pytest.raises(ValueError):
            KurtosisValue(1.5, 2, 100)


class TestIidNullMoments:
    def test_small_sample_values(self):
        m = iid_null_moments(1, 100)
        assert m.mean == pytest.approx(3 * 99 / 101)
        assert m.variance == pytest.approx(0.24)
        assert m.source == MomentSource.IID_CLOSED_FORM

    def test_p3_values(self):
        m = iid_null_moments(3, 1000)
        assert m.mean == pytest.approx(15 * 999 / 1001)
        assert m.variance == pytest.approx(0.12)

    def test_asymptote(self):
        assert iid_null_moments(2, 10**9).mean == pytest.approx(8.0, abs=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            iid_null_moments(0, 100)


class TestColoredScalarMoments:
    def test_zero_tail_reduces_to_iid(self):
        m = colored_scalar_null_moments(_scalar_cov(np.zeros(99)), 100)
        assert m.mean == pytest.approx(2.94, abs=1e-12)
        assert m.variance == pytest.approx(0.24, abs=1e-12)
        # variance coincides with the i.i.d. closed form exactly; the means
        # differ by 6/N - 6/(N+1) = O(1/N^2) because both are asymptotic
        iid = iid_null_moments(1, 100)
        assert m.variance == iid.variance
        assert abs(m.mean - iid.mean) == pytest.approx(6 / (100 * 101), abs=1e-12)

    def test_matches_brute_force_summation(self):
        n = 1000
        ratios = 0.8 ** np.arange(1, n)
        m = colored_scalar_null_moments(_scalar_cov(ratios, s0=2.7), n)
        bm, bv = _brute_scalar_moments(ratios, n)
        assert m.mean == pytest.approx(bm, rel=1e-12)
        assert m.variance == pytest.approx(bv, rel=1e-12)

    def test_frozen_ar1_values(self):
        # high-precision summation for S(tau)/S(0) = 0.8^tau at N=1000
        m = colored_scalar_null_moments(_scalar_cov(0.8 ** np.arange(1, 1000)), 1000)
        assert m.mean == pytest.approx(2.972725925925926, abs=1e-9)
        assert m.variance == pytest.approx(0.057244409192059, abs=1e-9)

    def test_correction_never_below_iid_variance(self):
        rng = RngStream(21).generator()
        for _ in range(25):
            ratios = rng.uniform(-0.9, 0.9, size=30)
            m = colored_scalar_null_moments(_scalar_cov(ratios), 500)
            assert m.variance >= 24 / 500

    def test_scale_invariance(self):
        ratios = 0.5 ** np.arange(1, 40)
        a = colored_scalar_null_moments(_scalar_cov(ratios, s0=1.0), 200)
        b = colored_scalar_null_moments(_scalar_cov(ratios, s0=137.0), 200)
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.variance == pytest.approx(b.variance, rel=1e-12)

    def test_degenerate_s0(self):
        with pytest.raises(DegenerateSampleError):
            colored_scalar_null_moments(_scalar_cov([0.1], s0=0.0), 100)

    def test_wrong_dimension(self):
        cov = CovarianceSequence(np.eye(2)[None, :, :])
        with pytest.raises(ValueError):
            colored_scalar_null_moments(cov, 100)


class TestColoredBivariateMoments:
    def test_white_identity_matches_leading_terms(self):
        n = 1000
        cov = CovarianceSequence(np.eye(2)[None, :, :])
        m = colored_bivariate_null_moments(
            cov, n, CalibrationBudget(replicates=2000, seed=RngStream(31))
        )
        assert m.source == MomentSource.MONTE_CARLO_CALIBRATED
        se_mean = math.sqrt(0.064 / 2000)
        assert abs(m.mean - (8 - 16 / n)) < 3 * se_mean
        assert 0.75 * 64 / n < m.variance < 1.35 * 64 / n

    def test_temporal_correlation_lowers_the_mean(self):
        # sign determined by direct Monte Carlo: an AR(1)-in-time identity-
        # across-channels process calibrates to a mean well below 8 - 16/N
        n = 1000
        lags = (0.8 ** np.arange(51))[:, None, None] * np.eye(2)[None, :, :]
        m = colored_bivariate_null_moments(
            CovarianceSequence(lags), n,
            CalibrationBudget(replicates=2000, seed=RngStream(37)),
        )
        assert m.mean < 8 - 16 / n

    def test_seed_consistency(self):
        cov = CovarianceSequence(np.eye(2)[None, :, :])
        budgets = [CalibrationBudget(replicates=1000, seed=RngStream(s)) for s in (41, 43)]
        from depnorm import GaussianSurrogate, calibrate_null

        res = [calibrate_null(GaussianSurrogate(cov, 500), budget=b) for b in budgets]
        gap = abs(res[0].mean - res[1].mean)
        assert gap < 3 * math.hypot(res[0].se_mean, res[1].se_mean)

    def test_wrong_dimension(self):
        cov = CovarianceSequence(np.ones((1, 1, 1)))
        with pytest.raises(ValueError):
            colored_bivariate_null_moments(cov, 100)


class TestPValues:
    def test_centered_statistic_gives_unit_p(self):
        assert two_sided_p_value(0.0) == 1.0

    def test_strictly_decreasing_in_magnitude(self):
        zs = np.linspace(0, 12, 200)
        ps = [two_sided_p_value(z) for z in zs]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_symmetric(self):
        assert two_sided_p_value(-1.7) == two_sided_p_value(1.7)

    def test_deep_tail_keeps_precision(self):
        p = two_sided_p_value(10.0)
        assert 0 < p < 1e-20

    def test_array_matches_scalar_calls_bit_for_bit(self):
        zs = np.concatenate([np.linspace(-12, 12, 97), [0.0, 1e-300, 40.0]])
        ps = two_sided_p_value(zs)
        assert isinstance(ps, np.ndarray) and ps.shape == zs.shape
        assert [float(p) for p in ps] == [two_sided_p_value(float(z)) for z in zs]

    def test_scalar_input_gives_float(self):
        assert type(two_sided_p_value(1.3)) is float
        assert type(two_sided_p_value(np.float64(1.3))) is float

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 30), st.floats(0.01, 5))
    def test_monotone_property(self, z, dz):
        assert two_sided_p_value(z + dz) < two_sided_p_value(z)


class TestRunTest:
    def test_iid_size(self):
        gen = RngStream(47).generator()
        rejections = 0
        reps = 600
        for _ in range(reps):
            x = TimeSeriesSample(gen.standard_normal((2, 1000)))
            rejections += run_test(x, TestKind.MARDIA_IID, 0.05).reject
        assert abs(rejections / reps - 0.05) < 0.025

    def test_heavy_tails_rejected(self):
        gen = RngStream(53).generator()
        reps, hits = 300, 0
        for _ in range(reps):
            x = TimeSeriesSample(gen.standard_t(5, size=(1, 1000)))
            hits += run_test(x, TestKind.COLORED_SCALAR, 0.05).reject
        assert hits / reps > 0.9

    def test_report_consistency(self):
        x = TimeSeriesSample(RngStream(59).generator().standard_normal((1, 500)))
        rep = run_test(x, TestKind.COLORED_SCALAR, 0.05)
        assert rep.reject == (rep.p_value < rep.alpha)
        assert rep.p_value == pytest.approx(two_sided_p_value(rep.z))
        assert rep.null_moments.max_lag == 499
        d = rep.to_dict()
        assert set(d) == {
            "statistic", "z", "p_value", "reject", "null_mean", "null_var",
            "null_source",
        }

    def test_max_lag_truncation_recorded(self):
        x = TimeSeriesSample(RngStream(61).generator().standard_normal((1, 500)))
        rep = run_test(x, TestKind.COLORED_SCALAR, 0.05, max_lag=20)
        assert rep.null_moments.max_lag == 20

    def test_bivariate_max_lag_honoured_and_recorded(self):
        # white noise truncated to 30 lags at N=300 trips the clipping guard,
        # so both checks use colored copula samples
        family = ArchimedeanFamily.gumbel(5.0)
        x = generate(GeneratorConfig(family, 2, 300), RngStream(89))
        budget = CalibrationBudget(replicates=200, seed=RngStream(97))
        rep = run_test(x, TestKind.COLORED_BIVARIATE, 0.05, max_lag=30, budget=budget)
        assert rep.null_moments.max_lag == 30
        # the recorded lag is that of the model calibrated, not of N
        y = generate(GeneratorConfig(family, 2, 400), RngStream(101))
        cov = sample_cross_covariance(center(y), 10)
        assert colored_bivariate_null_moments(cov, 400, budget).max_lag == 10

    def test_kind_dimension_mismatch(self):
        x2 = TimeSeriesSample(RngStream(67).generator().standard_normal((2, 100)))
        with pytest.raises(ValueError):
            run_test(x2, TestKind.COLORED_SCALAR, 0.05)
        x1 = TimeSeriesSample(RngStream(67).generator().standard_normal((1, 100)))
        with pytest.raises(ValueError):
            run_test(x1, TestKind.COLORED_BIVARIATE, 0.05)

    def test_alpha_validated(self):
        x = TimeSeriesSample(RngStream(71).generator().standard_normal((1, 100)))
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                run_test(x, TestKind.MARDIA_IID, bad)

    def test_colored_bivariate_end_to_end(self):
        x = TimeSeriesSample(RngStream(73).generator().standard_normal((2, 400)))
        rep = run_test(
            x, TestKind.COLORED_BIVARIATE, 0.05,
            budget=CalibrationBudget(replicates=300, seed=RngStream(9)),
        )
        assert rep.null_moments.source == MomentSource.MONTE_CARLO_CALIBRATED
        assert 6.5 < rep.null_moments.mean < 9.0

    def test_rotation_leaves_bivariate_statistic_unchanged(self):
        from depnorm import rotate_2d

        x = TimeSeriesSample(RngStream(79).generator().standard_normal((2, 500)))
        base = mardia_kurtosis(x).value
        gen = RngStream(83).generator()
        for _ in range(25):
            rotated = rotate_2d(x, gen.uniform(0, np.pi))
            assert mardia_kurtosis(rotated).value == pytest.approx(base, rel=1e-10)
