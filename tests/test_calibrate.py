import math
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.stats import kstest

from depnorm import (
    ArchimedeanFamily,
    CalibrationBudget,
    CalibrationError,
    CovarianceSequence,
    DegenerateSampleError,
    ExperimentConfig,
    GaussianSurrogate,
    RngStream,
    TimeSeriesSample,
    calibrate_null,
    center,
    colored_scalar_null_moments,
    iid_null_moments,
    resolve_max_lag,
    run_experiment,
    sample_cross_covariance,
    simulate_gaussian_batch,
)
from depnorm.calibrate import (_BASIS_BLOCK, _CHUNK, _MAX_WORKERS, _SLAB, _draw_reduced,
                               _normal_draws, _replicate_moments, _transform_slab)
from depnorm.kurtosis import _fourth_moments, _projected_kurtosis
from depnorm.projection import sample_direction, sample_plane
from reference import direct_gaussian_batch, direct_kurtosis, moments_with_errors


def _ar1_cov(a, max_lag, p=1, s0=1.0):
    seq = s0 * a ** np.arange(max_lag + 1)
    lags = seq[:, None, None] * np.eye(p)[None, :, :]
    return CovarianceSequence(lags)


def _white_cov(p):
    return CovarianceSequence(np.eye(p)[None, :, :])


def _var1_surrogate(p, max_lag, n=120):
    """Surrogate of a VAR(1) x(n+1) = A x(n) + e(n) with a non-symmetric A,
    whose lags S(tau) = S(0) (A^tau)^T make the factor mix the channels."""
    a = 0.6 * np.linalg.qr(RngStream(67).generator().standard_normal((p, p)))[0]
    s0 = sum(np.linalg.matrix_power(a, k) @ np.linalg.matrix_power(a, k).T
             for k in range(200))
    lags = np.array([s0 @ np.linalg.matrix_power(a, t).T for t in range(max_lag + 1)])
    return GaussianSurrogate(CovarianceSequence(lags), n)


# float.hex of calibrate_null's (mean, variance, se_mean, se_variance) on
# the surrogates of TestCalibrateNull.test_pinned_values, keyed by (p, R)
_PINNED = {
    (1, 100): ('0x1.72be38b2b2211p+1', '0x1.b9b01cd0697a0p-4',
               '0x1.0d0273945a77ep-5', '0x1.cdb6270ef03b9p-7'),
    (1, 257): ('0x1.77225d9c5c3b1p+1', '0x1.03690fb5c27d0p-3',
               '0x1.6bbb84245b0edp-6', '0x1.eb8ad9c2f69b0p-7'),
    (1, 2000): ('0x1.77eca2f52775ep+1', '0x1.0a9a20a9a12a8p-3',
                '0x1.085d1713a71b8p-7', '0x1.a454287e16aa2p-8'),
    (2, 100): ('0x1.f1ebf183496e3p+2', '0x1.3a711ff2c6259p-2',
               '0x1.c5f3c63cd183ep-5', '0x1.63806de1dfe05p-5'),
    (2, 257): ('0x1.fcb48e0f9e261p+2', '0x1.709155c49521ap-2',
               '0x1.32925a4f6d73cp-5', '0x1.c11a1ed00a0fdp-6'),
    (2, 2000): ('0x1.f5f238be3eecdp+2', '0x1.4a5fb9b1d4ff3p-2',
                '0x1.a02fb53c0280cp-7', '0x1.91ad9aecdf12ap-7'),
    (3, 100): ('0x1.d5c4ec7d893d3p+3', '0x1.d4290bdd6c072p-2',
               '0x1.14f42a255a5bcp-4', '0x1.267c693fea887p-4'),
    (3, 257): ('0x1.d75190b257b9ep+3', '0x1.48c7f073b2c76p-1',
               '0x1.997d11d0bb7f1p-5', '0x1.3bfd61dd42c77p-4'),
    (3, 2000): ('0x1.d5f0f459543a2p+3', '0x1.3075e3663f129p-1',
                '0x1.1a82d432eeb7dp-6', '0x1.54ca313474fc2p-6'),
}


class TestBudget:
    def test_minimum_replicates(self):
        with pytest.raises(ValueError):
            CalibrationBudget(replicates=50)

    @pytest.mark.parametrize("count", [2000.0, True])
    def test_replicates_must_be_an_int(self, count):
        # not only when the draw sizes its arrays
        with pytest.raises(ValueError, match="'replicates' must be an integer"):
            CalibrationBudget(replicates=count)

    @pytest.mark.parametrize("seed", [5, None, (16, 0)])
    def test_seed_must_be_an_rng_stream(self, seed):
        # not only when a chunk draws from its substream
        with pytest.raises(ValueError, match="'seed' must be an RngStream"):
            CalibrationBudget(replicates=200, seed=seed)

    def test_max_lag_resolution(self):
        assert resolve_max_lag(None, 1000) == 999
        assert resolve_max_lag(50, 1000) == 50
        assert resolve_max_lag(5000, 1000) == 999


class TestSurrogate:
    def test_white_bivariate_is_decorrelated(self):
        n = 100_000
        sur = GaussianSurrogate(_white_cov(2), n)
        x = TimeSeriesSample(simulate_gaussian_batch(sur, RngStream(3), 1)[0])
        d = x.data - x.data.mean(axis=1, keepdims=True)
        lag1 = d[:, :-1] @ d[:, 1:].T / n
        assert np.all(np.abs(lag1) < 0.01)

    def test_ar1_autocorrelation(self):
        n = 100_000
        sur = GaussianSurrogate(_ar1_cov(0.8, 60), n)
        x = TimeSeriesSample(simulate_gaussian_batch(sur, RngStream(5), 1)[0]).data[0]
        x = x - x.mean()
        acf3 = np.dot(x[:-3], x[3:]) / np.dot(x, x)
        assert acf3 == pytest.approx(0.512, abs=0.02)

    def test_marginal_gaussianity(self):
        n = 10_000
        sur = GaussianSurrogate(_ar1_cov(0.6, 40, s0=2.5), n)
        x = TimeSeriesSample(simulate_gaussian_batch(sur, RngStream(7), 1)[0]).data[0]
        stat = kstest(x / x.std(), "norm").statistic
        assert stat < 1.63 / math.sqrt(n)

    def test_max_lag_below_length(self):
        # N values have lags 0..N-1: at max_lag 50 and N=10 the circle,
        # K=63, is too short for the 101 lags, which overlap on it
        with pytest.raises(ValueError, match="max_lag < N, got N=10, max_lag=50"):
            GaussianSurrogate(_ar1_cov(0.9, 50), 10)
        x = RngStream(11).generator().standard_normal((2, 11))
        with pytest.raises(ValueError, match="max_lag < N, got N=10, max_lag=10"):
            GaussianSurrogate(sample_cross_covariance(center(TimeSeriesSample(x)), 10), 10)
        # every lag of 10 values, a periodogram, so a valid model
        full = sample_cross_covariance(center(TimeSeriesSample(x[:, :10])), 9)
        assert GaussianSurrogate(full, 10).clipping_norm < 1e-8

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
        # a numpy-integer length builds the same surrogate
        cov = _ar1_cov(0.5, 20)
        sur = GaussianSurrogate(cov, 300)
        a = TimeSeriesSample(simulate_gaussian_batch(sur, RngStream(13), 1)[0])
        b = TimeSeriesSample(simulate_gaussian_batch(sur, RngStream(13), 1)[0])
        np.testing.assert_array_equal(a.data, b.data)
        c = simulate_gaussian_batch(GaussianSurrogate(cov, np.int64(300)), RngStream(13), 1)
        assert c.tobytes() == a.data.tobytes()

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 2 * _SLAB - 1, 2 * _SLAB, 2 * _SLAB + 1, 257, 500])
    @pytest.mark.parametrize("max_lag", [10, 119])
    def test_batch_matches_reference_draw(self, p, count, max_lag):
        # counts straddle the slab edges; max_lag 119 is the full range at
        # N = 120
        sur = _var1_surrogate(p, max_lag)
        got = simulate_gaussian_batch(sur, RngStream(71, count), count)
        assert got.shape == (count, p, 120)
        np.testing.assert_array_equal(got, direct_gaussian_batch(sur, RngStream(71, count), count))


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

    def test_json_record_fields(self):
        sur = GaussianSurrogate(_white_cov(1), 200)
        res = calibrate_null(sur, budget=CalibrationBudget(replicates=200, seed=RngStream(47)))
        d = res.to_dict()
        assert set(d) == {
            "mean", "variance", "se_mean", "se_variance", "replicates",
            "clipping_norm",
        }

    @pytest.mark.parametrize("p, replicates", sorted(_PINNED))
    def test_pinned_values(self, p, replicates):
        # any change to the draw, the chunking or the reduction that moves a
        # bit of these shows here (recorded with numpy 2.4 on scipy-openblas
        # 0.3.31; another BLAS may round differently)
        mix = 0.6 * np.eye(p) + 0.4
        sur = GaussianSurrogate(
            CovarianceSequence(0.6 ** np.arange(31)[:, None, None] * mix), 200)
        res = calibrate_null(sur, CalibrationBudget(replicates=replicates, seed=RngStream(61)))
        got = tuple(map(float.hex, (res.mean, res.variance, res.se_mean, res.se_variance)))
        pinned = _PINNED[(p, replicates)]
        if got != pinned:
            # in the table's form, so that a deliberate re-record is a copy
            moved = [name for name, a, b in zip(("mean", "variance", "se_mean", "se_variance"),
                                                got, pinned) if a != b]
            pytest.fail(f"moved {moved}, got {got!r}")

    def test_pool_size_does_not_change_the_result(self, monkeypatch):
        # three workers, switching threads often, also run the
        # errstate-decorated kernels concurrently
        sur = GaussianSurrogate(_ar1_cov(0.5, 20, p=2), 150)
        budget = CalibrationBudget(replicates=777, seed=RngStream(73))
        monkeypatch.setattr("depnorm.calibrate._MAX_WORKERS", 3)
        results = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for workers in (1, 3):
                monkeypatch.setattr("depnorm.calibrate._usable_cpus", lambda: workers)
                results.append(calibrate_null(sur, budget=budget))
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1]


class TestReplicateMoments:
    def test_matches_plain_moments_per_projection(self, monkeypatch):
        # collinear 3-D replicates, channel 3 = channel 1 + channel 2: a
        # plane that contains the null direction (1, 1, -1) is degenerate;
        # a block of 4 puts degenerate planes in two blocks
        monkeypatch.setattr("depnorm.calibrate._BASIS_BLOCK", 4)
        gen = RngStream(53).generator()
        z = gen.standard_normal((150, 3, 120))
        z[:, 2] = z[:, 0] + z[:, 1]
        null_dir = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
        planes = [sample_plane(gen).basis() for _ in range(6)]
        for _ in range(3):
            w = gen.standard_normal(3)
            w -= (w @ null_dir) * null_dir
            planes.append(np.array([null_dir, w / np.linalg.norm(w)]))
        bases = np.array(planes)
        null = _fourth_moments(z)
        got = _replicate_moments(bases, null)
        assert got.replicates == len(z)
        got = np.array([got.mean, got.variance, got.se_mean, got.se_variance])
        # the estimator against the compensated sums, per projection, on the
        # same values; NaN columns included
        expected = [moments_with_errors(row) for row in _projected_kurtosis(bases, null)]
        np.testing.assert_allclose(got, np.transpose(expected), rtol=1e-12)
        # the values against the plain per-sample statistic
        for m, u in enumerate(bases):
            values, ok = direct_kurtosis(np.einsum("kp,rpn->rkn", u, z))
            if m >= 6:
                assert not ok.all() and np.all(np.isnan(got[:, m]))
                continue
            assert ok.all()
            var = values.var(ddof=1)
            np.testing.assert_allclose(
                got[:3, m], [values.mean(), var, math.sqrt(var / values.size)],
                rtol=1e-9)

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_basis_gets_its_one_basis_value(self, p):
        # lines or planes over two full blocks and a partial one: the moments
        # of each basis are those of a call with that basis alone, bit for bit
        gen = RngStream(57).generator()
        m = 2 * _BASIS_BLOCK + 5
        bases = (sample_direction(gen, m).vector()[:, None, :] if p == 2
                 else sample_plane(gen, m).basis())
        null = _fourth_moments(simulate_gaussian_batch(_var1_surrogate(p, 20), RngStream(58), 150))
        fields = ("mean", "variance", "se_mean", "se_variance")
        got = np.array([getattr(_replicate_moments(bases, null), f) for f in fields])
        assert np.isfinite(got).all()
        for i in range(m):
            one = _replicate_moments(bases[i : i + 1], null)
            np.testing.assert_array_equal(got[:, i], [getattr(one, f)[0] for f in fields])

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("replicates", [100, 256, 257, 2000])
    def test_calibrate_null_keeps_the_chunk_layout(self, p, replicates):
        # the per-chunk reduction of substream(i) draws, joined in chunk
        # order, then the moments
        mix = 0.7 * np.eye(p) + 0.3
        cov = CovarianceSequence(0.5 ** np.arange(21)[:, None, None] * mix)
        sur = GaussianSurrogate(cov, 150)
        budget = CalibrationBudget(replicates=replicates, seed=RngStream(59))
        parts = []
        for i, start in enumerate(range(0, replicates, _CHUNK)):
            batch = simulate_gaussian_batch(sur, budget.seed.substream(i),
                                            min(_CHUNK, replicates - start))
            parts.append(_fourth_moments(batch))
        null = tuple(np.concatenate(arrays) for arrays in zip(*parts))
        expected = _replicate_moments(np.eye(p)[None], null)
        res = calibrate_null(sur, budget=budget)
        assert (res.mean, res.variance, res.se_mean, res.se_variance) == (
            expected.mean[0], expected.variance[0], expected.se_mean[0], expected.se_variance[0])


class TestDrawReduced:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("counts", [pytest.param((c,), id=str(c))
                                        for c in (1, 31, 32, 33, 64, 257, 500)]
                             + [pytest.param((33, 1, 256), id="33-1-256")])
    @pytest.mark.parametrize("max_lag", [10, 119])
    def test_matches_the_reduced_batch(self, monkeypatch, threads, p, counts, max_lag):
        # byte for byte and in M4's layout, for any pool size, with threads
        # switching often; counts straddle the slab edges, and the segments
        # of several streams join in segment order
        sur = _var1_surrogate(p, max_lag)
        segments = [(RngStream(83 + i, count), count) for i, count in enumerate(counts)]
        parts = [_fourth_moments(simulate_gaussian_batch(sur, *segment)) for segment in segments]
        expected = tuple(np.concatenate(arrays) for arrays in zip(*parts))
        d = p * (p + 1) // 2
        assert expected[2].shape == (sum(counts), d, d) and expected[2].flags.c_contiguous
        monkeypatch.setattr("depnorm.calibrate._MAX_WORKERS", 3)
        monkeypatch.setattr("depnorm.calibrate._usable_cpus", lambda: threads)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            got = _draw_reduced(sur, segments)
        finally:
            sys.setswitchinterval(interval)
        for want, have in zip(expected, got, strict=True):
            assert have.shape == want.shape and have.strides == want.strides
            assert have.tobytes() == want.tobytes()

    @pytest.mark.parametrize("caller", ["calibrate_null", "run_experiment"])
    def test_failed_slab_stops_the_draw(self, monkeypatch, caller):
        # the error reaches the caller, the draw stops short of its 63 slabs
        # with at most one more slab in flight per thread, and the threads
        # end
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("slab transform failed")
            return _transform_slab(*args)

        monkeypatch.setattr("depnorm.calibrate._transform_slab", failing)
        monkeypatch.setattr("depnorm.calibrate._usable_cpus", lambda: 2)
        if caller == "calibrate_null":
            sur = GaussianSurrogate(_ar1_cov(0.5, 20, p=2), 150)
            draw = partial(calibrate_null, sur,
                           CalibrationBudget(replicates=2000, seed=RngStream(97)))
        else:
            draw = partial(run_experiment, ExperimentConfig(
                ArchimedeanFamily.gumbel(), 2, 2, True, n=200, m=3, realizations=2,
                calib_replicates=2000))
        before = threading.active_count()
        errors = []

        def run():
            try:
                draw()
            except RuntimeError as err:
                errors.append(err)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert [str(err) for err in errors] == ["slab transform failed"]
        assert 3 <= len(calls) <= 3 + _MAX_WORKERS < 2000 // (2 * _SLAB)
        assert threading.active_count() == before

    def test_failed_segment_stops_the_other_segments(self, monkeypatch):
        # one task per segment of eight calibrate_null chunks: the first
        # slab that the other thread runs fails while the caller runs
        # another chunk; the error reaches the caller, and the running
        # segments stop before their next slab, short of the 8 slabs a
        # segment has, and the waiting ones are not taken
        segments = [(RngStream(97).substream(i), _CHUNK) for i in range(8)]
        calls, failed = [], []

        def failing(surrogate, real, imag, out):
            thread = threading.current_thread()
            calls.append(thread)
            if thread is not runner and not failed:
                failed.append(len(calls))
                raise RuntimeError("segment transform failed")
            return _transform_slab(surrogate, real, imag, out)

        monkeypatch.setattr("depnorm.calibrate._transform_slab", failing)
        monkeypatch.setattr("depnorm.calibrate._usable_cpus", lambda: 2)
        sur = GaussianSurrogate(_ar1_cov(0.5, 20, p=2), 150)
        before = threading.active_count()
        errors = []

        def run():
            try:
                _draw_reduced(sur, segments)
            except RuntimeError as err:
                errors.append(err)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert [str(err) for err in errors] == ["segment transform failed"]
        assert len(failed) == 1 and calls[failed[0] - 1] is not runner
        assert len(calls) - failed[0] <= 3 + _MAX_WORKERS < _CHUNK // (2 * _SLAB)
        assert threading.active_count() == before

    def test_calibration_peak_does_not_grow_with_replicates(self, monkeypatch):
        # two threads run one chunk each, whatever the chunk count: from 2 to
        # 8 chunks the peak grows by the moments of the added replicates,
        # 0.2 MB, not by a chunk's 4.1 MB of real normals
        monkeypatch.setattr("depnorm.calibrate._usable_cpus", lambda: 2)
        lags = 0.6 ** np.arange(1000)[:, None, None] * (0.6 * np.eye(2) + 0.4)
        sur = GaussianSurrogate(CovarianceSequence(lags), 1000)
        peaks = []
        for replicates in (512, 2000):
            tracemalloc.start()
            try:
                calibrate_null(sur, CalibrationBudget(replicates=replicates, seed=RngStream(7)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1e6


class TestRunTasks:
    @pytest.mark.parametrize("caller", ["calibrate_null", "draw_reduced"])
    @pytest.mark.parametrize("cpus, sizes", [(1, []), (2, [1]), (8, [_MAX_WORKERS - 1])])
    def test_pool_size(self, monkeypatch, cpus, sizes, caller):
        # both draws make one _run_tasks call, whose caller is one of the
        # threads: it starts one thread fewer than the usable CPUs, capped by
        # _MAX_WORKERS, and none on one CPU; only those threads run slabs,
        # and all have ended when the draw returns
        made, ran = [], set()

        class Recording(threading.Thread):
            def start(self):
                made.append(self)
                super().start()

        def recording(*args):
            ran.add(threading.current_thread())
            return _transform_slab(*args)

        monkeypatch.setattr(threading, "Thread", Recording)
        monkeypatch.setattr("depnorm.calibrate._transform_slab", recording)
        monkeypatch.setattr("depnorm.calibrate._usable_cpus", lambda: cpus)
        sur = _var1_surrogate(2, 10)
        if caller == "calibrate_null":
            calibrate_null(sur, CalibrationBudget(replicates=2000, seed=RngStream(79)))
        else:
            _draw_reduced(sur, [(RngStream(89), 200)])
        assert ([len(made)] if made else []) == sizes
        assert ran <= {threading.current_thread(), *made}
        assert not any(thread.is_alive() for thread in made)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("counts", [pytest.param((500,), id="one"),
                                        pytest.param((_CHUNK,) * 4, id="several")])
    def test_failed_draw_reaches_the_caller(self, monkeypatch, error, counts):
        # every segment's normals fail at its third slab: for one segment
        # while a thread takes its next task under the lock, for several in
        # the task a thread runs. Any error, KeyboardInterrupt included,
        # reaches the caller, no thread leaves it unhandled, and the threads
        # end
        def failing(*args):
            for i, slab in enumerate(_normal_draws(*args)):
                if i == 2:
                    raise error("normal draw failed")
                yield slab

        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        monkeypatch.setattr("depnorm.calibrate._normal_draws", failing)
        monkeypatch.setattr("depnorm.calibrate._usable_cpus", lambda: 2)
        sur = _var1_surrogate(2, 10)
        segments = [(RngStream(101).substream(i), count) for i, count in enumerate(counts)]
        before = threading.active_count()
        errors = []

        def run():
            try:
                _draw_reduced(sur, segments)
            except BaseException as err:
                errors.append(err)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert [(type(err), str(err)) for err in errors] == [(error, "normal draw failed")]
        assert unhandled == []
        assert threading.active_count() == before
