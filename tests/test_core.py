import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depnorm
from depnorm import (
    CovarianceSequence,
    RngStream,
    TimeSeriesSample,
    center,
    load_sample,
    read_binary,
    read_csv,
    resolve_max_lag,
    sample_covariance,
    sample_cross_covariance,
    save_sample,
    write_binary,
    write_csv,
)
from depnorm.copula import ar1_filter
from depnorm.core import _cross_cov_fft, next_fast_len


def _brute_cross_cov(data, max_lag):
    """Reference double-loop estimator: (1/N) sum_k x_a(k) x_b(k+tau)."""
    p, n = data.shape
    out = np.zeros((max_lag + 1, p, p))
    for tau in range(max_lag + 1):
        for a in range(p):
            for b in range(p):
                out[tau, a, b] = sum(
                    data[a, k] * data[b, k + tau] for k in range(n - tau)
                ) / n
    return out


class TestSampleCovariance:
    def test_alternating_unit(self):
        x = TimeSeriesSample([[1.0, -1.0, 1.0, -1.0]])
        np.testing.assert_allclose(sample_covariance(x), [[1.0]])

    def test_two_column_identity(self):
        x = TimeSeriesSample([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(sample_covariance(x), 0.5 * np.eye(2))

    def test_ar1_stationary_variance(self):
        # each channel is AR(1) with a=0.8: stationary variance 1/(1-0.64),
        # standard error of the estimate ~ S * sqrt(2 * 4.56 / N)
        rng = RngStream(101).generator()
        n = 1000
        eta = rng.standard_normal((2, n + 1000))
        y = ar1_filter(eta, 0.8, 1000)
        s = sample_covariance(TimeSeriesSample(y - y.mean(axis=1, keepdims=True)))
        target = 1.0 / (1.0 - 0.64)
        se = target * np.sqrt(2 * 4.56 / n)
        assert abs(s[0, 0] - target) < 3 * se
        assert abs(s[1, 1] - target) < 3 * se
        assert abs(s[0, 1]) < 3 * target * np.sqrt(4.56 / n)

    def test_symmetry(self):
        x = TimeSeriesSample(RngStream(5).generator().standard_normal((3, 50)))
        s = sample_covariance(x)
        np.testing.assert_array_equal(s, s.T)

    def test_congruence_under_linear_maps(self):
        rng = RngStream(7).generator()
        x = TimeSeriesSample(rng.standard_normal((3, 200)))
        s = sample_covariance(x)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            if np.linalg.cond(a) > 1e3:
                continue
            sa = sample_covariance(TimeSeriesSample(a @ x.data))
            np.testing.assert_allclose(sa, a @ s @ a.T, rtol=1e-10, atol=1e-12)


class TestCrossCovariance:
    def test_constant_ones(self):
        x = TimeSeriesSample([[1.0, 1.0, 1.0, 1.0]])
        cov = sample_cross_covariance(x, 1)
        assert cov.lags[0, 0, 0] == pytest.approx(1.0)
        assert cov.lags[1, 0, 0] == pytest.approx(0.75)

    def test_white_noise_decorrelated(self):
        n = 10_000
        x = TimeSeriesSample(RngStream(11).generator().standard_normal((1, n)))
        cov = sample_cross_covariance(center(x), 5)
        ratios = cov.lags[1:, 0, 0] / cov.lags[0, 0, 0]
        assert np.all(np.abs(ratios) < 3 / np.sqrt(n))

    def test_ar1_autocorrelation(self):
        n = 100_000
        eta = RngStream(13).generator().standard_normal(n + 1000)
        y = ar1_filter(eta, 0.8, 1000)[None, :]
        cov = sample_cross_covariance(center(TimeSeriesSample(y)), 5)
        ratios = cov.lags[1:, 0, 0] / cov.lags[0, 0, 0]
        np.testing.assert_allclose(ratios, 0.8 ** np.arange(1, 6), atol=0.02)

    def test_matches_brute_force_and_fft(self):
        rng = RngStream(17).generator()
        data = rng.standard_normal((2, 40))
        x = TimeSeriesSample(data)
        expected = _brute_cross_cov(data, 8)
        got_short = sample_cross_covariance(x, 8).lags
        np.testing.assert_allclose(got_short, expected, rtol=1e-12, atol=1e-14)
        # a longer truncation of the same data, through the same FFT
        expected_full = _brute_cross_cov(data, 35)
        got_fft = sample_cross_covariance(x, 35).lags
        np.testing.assert_allclose(got_fft, expected_full, rtol=1e-10, atol=1e-12)

    def test_lag0_equals_sample_covariance_exactly(self):
        x = TimeSeriesSample(RngStream(19).generator().standard_normal((3, 100)))
        np.testing.assert_array_equal(
            sample_cross_covariance(x, 40).lags[0], sample_covariance(x)
        )

    def test_fft_batch_matches_single_samples(self):
        data = RngStream(34).generator().standard_normal((3, 2, 120))
        got = _cross_cov_fft(data, 40)
        assert got.shape == (3, 41, 2, 2)
        for i in range(3):
            x = TimeSeriesSample(data[i])
            np.testing.assert_allclose(got[i], sample_cross_covariance(x, 40).lags,
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_array_equal(got[i, 0], sample_covariance(x))

    def test_next_fast_len_matches_scipy(self):
        # the FFT length of _cross_cov_fft and GaussianSurrogate, so K and
        # every lag and surrogate draw stay bit for bit what scipy gave
        from scipy.fft import next_fast_len as scipy_next_fast_len

        targets = range(1, 10**5 + 1)
        assert [next_fast_len(t) for t in targets] == [scipy_next_fast_len(t) for t in targets]

    def test_invalid_lag(self):
        x = TimeSeriesSample([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            sample_cross_covariance(x, 3)
        with pytest.raises(ValueError):
            sample_cross_covariance(x, -1)

    def test_resolve_max_lag_rejects_negative(self):
        assert resolve_max_lag(0, 100) == 0
        with pytest.raises(ValueError, match="max_lag"):
            resolve_max_lag(-1, 100)


class TestCovarianceSequenceValidation:
    def test_tiny_scale_asymmetry_rejected(self):
        lag0 = np.array([[1e-12, 5e-11], [0.0, 1e-12]])
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceSequence(lag0[None])

    def test_large_scale_rounding_asymmetry_accepted(self):
        lag0 = 1e12 * np.array([[2.0, 0.3], [0.3, 1.0]])
        lag0[0, 1] = np.nextafter(lag0[0, 1], np.inf)
        assert lag0[0, 1] != lag0[1, 0]
        cov = CovarianceSequence(lag0[None])
        assert cov.p == 2


class TestCenter:
    def test_simple(self):
        x = center(TimeSeriesSample([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(x.data, [[-1.0, 0.0, 1.0]])

    def test_idempotent(self):
        x = TimeSeriesSample(RngStream(23).generator().standard_normal((2, 64)) + 5.0)
        once = center(x)
        twice = center(once)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-14)

    def test_row_means_vanish(self):
        x = center(TimeSeriesSample(RngStream(29).generator().normal(3.0, 2.0, (4, 333))))
        assert np.all(np.abs(x.data.mean(axis=1)) < 1e-12)


class TestSampleValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeSeriesSample([[1.0, np.nan]])
        with pytest.raises(ValueError):
            TimeSeriesSample([[np.inf, 0.0]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            TimeSeriesSample([1.0, 2.0])
        with pytest.raises(ValueError):
            TimeSeriesSample([[1.0]])


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(1234, 5).generator().standard_normal(100)
        b = RngStream(1234, 5).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(1234, 5).generator().standard_normal(100)
        b = RngStream(1234, 6).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_substream_deterministic(self):
        s = RngStream(99)
        assert s.substream(3, 1) == s.substream(3, 1)
        assert s.substream(3, 1) != s.substream(1, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 1 << 64)

    @pytest.mark.parametrize("seed, stream_id", [(1.5, 0), (2.0, 0), (True, 0), (0, 2.5)])
    def test_rejects_a_seed_that_is_not_an_int(self, seed, stream_id):
        # at construction, not at the first draw
        with pytest.raises(ValueError, match="must be an integer"):
            RngStream(seed, stream_id)


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        x = TimeSeriesSample(RngStream(31).generator().standard_normal((3, 25)))
        path = tmp_path / "sample.csv"
        write_csv(x, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3"
        back = read_csv(path)
        np.testing.assert_array_equal(back.data, x.data)

    def test_binary_round_trip(self, tmp_path):
        x = TimeSeriesSample(RngStream(37).generator().standard_normal((2, 40)))
        path = tmp_path / "sample.dnts"
        write_binary(x, path)
        raw = path.read_bytes()
        assert raw[:4] == b"DNTS"
        assert len(raw) == 16 + 8 * 2 * 40
        back = read_binary(path)
        np.testing.assert_array_equal(back.data, x.data)

    def test_load_dispatches_on_extension(self, tmp_path):
        x = TimeSeriesSample([[0.0, 1.0], [2.0, 3.0]])
        write_csv(x, tmp_path / "a.csv")
        write_binary(x, tmp_path / "a.bin")
        np.testing.assert_array_equal(load_sample(tmp_path / "a.csv").data, x.data)
        np.testing.assert_array_equal(load_sample(tmp_path / "a.bin").data, x.data)

    def test_save_dispatches_on_extension(self, tmp_path):
        x = TimeSeriesSample([[0.0, 1.0], [2.0, 3.0]])
        save_sample(x, tmp_path / "a.CSV")
        save_sample(x, tmp_path / "a.dnts")
        np.testing.assert_array_equal(read_csv(tmp_path / "a.CSV").data, x.data)
        np.testing.assert_array_equal(read_binary(tmp_path / "a.dnts").data, x.data)

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError):
            read_binary(path)
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError):
            read_binary(path)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, p, n, seed):
        import tempfile

        x = TimeSeriesSample(RngStream(seed).generator().normal(0, 100, (p, n)))
        with tempfile.TemporaryDirectory() as base:
            write_csv(x, f"{base}/x.csv")
            write_binary(x, f"{base}/x.bin")
            np.testing.assert_array_equal(read_csv(f"{base}/x.csv").data, x.data)
            np.testing.assert_array_equal(read_binary(f"{base}/x.bin").data, x.data)


def test_public_names_reexported():
    # a name deleted from a module must leave its __all__ and depnorm's too
    for info in pkgutil.iter_modules(depnorm.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"depnorm.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(depnorm, name) is getattr(module, name), f"{info.name}.{name}"
