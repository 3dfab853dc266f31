import math

import numpy as np
import pytest
from scipy.stats import kendalltau, kstest

from depnorm import (
    ArchimedeanFamily,
    GeneratorConfig,
    RngStream,
    ar1_filter,
    generate,
    psi,
    sample_frailty,
)

from reference import lfilter_ar1

GUMBEL5 = ArchimedeanFamily.gumbel(5.0)
CLAYTON2 = ArchimedeanFamily.clayton(2.0)


def _concordance_tau(x, y):
    """Brute-force Kendall tau: count concordant minus discordant pairs."""
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    n = len(x)
    return np.sum(np.triu(dx * dy, 1)) / (n * (n - 1) / 2)


class TestFamilyValidation:
    def test_gumbel_range(self):
        ArchimedeanFamily.gumbel(1.0)
        with pytest.raises(ValueError):
            ArchimedeanFamily.gumbel(0.9)

    def test_clayton_range(self):
        ArchimedeanFamily.clayton(0.1)
        with pytest.raises(ValueError):
            ArchimedeanFamily.clayton(0.0)

    @pytest.mark.parametrize("kind", ["gumbel", "clayton"])
    @pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan])
    def test_rho_must_be_finite(self, kind, rho):
        with pytest.raises(ValueError, match="rho must be finite"):
            ArchimedeanFamily.named(kind, rho)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ArchimedeanFamily("frank", 2.0)
        with pytest.raises(ValueError):
            ArchimedeanFamily.named("frank")

    def test_named_defaults_to_constructor_rho(self):
        assert ArchimedeanFamily.named("gumbel") == ArchimedeanFamily.gumbel()
        assert ArchimedeanFamily.named("clayton") == ArchimedeanFamily.clayton()
        assert ArchimedeanFamily.named("clayton", 3) == ArchimedeanFamily.clayton(3.0)

    def test_kendall_tau_targets(self):
        assert GUMBEL5.kendall_tau() == pytest.approx(0.8)
        assert CLAYTON2.kendall_tau() == pytest.approx(0.5)


class TestGenerator:
    def test_boundary_value(self):
        assert psi(GUMBEL5, 0.0) == pytest.approx(1.0)
        assert psi(CLAYTON2, 0.0) == pytest.approx(1.0)

    def test_gumbel_rho1_is_exponential(self):
        fam = ArchimedeanFamily.gumbel(1.0)
        assert psi(fam, 2.0) == pytest.approx(np.exp(-2.0), rel=1e-12)

    def test_clayton_closed_form(self):
        assert psi(CLAYTON2, 3.0) == pytest.approx(0.5, rel=1e-12)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            psi(GUMBEL5, -0.1)

    def test_strictly_decreasing(self):
        t = np.linspace(0.0, 50.0, 400)
        for fam in (GUMBEL5, CLAYTON2):
            vals = psi(fam, t)
            assert np.all(np.diff(vals) < 0)
            assert vals[-1] < 0.2


class TestFrailty:
    def test_clayton_mean_matches_gamma_shape(self):
        v = sample_frailty(CLAYTON2, RngStream(41).generator(), size=100_000)
        assert np.all(v > 0)
        se = v.std(ddof=1) / np.sqrt(v.size)
        assert abs(v.mean() - 0.5) < 3 * se

    def test_gumbel_laplace_transform(self):
        # E[exp(-tV)] must converge to psi(t); t=1 gives exp(-1)
        v = sample_frailty(GUMBEL5, RngStream(43).generator(), size=100_000)
        assert np.all(v > 0)
        ev = np.exp(-v)
        se = ev.std(ddof=1) / np.sqrt(ev.size)
        assert abs(ev.mean() - np.exp(-1.0)) < 3 * se

    def test_clayton_laplace_transform(self):
        v = sample_frailty(CLAYTON2, RngStream(47).generator(), size=100_000)
        ev = np.exp(-3.0 * v)
        se = ev.std(ddof=1) / np.sqrt(ev.size)
        assert abs(ev.mean() - 0.5) < 3 * se

    def test_gumbel_rho1_degenerates(self):
        v = sample_frailty(ArchimedeanFamily.gumbel(1.0), RngStream(53).generator(), size=100)
        np.testing.assert_allclose(v, 1.0)

    def test_scalar_draw(self):
        v = sample_frailty(CLAYTON2, RngStream(59).generator())
        assert isinstance(v, float) and v > 0


class TestAr1Filter:
    def test_zero_coefficient_is_identity(self):
        eta = RngStream(61).generator().standard_normal(50)
        np.testing.assert_array_equal(ar1_filter(eta, 0.0, 10), eta[10:])

    def test_impulse_response(self):
        impulse = np.zeros(6)
        impulse[0] = 1.0
        out = ar1_filter(impulse, 0.8, 0)
        np.testing.assert_allclose(out, 0.8 ** np.arange(6), rtol=1e-12)

    def test_stationary_variance(self):
        eta = RngStream(67).generator().standard_normal(100_000 + 1000)
        y = ar1_filter(eta, 0.8, 1000)
        assert y.var() == pytest.approx(1.0 / 0.36, rel=0.05)

    def test_nonstationary_rejected(self):
        with pytest.raises(ValueError):
            ar1_filter(np.zeros(10), 1.0, 0)
        with pytest.raises(ValueError):
            ar1_filter(np.zeros(10), -1.2, 0)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            ar1_filter(np.zeros(10), 0.5, 10)

    @pytest.mark.parametrize("shape", [(300,), (3, 300), (2, 3, 40)])
    @pytest.mark.parametrize("a", [0.0, 0.5, -0.5, 0.8, -0.8, 0.95, 0.99])
    @pytest.mark.parametrize("n_drop", [0, 17])
    def test_bytes_match_lfilter(self, shape, a, n_drop):
        eta = RngStream(71).generator().standard_normal(shape)
        out = ar1_filter(eta, a, n_drop)
        ref = lfilter_ar1(eta, a, n_drop)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("a", [0.0, -0.0, 0.5, -0.5])
    def test_signed_zeros_match_lfilter(self, a):
        eta = np.array([-0.0, 0.0, -0.0, 1.0, -0.0, -1.0, 0.0, 5e-324, -5e-324, -0.0])
        assert ar1_filter(eta, a, 0).tobytes() == lfilter_ar1(eta, a, 0).tobytes()

    def test_wide_dynamic_range_matches_lfilter(self):
        gen = RngStream(73).generator()
        eta = gen.standard_normal((4, 200)) * 10.0 ** gen.integers(-300, 300, (4, 1))
        assert ar1_filter(eta, 0.9, 5).tobytes() == lfilter_ar1(eta, 0.9, 5).tobytes()

    def test_strided_and_byte_swapped_input_match_lfilter(self):
        eta = RngStream(74).generator().standard_normal((60, 4))
        for view in (eta.T, eta[::2, ::3].T, eta.T.astype(">f8"), eta.T.astype(np.float32)):
            assert ar1_filter(view, 0.7, 3).tobytes() == lfilter_ar1(view, 0.7, 3).tobytes()

    @pytest.mark.parametrize("n_drop", [-1, 2.0, 2.5, "3", True, None])
    def test_bad_n_drop_rejected(self, n_drop):
        with pytest.raises(ValueError, match="n_drop"):
            ar1_filter(np.ones(5), 0.5, n_drop)

    def test_numpy_integer_n_drop(self):
        eta = np.arange(5.0)
        np.testing.assert_array_equal(ar1_filter(eta, 0.0, np.int64(2)), eta[2:])

    @pytest.mark.parametrize("eta", [np.float64(1.0), 1.0, np.ones(5) + 1j, [1j, 2, 3]])
    def test_bad_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta"):
            ar1_filter(eta, 0.5, 0)

    def test_complex_coefficient_rejected(self):
        with pytest.raises(ValueError, match="coefficient"):
            ar1_filter(np.ones(5), 0.5j, 0)


class TestGenerate:
    def test_shape_and_determinism(self):
        cfg = GeneratorConfig(GUMBEL5, 3, 500)
        a = generate(cfg, RngStream(71, 2))
        b = generate(cfg, RngStream(71, 2))
        c = generate(cfg, RngStream(71, 3))
        assert a.p == 3 and a.n == 500
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    @pytest.mark.parametrize("family,target", [(GUMBEL5, 0.8), (CLAYTON2, 0.5)])
    def test_kendall_tau(self, family, target):
        cfg = GeneratorConfig(family, 2, 10_000, temporal_coloring=False)
        x = generate(cfg, RngStream(73))
        tau = kendalltau(x.data[0], x.data[1]).statistic
        assert abs(tau - target) < 0.02
        # scipy's O(n log n) count agrees with the O(n^2) definition
        sub = slice(0, 1500)
        brute = _concordance_tau(x.data[0, sub], x.data[1, sub])
        fast = kendalltau(x.data[0, sub], x.data[1, sub]).statistic
        assert brute == pytest.approx(fast, abs=1e-12)

    @pytest.mark.parametrize("family", [GUMBEL5, CLAYTON2])
    @pytest.mark.parametrize("coloring", [False, True])
    def test_marginals_are_standard_normal(self, family, coloring):
        n = 10_000
        cfg = GeneratorConfig(family, 3, n, temporal_coloring=coloring)
        x = generate(cfg, RngStream(79))
        for i in range(3):
            stat = kstest(x.data[i], "norm").statistic
            assert stat < 1.63 / np.sqrt(n), f"channel {i} fails KS at 1%"

    def test_colored_kendall_tau_preserved(self):
        # AR coloring acts before the copula coupling, so the cross-channel
        # dependence at each time index is unchanged
        cfg = GeneratorConfig(GUMBEL5, 2, 10_000, temporal_coloring=True)
        x = generate(cfg, RngStream(83))
        tau = kendalltau(x.data[0], x.data[1]).statistic
        assert abs(tau - 0.8) < 0.02

    def test_temporal_coloring_attenuated_by_frailty(self):
        # The frailty V(n) is independent across time, so the output keeps
        # only part of the AR(1) correlation of the uniforms. Measured
        # lag-1 values at N=1e5: Gumbel rho=5 about 0.04, Clayton rho=2
        # about 0.24 (the Gumbel frailty is far noisier).
        n = 100_000
        for family, lo, hi in ((GUMBEL5, 0.01, 0.12), (CLAYTON2, 0.15, 0.35)):
            cfg = GeneratorConfig(family, 1, n, temporal_coloring=True)
            x = generate(cfg, RngStream(89)).data[0]
            x = x - x.mean()
            acf1 = np.dot(x[:-1], x[1:]) / np.dot(x, x)
            assert lo < acf1 < hi, f"{family.kind}: lag-1 acf {acf1}"

    def test_no_coloring_means_white(self):
        n = 100_000
        cfg = GeneratorConfig(CLAYTON2, 1, n, temporal_coloring=False)
        x = generate(cfg, RngStream(97)).data[0]
        x = x - x.mean()
        acf1 = np.dot(x[:-1], x[1:]) / np.dot(x, x)
        assert abs(acf1) < 3 / np.sqrt(n)

    def test_exchangeable_pairs(self):
        cfg = GeneratorConfig(CLAYTON2, 3, 10_000, temporal_coloring=False)
        x = generate(cfg, RngStream(101)).data
        taus = [
            kendalltau(x[a], x[b]).statistic
            for a, b in ((0, 1), (0, 2), (1, 2))
        ]
        assert max(taus) - min(taus) < 0.03

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(GUMBEL5, 0, 100)
        with pytest.raises(ValueError):
            GeneratorConfig(GUMBEL5, 2, 100, ar_coefficient=1.0)
        with pytest.raises(ValueError):
            GeneratorConfig(GUMBEL5, 2, 100, n_drop=-1)
