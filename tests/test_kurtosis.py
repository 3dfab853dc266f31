import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from depnorm import (
    ArchimedeanFamily,
    CalibrationBudget,
    CalibrationError,
    CovarianceSequence,
    DegenerateSampleError,
    GaussianSurrogate,
    GeneratorConfig,
    MomentSource,
    NullMoments,
    RngStream,
    TestKind,
    TimeSeriesSample,
    calibrate_null,
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
from depnorm.copula import ar1_filter
from depnorm.kurtosis import (_SUM_PART, KurtosisValue, _decide, _fourth_moments, _Null,
                              _null_moments, _pairs, _projected_kurtosis, _source_covariance)
from depnorm.projection import (Direction1D, Plane2D, rotation_matrix, sample_direction,
                                sample_plane, sample_rotation)
from reference import (direct_colored1_moments, direct_kurtosis, eigh_projected_kurtosis,
                       fsum_fourth_moments)


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

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-150, 1e150, 1e160, 1e300])
    def test_statistic_is_scale_free(self, scale):
        # each centered sample is reduced at a power-of-two scale, so S stays
        # representable wherever the input does, and a power-of-two scale of
        # the input changes no bit
        data = RngStream(1).generator().standard_normal((2, 200))
        base = mardia_kurtosis(TimeSeriesSample(data)).value
        assert base == pytest.approx(7.34055493328440, rel=1e-14)
        got = mardia_kurtosis(TimeSeriesSample(scale * data)).value
        assert got == pytest.approx(base, rel=1e-12)
        exponent = round(math.log2(scale))
        assert mardia_kurtosis(TimeSeriesSample(np.ldexp(data, exponent))).value == base

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


# (source dim, draw of one basis): lines, planes, in-plane rotations and the
# identity, the last being the case run_test evaluates.
_BASES = {
    "line": (2, lambda gen: sample_direction(gen).vector()[None, :]),
    "plane": (3, lambda gen: sample_plane(gen).basis()),
    "rotation": (2, lambda gen: rotation_matrix(sample_rotation(gen))),
    "identity": (3, lambda gen: np.eye(3)),
    "scalar": (1, lambda gen: np.eye(1)),
}


def _mixed_batch(gen, p, cond, r=4, n=400):
    """Heavy-tailed samples mixed so that their covariance has condition
    number about ``cond``."""
    q1, _ = np.linalg.qr(gen.standard_normal((p, p)))
    q2, _ = np.linalg.qr(gen.standard_normal((p, p)))
    mix = q1 @ np.diag(np.logspace(0, -0.5 * np.log10(cond), p)) @ q2
    return np.einsum("ij,rjn->rin", mix, gen.standard_t(5, size=(r, p, n)))


class TestProjectedKurtosis:
    """The contraction of the fourth moments against a plain per-sample
    evaluation of every projected sample."""

    def _check(self, bases, batch):
        # NaN is the one degeneracy marker: every other value is finite
        values = _projected_kurtosis(bases, _fourth_moments(batch))
        ok = ~np.isnan(values)
        assert values.shape == (len(bases), len(batch))
        assert np.isfinite(values[ok]).all()
        for m, u in enumerate(bases):
            ref, ref_ok = direct_kurtosis(np.einsum("kp,rpn->rkn", u, batch))
            np.testing.assert_array_equal(ok[m], ref_ok)
            np.testing.assert_allclose(values[m][ok[m]], ref[ref_ok], rtol=1e-9)
        return ok

    @pytest.mark.parametrize("kind", sorted(_BASES))
    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6])
    def test_matches_direct_reference(self, kind, cond):
        gen = RngStream(31).generator()
        p, draw = _BASES[kind]
        bases = np.array([draw(gen) for _ in range(6)])
        assert self._check(bases, _mixed_batch(gen, p, cond)).all()

    def test_degenerate_sources(self):
        # a constant sample fails every projection; with one channel the sum
        # of the other two, only the planes that miss the null direction pass
        gen = RngStream(32).generator()
        z = gen.standard_normal((2, 400))
        batch = np.stack([np.vstack([z, z.sum(axis=0)]), np.ones((3, 400)),
                          _mixed_batch(gen, 3, 10.0, r=1)[0]])
        null_dir = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
        planes = [sample_plane(gen).basis() for _ in range(5)]
        planes.append(np.linalg.qr(np.column_stack([null_dir, [1.0, 0, 0]]))[0].T)
        ok = self._check(np.array(planes), batch)
        np.testing.assert_array_equal(ok[:, 0], [True] * 5 + [False])
        assert not ok[:, 1].any() and ok[:, 2].all()
        ok = self._check(np.eye(3)[None], batch)
        np.testing.assert_array_equal(ok[0], [False, False, True])

    def test_blocked_reduction_matches_per_sample(self):
        # a collinear sample sits in the middle and a constant one, whose
        # moments are NaN, among finite ones
        gen = RngStream(34).generator()
        r = 69
        batch = _mixed_batch(gen, 3, 10.0, r=r, n=60)
        batch[r // 2, 2] = batch[r // 2, 0] + batch[r // 2, 1]
        batch[31] = 0.5
        whole = _fourth_moments(batch)
        assert np.isnan(whole[2][31]).all()
        for i in range(r):
            for got, single in zip(whole, _fourth_moments(batch[i : i + 1])):
                np.testing.assert_array_equal(got[i], single[0])


class TestReductionKernels:
    """The einsum products of ``_reduce_block`` against plain sums."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("cond", [1.0, 1e8])
    @pytest.mark.parametrize("n", [400, 2 * _SUM_PART + 5])
    def test_matches_fsum_reference(self, p, cond, n):
        # Bounds, in eps, that hold whatever the rounding's luck: an N-term
        # sum is within N eps of the sum of its terms' magnitudes, which
        # Cauchy-Schwarz bounds by sqrt(S_ii S_jj); L L^T = S holds to eigh's
        # backward error, a few eps of ||S||, inside that; M4 also carries
        # the whitening y = L^{-1} x, rounded at sqrt(cond) eps relative in
        # kernel and reference alike. Measured: S within 14 eps, L L^T
        # within 6 eps, M4 within 14 eps at cond 1 and 0.6 sqrt(cond) eps at
        # cond 1e8. The longer n spans three of einsum's parts.
        eps = np.finfo(float).eps
        batch = _mixed_batch(RngStream(35).generator(), p, cond, r=2, n=n)
        s, whiten, m4 = _fourth_moments(batch)
        for r, x in enumerate(batch):
            s_ref, m4_ref = fsum_fourth_moments(x, whiten[r])
            scale = np.sqrt(np.outer(np.diag(s_ref), np.diag(s_ref)))
            assert np.all(np.abs(s[r] - s_ref) <= 2 * n * eps * scale)
            norm = np.linalg.norm(s_ref, 2)
            assert np.abs(whiten[r] @ whiten[r].T - s_ref).max() <= 2 * n * eps * norm
            tol = (2 * n + 16 * math.sqrt(cond)) * eps * np.abs(m4_ref).max()
            assert np.abs(m4[r] - m4_ref).max() <= tol

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n, sizes", [(1000, (1, 32, 500)), (2 * _SUM_PART + 5, (1, 2, 32))])
    def test_rows_do_not_depend_on_the_batch(self, p, n, sizes):
        # a sample's rows, reduced alone, in a slab or in a whole batch; a
        # long sample is summed in the same parts whatever the batch
        batch = _mixed_batch(RngStream(36).generator(), p, 10.0, r=max(sizes), n=n)
        whole = _fourth_moments(batch)
        for size in sizes:
            for start in (0, max(sizes) - size):
                part = _fourth_moments(batch[start : start + size])
                for got, want in zip(part, whole):
                    assert got.tobytes() == want[start : start + size].tobytes()


# A batch of bases from angle arrays, one basis per angle, for each
# supported shape of _projected_kurtosis, keyed by (kind, source dim).
_SHAPES = {
    ("line", 2): lambda a, b: Direction1D(a).vector()[:, None, :],
    ("plane", 3): lambda a, b: Plane2D(a / 2, b).basis(),
    ("rotation", 2): lambda a, b: rotation_matrix(a),
    **{("identity", p): (lambda a, b, p=p: np.eye(p)[None]) for p in (1, 2, 3, 4)},
}


def _oracle_rtol(cond):
    """Agreement of _projected_kurtosis with ``eigh_projected_kurtosis`` on
    samples whose covariance has condition number ``cond``: the oracle forms
    and inverts U S U^T, so its projector rounds at about eps times that
    matrix's condition number, which _projected_kurtosis never forms."""
    return 1e-12 + 16 * np.finfo(float).eps * cond


class TestClosedFormProjector:
    """The one formula of _projected_kurtosis against the general eigh
    contraction, on the same moments."""

    def _check(self, bases, batch, rtol):
        moments = _fourth_moments(batch)
        got = _projected_kurtosis(bases, moments)
        want = eigh_projected_kurtosis(bases, moments)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=rtol)
        return ~np.isnan(got)

    @pytest.mark.parametrize("kind, p", sorted(_SHAPES))
    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e10])
    def test_matches_the_eigh_contraction(self, kind, p, cond):
        gen = RngStream(37).generator()
        bases = _SHAPES[kind, p](*gen.uniform(-np.pi, np.pi, size=(2, 8)))
        assert self._check(bases, _mixed_batch(gen, p, cond, r=16), _oracle_rtol(cond)).all()

    def test_degenerate_samples(self):
        # collinear, constant and well-mixed samples; of the planes, the last
        # three contain the null direction of the collinear 3-D sample
        gen = RngStream(39).generator()
        z = gen.standard_normal((2, 400))
        batch = np.stack([np.vstack([z, z.sum(axis=0)]), np.full((3, 400), 0.3),
                          _mixed_batch(gen, 3, 10.0, r=1)[0]])
        null_dir = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
        planes = list(sample_plane(gen, 5).basis())
        for w in gen.standard_normal((3, 3)):
            w -= (w @ null_dir) * null_dir
            planes.append(np.array([null_dir, w / np.linalg.norm(w)]))
        ok = self._check(np.array(planes), batch, 1e-12)
        np.testing.assert_array_equal(ok[:, 0], [True] * 5 + [False] * 3)
        assert not ok[:, 1].any() and ok[:, 2].all()
        ok = self._check(np.eye(3)[None], batch, 1e-12)
        np.testing.assert_array_equal(ok[0], [False, False, True])
        # 2-D: every line of a collinear sample passes, no rotation does
        batch = np.stack([np.vstack([z[0], 2 * z[0]]), np.full((2, 400), -7.0),
                          _mixed_batch(gen, 2, 10.0, r=1)[0]])
        lines = sample_direction(gen, 6).vector()[:, None, :]
        ok = self._check(lines, batch, 1e-12)
        assert ok[:, 0].all() and not ok[:, 1].any() and ok[:, 2].all()
        ok = self._check(rotation_matrix(sample_rotation(gen, 6)), batch, 1e-12)
        assert not ok[:, :2].any() and ok[:, 2].all()
        ok = self._check(np.eye(1)[None], np.full((1, 1, 50), 2.5), 1e-12)
        assert not ok.any()

    @pytest.mark.parametrize("cond, valid", [(5e11, True), (2e12, False)])
    def test_condition_threshold(self, cond, valid):
        # mutually orthogonal centered +-1 rows scaled so that S is exactly
        # diagonal: the bases that keep channels 1 and 2 see condition number
        # cond, a factor of 2 either side of _MAX_CONDITION, and the others
        # see at most 4
        rows = np.tile(hadamard(8)[1:4], 4) * np.array([[1.0], [cond**-0.5], [0.5]])
        angles = RngStream(41).generator().uniform(0.0, np.pi, size=5)
        in_plane = rotation_matrix(angles)
        for bases, batch, expected in [
            (np.eye(2)[None], rows[:2], [valid]),
            (in_plane, rows[:2], [valid] * 5),
            (sample_direction(RngStream(42).generator(), 5).vector()[:, None, :], rows[:2],
             [True] * 5),
            (np.eye(3)[None], rows, [valid]),
            (np.concatenate([in_plane @ np.eye(3)[:2], in_plane @ np.eye(3)[[0, 2]]]), rows,
             [valid] * 5 + [True] * 5),
        ]:
            ok = self._check(bases, batch[None], _oracle_rtol(cond))
            np.testing.assert_array_equal(ok[:, 0], expected)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(sorted(_SHAPES)),
           angles=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
           log_cond=st.floats(0.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_closed_form_property(self, shape, angles, log_cond, seed):
        p = shape[1]
        bases = _SHAPES[shape](*np.array(angles)[:, None])
        batch = _mixed_batch(RngStream(seed).generator(), p, 10.0**log_cond, r=3, n=60)
        self._check(bases, batch, _oracle_rtol(10.0**log_cond))

    @pytest.mark.parametrize("k, p", [(2, 4), (3, 4), (2, 1), (0, 2), (1, 3), (1, 4)])
    def test_unsupported_shape_raises(self, k, p):
        batch = RngStream(40).generator().standard_normal((2, p, 50))
        with pytest.raises(ValueError, match=f"got k={k}, p={p}"):
            _projected_kurtosis(np.ones((3, k, p)), _fourth_moments(batch))


class TestPairs:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_cached_read_only_pair_coordinates(self, p):
        rows, cols, weights = _pairs(p)
        ref_rows, ref_cols = np.triu_indices(p)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(cols, ref_cols)
        np.testing.assert_array_equal(weights, np.where(ref_rows == ref_cols, 1.0, 2.0))
        assert all(_pairs(p)[k] is a for k, a in enumerate((rows, cols, weights)))
        for a in (rows, cols, weights):
            with pytest.raises(ValueError):
                a[0] = 0


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
        # and so does a sequence with no lag beyond 0 (max_lag=0)
        lag0 = colored_scalar_null_moments(_scalar_cov([]), 100)
        assert (lag0.mean, lag0.variance) == (m.mean, m.variance)

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


class TestNullMoments:
    """The null of every projection against the public single-sample
    functions on each projected covariance sequence U S(tau) U^T."""

    @staticmethod
    def _source_cov(p, max_lag):
        gen = RngStream(89).generator()
        x = TimeSeriesSample(gen.standard_normal((p, p)) @ gen.standard_normal((p, 400)))
        return sample_cross_covariance(center(x), max_lag)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [200, 20])  # lags up to 30, and up to N-1 = 19
    def test_colored1_matches_the_projected_sequence(self, p, n):
        cov = self._source_cov(p, 30)
        bases = RngStream(97).generator().standard_normal((12, 1, p))
        bases[-1] = 0.0  # s(0) = 0: a degenerate null
        got = _null_moments(TestKind.COLORED_SCALAR, bases, cov, n)
        assert (got.se_mean == 0.0).all() and (got.se_variance == 0.0).all()
        for i, u in enumerate(bases[:-1]):
            ref = colored_scalar_null_moments(CovarianceSequence(u @ cov.lags @ u.T), n)
            np.testing.assert_allclose([got.mean[i], got.variance[i]], [ref.mean, ref.variance],
                                       rtol=1e-12)
        assert np.isnan(got.mean[-1]) and np.isnan(got.variance[-1])

    @staticmethod
    def _mixed_cov(p, cond, channel, n):
        """Full lags of a colored p-variate sample of length N whose channels
        are mixed so that S(0) has a condition number of about ``cond``, its
        last channel replaced by a combination of the others ("collinear")
        or by zeros ("zero"), or every channel by zeros ("all zero")."""
        gen = RngStream(107).generator()
        z = np.array([ar1_filter(row, a, 0)
                      for a, row in zip((0.9, 0.5, -0.3), gen.standard_normal((p, n)))])
        q1, q2 = (np.linalg.qr(gen.standard_normal((p, p)))[0] for _ in range(2))
        x = q1 @ np.diag(cond ** (-0.5 * np.arange(p) / (p - 1))) @ q2 @ z
        if channel == "collinear":
            x[-1] = -3.0 * x[0] + 0.5 * x[1:-1].sum(axis=0)
        elif channel == "zero":
            x[-1] = 0.0
        elif channel == "all zero":
            x[:] = 0.0
        return sample_cross_covariance(center(TimeSeriesSample(x)), n - 1)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("cond, channel", [(1.0, None), (1e3, None), (1e6, None),
                                               (1e10, None), (1e12, None),
                                               (1.0, "collinear"), (1.0, "zero"),
                                               (1.0, "all zero")])
    def test_colored1_matches_the_plain_lag_loop(self, p, cond, channel):
        # the contraction whitens by S(0), so it stays as accurate as a
        # per-lag ratio of each projected sequence when S(0) is
        # ill-conditioned or singular; NaN exactly where u S(0) u^T <= 0,
        # with no floating-point warning (pytest makes one an error)
        n = 400
        cov = self._mixed_cov(p, cond, channel, n)
        bases = RngStream(109).generator().standard_normal((40, 1, p))
        bases[0] = 0.0
        if channel == "zero":
            bases[1] = np.eye(p)[-1]
        s0 = np.array([u @ cov.lags[0] @ u for u in bases[:, 0]])
        for max_lag in (n - 1, 30, 0):
            lags = cov.truncated(max_lag)
            null = _null_moments(TestKind.COLORED_SCALAR, bases, lags, n)
            got = np.array([null.mean, null.variance])
            ref = [direct_colored1_moments(u @ lags.lags @ u, n) for u in bases[:, 0]]
            np.testing.assert_array_equal(np.isnan(got), [s0 <= 0] * 2)
            assert np.isnan(got[:, :1 + (channel == "zero")]).all()
            np.testing.assert_allclose(got, np.transpose(ref), rtol=1e-9)

    @pytest.mark.parametrize("p", [2, 3])
    def test_colored1_memory_does_not_grow_with_lags_times_lines(self, p):
        # the lag sums are contracted, never formed as an (M, L+1) array:
        # the peak stays below a tenth of one (M, N) float array
        n, m = 1000, 20_000
        cov = self._mixed_cov(p, 1.0, None, n)
        bases = RngStream(127).generator().standard_normal((m, 1, p))
        tracemalloc.start()
        try:
            _null_moments(TestKind.COLORED_SCALAR, bases, cov, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8 / 10

    @pytest.mark.parametrize("k, p", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_iid_matches_the_closed_form(self, k, p):
        bases = RngStream(101).generator().standard_normal((5, k, p))
        got = _null_moments(TestKind.MARDIA_IID, bases, None, 300)
        ref = iid_null_moments(k, 300)
        for field, value in [("mean", ref.mean), ("variance", ref.variance),
                             ("se_mean", 0.0), ("se_variance", 0.0)]:
            assert getattr(got, field).tolist() == [value] * len(bases)
        assert (got.replicates, got.clipping_norm) == (0, 0.0)

    def test_colored2_calibrates_the_surrogate_of_the_used_lags(self):
        cov = self._source_cov(3, 30)
        bases = np.array([sample_plane(RngStream(103).generator()).basis()] * 4)
        seen = []
        ones = np.ones(4)
        got = _null_moments(TestKind.COLORED_BIVARIATE, bases, cov, 20,
                            lambda surrogate: seen.append(surrogate)
                            or _Null(ones, ones, ones, ones, 7, clipping_norm=0.5))
        assert len(seen) == 1 and seen[0].n == 20
        # the calibration's moments, with the clipping norm of its surrogate
        assert (got.mean == 1.0).all() and (got.se_variance == 1.0).all()
        assert seen[0].clipping_norm < 0.5
        assert (got.replicates, got.clipping_norm) == (7, seen[0].clipping_norm)
        ref = GaussianSurrogate(cov.truncated(19), 20)
        assert seen[0]._k == ref._k
        np.testing.assert_array_equal(seen[0]._factor_rows, ref._factor_rows)


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


class TestDecide:
    def test_array_matches_scalar_calls_bit_for_bit(self):
        # the harness's (M,) call and run_test's M = 1 calls give the same bits
        gen = RngStream(131).generator()
        m = 64
        stats = 8.0 + gen.standard_normal(m)
        null = _Null(8.0 + 0.1 * gen.standard_normal(m), gen.uniform(0.05, 0.2, m),
                     np.zeros(m), np.zeros(m))
        z, p = _decide(stats, null)
        for i in range(m):
            one = NullMoments(float(null.mean[i]), float(null.variance[i]),
                              MomentSource.IID_CLOSED_FORM)
            zi, pi = _decide(float(stats[i]), one)
            assert type(pi) is float
            assert (float(z[i]).hex(), float(p[i]).hex()) == (float(zi).hex(), pi.hex())

    def test_nan_statistic_or_null_gives_nan(self):
        stats = np.array([8.2, np.nan, 8.2, 8.2])
        null = _Null(np.array([8.0, 8.0, np.nan, 8.0]), np.array([0.1, 0.1, 0.1, np.nan]),
                     np.zeros(4), np.zeros(4))
        z, p = _decide(stats, null)
        assert np.isfinite(z[0]) and 0.0 < p[0] < 1.0
        assert np.isnan(z[1:]).all() and np.isnan(p[1:]).all()


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
            "null_source", "null_se_mean", "null_se_var", "null_clipping_norm",
        }

    def test_report_carries_the_monte_carlo_error(self):
        # colored2 reports the SEs and clipping norm of calibrate_null on the
        # surrogate run_test builds, under the same budget; the closed forms 0
        x = generate(GeneratorConfig(ArchimedeanFamily.clayton(), 2, 300), RngStream(103))
        budget = CalibrationBudget(replicates=300, seed=RngStream(107))
        rep = run_test(x, TestKind.COLORED_BIVARIATE, 0.05, budget=budget)
        res = calibrate_null(GaussianSurrogate(_source_covariance(x, None), x.n), budget)
        d = rep.to_dict()
        assert (d["null_se_mean"], d["null_se_var"], d["null_clipping_norm"]) == (
            res.se_mean, res.se_variance, res.clipping_norm)
        assert (rep.null_moments.mean, rep.null_moments.variance) == (res.mean, res.variance)
        assert res.se_mean > 0 and res.se_variance > 0
        for kind, data in ((TestKind.MARDIA_IID, x.data), (TestKind.COLORED_SCALAR, x.data[:1])):
            nm = run_test(TimeSeriesSample(data), kind, 0.05).null_moments
            assert (nm.se_mean, nm.se_variance, nm.clipping_norm) == (0.0, 0.0, 0.0)

    def test_max_lag_truncation_recorded(self):
        x = TimeSeriesSample(RngStream(61).generator().standard_normal((1, 500)))
        rep = run_test(x, TestKind.COLORED_SCALAR, 0.05, max_lag=20)
        assert rep.null_moments.max_lag == 20

    @pytest.mark.parametrize("max_lag", [-5, np.int64(3), 2.5, True])
    @pytest.mark.parametrize("kind, p", [(TestKind.MARDIA_IID, 2), (TestKind.COLORED_SCALAR, 1),
                                         (TestKind.COLORED_BIVARIATE, 2)])
    def test_max_lag_rule_for_every_kind(self, kind, p, max_lag):
        # ExperimentConfig's rule, None or an int >= 0, holds for every kind,
        # including iid, which has no lags to truncate
        x = generate(GeneratorConfig(ArchimedeanFamily.gumbel(), 2, 200), RngStream(109))
        x = TimeSeriesSample(x.data[:p])
        with pytest.raises(ValueError, match="max_lag must be None or an integer >= 0"):
            run_test(x, kind, 0.05, max_lag=max_lag)
        budget = CalibrationBudget(replicates=100, seed=RngStream(113))
        assert run_test(x, kind, 0.05, max_lag=x.n - 1, budget=budget).p_value > 0

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
        from depnorm import ExperimentConfig

        x2 = TimeSeriesSample(RngStream(67).generator().standard_normal((2, 100)))
        x1 = TimeSeriesSample(RngStream(67).generator().standard_normal((1, 100)))
        cov2 = sample_cross_covariance(center(x2), 10)
        cov1 = sample_cross_covariance(center(x1), 10)
        # every layer states the rule with the same message
        need1 = "colored1 requires p=1, got p=2"
        need2 = "colored2 requires p=2, got p=1"
        with pytest.raises(ValueError, match=need1):
            run_test(x2, TestKind.COLORED_SCALAR, 0.05)
        with pytest.raises(ValueError, match=need2):
            run_test(x1, TestKind.COLORED_BIVARIATE, 0.05)
        with pytest.raises(ValueError, match=need1):
            colored_scalar_null_moments(cov2, 100)
        with pytest.raises(ValueError, match=need2):
            colored_bivariate_null_moments(cov1, 100)
        family = ArchimedeanFamily.gumbel()
        with pytest.raises(ValueError, match=need1):
            ExperimentConfig(family, 3, 2, True, n=100, m=5,
                             tests=(TestKind.COLORED_SCALAR,))
        with pytest.raises(ValueError, match=need2):
            ExperimentConfig(family, 2, 1, True, n=100, m=5,
                             tests=(TestKind.COLORED_BIVARIATE,))

    @pytest.mark.parametrize("kind, p", [
        (TestKind.MARDIA_IID, 1), (TestKind.MARDIA_IID, 3),
        (TestKind.COLORED_SCALAR, 1), (TestKind.COLORED_BIVARIATE, 2),
    ])
    def test_minimum_length(self, kind, p):
        # at N = p+1 the centered sample spans p dimensions and B_p = p^2
        # whatever the data, and at p = 1, N = 3, B_1 = 3/2
        gen = RngStream(103).generator()
        budget = CalibrationBudget(replicates=200, seed=RngStream(107))
        shortest = max(p + 2, 4)
        for n in range(p + 1, shortest):
            short = TimeSeriesSample(gen.standard_normal((p, n)))
            with pytest.raises(ValueError, match=rf"{kind.value} needs p >= 1 and N >= p\+2, "
                                                 rf"got p={p}, N={n}"):
                run_test(short, kind, 0.05, budget=budget)
        rep = run_test(TimeSeriesSample(gen.standard_normal((p, shortest))), kind, 0.05,
                       budget=budget)
        fields = (rep.statistic, rep.z, rep.p_value,
                  rep.null_moments.mean, rep.null_moments.variance)
        assert np.all(np.isfinite(fields))

    def test_minimum_length_in_every_layer(self):
        rule = r"needs p >= 1 and N >= p\+2"
        with pytest.raises(ValueError, match=rule):
            iid_null_moments(2, 3)
        with pytest.raises(ValueError, match=rule):
            iid_null_moments(1, 3)
        with pytest.raises(ValueError, match=rule):
            colored_scalar_null_moments(_scalar_cov([0.1]), 2)
        with pytest.raises(ValueError, match=rule):
            colored_scalar_null_moments(_scalar_cov([0.3, 0.1]), 3)
        with pytest.raises(ValueError, match=rule):
            colored_bivariate_null_moments(CovarianceSequence(np.eye(2)[None]), 3)

    def test_scalar_statistic_depends_on_data_from_four_points(self):
        # the centered values a, b, c of a 3-point sample satisfy
        # a^4 + b^4 + c^4 = (a^2 + b^2 + c^2)^2 / 2, so B_1 = 3/2 for all of
        # them; from N = 4 on B_1 varies with the data
        gen = RngStream(109).generator()
        three = [mardia_kurtosis(TimeSeriesSample(gen.standard_normal((1, 3)))).value
                 for _ in range(5)]
        np.testing.assert_allclose(three, 1.5, rtol=1e-12)
        four = [mardia_kurtosis(TimeSeriesSample(gen.standard_normal((1, 4)))).value
                for _ in range(5)]
        assert np.all(np.isfinite(four)) and len(set(four)) == 5
        assert np.ptp(four) > 0.1

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.sampled_from([1, 2, 3]),
        n=st.integers(4, 40),
        log_scale=st.floats(-300.0, 300.0),
        channel=st.sampled_from(["plain", "constant", "collinear", "spiked"]),
        kind=st.sampled_from(list(TestKind)),
        max_lag=st.sampled_from([None, 0, 3]),
        seed=st.integers(0, 2**32),
    )
    def test_every_input_raises_or_gives_finite_fields(self, p, n, log_scale, channel,
                                                      kind, max_lag, seed):
        # the one input policy: a documented error, or finite fields, with
        # no floating-point warning on the way at any scale
        gen = RngStream(seed).generator()
        data = gen.standard_normal((p, n))
        if channel == "constant":
            data[-1] = 0.5
        elif channel == "collinear":
            data[-1] = -3.0 * data[0]
        elif channel == "spiked":
            data[-1, gen.integers(n)] = 1e6
        x = TimeSeriesSample(10.0**log_scale * data)
        budget = CalibrationBudget(replicates=100, seed=RngStream(seed))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rep = run_test(x, kind, 0.05, max_lag=max_lag, budget=budget)
            except (DegenerateSampleError, CalibrationError, ValueError):
                rep = None
        assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        # the statistic and the colored scalar null are scale-free, so a long
        # enough plain sample passes both closed-form tests at any scale (the
        # calibrated test may still reject a truncated covariance model)
        closed_form = kind == TestKind.MARDIA_IID or (kind == TestKind.COLORED_SCALAR and p == 1)
        if closed_form and channel == "plain" and n >= max(p + 2, 4):
            assert rep is not None
        if rep is not None:
            fields = (rep.statistic, rep.z, rep.p_value,
                      rep.null_moments.mean, rep.null_moments.variance)
            assert np.all(np.isfinite(fields))

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_reports_are_scale_free(self, kind):
        # the colored nulls take the lags at a power-of-two scale, so a
        # power-of-two scale of the input changes no bit of a report, and any
        # other scale only its rounding. The calibrated null moves more (up
        # to ~1e-9): the full-lag spectral matrices have rank one, so their
        # second eigenvalue is rounding noise, and its square root (~1e-7 of
        # the spectral norm) enters the surrogate's factor.
        data = RngStream(1).generator().standard_normal((2, 400))
        if kind == TestKind.COLORED_SCALAR:
            data = data[:1]
        budget = CalibrationBudget(replicates=200, seed=RngStream(5))
        base = run_test(TimeSeriesSample(data), kind, 0.05, budget=budget)
        for exponent in (-900, 900):
            x = TimeSeriesSample(np.ldexp(data, exponent))
            assert run_test(x, kind, 0.05, budget=budget) == base
        for scale in (1e-300, 1e-160, 1e160, 1e300):
            rep = run_test(TimeSeriesSample(scale * data), kind, 0.05, budget=budget)
            assert rep.null_moments.max_lag == base.null_moments.max_lag
            tol = 1e-8 if kind == TestKind.COLORED_BIVARIATE else 1e-12
            assert rep.to_dict() == pytest.approx(base.to_dict(), rel=0.0, abs=tol)

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
        from depnorm import rotation_matrix

        x = TimeSeriesSample(RngStream(79).generator().standard_normal((2, 500)))
        base = mardia_kurtosis(x).value
        gen = RngStream(83).generator()
        for _ in range(25):
            rotated = TimeSeriesSample(rotation_matrix(gen.uniform(0, np.pi)) @ x.data)
            assert mardia_kurtosis(rotated).value == pytest.approx(base, rel=1e-10)
