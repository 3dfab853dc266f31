"""Kurtosis test statistics and their null distributions.

Three test kinds share one statistic, the average squared Mahalanobis norm

    B_p = (1/N) sum_n (x(n)^T S^{-1} x(n))^2,

computed with the biased sample covariance of the centered data. They
differ in the null moments used to standardize it:

* ``MARDIA_IID``: closed form for i.i.d. samples, any dimension;
* ``COLORED_SCALAR``: closed form for stationary scalar processes, driven
  by the lagged autocovariances of the data;
* ``COLORED_BIVARIATE``: Monte Carlo calibration against a Gaussian
  process matched to the estimated covariance sequence (p = 2).

:func:`_null_moments` is the one place that computes each kind's null, for
every projection U x of a sample at once; :func:`run_test` is its
identity-basis case, and the study harness passes its M projections. NaN
is the one marker of a degenerate projection, in the statistic and in the
null alike.
"""

from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass

import numpy as np
from scipy.special import erfc

from .core import (
    CovarianceSequence,
    DegenerateSampleError,
    MomentSource,
    NullMoments,
    TestReport,
    TimeSeriesSample,
    center,
    resolve_max_lag,
    sample_covariance,  # noqa: F401  (perfbench/tracing.py patches it here)
    sample_cross_covariance,
)

__all__ = [
    "KurtosisValue",
    "TestKind",
    "colored_bivariate_null_moments",
    "colored_scalar_null_moments",
    "iid_null_moments",
    "mardia_kurtosis",
    "run_test",
    "two_sided_p_value",
]

_MAX_CONDITION = 1e12
_DEGENERATE_MESSAGE = ("sample covariance is numerically singular or the statistic "
                       "overflowed; check for collinear or constant channels")


def _check_length(p: int, n: int, name: str) -> None:
    """Raise ``ValueError`` unless B_p of a p-variate sample of length N
    depends on the data, that is unless N >= max(p + 2, 4): B_p = p^2 at
    N = p + 1, and B_1 = 3/2 at N = 3 (the centered values satisfy
    a^4 + b^4 + c^4 = (a^2 + b^2 + c^2)^2 / 2)."""
    if p < 1 or n < max(p + 2, 4):
        raise ValueError(f"{name} needs p >= 1 and N >= p+2, got p={p}, N={n} "
                         f"(and N >= 4 at p=1)")


class TestKind(enum.Enum):
    __test__ = False  # not a pytest class, despite the name

    MARDIA_IID = "iid"
    COLORED_SCALAR = "colored1"
    COLORED_BIVARIATE = "colored2"

    def check_dim(self, p: int, n: int) -> None:
        """Raise ``ValueError`` unless this kind runs on a p-variate sample
        of length N (``iid`` runs on any p >= 1, and every kind needs the
        length of :func:`_check_length`)."""
        need = {TestKind.COLORED_SCALAR: 1, TestKind.COLORED_BIVARIATE: 2}.get(self)
        if need is not None and p != need:
            raise ValueError(f"{self.value} requires p={need}, got p={p}")
        _check_length(p, n, self.value)


@dataclass(frozen=True)
class KurtosisValue:
    value: float
    p: int
    n: int

    def __post_init__(self) -> None:
        # Cauchy-Schwarz: the average of q^2 is at least (avg q)^2 = p^2 >= p.
        if self.value < self.p * (1.0 - 1e-9):
            raise ValueError(f"kurtosis {self.value} below the lower bound p={self.p}")


# A zero, overflowing or singular S gives NaN or inf in _reduce_block and
# _projected_kurtosis, which the latter turns into NaN values, so their
# warnings are noise. Kept as a decorator, because the threads of
# calibrate._run_tasks run these kernels at once: numpy >= 2 holds the
# decorator's context token per call (a second thread entering a shared
# ``with _QUIET:`` raises TypeError), and numpy 1.x keeps the error state per
# thread, so each thread saves and restores the same fresh-thread default.
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _unit_scale(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each (p, N) sample of ``data`` (..., p, N) times the power of two that
    brings its largest magnitude into [1/2, 1): exact, so it changes no ratio
    of moments, but it keeps their products representable at any scale."""
    _, exponent = np.frexp(np.abs(data).max(axis=(-2, -1)))
    return np.ldexp(data, -exponent[..., None, None], out=out)


def _empty_moments(r: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialized ``(s, whiten, m4)`` for R samples of dimension p, in the
    C-order shapes (R, p, p), (R, p, p) and (R, d, d), d = p(p+1)/2, that
    :func:`_fourth_moments` returns."""
    d = p * (p + 1) // 2
    return np.empty((r, p, p)), np.empty((r, p, p)), np.empty((r, d, d))


def _eigen_factor(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, scale)`` of symmetric matrices S (..., p, p) = Q Lambda Q^T, with
    scale = Lambda^{1/2} and each eigenvalue raised to eps * lambda_max, so
    that L = Q diag(scale) is a finite whitening factor of a singular S."""
    lam, q = np.linalg.eigh(s)
    return q, np.sqrt(np.maximum(lam, np.finfo(float).eps * lam[..., -1:]))


@_QUIET
def _reduce_block(batch: np.ndarray, s: np.ndarray, whiten: np.ndarray,
                  m4: np.ndarray) -> None:
    """Write the :func:`_fourth_moments` of a block of samples, shape
    (B, p, N), into its three outputs, each with B rows."""
    _, p, n = batch.shape
    rows, cols = np.triu_indices(p)
    x = batch - batch.mean(axis=2, keepdims=True)
    _unit_scale(x, out=x)
    s[...] = x @ x.transpose(0, 2, 1) / n
    q, scale = _eigen_factor(s)
    y = q.transpose(0, 2, 1) @ x
    y /= scale[:, :, None]
    w = np.empty((len(y), rows.size, n))
    for k, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(y[:, i], y[:, j], out=w[:, k])
    m4[...] = w @ w.transpose(0, 2, 1) / n
    whiten[...] = q * scale[:, None, :]


def _fourth_moments(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sufficient statistics of B for every projection of a batch of
    samples, shape (R, p, N), reduced at once by :func:`_reduce_block`.

    Centers each sample and scales it by :func:`_unit_scale`. B is
    scale-invariant, so this changes no statistic, but it keeps S
    representable at any scale of the input. Returns ``(s, whiten, m4)`` of
    the scaled samples: the biased covariances S, shape (R, p, p); a
    whitening factor L = Q Lambda^{1/2} from the eigendecomposition
    S = Q Lambda Q^T; and the fourth-moment matrix
    M4 = (1/N) sum_n w(n) w(n)^T of the whitened sample y = L^{-1} x, in pair
    coordinates: w(n) holds the d = p(p+1)/2 distinct entries
    y_i(n) y_j(n), i <= j, of y(n) y(n)^T, in ``np.triu_indices`` order, so
    M4 is C-order (R, d, d).

    Whitening keeps the contraction in :func:`_projected_kurtosis` accurate
    when the channels are strongly mixed. Any invertible L gives the same
    statistic, so eigenvalues below eps * lambda_max are raised to that floor:
    a singular S still yields a finite L, and a projection that avoids its
    null space is still contracted in whitened coordinates.
    """
    moments = _empty_moments(*batch.shape[:2])
    _reduce_block(batch, *moments)
    return moments


@_QUIET
def _projected_kurtosis(bases: np.ndarray,
                        moments: tuple[np.ndarray, np.ndarray, np.ndarray],
                        ) -> np.ndarray:
    """Statistic of every projection U x of every sample, shape (M, R), from
    the ``moments`` of :func:`_fourth_moments`.

    ``bases`` holds the M projection matrices U, shape (M, k, p). With
    q(n) = x(n)^T U^T (U S U^T)^{-1} U x(n) = y(n)^T P y(n) and
    P = (UL)^T (U S U^T)^{-1} (UL), the statistic is the contraction
    c^T M4 c, where c holds the pair coordinates of P: P_ij for i <= j in
    ``np.triu_indices`` order, doubled off the diagonal (P is symmetric).
    One eigendecomposition U S U^T = Q Lambda Q^T gives both the degeneracy
    rule and P = G^T G with G = Lambda^{-1/2} Q^T (UL).
    A value is NaN where U S U^T is numerically singular, that is where its
    smallest eigenvalue is not a positive normal float or its condition
    number is at least ``_MAX_CONDITION``, and where it overflows.
    """
    s, whiten, m4 = moments
    rows, cols = np.triu_indices(s.shape[-1])
    u = bases[:, None]
    lam, q = np.linalg.eigh(u @ s @ u.swapaxes(-1, -2))
    ok = (lam[..., 0] >= np.finfo(float).tiny) & (lam[..., -1] / _MAX_CONDITION < lam[..., 0])
    g = (q.swapaxes(-1, -2) @ (u @ whiten)) / np.sqrt(lam)[..., None]
    c = (g.swapaxes(-1, -2) @ g)[..., rows, cols] * np.where(rows == cols, 1.0, 2.0)
    values = np.sum((c[..., None, :] @ m4)[..., 0, :] * c, axis=-1)
    values[~(ok & np.isfinite(values))] = np.nan
    return values


def _mardia_batch(batch: np.ndarray) -> np.ndarray:
    """Statistic for a batch of samples, shape (R, p, N), NaN where a sample
    is degenerate: the identity-basis case of :func:`_projected_kurtosis`."""
    return _projected_kurtosis(np.eye(batch.shape[1])[None], _fourth_moments(batch))[0]


def mardia_kurtosis(x: TimeSeriesSample) -> KurtosisValue:
    """Evaluate the kurtosis statistic on one sample (centering included)."""
    value = _mardia_batch(x.data[None])[0]
    if not np.isfinite(value):
        raise DegenerateSampleError(_DEGENERATE_MESSAGE)
    return KurtosisValue(float(value), x.p, x.n)


_SOURCES = {TestKind.MARDIA_IID: MomentSource.IID_CLOSED_FORM,
            TestKind.COLORED_SCALAR: MomentSource.COLORED_SCALAR_CLOSED_FORM,
            TestKind.COLORED_BIVARIATE: MomentSource.MONTE_CARLO_CALIBRATED}


def _null_moments(kind: TestKind, bases: np.ndarray, cov: CovarianceSequence | None,
                  n: int, calibrate=None) -> np.ndarray:
    """Null mean, variance, se_mean and se_variance of the statistic of each
    projection U x of a sample x of length N, shape (4, M), from the M bases
    U (M, k, p) and the lags of x up to N-1 in ``cov`` (unused by
    ``MARDIA_IID``). The SEs of the closed forms are 0; NaN marks a
    degenerate null.

    * ``MARDIA_IID``: mean k(k+2)(N-1)/(N+1), variance 8k(k+2)/N.
    * ``COLORED_SCALAR``: with s(tau) = u S(tau) u^T, NaN where s(0) <= 0,
      mean = 3 - 6/N - (12/N^2) sum_{tau>=1} (N-tau) s(tau)^2 / s(0)^2 and
      var = (24/N) [1 + (2/N) sum_{tau>=1} (N-tau) s(tau)^4 / s(0)^4];
      asymptotic (o(1/N) dropped), and with an all-zero tail the i.i.d.
      case up to O(1/N^2) in the mean. The lag sums are contractions of
      two tensors of the source lags (:func:`_scalar_lag_sums`), so no
      projection's sequence s(tau) is formed.
    * ``COLORED_BIVARIATE``: ``calibrate`` maps the Gaussian surrogate of
      ``cov`` to the Monte Carlo moments (closed forms exist only as leading
      terms, 8 - 16/N and 64/N plus lag corrections).
    """
    m, k = bases.shape[:2]
    if kind == TestKind.MARDIA_IID:
        mean, var = k * (k + 2) * (n - 1) / (n + 1), 8.0 * k * (k + 2) / n
        return np.repeat([[mean], [var], [0.0], [0.0]], m, axis=1)
    cov = cov.truncated(resolve_max_lag(cov.max_lag, n))
    if kind == TestKind.COLORED_BIVARIATE:
        from .calibrate import GaussianSurrogate
        return calibrate(GaussianSurrogate(cov, n))
    sum2, sum4 = _scalar_lag_sums(bases[:, 0], cov.lags, n)
    mean = 3.0 - 6.0 / n - (12.0 / n**2) * sum2
    var = (24.0 / n) * (1.0 + (2.0 / n) * sum4)
    return np.stack([mean, var, np.zeros(m), np.zeros(m)])


def _scalar_lag_sums(u: np.ndarray, lags: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_{tau>=1} (N-tau) r(tau)^2 and sum_{tau>=1} (N-tau) r(tau)^4 for
    each line u of ``u`` (M, p), where r(tau) = s(tau)/s(0) and
    s(tau) = u S(tau) u^T for the lags S(0..T) (T+1, p, p); NaN where
    s(0) <= 0.

    Only the symmetric part of S(tau) enters s(tau). Whitened by the factor
    S(0) = L L^T of :func:`_eigen_factor`, it is W(tau) = L^{-1} S(tau) L^{-T}
    (W(0) = I up to the floor), with d = p(p+1)/2 distinct entries b(tau).
    For v = uL, r(tau) = b(tau).c / b(0).c, where c holds the coefficients
    of v v^T (v_i v_j, doubled off the diagonal). So with c normalized to
    b(0).c = 1, the sums are the quadratic form c^T G2 c and the quartic
    form of G4 = sum_{tau>=1} (N-tau) b(tau)^{(x)4} in c, with
    G2 = sum_{tau>=1} (N-tau) b(tau) b(tau)^T: O(T d^4 + M d^4) work, not
    O(M T). Whitening keeps the terms of the expanded forms of order one
    however ill-conditioned S(0) is; unwhitened, they grow with its
    condition number and so does the rounding of the sums.
    """
    m, p = u.shape
    ok = np.einsum("mp,pq,mq->m", u, lags[0], u) > 0
    if not ok.any():  # S(0) = 0, say, which has no whitening factor
        return np.full((2, m), np.nan)
    sym = (lags + lags.swapaxes(1, 2)) / 2
    q, scale = _eigen_factor(sym[0])
    rows, cols = np.triu_indices(p)
    b = ((q.T @ sym @ q) / np.outer(scale, scale))[:, rows, cols]
    weight = (n - np.arange(1, len(b)))[:, None]
    bb = (b[1:, :, None] * b[1:, None, :]).reshape(-1, rows.size**2)
    g2, g4 = (weight * b[1:]).T @ b[1:], (weight * bb).T @ bb
    v = (u @ q) * scale
    c = v[:, rows] * v[:, cols] * np.where(rows == cols, 1.0, 2.0)
    c /= np.where(ok, c @ b[0], np.nan)[:, None]
    quadratic = np.sum((c @ g2) * c, axis=1)
    cc = (c[:, :, None] * c[:, None, :]).reshape(m, rows.size**2)
    quartic = cc @ g4
    quartic *= cc
    return quadratic, quartic.sum(axis=1)


def _sample_null(kind: TestKind, p: int, cov: CovarianceSequence | None, n: int,
                 budget=None) -> NullMoments:
    """The identity-basis case of :func:`_null_moments` for one p-variate
    sample, calibrated by ``calibrate_null`` under ``budget``; raises
    ``DegenerateSampleError`` for a degenerate null."""
    from .calibrate import calibrate_null

    kind.check_dim(p, n)
    mean, var, _, _ = _null_moments(
        kind, np.eye(p)[None], cov, n,
        lambda surrogate: np.array(astuple(calibrate_null(surrogate, budget))[:4])[:, None],
    )[:, 0]
    if not np.isfinite(mean):
        raise DegenerateSampleError(_DEGENERATE_MESSAGE)
    return NullMoments(float(mean), float(var), _SOURCES[kind],
                       max_lag=None if cov is None else resolve_max_lag(cov.max_lag, n))


def _source_covariance(x: TimeSeriesSample, max_lag: int | None) -> CovarianceSequence:
    """Lags of the centered x up to ``max_lag`` (see ``resolve_max_lag``), at
    the scale of :func:`_unit_scale`: the colored nulls depend on them only
    up to scale, and this one keeps them representable."""
    xc = TimeSeriesSample(_unit_scale(center(x).data))
    return sample_cross_covariance(xc, resolve_max_lag(max_lag, x.n))


def iid_null_moments(p: int, n: int) -> NullMoments:
    """Asymptotic null mean p(p+2)(N-1)/(N+1) and variance 8p(p+2)/N."""
    return _sample_null(TestKind.MARDIA_IID, p, None, n)


def colored_scalar_null_moments(cov: CovarianceSequence, n: int) -> NullMoments:
    """Null moments of B_1 for a stationary scalar process, from the lags
    of ``cov`` up to N-1 (see :func:`_null_moments`)."""
    return _sample_null(TestKind.COLORED_SCALAR, cov.p, cov, n)


def colored_bivariate_null_moments(cov: CovarianceSequence, n: int, budget=None) -> NullMoments:
    """Null moments of B_2 for a stationary bivariate process, by parametric
    Monte Carlo against a Gaussian surrogate matching the lags of ``cov`` up
    to N-1 (see :func:`_null_moments`)."""
    return _sample_null(TestKind.COLORED_BIVARIATE, cov.p, cov, n, budget)


def two_sided_p_value(z: float | np.ndarray) -> float | np.ndarray:
    """2 (1 - Phi(|z|)), evaluated via erfc so small values keep precision.

    Works elementwise on arrays; a scalar z gives a float.
    """
    p = erfc(np.abs(z) / math.sqrt(2.0))
    return float(p) if np.ndim(p) == 0 else p


def run_test(
    x: TimeSeriesSample,
    kind: TestKind,
    alpha: float,
    max_lag: int | None = None,
    budget=None,
) -> TestReport:
    """Run one normality test and report statistic, z-score, p-value and
    decision at level alpha.

    ``max_lag`` truncates the covariance sequence of both colored kinds:
    the lag sums of ``COLORED_SCALAR`` and the surrogate model of
    ``COLORED_BIVARIATE`` (default: the full range N-1, see
    :func:`~depnorm.core.resolve_max_lag`). The calibration budget only
    matters for ``COLORED_BIVARIATE``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    kind.check_dim(x.p, x.n)

    stat = mardia_kurtosis(x)
    cov = None if kind == TestKind.MARDIA_IID else _source_covariance(x, max_lag)
    moments = _sample_null(kind, x.p, cov, x.n, budget)

    z = (stat.value - moments.mean) / math.sqrt(moments.variance)
    p_value = two_sided_p_value(z)
    return TestReport(statistic=stat.value, z=z, p_value=p_value, alpha=alpha,
                      reject=bool(p_value < alpha), null_moments=moments)
