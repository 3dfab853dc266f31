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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


class TestKind(enum.Enum):
    __test__ = False  # not a pytest class, despite the name

    MARDIA_IID = "iid"
    COLORED_SCALAR = "colored1"
    COLORED_BIVARIATE = "colored2"


@dataclass(frozen=True)
class KurtosisValue:
    value: float
    p: int
    n: int

    def __post_init__(self) -> None:
        # Cauchy-Schwarz: the average of q^2 is at least (avg q)^2 = p^2 >= p.
        if self.value < self.p * (1.0 - 1e-9):
            raise ValueError(f"kurtosis {self.value} below the lower bound p={self.p}")


def _mardia_batch(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Statistic for a batch of samples, shape (R, p, N), plus a validity mask.

    Centers each sample, solves against each p x p covariance, and averages
    the squared Mahalanobis norms. ``ok`` is False (and the value NaN) where
    the covariance is numerically singular or the value overflows. The
    condition number alone misses the scalar case (cond of a 1x1 matrix is
    1 whatever its value), so the diagonal is checked as well.
    """
    x = batch - batch.mean(axis=2, keepdims=True)
    n = x.shape[2]
    s = np.einsum("rin,rjn->rij", x, x) / n
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.linalg.cond(s)
    diag = np.einsum("rii->ri", s)
    ok = np.isfinite(cond) & (cond < _MAX_CONDITION) & np.all(diag > 0, axis=1)
    s = np.where(ok[:, None, None], s, np.eye(s.shape[1]))
    q = np.einsum("rin,rin->rn", np.linalg.solve(s, x), x)
    values = np.mean(q * q, axis=1)
    ok &= np.isfinite(values)
    values[~ok] = np.nan
    return values, ok


def mardia_kurtosis(x: TimeSeriesSample) -> KurtosisValue:
    """Evaluate the kurtosis statistic on one sample (centering included)."""
    values, ok = _mardia_batch(x.data[None])
    if not ok[0]:
        raise DegenerateSampleError(_DEGENERATE_MESSAGE)
    return KurtosisValue(float(values[0]), x.p, x.n)


def iid_null_moments(p: int, n: int) -> NullMoments:
    """Asymptotic null mean p(p+2)(N-1)/(N+1) and variance 8p(p+2)/N."""
    if p < 1 or n < 2:
        raise ValueError("need p >= 1 and N >= 2")
    return NullMoments(
        mean=p * (p + 2) * (n - 1) / (n + 1),
        variance=8.0 * p * (p + 2) / n,
        source=MomentSource.IID_CLOSED_FORM,
    )


def _colored_scalar_moments(lags: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Null mean and variance of B_1 for each row of lagged autocovariances.

    ``lags`` is ``(m, L + 1)`` holding S(0..L) per row; rows with S(0) <= 0
    give non-finite moments.

    mean = 3 - 6/N - (12/N^2) sum_{tau=1}^{L} (N-tau) S(tau)^2 / S(0)^2
    var  = (24/N) [1 + (2/N) sum_{tau=1}^{L} (N-tau) S(tau)^4 / S(0)^4]

    Both are asymptotic (o(1/N) remainders dropped); with an all-zero tail
    they reduce to the i.i.d. case up to O(1/N^2) in the mean.
    """
    tau = np.arange(1, lags.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = (lags[:, 1:] / lags[:, :1]) ** 2
    mean = 3.0 - 6.0 / n - (12.0 / n**2) * np.sum((n - tau) * r2, axis=1)
    var = (24.0 / n) * (1.0 + (2.0 / n) * np.sum((n - tau) * r2**2, axis=1))
    return mean, var


def colored_scalar_null_moments(cov: CovarianceSequence, n: int) -> NullMoments:
    """Null moments of B_1 for a stationary scalar process, from the lags
    of ``cov`` up to N-1 (see :func:`_colored_scalar_moments`)."""
    if cov.p != 1:
        raise ValueError(f"scalar moments need p=1, got p={cov.p}")
    s0 = cov.lags[0, 0, 0]
    if not s0 > 0:
        raise DegenerateSampleError(f"S(0) must be positive, got {s0}")
    L = resolve_max_lag(cov.max_lag, n)
    mean, var = _colored_scalar_moments(cov.lags[None, : L + 1, 0, 0], n)
    return NullMoments(float(mean[0]), float(var[0]),
                       MomentSource.COLORED_SCALAR_CLOSED_FORM, max_lag=L)


def colored_bivariate_null_moments(cov: CovarianceSequence, n: int, budget=None) -> NullMoments:
    """Null moments of B_2 for a stationary bivariate process, by parametric
    Monte Carlo against a Gaussian surrogate matching ``cov``.

    The surrogate uses the lags of ``cov`` up to N-1, and the moments record
    that lag. Closed forms exist only as leading terms (8 - 16/N and 64/N
    plus lag corrections); the calibration replaces them and reports its own
    uncertainty through the budget's replicate count.
    """
    from .calibrate import CalibrationBudget, GaussianSurrogate, calibrate_null

    if cov.p != 2:
        raise ValueError(f"bivariate moments need p=2, got p={cov.p}")
    if budget is None:
        budget = CalibrationBudget()
    max_lag = resolve_max_lag(cov.max_lag, n)
    surrogate = GaussianSurrogate(cov.truncated(max_lag), n)
    result = calibrate_null(surrogate, budget=budget)
    return result.as_null_moments(max_lag=max_lag)


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
    if kind == TestKind.COLORED_SCALAR and x.p != 1:
        raise ValueError(f"{kind.value} requires p=1, got p={x.p}")
    if kind == TestKind.COLORED_BIVARIATE and x.p != 2:
        raise ValueError(f"{kind.value} requires p=2, got p={x.p}")

    stat = mardia_kurtosis(x)
    if kind == TestKind.MARDIA_IID:
        moments = iid_null_moments(x.p, x.n)
    else:
        cov = sample_cross_covariance(center(x), resolve_max_lag(max_lag, x.n))
        if kind == TestKind.COLORED_SCALAR:
            moments = colored_scalar_null_moments(cov, x.n)
        else:
            moments = colored_bivariate_null_moments(cov, x.n, budget)

    z = (stat.value - moments.mean) / math.sqrt(moments.variance)
    p_value = two_sided_p_value(z)
    return TestReport(
        statistic=stat.value,
        z=z,
        p_value=p_value,
        alpha=alpha,
        reject=bool(p_value < alpha),
        null_moments=moments,
    )
