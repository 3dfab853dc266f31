"""Parametric Monte Carlo engine for null moments under colored Gaussian nulls.

A :class:`GaussianSurrogate` turns a truncated covariance sequence into a
stationary Gaussian sampler via circulant embedding: the two-sided sequence
is wrapped onto a circle of length K >= N + L, the resulting spectral
matrices are eigen-factored per frequency (negative eigenvalues clipped and
accounted for), and samples come out of one inverse FFT. Each complex draw
yields two independent real replicates.

:func:`calibrate_null` then estimates the mean and variance of the kurtosis
statistic over independent surrogate replicates, with standard errors for
both.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .core import (
    CalibrationError,
    CovarianceSequence,
    DegenerateSampleError,
    MomentSource,
    NullMoments,
    RngStream,
    TimeSeriesSample,
)
from .kurtosis import _DEGENERATE_MESSAGE, _mardia_batch

__all__ = [
    "CalibrationBudget",
    "CalibrationResult",
    "GaussianSurrogate",
    "calibrate_null",
    "simulate_gaussian",
    "simulate_gaussian_batch",
]

logger = logging.getLogger(__name__)

# Replicates per RNG substream; fixed so results never depend on scheduling.
_CHUNK = 256

# Negative spectral mass below this relative size is treated as rounding;
# anything above 1% of the spectral norm aborts the calibration.
_CLIP_ROUNDING = 1e-8
_CLIP_ABORT = 1e-2


@dataclass(frozen=True)
class CalibrationBudget:
    """Replicate count and seed for one calibration."""

    replicates: int = 2000
    seed: RngStream = field(default_factory=lambda: RngStream(0, 0))

    def __post_init__(self) -> None:
        if self.replicates < 100:
            raise ValueError("moment estimates need at least 100 replicates")


class GaussianSurrogate:
    """Stationary Gaussian process matched to a truncated covariance sequence.

    The model has exactly the supplied covariances up to the sequence's max
    lag and zero covariance beyond it. ``clipping_norm`` records the largest
    negative spectral eigenvalue relative to the spectral norm (0 for a
    valid model).
    """

    def __init__(self, cov: CovarianceSequence, n: int):
        if n < 2:
            raise ValueError("surrogate length must be >= 2")
        self.cov = cov
        self.n = n
        L = cov.max_lag
        p = cov.p
        k = next_fast_len(n + L + 1)
        circ = np.zeros((k, p, p))
        circ[: L + 1] = cov.lags
        for tau in range(1, L + 1):
            circ[k - tau] = cov.lags[tau].T
        spec = np.fft.fft(circ, axis=0)
        spec = (spec + np.conj(np.transpose(spec, (0, 2, 1)))) / 2.0
        w, v = np.linalg.eigh(spec)
        spec_norm = float(w.max())
        if spec_norm <= 0:
            raise CalibrationError("covariance model has no positive spectral mass")
        self.clipping_norm = max(0.0, float(-w.min()) / spec_norm)
        if self.clipping_norm > _CLIP_ABORT:
            raise CalibrationError(
                f"embedded spectrum is far from PSD (relative clipping "
                f"{self.clipping_norm:.3g} > {_CLIP_ABORT}); the covariance "
                f"estimate is not a valid stationary model"
            )
        if self.clipping_norm > _CLIP_ROUNDING:
            logger.info("clipped negative spectral mass: %.3g of spectral norm",
                        self.clipping_norm)
        w = np.clip(w, 0.0, None)
        self._factor = v * np.sqrt(w)[:, None, :]  # B with B @ B^H = spec
        self._k = k
        self.p = p


def simulate_gaussian_batch(surrogate: GaussianSurrogate,
                            rng: RngStream | np.random.Generator,
                            count: int) -> np.ndarray:
    """Draw ``count`` independent replicates, shape (count, p, N)."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    k, p, n = surrogate._k, surrogate.p, surrogate.n
    half = (count + 1) // 2
    xi = gen.standard_normal((half, k, p)) + 1j * gen.standard_normal((half, k, p))
    z = np.einsum("kpq,hkq->hkp", surrogate._factor, xi)
    z = np.fft.ifft(z, axis=1) * math.sqrt(k)
    out = np.empty((2 * half, p, n))
    out[0::2] = z.real[:, :n, :].transpose(0, 2, 1)
    out[1::2] = z.imag[:, :n, :].transpose(0, 2, 1)
    return out[:count]


def simulate_gaussian(surrogate: GaussianSurrogate, rng: RngStream) -> TimeSeriesSample:
    """Draw one stationary Gaussian sample from the surrogate model."""
    return TimeSeriesSample(simulate_gaussian_batch(surrogate, rng, 1)[0])


@dataclass(frozen=True)
class CalibrationResult:
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    replicates: int
    clipping_norm: float
    quantiles: dict[float, float] | None = None

    def as_null_moments(self, max_lag: int | None = None) -> NullMoments:
        return NullMoments(self.mean, self.variance,
                           MomentSource.MONTE_CARLO_CALIBRATED, max_lag=max_lag)

    def to_dict(self) -> dict:
        out = {
            "mean": self.mean,
            "variance": self.variance,
            "se_mean": self.se_mean,
            "se_variance": self.se_variance,
            "replicates": self.replicates,
            "clipping_norm": self.clipping_norm,
        }
        if self.quantiles is not None:
            out["quantiles"] = {str(k): v for k, v in self.quantiles.items()}
        return out


def _moments_with_errors(values: np.ndarray) -> tuple[float, float, float, float]:
    """Compensated mean/variance of the statistic values plus standard errors.

    The SE of the sample variance uses the empirical fourth central moment,
    Var(s^2) = (m4 - s^4 (R-3)/(R-1)) / R, which matters because kurtosis
    statistics are themselves skewed and heavy-tailed.
    """
    r = values.size
    mean = math.fsum(values) / r
    dev = values - mean
    variance = math.fsum(dev * dev) / (r - 1)
    m4 = math.fsum(dev**4) / r
    se_mean = math.sqrt(variance / r)
    se_var = math.sqrt(max(m4 - variance**2 * (r - 3) / (r - 1), 0.0) / r)
    return mean, variance, se_mean, se_var


def calibrate_null(
    surrogate: GaussianSurrogate,
    budget: CalibrationBudget | None = None,
    quantile_probs=None,
) -> CalibrationResult:
    """Estimate null moments of the kurtosis statistic over surrogate
    replicates.

    The statistic is evaluated on whole batches at once. Replicates are
    drawn in fixed-size chunks, one RNG substream per chunk, so the result
    is independent of execution order and reproducible from the budget seed.
    """
    if budget is None:
        budget = CalibrationBudget()
    values = np.empty(budget.replicates)
    done = 0
    chunk_index = 0
    while done < budget.replicates:
        take = min(_CHUNK, budget.replicates - done)
        rng = budget.seed.substream(chunk_index)
        batch_values, ok = _mardia_batch(simulate_gaussian_batch(surrogate, rng, take))
        if not np.all(ok):
            raise DegenerateSampleError(_DEGENERATE_MESSAGE)
        values[done : done + take] = batch_values
        done += take
        chunk_index += 1
    mean, variance, se_mean, se_var = _moments_with_errors(values)
    quantiles = None
    if quantile_probs is not None:
        qs = np.quantile(values, list(quantile_probs))
        quantiles = {float(q): float(v) for q, v in zip(quantile_probs, qs)}
    return CalibrationResult(mean, variance, se_mean, se_var,
                             budget.replicates, surrogate.clipping_norm, quantiles)
