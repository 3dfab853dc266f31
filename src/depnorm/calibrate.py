"""Parametric Monte Carlo engine for null moments under colored Gaussian nulls.

A :class:`GaussianSurrogate` turns a truncated covariance sequence into a
stationary Gaussian sampler via circulant embedding: the two-sided sequence
is wrapped onto a circle of length K >= N + L, the resulting spectral
matrices are eigen-factored per frequency (negative eigenvalues clipped and
accounted for), and samples come out of an inverse FFT. Each complex draw
yields two independent real replicates.

One Monte Carlo estimator, :func:`_replicate_moments`, gives every projection
the mean and variance of its statistic over the replicates, with standard
errors, evaluating the projections in fixed blocks of ``_BASIS_BLOCK``.
:func:`calibrate_null` is its identity-basis case; the study harness passes
its M projections.

Every Monte Carlo draw runs through one pipeline, :func:`_draw_reduced`,
which lays the replicates of (RNG stream, count) segments end to end and
has one task per slab of ``_SLAB`` complex draws (:func:`_transform_slab`,
shared with :func:`simulate_gaussian_batch`), reduced by
``kurtosis._reduce_block``. :func:`calibrate_null` has one segment per
chunk of ``_CHUNK`` replicates, each from its own RNG substream; the study
harness has one segment of all its replicates. The tasks run on
:func:`_run_tasks`: the calling thread takes them in order, and it and at
most ``_MAX_WORKERS - 1`` pool workers run them while numpy releases the
GIL. Each task writes its own rows of preallocated moments, so the result
is the same bit for bit on any number of CPUs.
"""

from __future__ import annotations

import logging
import math
import os
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .core import (
    CalibrationError,
    CovarianceSequence,
    DegenerateSampleError,
    RngStream,
    _check_counts,
    next_fast_len,
)
from .kurtosis import (_DEGENERATE_MESSAGE, _check_length, _empty_moments, _projected_kurtosis,
                       _reduce_block)

__all__ = [
    "CalibrationBudget",
    "CalibrationResult",
    "GaussianSurrogate",
    "calibrate_null",
    "simulate_gaussian_batch",
]

logger = logging.getLogger(__name__)

# Replicates per RNG substream; fixed so results never depend on scheduling.
_CHUNK = 256

# Threads that run _run_tasks's tasks, the caller included; fixed so peak
# memory does not grow with the CPU count. Each adds a slab's temporaries
# and the next segment's real normals: calibrate_null's peak at N=1000,
# p=2, R=2000 is 9.5 MB on one thread and 17 MB on two (tracemalloc).
_MAX_WORKERS = 2

# Complex draws transformed and reduced at once, 2 * _SLAB replicates; fixed
# so a draw's temporaries do not grow with its replicate count.
_SLAB = 16

# Tasks _run_tasks holds taken and not yet done; fixed so the slabs drawn
# ahead do not grow with the replicate count or the CPU count.
_IN_FLIGHT = 4

# Bases whose (block, R) statistics kurtosis._projected_kurtosis forms at
# once; fixed so peak memory does not grow with M. Their values, and so their
# moments, do not depend on the block they share.
_BASIS_BLOCK = 64

# Fewest replicates of any Monte Carlo null, in a budget or a study config.
MIN_REPLICATES = 100

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
        _check_counts(self)
        if self.replicates < MIN_REPLICATES:
            raise ValueError(f"moment estimates need at least {MIN_REPLICATES} replicates")
        if not isinstance(self.seed, RngStream):
            raise ValueError(f"CalibrationBudget field 'seed' must be an RngStream, "
                             f"got {self.seed!r}")


class GaussianSurrogate:
    """Stationary Gaussian process matched to a truncated covariance sequence.

    The model has exactly the supplied covariances up to the sequence's max
    lag, at most N-1, and zero covariance beyond it. ``clipping_norm``
    records the largest negative spectral eigenvalue relative to the
    spectral norm (0 for a valid model).
    """

    def __init__(self, cov: CovarianceSequence, n: int):
        L = cov.max_lag
        if n < 2 or L >= n:  # N values have lags 0..N-1; more can wrap onto each other
            raise ValueError(f"surrogate needs N >= 2 and max_lag < N, got N={n}, max_lag={L}")
        self.n = n
        p = cov.p
        k = next_fast_len(n + L + 1)
        circ = np.zeros((k, p, p))
        circ[: L + 1] = cov.lags
        circ[k - L :] = cov.lags[:0:-1].transpose(0, 2, 1)  # S(-tau) = S(tau)^T
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


def _transform_slab(surrogate: GaussianSurrogate, real: np.ndarray, imag: np.ndarray,
                    out: np.ndarray) -> None:
    """Write the replicates of the complex draws ``real + 1j * imag``, each
    part (h, K, p), into ``out`` (2h, p, N) or its first 2h - 1 rows: draw g
    gives replicates 2g (real part) and 2g + 1 (imaginary part)."""
    k, p, n = surrogate._k, surrogate.p, surrogate.n
    # z[:, i] = sum_j B[:, i, j] xi[..., j], summed left to right, with the
    # complex normals xi formed one channel at a time
    z = np.empty((len(real), p, k), dtype=complex)
    for j in range(p):
        xi = real[..., j] + 1j * imag[..., j]
        for i in range(p):
            if j == 0:
                np.multiply(surrogate._factor[:, i, 0], xi, out=z[:, i])
            else:
                z[:, i] += surrogate._factor[:, i, j] * xi
    z = np.fft.ifft(z, axis=-1)
    z *= math.sqrt(k)
    out[0::2] = z.real[: (len(out) + 1) // 2, :, :n]
    out[1::2] = z.imag[: len(out) // 2, :, :n]


def _normal_draws(surrogate: GaussianSurrogate, rng: RngStream, count: int):
    """The normals behind ``count`` replicates, as (start, real, imag) per
    slab of ``_SLAB`` complex draws: the stream holds the real normals of
    every draw, then the imaginary ones, drawn slab by slab as the slabs are
    taken."""
    gen = rng.generator()
    k, p = surrogate._k, surrogate.p
    half = (count + 1) // 2
    real = gen.standard_normal((half, k, p))
    for start in range(0, half, _SLAB):
        stop = min(start + _SLAB, half)
        yield start, real[start:stop], gen.standard_normal((stop - start, k, p))


def simulate_gaussian_batch(surrogate: GaussianSurrogate, rng: RngStream,
                            count: int) -> np.ndarray:
    """Draw ``count`` independent replicates, shape (count, p, N).

    Complex draw h gives replicates 2h (real part) and 2h + 1 (imaginary
    part). The stream holds the real normals of every draw, then the
    imaginary ones; the imaginary normals are drawn and transformed in slabs
    of ``_SLAB`` draws, so the complex temporaries do not grow with count.
    """
    out = np.empty((count, surrogate.p, surrogate.n))
    for start, real, imag in _normal_draws(surrogate, rng, count):
        _transform_slab(surrogate, real, imag, out[2 * start : 2 * (start + _SLAB)])
    return out


def _run_tasks(tasks: Iterable[Callable[[], None]]) -> None:
    """Run the zero-argument callables of the iterator ``tasks``, taken in
    order on the calling thread, on it and ``min(CPUs, _MAX_WORKERS) - 1``
    pool workers, with at most ``_IN_FLIGHT`` taken and not yet done. A
    failed task stops the run with its error."""
    workers = min(_usable_cpus(), _MAX_WORKERS) - 1
    if workers == 0:
        for task in tasks:
            task()
        return

    # (future, task), oldest first. When _IN_FLIGHT tasks wait, the caller
    # runs one no worker has started rather than wait for a slot, so the
    # threads never outnumber the CPUs.
    in_flight: deque = deque()

    def settle(room: int) -> None:
        # leave at most `room` tasks in flight, raising a worker's error
        while in_flight:
            if in_flight[0][0].done():
                in_flight.popleft()[0].result()
            elif len(in_flight) <= room:
                return
            else:
                for i in reversed(range(len(in_flight))):
                    future, task = in_flight[i]
                    if future.cancel():
                        del in_flight[i]
                        task()
                        break
                else:
                    in_flight[0][0].result()

    with ThreadPoolExecutor(workers) as pool:
        try:
            for task in tasks:
                settle(_IN_FLIGHT - 1)
                in_flight.append((pool.submit(task), task))
            settle(0)
        finally:
            for future, _ in in_flight:
                future.cancel()


def _draw_reduced(surrogate: GaussianSurrogate, segments: list[tuple[RngStream, int]],
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_fourth_moments`` of the replicates of the (stream, count)
    ``segments``, ``simulate_gaussian_batch(surrogate, stream, count)`` laid
    end to end, bit for bit, without forming a batch: each
    :func:`_run_tasks` task transforms one slab and reduces it into its
    rows. A segment's real normals, (count/2, K, p), are drawn before its
    first slab, so the peak grows with the largest segment: at N=1000, p=3
    it is about 24, 36 and 60 MB at count 500, 1000 and 2000 (tracemalloc),
    of which the real normals are 11.4, 22.9 and 45.8 MB."""
    moments = _empty_moments(sum(count for _, count in segments), surrogate.p)

    def reduce_slab(rows: slice, real: np.ndarray, imag: np.ndarray) -> None:
        batch = np.empty((rows.stop - rows.start, surrogate.p, surrogate.n))
        _transform_slab(surrogate, real, imag, batch)
        _reduce_block(batch, *(out[rows] for out in moments))

    def tasks():
        offset = 0
        for rng, count in segments:
            for start, real, imag in _normal_draws(surrogate, rng, count):
                rows = slice(offset + 2 * start, offset + min(2 * (start + _SLAB), count))
                yield partial(reduce_slab, rows, real, imag)
            offset += count

    _run_tasks(tasks())
    return moments


@dataclass(frozen=True)
class CalibrationResult:
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    replicates: int
    clipping_norm: float

    def to_dict(self) -> dict:
        return asdict(self)


def _replicate_moments(bases: np.ndarray,
                       null: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Mean, variance, se_mean and se_variance of the statistic of each
    projection U z over the replicates z, shape (4, M), from the M bases
    (M, k, p) and the ``kurtosis._fourth_moments`` reduction ``null`` of the
    replicates, evaluated in blocks of ``_BASIS_BLOCK``: a column is that of
    a call with its basis alone, bit for bit.

    Each block's moments are two-pass numpy reductions over its (M, R)
    values. The SE of the sample variance uses the empirical fourth central
    moment, Var(s^2) = (m4 - s^4 (R-3)/(R-1)) / R, which matters because
    kurtosis statistics are themselves skewed and heavy-tailed. A column is
    NaN where the projection of any replicate is degenerate, since the
    reductions carry that replicate's NaN value into every moment.
    """
    out = np.empty((4, len(bases)))
    for start in range(0, len(bases), _BASIS_BLOCK):
        values = _projected_kurtosis(bases[start : start + _BASIS_BLOCK], null)
        r = values.shape[1]
        mean = values.mean(axis=1)
        sq = (values - mean[:, None]) ** 2
        variance = np.sum(sq, axis=1) / (r - 1)
        m4 = np.mean(sq**2, axis=1)
        se_var = np.sqrt(np.maximum(m4 - variance**2 * (r - 3) / (r - 1), 0.0) / r)
        out[:, start : start + len(values)] = mean, variance, np.sqrt(variance / r), se_var
    return out


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def calibrate_null(surrogate: GaussianSurrogate,
                   budget: CalibrationBudget | None = None) -> CalibrationResult:
    """Null moments of the kurtosis statistic over surrogate replicates: the
    identity-basis case of :func:`_replicate_moments`.

    Replicates are drawn in chunks of ``_CHUNK``, one RNG substream and one
    :func:`_draw_reduced` segment per chunk, so the result is reproducible
    from the budget seed on any number of CPUs and the peak memory is
    bounded by the chunk size. Raises ``ValueError`` if the surrogate is too
    short for the statistic to depend on its data, and
    ``DegenerateSampleError`` if any replicate is degenerate.
    """
    _check_length(surrogate.p, surrogate.n, "calibration")
    budget = budget or CalibrationBudget()
    r = budget.replicates
    null = _draw_reduced(surrogate, [(budget.seed.substream(i), min(_CHUNK, r - start))
                                     for i, start in enumerate(range(0, r, _CHUNK))])
    moments = _replicate_moments(np.eye(surrogate.p)[None], null)[:, 0]
    if not np.isfinite(moments[0]):
        raise DegenerateSampleError(_DEGENERATE_MESSAGE)
    return CalibrationResult(*map(float, moments), r, surrogate.clipping_norm)
