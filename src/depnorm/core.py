"""Core domain types, reproducible RNG streams, and sample-moment estimators.

Conventions used throughout the package:

* a multivariate series is stored as a ``p x N`` float64 matrix (one row per
  variable, one column per time index),
* series are assumed zero-mean by the estimators; callers center first (see
  :func:`center`),
* lagged covariances use the biased ``1/N`` normalization at every lag.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "CalibrationError",
    "CovarianceSequence",
    "DegenerateSampleError",
    "MomentSource",
    "NullMoments",
    "RngStream",
    "TestReport",
    "TimeSeriesSample",
    "center",
    "load_sample",
    "read_binary",
    "read_csv",
    "resolve_max_lag",
    "sample_covariance",
    "sample_cross_covariance",
    "save_sample",
    "write_binary",
    "write_csv",
]

_MAGIC = b"DNTS"
_MASK64 = (1 << 64) - 1


class DegenerateSampleError(ValueError):
    """Raised when a sample's covariance is singular or non-positive."""


class CalibrationError(RuntimeError):
    """Raised when Monte Carlo null calibration cannot proceed."""


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Keyed, platform-stable random stream.

    Streams are backed by the counter-based Philox generator, keyed by
    ``(seed, stream_id)``. Equal parameters give bit-identical sequences;
    distinct ``stream_id`` values give statistically independent streams,
    so Monte Carlo replicates each get their own stream via
    :meth:`substream`.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        _check_counts(self)
        if not (0 <= self.seed <= _MASK64 and 0 <= self.stream_id <= _MASK64):
            raise ValueError("seed and stream_id must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, *indices: int) -> "RngStream":
        """Derive a child stream by mixing integer indices into the id."""
        acc = self.stream_id
        for ix in indices:
            acc = _splitmix64(acc ^ _splitmix64(int(ix) & _MASK64))
        return RngStream(self.seed, acc)


@dataclass(frozen=True)
class TimeSeriesSample:
    """A ``p x N`` block of real observations, variables in rows."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d (p, N) array, got ndim={arr.ndim}")
        p, n = arr.shape
        if p < 1 or n < 2:
            raise ValueError(f"need p >= 1 and N >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def p(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class CovarianceSequence:
    """Lagged covariance matrices ``lags[tau][a, b]`` for ``tau = 0..L``.

    Entry ``(a, b)`` at lag ``tau`` is ``(1/N) sum_k x_a(k) x_b(k + tau)``.
    """

    lags: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.lags, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError("lags must have shape (L + 1, p, p)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("covariance sequence contains non-finite entries")
        scale = np.max(np.abs(arr[0]), initial=0.0)
        if np.any(np.abs(arr[0] - arr[0].T) > 1e-10 * scale):
            raise ValueError("lag-0 covariance must be symmetric")
        object.__setattr__(self, "lags", arr)

    @property
    def p(self) -> int:
        return self.lags.shape[1]

    @property
    def max_lag(self) -> int:
        return self.lags.shape[0] - 1

    def truncated(self, max_lag: int) -> "CovarianceSequence":
        if max_lag >= self.max_lag:
            return self
        return CovarianceSequence(self.lags[: max_lag + 1].copy())


class MomentSource(str, enum.Enum):
    IID_CLOSED_FORM = "iid_closed_form"
    COLORED_SCALAR_CLOSED_FORM = "colored_scalar_closed_form"
    MONTE_CARLO_CALIBRATED = "monte_carlo_calibrated"


@dataclass(frozen=True)
class NullMoments:
    """Mean and variance of a test statistic under the Gaussian null.

    ``max_lag`` records the lag truncation used to build the moments when a
    covariance sequence was involved (None for the i.i.d. closed form).
    A Monte Carlo null also records the standard errors of its mean and
    variance and its surrogate's ``clipping_norm``; the closed forms
    record 0 for all three.
    """

    mean: float
    variance: float
    source: MomentSource
    max_lag: int | None = None
    se_mean: float = 0.0
    se_variance: float = 0.0
    clipping_norm: float = 0.0

    def __post_init__(self) -> None:
        if not self.variance > 0:
            raise ValueError(f"variance must be positive, got {self.variance}")


@dataclass(frozen=True)
class TestReport:
    """Outcome of a single normality test."""

    statistic: float
    z: float
    p_value: float
    alpha: float
    reject: bool
    null_moments: NullMoments

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "z": self.z,
            "p_value": self.p_value,
            "reject": bool(self.reject),
            "null_mean": self.null_moments.mean,
            "null_var": self.null_moments.variance,
            "null_source": self.null_moments.source.value,
            "null_se_mean": self.null_moments.se_mean,
            "null_se_var": self.null_moments.se_variance,
            "null_clipping_norm": self.null_moments.clipping_norm,
        }


def center(x: TimeSeriesSample) -> TimeSeriesSample:
    """Subtract the empirical mean of each row."""
    return TimeSeriesSample(x.data - x.data.mean(axis=1, keepdims=True))


def _lag0(data: np.ndarray) -> np.ndarray:
    n = data.shape[-1]
    s = data @ np.swapaxes(data, -1, -2) / n
    return (s + np.swapaxes(s, -1, -2)) / 2.0


def sample_covariance(x: TimeSeriesSample) -> np.ndarray:
    """Biased sample covariance ``(1/N) sum_k x(k) x(k)^T`` of an
    (assumed zero-mean) sample. Symmetric by construction."""
    return _lag0(x.data)


def _check_counts(config) -> None:
    """Raise ``ValueError`` naming the first ``int`` or ``int | None`` field
    of the dataclass ``config`` that holds anything but an int (a bool or an
    integral float included) or, for the latter, None: a count of the wrong
    type would otherwise fail later, inside a draw, with a bare TypeError."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", "int | None") and type(value) is not int \
                and not (value is None and f.type != "int"):
            raise ValueError(f"{type(config).__name__} field {f.name!r} must be an "
                             f"integer, got {value!r}")


def resolve_max_lag(max_lag: int | None, n: int) -> int:
    """Lag truncation for a series of length ``n``: N-1 for None, larger
    values clamped to N-1, negative values rejected with ``ValueError``.

    Keeping every lag is the default: the full biased covariance sequence
    has spectral matrices equal to the sample periodogram, which is positive
    semidefinite by construction, so full-lag circulant-embedding surrogates
    (Wood & Chan 1994) never trip the clipping guard. Truncating below N-1
    trades that guarantee for a smaller model.
    """
    if max_lag is not None and max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    return n - 1 if max_lag is None else min(max_lag, n - 1)


# A positive n < 2^64 is 11-smooth exactly when it divides (2*3*5*7*11)^64,
# since no prime appears in it more than 63 times.
_SMOOTH = 2310**64


def next_fast_len(target: int) -> int:
    """The smallest 11-smooth integer >= ``target`` >= 1, a length whose FFT
    factors into radices 2 to 11: ``scipy.fft.next_fast_len(target)``
    without importing ``scipy.fft``."""
    n = target
    while _SMOOTH % n:
        n += 1
    return n


# An overflowing sample gives inf or NaN lags, which CovarianceSequence
# rejects, so the floating-point warnings on the way are noise.
@np.errstate(over="ignore", invalid="ignore")
def _cross_cov_fft(data: np.ndarray, max_lag: int) -> np.ndarray:
    """Lagged covariances of one or more samples, ``(..., p, N)`` to
    ``(..., max_lag + 1, p, p)``, by one FFT per row."""
    n = data.shape[-1]
    k = next_fast_len(n + max_lag + 1)
    f = np.fft.rfft(data, k, axis=-1)
    # irfft of conj(F_a) * F_b holds sum_k x_a(k) x_b(k+tau) at index tau
    prod = np.conj(f)[..., :, None, :] * f[..., None, :, :]
    del f  # release the spectrum before the inverse transform allocates
    cc = np.fft.irfft(prod, k, axis=-1)[..., : max_lag + 1] / n
    out = np.moveaxis(cc, -1, -3)
    out[..., 0, :, :] = _lag0(data)
    return out


def sample_cross_covariance(x: TimeSeriesSample, max_lag: int) -> CovarianceSequence:
    """Lagged sample covariances ``(1/N) sum_{k=1}^{N-tau} x_a(k) x_b(k+tau)``.

    The normalization is ``1/N`` at every lag, not ``1/(N-tau)``; the lag-0
    matrix equals :func:`sample_covariance` exactly.
    """
    if not 0 <= max_lag <= x.n - 1:
        raise ValueError(f"max_lag must be in [0, N-1], got {max_lag} for N={x.n}")
    return CovarianceSequence(_cross_cov_fft(x.data, max_lag))


# ---------------------------------------------------------------------------
# Persistence: CSV (time-major, header x1..xp) and a small binary dump with a
# 16-byte header: magic b"DNTS", u32 p, u32 N, 4 reserved zero bytes, then the
# float64 payload in time-major order, all little-endian.
# ---------------------------------------------------------------------------


def write_csv(x: TimeSeriesSample, path: str | Path) -> None:
    header = ",".join(f"x{i + 1}" for i in range(x.p))
    np.savetxt(path, x.data.T, delimiter=",", header=header, comments="", fmt="%.17g")


def read_csv(path: str | Path) -> TimeSeriesSample:
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return TimeSeriesSample(arr.T)


def write_binary(x: TimeSeriesSample, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", _MAGIC, x.p, x.n, 0))
        fh.write(np.ascontiguousarray(x.data.T, dtype="<f8").tobytes())


def read_binary(path: str | Path) -> TimeSeriesSample:
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16:
            raise ValueError(f"{path}: truncated header")
        magic, p, n, _ = struct.unpack("<4sIII", head)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if payload.size != p * n:
        raise ValueError(f"{path}: expected {p * n} values, found {payload.size}")
    return TimeSeriesSample(payload.reshape(n, p).T)


def _is_csv(path: str | Path) -> bool:
    return str(path).lower().endswith(".csv")


def load_sample(path: str | Path) -> TimeSeriesSample:
    """Read a sample, choosing the format by file extension (.csv or binary)."""
    return read_csv(path) if _is_csv(path) else read_binary(path)


def save_sample(x: TimeSeriesSample, path: str | Path) -> None:
    """Write a sample in the format :func:`load_sample` reads back from
    ``path``: CSV for a .csv extension, binary otherwise."""
    (write_csv if _is_csv(path) else write_binary)(x, path)
