"""Plain references for the batched kernels."""

import math

import numpy as np

from depnorm.kurtosis import _MAX_CONDITION


def direct_kurtosis(batch):
    """B of each sample in ``batch`` (R, k, N) and a validity mask, the
    textbook way: center, form the covariance, solve for each sample's
    Mahalanobis norm q(n) and average q(n)^2. A sample is valid where its
    covariance has positive diagonal and condition number below
    ``_MAX_CONDITION``."""
    values = np.full(len(batch), np.nan)
    ok = np.zeros(len(batch), dtype=bool)
    for r, x in enumerate(batch):
        x = x - x.mean(axis=1, keepdims=True)
        s = x @ x.T / x.shape[1]
        if np.all(np.diag(s) > 0) and np.linalg.cond(s) < _MAX_CONDITION:
            q = np.sum(x * np.linalg.solve(s, x), axis=0)
            values[r], ok[r] = np.mean(q**2), True
    return values, ok


def direct_scalar_lags(x, bases, max_lag):
    """Autocovariances S(0..max_lag) of each scalar projection u x of the
    (p, N) sample ``x``, shape (M, max_lag + 1), the textbook way: project
    onto each line of ``bases`` (M, 1, p), center, and take one dot product
    per lag with the 1/N normalization."""
    n = x.shape[1]
    out = np.empty((len(bases), max_lag + 1))
    for m, u in enumerate(bases):
        y = u[0] @ x
        y = y - y.mean()
        for tau in range(max_lag + 1):
            out[m, tau] = np.dot(y[: n - tau], y[tau:]) / n
    return out


def direct_colored1_moments(lags, n):
    """Colored scalar null mean and variance of a series of length ``n``
    from its autocovariances ``lags`` s(0..L), the textbook way: one float
    ratio s(tau)/s(0) per lag, its weighted square and fourth power summed
    in a loop. NaN where s(0) <= 0."""
    s0 = float(lags[0])
    if not s0 > 0:
        return math.nan, math.nan
    sum2 = sum4 = 0.0
    for tau in range(1, len(lags)):
        r = float(lags[tau]) / s0
        sum2 += (n - tau) * r**2
        sum4 += (n - tau) * r**4
    return 3 - 6 / n - 12 / n**2 * sum2, 24 / n * (1 + 2 / n * sum4)


def direct_gaussian_batch(surrogate, rng, count):
    """``count`` surrogate replicates (count, p, N), the textbook way: all
    real normals, then all imaginary ones, in one (half, K, p) draw each;
    one batched matrix product with the spectral factor; one inverse FFT
    along the frequency axis; real and imaginary parts of draw h become
    replicates 2h and 2h + 1."""
    gen = rng.generator()
    k, p, n = surrogate._k, surrogate.p, surrogate.n
    half = (count + 1) // 2
    xi = gen.standard_normal((half, k, p)) + 1j * gen.standard_normal((half, k, p))
    z = (surrogate._factor @ xi[..., None])[..., 0]
    z = np.fft.ifft(z, axis=1) * math.sqrt(k)
    out = np.empty((2 * half, p, n))
    out[0::2] = z.real[:, :n, :].transpose(0, 2, 1)
    out[1::2] = z.imag[:, :n, :].transpose(0, 2, 1)
    return out[:count]
