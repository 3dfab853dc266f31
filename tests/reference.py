"""Plain references for the batched kernels."""

import math

import numpy as np
from scipy.signal import lfilter

from depnorm.kurtosis import _MAX_CONDITION, _pairs


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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def eigh_projected_kurtosis(bases, moments):
    """``kurtosis._projected_kurtosis`` by the general contraction: one
    eigendecomposition U S U^T = Q Lambda Q^T per projection and sample
    gives the degeneracy rule and P = G^T G with G = Lambda^{-1/2} Q^T (UL),
    for any basis shape (M, k, p). NaN where U S U^T's smallest eigenvalue
    is not a positive normal float or its condition number is at least
    ``_MAX_CONDITION``, and where the value overflows."""
    s, whiten, m4 = moments
    rows, cols, weights = _pairs(s.shape[-1])
    u = bases[:, None]
    lam, q = np.linalg.eigh(u @ s @ u.swapaxes(-1, -2))
    ok = (lam[..., 0] >= np.finfo(float).tiny) & (lam[..., -1] / _MAX_CONDITION < lam[..., 0])
    g = (q.swapaxes(-1, -2) @ (u @ whiten)) / np.sqrt(lam)[..., None]
    c = (g.swapaxes(-1, -2) @ g)[..., rows, cols] * weights
    values = np.sum((c[..., None, :] @ m4)[..., 0, :] * c, axis=-1)
    values[~(ok & np.isfinite(values))] = np.nan
    return values


def lfilter_ar1(eta, a, n_drop):
    """AR(1) recurrence y(n) = a*y(n-1) + eta(n) along the last axis of
    ``eta`` by ``scipy.signal.lfilter``, first ``n_drop`` outputs dropped."""
    return lfilter([1.0], [1.0, -a], eta, axis=-1)[..., n_drop:]


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


def moments_with_errors(values):
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
