"""Plain references for the batched kurtosis kernels."""

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
