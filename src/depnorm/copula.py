"""Archimedean-copula generator for colored, non-Gaussian test data.

Produces p-variate series whose marginals are exactly standard normal in law
while the joint law follows a Gumbel or Clayton copula. Temporal dependence
is injected by AR(1)-filtering the Gaussian inputs before the copula
transform, so the cross-sectional copula at each time index is untouched.

The generator follows the Marshall-Olkin frailty construction: independent
uniforms are coupled through a shared positive latent variable V whose
Laplace transform is the family's generator function. One V is drawn per
time index, so consecutive samples are coupled only through the colored
uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .core import RngStream, TimeSeriesSample

__all__ = [
    "ArchimedeanFamily",
    "GeneratorConfig",
    "ar1_filter",
    "generate",
    "psi",
    "sample_frailty",
]

GUMBEL = "gumbel"
CLAYTON = "clayton"

# Uniforms are clamped away from {0, 1} before -log(u) and the normal
# quantile; the induced bias is far below measurement precision.
_UNIFORM_EPS = 1e-15


@dataclass(frozen=True)
class ArchimedeanFamily:
    """A copula family tag plus its dependence parameter rho.

    Gumbel requires a finite rho >= 1 (rho = 1 is independence), Clayton a
    finite rho > 0.
    """

    kind: str
    rho: float

    def __post_init__(self) -> None:
        if self.kind not in (GUMBEL, CLAYTON):
            raise ValueError(f"unknown family {self.kind!r}")
        if not np.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho}")
        if self.kind == GUMBEL and not self.rho >= 1.0:
            raise ValueError(f"Gumbel needs rho >= 1, got {self.rho}")
        if self.kind == CLAYTON and not self.rho > 0.0:
            raise ValueError(f"Clayton needs rho > 0, got {self.rho}")

    @classmethod
    def gumbel(cls, rho: float = 5.0) -> "ArchimedeanFamily":
        return cls(GUMBEL, rho)

    @classmethod
    def clayton(cls, rho: float = 2.0) -> "ArchimedeanFamily":
        return cls(CLAYTON, rho)

    @classmethod
    def named(cls, kind: str, rho: float | None = None) -> "ArchimedeanFamily":
        """Family ``kind`` with ``rho``, or with the family's default rho."""
        make = {GUMBEL: cls.gumbel, CLAYTON: cls.clayton}.get(kind)
        if make is None:
            raise ValueError(f"unknown family {kind!r}")
        return make() if rho is None else make(float(rho))

    def kendall_tau(self) -> float:
        """Population Kendall rank correlation implied by rho."""
        if self.kind == GUMBEL:
            return 1.0 - 1.0 / self.rho
        return self.rho / (self.rho + 2.0)


@dataclass(frozen=True)
class GeneratorConfig:
    family: ArchimedeanFamily
    p: int
    n: int
    ar_coefficient: float = 0.8
    n_drop: int = 1000
    temporal_coloring: bool = True

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.n < 1:
            raise ValueError("N must be >= 1")
        if self.n_drop < 0:
            raise ValueError("n_drop must be >= 0")
        if not abs(self.ar_coefficient) < 1.0:
            raise ValueError("AR coefficient must satisfy |a| < 1")


def psi(family: ArchimedeanFamily, t):
    """Archimedean generator: Gumbel exp(-t^(1/rho)), Clayton (1+t)^(-1/rho).

    Maps [0, inf) onto (0, 1], strictly decreasing, psi(0) = 1. Accepts
    scalars or arrays.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("psi requires t >= 0")
    if family.kind == GUMBEL:
        out = np.exp(-(t ** (1.0 / family.rho)))
    else:
        out = (1.0 + t) ** (-1.0 / family.rho)
    return out if out.ndim else float(out)


def sample_frailty(family: ArchimedeanFamily, gen: np.random.Generator,
                   size: int | None = None):
    """Draw the positive latent variable whose Laplace transform is psi.

    Clayton uses a gamma law with shape 1/rho and unit scale. Gumbel uses a
    positive stable law with index 1/rho, sampled by the Chambers-Mallows-
    Stuck construction; at rho = 1 it degenerates to the constant 1.
    """
    n = 1 if size is None else size
    if family.kind == CLAYTON:
        v = gen.gamma(1.0 / family.rho, 1.0, size=n)
    else:
        a = 1.0 / family.rho
        u = gen.uniform(0.0, np.pi, size=n)
        w = gen.standard_exponential(size=n)
        if a == 1.0:
            v = np.ones(n)
        else:
            v = (np.sin(a * u) / np.sin(u) ** (1.0 / a)) \
                * (np.sin((1.0 - a) * u) / w) ** ((1.0 - a) / a)
    return float(v[0]) if size is None else v


def ar1_filter(eta: np.ndarray, a: float, n_drop: int) -> np.ndarray:
    """Run y(n) = a*y(n-1) + eta(n) with y(0) = eta(0) along the last axis
    of ``eta``, which needs at least one axis, and drop the first n_drop
    values of the output.

    Each row runs as a Python float loop in the form of
    ``scipy.signal.lfilter([1], [1, -a], eta)``: two roundings per step, in
    the same order, so the output has its bytes for finite input. The term
    0*eta(n-1) of lfilter's state only fixes the sign of an exact zero.
    """
    if isinstance(n_drop, bool) or not isinstance(n_drop, (int, np.integer)):
        raise ValueError(f"n_drop must be an integer, got {n_drop!r}")
    if n_drop < 0:
        raise ValueError(f"n_drop must be >= 0, got {n_drop}")
    if np.iscomplexobj(a) or not abs(a) < 1.0:
        raise ValueError(f"AR(1) coefficient a must be real with |a| < 1, got {a}")
    eta = np.asarray(eta)
    if np.iscomplexobj(eta):
        raise ValueError("eta must be real, got complex input")
    if eta.ndim == 0:
        raise ValueError("eta must have at least one axis, got a 0-d array")
    eta = np.ascontiguousarray(eta, dtype=np.float64)
    length = eta.shape[-1]
    if length <= n_drop:
        raise ValueError(f"eta has {length} values along its last axis, "
                         f"not more than n_drop={n_drop}")
    a = float(a)
    y = np.empty(eta.shape)
    # memoryviews hand out and take Python floats one at a time, so the loop
    # needs no memory beyond the output.
    for row, out in zip(eta.reshape(-1, length), y.reshape(-1, length)):
        out = memoryview(out)
        x_prev = y_n = 0.0
        for n, x in enumerate(memoryview(row)):
            y_n = x_prev * 0.0 + a * y_n + x
            x_prev = x
            out[n] = y_n
    return y[..., n_drop:]


def generate(config: GeneratorConfig, rng: RngStream) -> TimeSeriesSample:
    """Generate a p x N sample with the configured copula and coloring.

    Pipeline per time index n:
      1. independent standard normal inputs eta_i(n), one per coordinate;
      2. optional AR(1) coloring of each coordinate (burn-in dropped), then
         rescaling by sqrt(1 - a^2) so the marginal law stays N(0, 1);
      3. u_i = Phi(y_i), exact uniforms (colored in time when step 2 ran);
      4. one frailty draw V(n);
      5. u'_i = psi(-log(u_i) / V), a copula draw with uniform marginals;
      6. x_i = Phi^{-1}(u'_i), standard normal marginals.
    """
    gen = rng.generator()
    fam, p, n = config.family, config.p, config.n
    # The same input block is drawn whether or not coloring is on, so runs
    # that differ only in temporal_coloring share their frailty sequence and
    # most of their normal inputs; paired colored/uncolored comparisons then
    # see far less Monte Carlo noise.
    eta = gen.standard_normal((p, n + config.n_drop))
    if config.temporal_coloring:
        y = ar1_filter(eta, config.ar_coefficient, config.n_drop)
        y = y * np.sqrt(1.0 - config.ar_coefficient ** 2)
    else:
        y = eta[:, config.n_drop :]
    u = np.clip(ndtr(y), _UNIFORM_EPS, 1.0 - _UNIFORM_EPS)
    v = sample_frailty(fam, gen, size=n)
    u_prime = psi(fam, -np.log(u) / v)
    u_prime = np.clip(u_prime, _UNIFORM_EPS, 1.0 - _UNIFORM_EPS)
    return TimeSeriesSample(ndtri(u_prime))
