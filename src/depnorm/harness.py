"""Monte Carlo experiment driver: copula data, random projections, rejection
rates, and reproduction of the reference result tables.

The protocol per realization: draw one copula sample, project it M times
(random directions for bivariate data, random planes for trivariate data,
random in-plane rotations for the bivariate joint test), run each requested
test on each projection, and report rejection counts per significance
level. Covariance sequences are re-estimated per projection from the
projected data.

For the calibrated bivariate test the M per-projection nulls share one
batch of source-dimension Gaussian replicates per realization: projecting
Gaussian replicates matched to the source covariance sequence gives, for
every projection matrix U, a Gaussian process whose covariance sequence is
exactly U S(tau) U^T, the same law the per-projection surrogate would have.
This cuts the cost of an experiment by the replicate count while leaving
each projection's null distribution unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .calibrate import GaussianSurrogate, _moments_with_errors, simulate_gaussian_batch
from .copula import ArchimedeanFamily, GeneratorConfig, generate
from .core import (
    RngStream,
    _cross_cov_fft,
    center,
    resolve_max_lag,
    sample_cross_covariance,
)
from .kurtosis import (
    TestKind,
    _colored_scalar_moments,
    _mardia_batch,
    iid_null_moments,
    two_sided_p_value,
)
from .projection import rotation_matrix, sample_direction, sample_plane, sample_rotation

__all__ = [
    "DEFAULT_SEED",
    "ExperimentConfig",
    "PAPER_RATES",
    "RealizationDetail",
    "RejectionRateReport",
    "reproduce_tables",
    "run_experiment",
]

DEFAULT_SEED = 16

# Substream tags for the per-realization RNG layout.
_DATA, _ANGLES, _SURROGATE = 1, 2, 3

# Reference rejection rates, by table / copula / test / alpha.
PAPER_RATES: dict[str, dict[str, dict[str, dict[float, float]]]] = {
    "table1": {
        "gumbel": {"colored1": {0.05: 0.1250, 0.10: 0.1328},
                   "iid": {0.05: 0.1242, 0.10: 0.1316}},
        "clayton": {"colored1": {0.05: 0.661, 0.10: 0.72},
                    "iid": {0.05: 0.652, 0.10: 0.713}},
    },
    "table2": {
        "gumbel": {"colored1": {0.05: 0.2134, 0.10: 0.2510},
                   "iid": {0.05: 0.2082, 0.10: 0.2406}},
        "clayton": {"colored1": {0.05: 0.717, 0.10: 0.76},
                    "iid": {0.05: 0.701, 0.10: 0.752}},
    },
    "table3": {
        "gumbel": {"colored2": {0.05: 0.9516, 0.10: 0.9574}},
        "clayton": {"colored2": {0.05: 0.9701, 0.10: 0.9882}},
    },
    "table4": {
        "gumbel": {"colored2": {0.05: 0.9492, 0.10: 0.9556}},
        "clayton": {"colored2": {0.05: 0.8540, 0.10: 0.87}},
    },
}

_TABLE_SETUPS = {
    "table1": dict(source_dim=2, projection_dim=1, temporal_coloring=True),
    "table2": dict(source_dim=2, projection_dim=1, temporal_coloring=False),
    "table3": dict(source_dim=2, projection_dim=2, temporal_coloring=True),
    "table4": dict(source_dim=3, projection_dim=2, temporal_coloring=True),
}


def _default_tests(projection_dim: int) -> tuple[TestKind, ...]:
    if projection_dim == 1:
        return (TestKind.COLORED_SCALAR, TestKind.MARDIA_IID)
    return (TestKind.COLORED_BIVARIATE,)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one rejection-rate study.

    ``source_dim == projection_dim == 2`` means random in-plane rotations of
    the bivariate data (two scalar projections onto orthogonal axes) rather
    than a dimension-reducing projection.
    """

    family: ArchimedeanFamily
    source_dim: int
    projection_dim: int
    temporal_coloring: bool
    n: int = 1000
    m: int = 5000
    alphas: tuple[float, ...] = (0.05, 0.10)
    tests: tuple[TestKind, ...] | None = None
    realizations: int = 1
    seed: int = DEFAULT_SEED
    ar_coefficient: float = 0.8
    n_drop: int = 1000
    calib_replicates: int = 500
    max_lag: int | None = None

    def __post_init__(self) -> None:
        if (self.source_dim, self.projection_dim) not in ((2, 1), (3, 2), (2, 2)):
            raise ValueError(
                f"unsupported projection {self.source_dim}->{self.projection_dim}; "
                f"supported: 2->1, 3->2, and 2->2 (rotations)"
            )
        if not all(0.0 < a < 1.0 for a in self.alphas):
            raise ValueError("all alphas must lie in (0, 1)")
        if self.m < 1 or self.realizations < 1:
            raise ValueError("M and realizations must be positive")
        if self.tests is None:
            object.__setattr__(self, "tests", _default_tests(self.projection_dim))
        for kind in self.tests:
            if kind == TestKind.COLORED_SCALAR and self.projection_dim != 1:
                raise ValueError("colored1 runs on scalar projections only")
            if kind == TestKind.COLORED_BIVARIATE and self.projection_dim != 2:
                raise ValueError("colored2 runs on 2-d projections only")

    def to_dict(self) -> dict:
        return {
            "family": self.family.kind,
            "rho": self.family.rho,
            "source_dim": self.source_dim,
            "projection_dim": self.projection_dim,
            "temporal_coloring": self.temporal_coloring,
            "N": self.n,
            "M": self.m,
            "alphas": list(self.alphas),
            "tests": [k.value for k in self.tests],
            "realizations": self.realizations,
            "seed": self.seed,
            "ar_coefficient": self.ar_coefficient,
            "n_drop": self.n_drop,
            "calib_replicates": self.calib_replicates,
            "max_lag": self.max_lag,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        family = ArchimedeanFamily(raw["family"], float(raw.get("rho", 5.0)))
        tests = raw.get("tests")
        return cls(
            family=family,
            source_dim=int(raw["source_dim"]),
            projection_dim=int(raw["projection_dim"]),
            temporal_coloring=bool(raw["temporal_coloring"]),
            n=int(raw.get("N", 1000)),
            m=int(raw.get("M", 5000)),
            alphas=tuple(float(a) for a in raw.get("alphas", (0.05, 0.10))),
            tests=None if tests is None else tuple(TestKind(t) for t in tests),
            realizations=int(raw.get("realizations", 1)),
            seed=int(raw.get("seed", DEFAULT_SEED)),
            ar_coefficient=float(raw.get("ar_coefficient", 0.8)),
            n_drop=int(raw.get("n_drop", 1000)),
            calib_replicates=int(raw.get("calib_replicates", 500)),
            max_lag=raw.get("max_lag"),
        )


@dataclass(frozen=True)
class RealizationDetail:
    index: int
    rates: dict
    rejections: dict
    skipped: int


@dataclass(frozen=True)
class RejectionRateReport:
    config: dict
    rates: dict
    rejections: dict
    details: tuple[RealizationDetail, ...] = field(repr=False)
    skipped_total: int = 0

    def rate(self, kind: TestKind, alpha: float) -> float:
        return self.rates[kind.value][f"{alpha:g}"]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "rates": self.rates,
            "rejections": self.rejections,
            "skipped_total": self.skipped_total,
            "realizations": [
                {"index": d.index, "rates": d.rates,
                 "rejections": d.rejections, "skipped": d.skipped}
                for d in self.details
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _draw_bases(cfg: ExperimentConfig, gen: np.random.Generator) -> np.ndarray:
    """M projection matrices, shape (M, projection_dim, source_dim)."""
    out = np.empty((cfg.m, cfg.projection_dim, cfg.source_dim))
    for m in range(cfg.m):
        if (cfg.source_dim, cfg.projection_dim) == (2, 1):
            out[m, 0] = sample_direction(gen).vector()
        elif (cfg.source_dim, cfg.projection_dim) == (3, 2):
            out[m] = sample_plane(gen).basis()
        else:
            out[m] = rotation_matrix(sample_rotation(gen))
    return out


def _run_realization(cfg: ExperimentConfig, r: int, stream: RngStream):
    gen_cfg = GeneratorConfig(cfg.family, cfg.source_dim, cfg.n,
                              ar_coefficient=cfg.ar_coefficient,
                              n_drop=cfg.n_drop,
                              temporal_coloring=cfg.temporal_coloring)
    x = generate(gen_cfg, stream.substream(_DATA, r))
    xc = center(x)
    bases = _draw_bases(cfg, stream.substream(_ANGLES, r).generator())
    projected = np.einsum("mkp,pn->mkn", bases, xc.data)

    pvalues: dict[TestKind, np.ndarray] = {}
    b_data, valid = _mardia_batch(projected)
    max_lag = resolve_max_lag(cfg.max_lag, cfg.n)

    for kind in cfg.tests:
        if kind == TestKind.MARDIA_IID:
            mom = iid_null_moments(cfg.projection_dim, cfg.n)
            z = (b_data - mom.mean) / math.sqrt(mom.variance)
        elif kind == TestKind.COLORED_SCALAR:
            yc = projected - projected.mean(axis=2, keepdims=True)
            lags = _cross_cov_fft(yc, max_lag)[:, :, 0, 0]
            mean, var = _colored_scalar_moments(lags, cfg.n)
            z = (b_data - mean) / np.sqrt(var)
        else:
            cov = sample_cross_covariance(xc, max_lag)
            surrogate = GaussianSurrogate(cov, cfg.n)
            z_batch = simulate_gaussian_batch(
                surrogate, stream.substream(_SURROGATE, r), cfg.calib_replicates
            )
            z = np.full(cfg.m, np.nan)
            for m in range(cfg.m):
                null_proj = np.einsum("kp,rpn->rkn", bases[m], z_batch)
                b_null, ok_null = _mardia_batch(null_proj)
                if not np.all(ok_null):
                    valid[m] = False
                    continue
                mu, var, _, _ = _moments_with_errors(b_null)
                z[m] = (b_data[m] - mu) / math.sqrt(var)
        pvalues[kind] = two_sided_p_value(z)

    return pvalues, valid


def run_experiment(cfg: ExperimentConfig) -> RejectionRateReport:
    """Run the full protocol and aggregate empirical rejection rates.

    Rates use the protocol's plain ratio rejections / M; projections whose
    covariance degenerates are skipped, logged in the per-realization
    detail, and count as non-rejections.
    """
    stream = RngStream(cfg.seed, 0)
    details = []
    totals = {k.value: {f"{a:g}": 0 for a in cfg.alphas} for k in cfg.tests}
    skipped_total = 0
    for r in range(cfg.realizations):
        pvalues, valid = _run_realization(cfg, r, stream)
        skipped = int(np.sum(~valid))
        skipped_total += skipped
        rates: dict = {}
        rejections: dict = {}
        for kind, pv in pvalues.items():
            rates[kind.value] = {}
            rejections[kind.value] = {}
            for a in cfg.alphas:
                nrej = int(np.sum(pv[valid] < a))
                rejections[kind.value][f"{a:g}"] = nrej
                rates[kind.value][f"{a:g}"] = nrej / cfg.m
                totals[kind.value][f"{a:g}"] += nrej
        details.append(RealizationDetail(r, rates, rejections, skipped))

    mean_rates = {
        test: {a: cnt / (cfg.m * cfg.realizations) for a, cnt in by_alpha.items()}
        for test, by_alpha in totals.items()
    }
    return RejectionRateReport(
        config=cfg.to_dict(),
        rates=mean_rates,
        rejections=totals,
        details=tuple(details),
        skipped_total=skipped_total,
    )


def reproduce_tables(out_dir: str | Path, fast: bool = False,
                     seed: int = DEFAULT_SEED, n: int = 1000,
                     m: int | None = None, realizations: int | None = None,
                     calib_replicates: int | None = None) -> dict:
    """Re-run all four reference tables and write one CSV per table plus a
    JSON report with per-realization detail.

    Defaults are N=1000, M=5000, 5 realizations; ``fast`` switches to M=500
    and 3 realizations for CI-scale runs. Identical seeds give byte-identical
    outputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    m = (500 if fast else 5000) if m is None else m
    realizations = (3 if fast else 5) if realizations is None else realizations
    calib_replicates = (300 if fast else 500) if calib_replicates is None else calib_replicates

    report: dict = {"seed": seed, "N": n, "M": m, "realizations": realizations,
                    "tables": {}}
    files = {}
    for table, setup in _TABLE_SETUPS.items():
        rows = []
        report["tables"][table] = {}
        for fam_name, rho in (("gumbel", 5.0), ("clayton", 2.0)):
            cfg = ExperimentConfig(
                family=ArchimedeanFamily(fam_name, rho),
                source_dim=setup["source_dim"],
                projection_dim=setup["projection_dim"],
                temporal_coloring=setup["temporal_coloring"],
                n=n, m=m, realizations=realizations, seed=seed,
                calib_replicates=calib_replicates,
            )
            res = run_experiment(cfg)
            report["tables"][table][fam_name] = res.to_dict()
            for kind in cfg.tests:
                for a in cfg.alphas:
                    rate = res.rate(kind, a)
                    paper = PAPER_RATES[table][fam_name][kind.value][a]
                    rows.append((fam_name, kind.value, a, rate, paper))
        path = out / f"{table}.csv"
        with open(path, "w") as fh:
            fh.write("copula,test,alpha,rate,paper_rate,abs_diff\n")
            for fam_name, test, a, rate, paper in rows:
                fh.write(f"{fam_name},{test},{a:g},{rate:.4f},{paper:.4f},"
                         f"{abs(rate - paper):.4f}\n")
        files[table] = path

    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2))
    files["report"] = report_path
    return {"files": files, "report": report}
