"""Monte Carlo experiment driver: copula data, random projections, rejection
rates, and reproduction of the reference result tables.

The protocol per realization: draw one copula sample, project it M times
(random lines of bivariate data, random planes of trivariate data), run
each requested test on each projection, and count rejections per level.
The bivariate joint test runs once, on the sample itself: the paper tests
M random in-plane rotations, but B_2 and its calibrated null are
affine-invariant (Mardia 1970), so each rotation's decision is the
sample's, counted M times. The lines or planes come from one batched
sampler call (``_draw_bases``), and the projected data are never formed.
The sample is reduced once, by the calls ``run_test`` makes, to its
whitened fourth moments (``kurtosis._fourth_moments``), from which one
formula gives every projection's statistic (``kurtosis._projected_kurtosis``),
and to its covariance sequence S(tau) (``kurtosis._source_covariance``).

``kurtosis._null_moments`` gives the null of every projection from S(tau),
as it does for ``run_test``. The colored scalar lag sums of a line u are
a quadratic and a quartic form in the coefficients of v v^T, v = uL for
the whitening factor L of S(0), contracted against two lag-moment tensors
of the whitened S(tau) (``kurtosis._scalar_lag_sums``), so no projected
sequence u S(tau) u^T is formed. The calibrated bivariate null draws one
batch of source-dimension Gaussian replicates matched to S(tau). Projected
by U, the batch is a Gaussian process with covariance sequence
U S(tau) U^T, the law a per-projection surrogate would have. It is drawn
and reduced slab by slab on a thread pool (``calibrate._draw_reduced``),
bit-identical to reducing the whole batch, and the same formula gives the
statistics of the bases in fixed blocks (``calibrate._replicate_moments``),
so a realization's peak memory does not grow with M. It does grow with the
replicate count: the stream layout draws the real normals of every
replicate, (R/2, K, p), before the first slab, 11.4 MB of a peak near
24 MB at N=1000, p=3 and R=500.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .calibrate import (
    MIN_REPLICATES,
    _draw_reduced,
    _replicate_moments,
    simulate_gaussian_batch,  # noqa: F401  (perfbench/tracing.py patches it here)
)
from .copula import ArchimedeanFamily, GeneratorConfig, generate
from .core import RngStream, _check_counts, resolve_max_lag
from .core import center  # noqa: F401  (perfbench/tracing.py patches it here)
from .core import sample_cross_covariance  # noqa: F401  (perfbench/tracing.py patches it here)
from .kurtosis import (
    TestKind,
    _fourth_moments,
    _null_moments,
    _projected_kurtosis,
    _source_covariance,
    iid_null_moments,  # noqa: F401  (perfbench/tracing.py patches it here)
    two_sided_p_value,
)
from .projection import rotation_matrix  # noqa: F401  (perfbench/tracing.py patches it here)
from .projection import sample_direction, sample_plane
from .projection import sample_rotation  # noqa: F401  (perfbench/tracing.py patches it here)

__all__ = [
    "DEFAULT_SEED",
    "ExperimentConfig",
    "PAPER_RATES",
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


# (source_dim, projection_dim) -> a realization's (projection_dim, source_dim)
# bases: M lines or planes in one sampler call, or the identity, one 2->2 test
# for every in-plane rotation. The samplers are looked up at draw time, so
# wrappers put on this module's names take effect.
_SETUPS = {
    (2, 1): lambda gen, m: sample_direction(gen, m).vector()[:, None, :],
    (3, 2): lambda gen, m: sample_plane(gen, m).basis(),
    (2, 2): lambda gen, m: np.eye(2)[None],
}

# Config fields whose key in the dict form differs from the field name.
_KEYS = {"n": "N", "m": "M"}


def _integer(value):
    if type(value) is float and value.is_integer():
        return int(value)  # 1000.0 reads as 1000
    return value if type(value) is int else None


def _number(value):
    return float(value) if type(value) in (int, float) else None


def _test_kind(value):
    return next((kind for kind in TestKind if kind.value == value), None)


def _list_of(item):
    def read(value):
        items = tuple(map(item, value)) if type(value) is list else (None,)
        return None if None in items else items
    return read


# JSON form of each config field type: what it must be, and a reader that
# converts a JSON value or returns None when the value has the wrong type.
_JSON_TYPES = {
    "int": ("an integer", _integer),
    "float": ("a number", _number),
    "bool": ("true or false", lambda v: v if type(v) is bool else None),
    "str": ("a string", lambda v: v if type(v) is str else None),
    "tuple[float, ...]": ("a list of numbers", _list_of(_number)),
    "tuple[TestKind, ...]": ("a list of " + "/".join(k.value for k in TestKind),
                             _list_of(_test_kind)),
}


def _from_json(key: str, annotation: str, value):
    """A config value from its JSON form, checked against the field type
    ``annotation``; ``T | None`` also takes null."""
    kind = annotation.removesuffix(" | None")
    if value is None and kind != annotation:
        return None
    what, read = _JSON_TYPES[kind]
    out = read(value)
    if out is None:
        raise ValueError(f"experiment config key {key!r} must be {what}, got {value!r}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one rejection-rate study.

    ``source_dim == projection_dim == 2`` means the joint B_2 of the
    bivariate data, rather than a dimension-reducing projection. The paper
    tests M random in-plane rotations of the pair; B_2 is affine-invariant,
    so every rotation gives the same statistic, null and decision, and a
    realization runs one identity-basis test and counts it M times.
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
    ar_coefficient: float = GeneratorConfig.ar_coefficient
    n_drop: int = GeneratorConfig.n_drop
    calib_replicates: int = 500
    max_lag: int | None = None

    def __post_init__(self) -> None:
        _check_counts(self)
        if (self.source_dim, self.projection_dim) not in _SETUPS:
            raise ValueError(
                f"unsupported projection {self.source_dim}->{self.projection_dim}; "
                f"supported: {', '.join(f'{s}->{p}' for s, p in _SETUPS)}"
            )
        if not self.alphas or not all(0.0 < a < 1.0 for a in self.alphas) \
                or len({f"{a:g}" for a in self.alphas}) < len(self.alphas):
            raise ValueError("alphas must be one or more levels in (0, 1), distinct in "
                             f"their report keys f'{{alpha:g}}', got {list(self.alphas)}")
        if self.m < 1 or self.realizations < 1:
            raise ValueError("M and realizations must be positive")
        if self.calib_replicates < MIN_REPLICATES:
            raise ValueError(f"calib_replicates must be at least {MIN_REPLICATES}, "
                             f"got {self.calib_replicates}")
        resolve_max_lag(self.max_lag, self.n)  # raises for a negative max_lag
        RngStream(self.seed)  # raises for a seed outside 64 bits
        self._generator_config()  # raises for an invalid generator setting
        if self.tests is None:
            object.__setattr__(self, "tests", (
                (TestKind.COLORED_SCALAR, TestKind.MARDIA_IID)
                if self.projection_dim == 1 else (TestKind.COLORED_BIVARIATE,)
            ))
        if not self.tests or len(set(self.tests)) < len(self.tests):
            raise ValueError(f"tests must be one or more distinct test kinds, got "
                             f"{[kind.value for kind in self.tests]}")
        for kind in self.tests:
            kind.check_dim(self.projection_dim, self.n)

    def to_dict(self) -> dict:
        out = {"family": self.family.kind, "rho": self.family.rho}
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name == "alphas":
                value = list(value)
            elif f.name == "tests":
                value = [k.value for k in value]
            out[_KEYS.get(f.name, f.name)] = value
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`. Absent keys take the field defaults and
        an absent ``rho`` the family's default; unknown keys and absent
        required keys are an error."""
        if not isinstance(raw, dict):
            raise ValueError(f"experiment config must be a JSON object, got {raw!r}")
        by_key = {_KEYS.get(f.name, f.name): f for f in fields(cls)[1:]}
        unknown = set(raw) - set(by_key) - {"family", "rho"}
        if unknown:
            raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
        missing = {"family"} | {k for k, f in by_key.items() if f.default is MISSING}
        missing -= set(raw)
        if missing:
            raise ValueError(f"missing experiment config keys: {sorted(missing)}")
        kwargs = {f.name: _from_json(key, f.type, raw[key])
                  for key, f in by_key.items() if key in raw}
        family = ArchimedeanFamily.named(_from_json("family", "str", raw["family"]),
                                         _from_json("rho", "float | None", raw.get("rho")))
        return cls(family, **kwargs)

    def _generator_config(self) -> GeneratorConfig:
        """The copula generator setting of every realization."""
        return GeneratorConfig(self.family, self.source_dim, self.n,
                               ar_coefficient=self.ar_coefficient, n_drop=self.n_drop,
                               temporal_coloring=self.temporal_coloring)


def _ratios(counts: dict, total: int) -> dict:
    return {test: {a: n / total for a, n in by_alpha.items()}
            for test, by_alpha in counts.items()}


@dataclass(frozen=True)
class RejectionRateReport:
    """Rejection counts of one study. ``counts[r][test][alpha]`` is how many
    of the M projections of realization r rejected at ``alpha`` (alpha keyed
    as ``f"{alpha:g}"``); ``skipped[r]`` is how many were skipped."""

    config: ExperimentConfig
    counts: tuple[dict, ...] = field(repr=False)
    skipped: tuple[int, ...]

    @property
    def rejections(self) -> dict:
        """Counts summed over realizations."""
        return {test: {a: sum(c[test][a] for c in self.counts) for a in by_alpha}
                for test, by_alpha in self.counts[0].items()}

    @property
    def rates(self) -> dict:
        """Rejections over M times the number of realizations."""
        return _ratios(self.rejections, self.config.m * self.config.realizations)

    @property
    def skipped_total(self) -> int:
        return sum(self.skipped)

    def rate(self, kind: TestKind, alpha: float) -> float:
        """Rejection rate of ``kind`` at ``alpha``; ``ValueError`` naming the
        kinds and alphas the study ran if it did not run this pair."""
        rate = self.rates.get(kind.value, {}).get(f"{alpha:g}")
        if rate is None:
            raise ValueError(
                f"the study ran kinds {[k.value for k in self.config.tests]} at alphas "
                f"{list(self.config.alphas)}, not {kind.value!r} at {alpha:g}")
        return rate

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "rates": self.rates,
            "rejections": self.rejections,
            "skipped_total": self.skipped_total,
            "realizations": [
                {"index": r, "rates": _ratios(c, self.config.m),
                 "rejections": c, "skipped": s}
                for r, (c, s) in enumerate(zip(self.counts, self.skipped))
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _draw_bases(cfg: ExperimentConfig, gen: np.random.Generator) -> np.ndarray:
    """A realization's bases: (M, projection_dim, source_dim) from one batched
    sampler call of M scalar draws, or for 2->2 the identity, (1, 2, 2)."""
    return _SETUPS[(cfg.source_dim, cfg.projection_dim)](gen, cfg.m)


def _run_realization(cfg: ExperimentConfig, r: int, stream: RngStream):
    x = generate(cfg._generator_config(), stream.substream(_DATA, r))
    cov = _source_covariance(x, cfg.max_lag)
    bases = _draw_bases(cfg, stream.substream(_ANGLES, r).generator())

    b_data = _projected_kurtosis(bases, _fourth_moments(x.data[None]))[:, 0]
    valid = np.isfinite(b_data)

    def calibrate(surrogate):
        # one batch of source replicates serves the null of every projection
        return _replicate_moments(bases, _draw_reduced(
            surrogate, [(stream.substream(_SURROGATE, r), cfg.calib_replicates)]))

    pvalues: dict[TestKind, np.ndarray] = {}
    for kind in cfg.tests:
        mean, var, _, _ = _null_moments(kind, bases, cov, cfg.n, calibrate)
        valid &= np.isfinite(mean)
        z = (b_data - mean) / np.sqrt(var)
        # a 2->2 realization's one test counts for each of its M rotations
        pvalues[kind] = np.broadcast_to(two_sided_p_value(z), cfg.m)

    return pvalues, np.broadcast_to(valid, cfg.m)


def run_experiment(cfg: ExperimentConfig) -> RejectionRateReport:
    """Run the full protocol and count rejections per realization.

    Rates use the protocol's plain ratio rejections / M; projections whose
    covariance degenerates, on the data or on any calibration replicate, are
    skipped, counted per realization, and count as non-rejections.
    """
    stream = RngStream(cfg.seed, 0)
    counts, skipped = [], []
    # interned, so that the count dicts of every report share one key per alpha
    keys = [(sys.intern(f"{a:g}"), a) for a in cfg.alphas]
    for r in range(cfg.realizations):
        pvalues, valid = _run_realization(cfg, r, stream)
        skipped.append(int(np.sum(~valid)))
        counts.append({kind.value: {key: int(np.sum(pv[valid] < a)) for key, a in keys}
                       for kind, pv in pvalues.items()})
    return RejectionRateReport(cfg, tuple(counts), tuple(skipped))


def reproduce_tables(out_dir: str | Path, fast: bool = False,
                     seed: int = DEFAULT_SEED) -> dict[str, Path]:
    """Re-run all four reference tables, write one CSV per table plus a JSON
    report with per-realization detail, and return the written paths by name.

    Every study uses the ``ExperimentConfig`` default N (1000). The full run
    uses M=5000, 5 realizations and 500 calibration replicates; ``fast``
    switches to M=500, 3 realizations and 300 replicates for CI-scale runs.
    Identical seeds give byte-identical outputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    m, realizations, calib_replicates = (500, 3, 300) if fast else (5000, 5, 500)

    report: dict = {"seed": seed, "N": ExperimentConfig.n, "M": m,
                    "realizations": realizations, "tables": {}}
    files = {}
    for table, setup in _TABLE_SETUPS.items():
        rows = []
        report["tables"][table] = {}
        for family in (ArchimedeanFamily.gumbel(), ArchimedeanFamily.clayton()):
            cfg = ExperimentConfig(family=family, **setup, m=m,
                                   realizations=realizations, seed=seed,
                                   calib_replicates=calib_replicates)
            res = run_experiment(cfg)
            report["tables"][table][family.kind] = res.to_dict()
            for kind in cfg.tests:
                for a in cfg.alphas:
                    rate = res.rate(kind, a)
                    paper = PAPER_RATES[table][family.kind][kind.value][a]
                    rows.append((family.kind, kind.value, a, rate, paper))
        path = out / f"{table}.csv"
        with open(path, "w") as fh:
            fh.write("copula,test,alpha,rate,paper_rate,abs_diff\n")
            for fam_name, test, a, rate, paper in rows:
                fh.write(f"{fam_name},{test},{a:g},{rate:.4f},{paper:.4f},"
                         f"{abs(rate - paper):.4f}\n")
        files[table] = path

    files["report"] = out / "report.json"
    files["report"].write_text(json.dumps(report, sort_keys=True, indent=2))
    return files
