"""The benchmark's workloads, all at N = 1000.

Each workload builds its inputs from the workload seed, warms up, and then
offers numbered operations ``op(j)``; the same ``j`` always gives the same
inputs, so a traced pass can repeat exactly the operations an untraced pass
ran. Operations come in rounds of ``round_size`` and a run only stops at a
round boundary, so every study setup is measured equally often.

The library is called through module attributes (``harness.run_experiment``,
``kurtosis.run_test``) so that the span wrappers in ``tracing`` see the calls.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from depnorm import (
    ArchimedeanFamily,
    CalibrationBudget,
    ExperimentConfig,
    GeneratorConfig,
    RngStream,
    TestKind,
    TimeSeriesSample,
    ar1_filter,
    generate,
    harness,
    kurtosis,
)

import checks

N = 1000
ALPHA = 0.05
DEFAULT_SEED = 16
EXPECTED_FILE = Path(__file__).with_name(f"expected_seed{DEFAULT_SEED}.json")

FAMILIES = {"gumbel": ArchimedeanFamily.gumbel(5.0),
            "clayton": ArchimedeanFamily.clayton(2.0)}

# (source_dim, projection_dim, temporal_coloring) of the reference tables.
TABLES = {
    "table1": (2, 1, True),
    "table2": (2, 1, False),
    "table3": (2, 2, True),
    "table4": (3, 2, True),
}


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value (the 11th largest); the median when there are fewer than 21."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < len(ordered) // 2:
        return 50.0, statistics.median(ordered)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


class StudyWorkload:
    """Closed loop of ``run_experiment`` calls, one realization each,
    cycling over the setups of some reference tables for both copulas.

    Round ``r`` runs every setup once with experiment seed derived from the
    workload seed and ``r``. Counts for the default seed are checked
    against the ones the seed commit produced.
    """

    def __init__(self, tables: tuple[str, ...], m: int, calib_replicates: int, seed: int):
        self.seed = seed
        self.setups = []
        for table in tables:
            source_dim, projection_dim, coloring = TABLES[table]
            for fam_name, family in FAMILIES.items():
                cfg = ExperimentConfig(family=family, source_dim=source_dim,
                                       projection_dim=projection_dim,
                                       temporal_coloring=coloring, n=N, m=m,
                                       realizations=1,
                                       calib_replicates=calib_replicates)
                self.setups.append((f"{table}-{fam_name}", cfg))
        self.round_size = len(self.setups)
        self.expected: dict = {}  # setup label -> recorded counts per round

    def config(self, j: int) -> tuple[str, ExperimentConfig]:
        label, cfg = self.setups[j % self.round_size]
        seed = (self.seed * 1_000_003 + j // self.round_size) % 2**64
        return label, dataclasses.replace(cfg, seed=seed)

    def warm_up(self) -> None:
        for _, cfg in self.setups:
            harness.run_experiment(dataclasses.replace(cfg, m=2, seed=2**63))

    def op(self, j: int):
        return harness.run_experiment(self.config(j)[1])

    def tests_per_op(self, j: int) -> int:
        cfg = self.config(j)[1]
        return cfg.m * len(cfg.tests)

    def tally(self, j: int, report) -> dict:
        label, cfg = self.config(j)
        rounds = self.expected.get(label, [])
        r = j // self.round_size
        problems = checks.check_study_report(report, cfg, rounds[r] if r < len(rounds) else None)
        tests = self.tests_per_op(j)
        return {"tests": tests,
                "failed": tests if problems else report.skipped_total * len(cfg.tests),
                "problems": [f"{label} round {r}: {p}" for p in problems],
                "projections": cfg.m,
                "valid_projections": cfg.m - report.skipped_total}

    def summary(self, records) -> dict:
        out = {}
        for label, _ in self.setups:
            walls = [dt for j, dt, _ in records if self.config(j)[0] == label]
            out[f"realization_s_p50.{label}"] = (statistics.median(walls), "s", len(walls))
        return out


class SingleTestWorkload:
    """Closed loop of ``run_test`` calls, mirroring ``depnorm test``: each
    operation takes the next bivariate sample of a pool built at set-up and
    runs ``iid`` on it, ``colored1`` on each channel and ``colored2`` at the
    default 2000 calibration replicates.

    The pool cycles Gumbel(5) and Clayton(2) copula samples with a Gaussian
    AR(1) sample whose channels are mixed, so the null is true for a third
    of the calls.
    """

    POOL = 48
    AR = 0.8
    MIX = np.array([[1.0, 0.0], [0.5, 1.0]])
    round_size = 1

    def __init__(self, seed: int):
        self.seed = seed
        root = RngStream(seed, 0)
        self.samples = [self._sample(k, root.substream(k)) for k in range(self.POOL)]
        self._warm = self._sample(0, root.substream(self.POOL))
        self._calib = RngStream(seed, 1)

    def _sample(self, k: int, stream: RngStream) -> TimeSeriesSample:
        kind = ("gumbel", "clayton", "gaussian")[k % 3]
        if kind != "gaussian":
            return generate(GeneratorConfig(FAMILIES[kind], 2, N), stream)
        eta = stream.generator().standard_normal((2, N + 1000))
        y = ar1_filter(eta, self.AR, 1000) * math.sqrt(1.0 - self.AR**2)
        return TimeSeriesSample(self.MIX @ y)

    def _battery(self, x: TimeSeriesSample, budget: CalibrationBudget) -> list:
        calls = [("iid", x),
                 ("colored1", TimeSeriesSample(x.data[:1])),
                 ("colored1", TimeSeriesSample(x.data[1:])),
                 ("colored2", x)]
        out = []
        for kind, sample in calls:
            t0 = perf_counter()
            rep = kurtosis.run_test(sample, TestKind(kind), ALPHA,
                                    budget=budget if kind == "colored2" else None)
            out.append((kind, sample.data, rep, perf_counter() - t0))
        return out

    def _budget(self, j: int) -> CalibrationBudget:
        return CalibrationBudget(replicates=2000, seed=self._calib.substream(j))

    def warm_up(self) -> None:
        self._battery(self._warm, self._budget(2**63))

    def op(self, j: int) -> list:
        return self._battery(self.samples[j % self.POOL], self._budget(j))

    def tests_per_op(self, j: int) -> int:
        return 4

    def tally(self, j: int, calls) -> dict:
        problems, failed = [], 0
        for kind, data, rep, _ in calls:
            found = checks.check_test_report(rep, data, kind, ALPHA)
            failed += bool(found)
            problems += [f"sample {j % self.POOL}: {p}" for p in found]
        return {"tests": len(calls), "failed": failed, "problems": problems,
                "projections": 0, "valid_projections": 0}

    def summary(self, records) -> dict:
        c2 = [dt for *_, calls in records for kind, *_, dt in calls if kind == "colored2"]
        closed = [dt for *_, calls in records for kind, *_, dt in calls if kind != "colored2"]
        pct, tail = tail_percentile(c2)
        return {
            "test_latency_p50_s": (statistics.median(c2), "s", len(c2)),
            f"test_latency_tail_s.p{pct:.0f}": (tail, "s", len(c2)),
            "closed_form_tests_per_s": (len(closed) / math.fsum(closed), "1/s", len(closed)),
        }


STUDIES = {
    "study-2d": dict(tables=("table3", "table4"), m=32, calib_replicates=500),
    "study-1d": dict(tables=("table1", "table2"), m=2000, calib_replicates=500),
}


def make(name: str, seed: int):
    if name == "single-test":
        return SingleTestWorkload(seed)
    w = StudyWorkload(seed=seed, **STUDIES[name])
    if seed == DEFAULT_SEED:
        w.expected = json.loads(EXPECTED_FILE.read_text())[name]
    return w
