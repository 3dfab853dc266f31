"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The whole module takes a few minutes; the heavy fixtures (the
desk-scale table runs and the fast table reproduction) are shared across
criteria.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import kendalltau, kstest

import depnorm as dn
from depnorm import (
    ArchimedeanFamily,
    CalibrationBudget,
    CovarianceSequence,
    ExperimentConfig,
    GeneratorConfig,
    RngStream,
    TestKind,
    TimeSeriesSample,
)
from depnorm.copula import ar1_filter
from depnorm.harness import DEFAULT_SEED

GUMBEL = ArchimedeanFamily.gumbel()
CLAYTON = ArchimedeanFamily.clayton()


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    return ok


@pytest.fixture(scope="module")
def iid_replicates():
    """2000 i.i.d. bivariate Gaussian samples run through the public test."""
    gen = RngStream(DEFAULT_SEED, 100).generator()
    t0 = time.time()
    reports = [
        dn.run_test(TimeSeriesSample(gen.standard_normal((2, 1000))),
                    TestKind.MARDIA_IID, 0.05)
        for _ in range(2000)
    ]
    return reports, time.time() - t0


@pytest.fixture(scope="module")
def table_runs():
    """Desk-scale reruns of the four table configurations (M=1000, 5 reals)."""
    runs = {}
    timing = {}
    for name, (src, proj, colored) in {
        "t1": (2, 1, True), "t2": (2, 1, False), "t3": (2, 2, True),
    }.items():
        for fam in (GUMBEL, CLAYTON):
            cfg = ExperimentConfig(fam, src, proj, colored, n=1000, m=1000,
                                   realizations=5, seed=DEFAULT_SEED,
                                   calib_replicates=500)
            t0 = time.time()
            runs[(name, fam.kind)] = dn.run_experiment(cfg)
            timing[(name, fam.kind)] = time.time() - t0
    return runs, timing


def test_criterion_1_size_calibration(iid_replicates):
    reports, elapsed = iid_replicates
    rate = np.mean([r.reject for r in reports])
    ok = 0.035 <= rate <= 0.065 and elapsed < 30.0
    assert _verdict(1, "size calibration", ok,
                    f"rate={rate:.4f} in [0.035, 0.065], {elapsed:.1f}s < 30s")


def test_criterion_2_theorem_moments(iid_replicates):
    reports, _ = iid_replicates
    values = np.array([r.statistic for r in reports])
    target_mean = 8 * 999 / 1001
    se = values.std(ddof=1) / math.sqrt(values.size)
    mean_ok = abs(values.mean() - target_mean) < 3 * se
    var = values.var(ddof=1)
    var_ok = 0.8 * 0.064 <= var <= 1.25 * 0.064
    ok = mean_ok and var_ok
    assert _verdict(2, "theorem-1 moments", ok,
                    f"mean={values.mean():.4f} vs {target_mean:.4f} (3SE={3*se:.4f}), "
                    f"var={var:.5f} in [{0.8*0.064:.4f}, {1.25*0.064:.4f}]")


def test_criterion_3_closed_form_vs_oracle():
    n = 1000
    closed = dn.colored_scalar_null_moments(
        CovarianceSequence((0.8 ** np.arange(n))[:, None, None]), n)
    surrogate = dn.GaussianSurrogate(
        CovarianceSequence((0.8 ** np.arange(201))[:, None, None]), n)
    res = dn.calibrate_null(
        surrogate, budget=CalibrationBudget(replicates=2000, seed=RngStream(0)))
    dm = res.mean - closed.mean
    dv = res.variance - closed.variance
    mean_ok = abs(dm) < 3 * res.se_mean
    var_ok = abs(dv) < 3 * res.se_variance
    ok = mean_ok and var_ok
    assert _verdict(3, "closed form vs calibration", ok,
                    f"mean gap {dm:+.5f} vs 3SE={3*res.se_mean:.5f}; "
                    f"var gap {dv:+.5f} vs 3SE={3*res.se_variance:.5f}")


def test_criterion_4_table3_desk_scale(table_runs):
    runs, timing = table_runs
    g = runs[("t3", "gumbel")].rate(TestKind.COLORED_BIVARIATE, 0.05)
    c = runs[("t3", "clayton")].rate(TestKind.COLORED_BIVARIATE, 0.05)
    elapsed = timing[("t3", "gumbel")] + timing[("t3", "clayton")]
    ok = g >= 0.85 and c >= 0.90 and elapsed < 600.0
    assert _verdict(4, "table-3 power bands", ok,
                    f"gumbel={g:.4f} >= 0.85, clayton={c:.4f} >= 0.90, "
                    f"{elapsed:.0f}s < 600s")


def test_criterion_5_table1_desk_scale(table_runs):
    runs, _ = table_runs
    g = runs[("t1", "gumbel")].rate(TestKind.COLORED_SCALAR, 0.05)
    c = runs[("t1", "clayton")].rate(TestKind.COLORED_SCALAR, 0.05)
    gumbel_ok = g <= 0.35
    clayton_ok = 0.45 <= c <= 0.85
    ok = gumbel_ok and clayton_ok
    assert _verdict(5, "table-1 scalar bands", ok,
                    f"gumbel={g:.4f} <= 0.35 ({'ok' if gumbel_ok else 'out'}); "
                    f"clayton={c:.4f} in [0.45, 0.85] ({'ok' if clayton_ok else 'out'})")


def test_criterion_6_power_gap(table_runs):
    runs, _ = table_runs
    g2d = runs[("t3", "gumbel")].rate(TestKind.COLORED_BIVARIATE, 0.05)
    g1d = runs[("t1", "gumbel")].rate(TestKind.COLORED_SCALAR, 0.05)
    gap = g2d - g1d
    ok = gap >= 0.5
    assert _verdict(6, "2-D vs 1-D power gap", ok,
                    f"gap={gap:.4f} = {g2d:.4f} - {g1d:.4f} >= 0.5")


def test_criterion_7_coloring_degradation(table_runs):
    runs, _ = table_runs
    details = []
    ok = True
    for fam in ("gumbel", "clayton"):
        colored = runs[("t1", fam)].rate(TestKind.COLORED_SCALAR, 0.05)
        plain = runs[("t2", fam)].rate(TestKind.COLORED_SCALAR, 0.05)
        ok &= colored <= plain
        details.append(f"{fam}: {colored:.4f} <= {plain:.4f}")
    assert _verdict(7, "coloring degrades 1-D power", ok, "; ".join(details))


def test_criterion_8_copula_sampler_validation():
    n_tau = 10_000
    checks = []
    ok = True
    for fam, target in ((GUMBEL, 0.8), (CLAYTON, 0.5)):
        x = dn.generate(GeneratorConfig(fam, 2, n_tau, temporal_coloring=False),
                        RngStream(73))
        tau = kendalltau(x.data[0], x.data[1]).statistic
        ok &= abs(tau - target) < 0.02
        checks.append(f"tau[{fam.kind}]={tau:.4f} vs {target}")
    ks_crit = 1.63 / math.sqrt(n_tau)
    worst = 0.0
    for fam in (GUMBEL, CLAYTON):
        for coloring in (False, True):
            x = dn.generate(GeneratorConfig(fam, 3, n_tau, temporal_coloring=coloring),
                            RngStream(79))
            worst = max(worst, max(kstest(x.data[i], "norm").statistic
                                   for i in range(3)))
    ok &= worst < ks_crit
    checks.append(f"worst KS={worst:.4f} < {ks_crit:.4f}")
    # AR(1) coloring stage (the filtered, rescaled normals the copula step
    # consumes): population autocorrelation 0.8^tau. The post-copula
    # marginals keep only an attenuated fraction of it because the frailty
    # is independent across time; see test_copula for the measured values.
    n_acf = 100_000
    eta = RngStream(89).generator().standard_normal(n_acf + 1000)
    stage = ar1_filter(eta, 0.8, 1000) * math.sqrt(1 - 0.64)
    stage = stage - stage.mean()
    denom = np.dot(stage, stage)
    acf = np.array([np.dot(stage[:-t], stage[t:]) / denom for t in range(1, 6)])
    acf_ok = np.all(np.abs(acf - 0.8 ** np.arange(1, 6)) < 0.03)
    ok &= acf_ok
    checks.append(f"coloring-stage acf max err={np.max(np.abs(acf - 0.8 ** np.arange(1, 6))):.4f}")
    assert _verdict(8, "copula sampler validation", ok, "; ".join(checks))


def test_criterion_9_affine_invariance():
    gen = RngStream(DEFAULT_SEED, 200).generator()
    x = dn.generate(GeneratorConfig(GUMBEL, 2, 1000), RngStream(91))
    base = dn.mardia_kurtosis(x).value
    worst_rel = 0.0
    for _ in range(100):
        a = gen.standard_normal((2, 2)) + 2 * np.eye(2)
        if abs(np.linalg.det(a)) < 1e-3:
            continue
        val = dn.mardia_kurtosis(TimeSeriesSample(a @ x.data)).value
        worst_rel = max(worst_rel, abs(val - base) / base)
    stat_ok = worst_rel < 1e-8

    base_report = dn.run_test(x, TestKind.COLORED_BIVARIATE, 0.05,
                              budget=CalibrationBudget(replicates=500,
                                                       seed=RngStream(7, 0)))
    flips = 0
    for i in range(100):
        rotated = TimeSeriesSample(dn.rotation_matrix(gen.uniform(0, np.pi)) @ x.data)
        rep = dn.run_test(rotated, TestKind.COLORED_BIVARIATE, 0.05,
                          budget=CalibrationBudget(replicates=500,
                                                   seed=RngStream(7, i + 1)))
        flips += rep.reject != base_report.reject
    ok = stat_ok and flips == 0
    assert _verdict(9, "affine invariance", ok,
                    f"max rel drift {worst_rel:.2e} < 1e-8; "
                    f"{flips}/100 rotation decision flips")


def test_criterion_10_deterministic_reproduction(tmp_path, fast_tables):
    # a second run in the same session against the shared one
    t0 = time.time()
    dn.reproduce_tables(tmp_path, fast=True, seed=DEFAULT_SEED)
    same = all(path.read_bytes() == (tmp_path / path.name).read_bytes()
               for path in fast_tables.values())
    assert _verdict(10, "byte-identical fast reproduction", same,
                    f"{len(fast_tables)} files compared, {time.time()-t0:.0f}s for the second run")
