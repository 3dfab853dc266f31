"""Correctness checks on the outputs the benchmark measures.

The single-test checks recompute every statistic and every closed-form null
moment with plain references that share no code with the library: B_p as an
explicit sum over time indices, and the colored-scalar lag sums as an
explicit loop over lags. They hold for any seed. The study checks are the
invariants every rejection-rate report satisfies, plus the exact rejection
counts recorded for the default seed in ``expected_seed16.json``.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9


def close(a: float, b: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(a) and math.isfinite(b) and \
        abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), abs_tol)


def _centered_rows(data: np.ndarray) -> list[list[float]]:
    out = []
    for row in data:
        mean = math.fsum(row) / len(row)
        out.append([float(v) - mean for v in row])
    return out


def reference_kurtosis(data: np.ndarray) -> float:
    """B_p = (1/N) sum_n (x(n)' S^-1 x(n))^2 for p in {1, 2}, summed over time."""
    xc = _centered_rows(data)
    p, n = len(xc), len(xc[0])
    s = [[math.fsum(a * b for a, b in zip(xc[i], xc[j])) / n for j in range(p)]
         for i in range(p)]
    if p == 1:
        inv = [[1.0 / s[0][0]]]
    elif p == 2:
        det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
        inv = [[s[1][1] / det, -s[0][1] / det], [-s[1][0] / det, s[0][0] / det]]
    else:
        raise ValueError(f"reference covers p <= 2, got p={p}")
    total = []
    for t in range(n):
        x = [xc[i][t] for i in range(p)]
        q = sum(x[i] * inv[i][j] * x[j] for i in range(p) for j in range(p))
        total.append(q * q)
    return math.fsum(total) / n


def reference_iid_moments(p: int, n: int) -> tuple[float, float]:
    return p * (p + 2) * (n - 1) / (n + 1), 8.0 * p * (p + 2) / n


def reference_colored1_moments(y: np.ndarray) -> tuple[float, float]:
    """Closed-form null mean and variance of B_1 with every lag, the lag
    sums (1/N) sum_k y(k) y(k+tau) taken one lag at a time."""
    n = y.size
    yc = y - math.fsum(y) / n
    s0 = math.fsum(yc * yc) / n
    first, second = [], []
    for tau in range(1, n):
        r2 = (float(np.dot(yc[: n - tau], yc[tau:])) / n / s0) ** 2
        first.append((n - tau) * r2)
        second.append((n - tau) * r2 * r2)
    mean = 3.0 - 6.0 / n - (12.0 / n**2) * math.fsum(first)
    var = (24.0 / n) * (1.0 + (2.0 / n) * math.fsum(second))
    return mean, var


def check_test_report(rep, data: np.ndarray, kind: str, alpha: float) -> list[str]:
    """Problems with one run_test report on the (p, N) sample ``data``."""
    problems = []
    p, n = data.shape
    stat = reference_kurtosis(data)
    if not close(rep.statistic, stat):
        problems.append(f"{kind}: statistic {rep.statistic!r} != reference {stat!r}")
    mean, var = rep.null_moments.mean, rep.null_moments.variance
    if kind == "iid":
        ref = reference_iid_moments(p, n)
    elif kind == "colored1":
        ref = reference_colored1_moments(data[0])
    else:
        # Calibrated by Monte Carlo: no closed form to compare against, but
        # the null mean obeys the same lower bound p as the statistic.
        ref = None
        if not (math.isfinite(mean) and mean > p and math.isfinite(var) and var > 0):
            problems.append(f"{kind}: null moments ({mean!r}, {var!r}) out of range")
    if ref is not None and not (close(mean, ref[0]) and close(var, ref[1])):
        problems.append(f"{kind}: null moments ({mean!r}, {var!r}) != reference {ref!r}")
    z = (rep.statistic - mean) / math.sqrt(var) if var > 0 else math.nan
    if not close(rep.z, z, abs_tol=1e-12):
        problems.append(f"{kind}: z {rep.z!r} != {z!r}")
    pv = math.erfc(abs(rep.z) / math.sqrt(2.0))
    if not (0.0 <= rep.p_value <= 1.0 and close(rep.p_value, pv, abs_tol=1e-15)):
        problems.append(f"{kind}: p-value {rep.p_value!r} != erfc(|z|/sqrt 2) = {pv!r}")
    if rep.reject != (rep.p_value < alpha):
        problems.append(f"{kind}: decision {rep.reject} but p={rep.p_value!r}, alpha={alpha}")
    return problems


def check_study_report(report, cfg, expected: dict | None) -> list[str]:
    """Invariants of one rejection-rate report, plus exact counts when the
    default seed recorded them (``expected`` holds rejections and skipped)."""
    problems = []
    m, skipped = cfg.m, report.skipped_total
    if not 0 <= skipped <= m:
        problems.append(f"skipped {skipped} outside [0, M={m}]")
    alphas = sorted(cfg.alphas)
    for kind in cfg.tests:
        counts = [report.rejections[kind.value][f"{a:g}"] for a in alphas]
        if any(not 0 <= c <= m - skipped for c in counts):
            problems.append(f"{kind.value}: counts {counts} outside [0, M - skipped]")
        if counts != sorted(counts):
            problems.append(f"{kind.value}: counts {counts} not monotone in alpha")
        for a, c in zip(alphas, counts):
            rate = report.rates[kind.value][f"{a:g}"]
            if not (math.isfinite(rate) and 0.0 <= rate <= 1.0 and rate == c / m):
                problems.append(f"{kind.value}: rate {rate!r} != {c}/{m}")
    if expected is not None:
        got = {"rejections": report.rejections, "skipped": skipped}
        if got != expected:
            problems.append(f"counts {got} differ from the recorded {expected}")
    return problems
