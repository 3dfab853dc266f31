"""The benchmark's span tracer patches library functions by module
attribute; every target it names must exist, or ``--trace 1`` fails."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SOURCES = Path(__file__).resolve().parents[1] / "src" / "depnorm"

# An import line kept only so the tracer can patch the name in that module.
_TRACER_ONLY = re.compile(
    r"^\s*(?:from \S+ import )?(\w+),?\s*# noqa: F401\s+\(perfbench/tracing\.py patches it here\)",
    re.MULTILINE)


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("module, attr, layer, span", _tracing().FUNCTION_SPANS)
def test_function_span_target_resolves(module, attr, layer, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr, layer, span", _tracing().METHOD_SPANS)
def test_method_span_target_resolves(module, cls, attr, layer, span):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(owner.__dict__[attr])


def test_tracer_only_imports_name_a_span_target():
    # a name imported only for the tracer must not outlive its span
    targets = {(module, attr) for module, attr, _, _ in _tracing().FUNCTION_SPANS}
    imports = [(f"depnorm.{path.stem}", name) for path in sorted(SOURCES.glob("*.py"))
               for name in _TRACER_ONLY.findall(path.read_text())]
    assert imports
    assert [imp for imp in imports if imp not in targets] == []


def test_tracer_installs_and_restores():
    tracer = _tracing().Tracer()
    kurtosis = importlib.import_module("depnorm.kurtosis")
    original = kurtosis.run_test
    with tracer.installed():
        assert kurtosis.run_test is not original
    assert kurtosis.run_test is original


@pytest.mark.parametrize("source_dim, projection_dim", [(2, 1), (3, 2), (2, 2)])
def test_tracer_sees_every_projection_draw(monkeypatch, source_dim, projection_dim):
    from depnorm import ArchimedeanFamily, ExperimentConfig, run_experiment

    # the harness draws its replicates through calibrate._draw_reduced, which
    # the tracer does not span yet, so count its calls here
    draw_reduced = importlib.import_module("depnorm.calibrate")._draw_reduced
    counts = []

    def counting(surrogate, segments):
        counts.append([count for _, count in segments])
        return draw_reduced(surrogate, segments)

    monkeypatch.setattr("depnorm.harness._draw_reduced", counting)
    cfg = ExperimentConfig(ArchimedeanFamily.gumbel(), source_dim, projection_dim,
                           True, n=200, m=3, realizations=2, calib_replicates=100)
    tracer = _tracing().Tracer()
    with tracer.installed():
        run_experiment(cfg)
    assert tracer.spans[("projection", "draw")][0] == cfg.m * cfg.realizations
    # one covariance sequence per realization serves every projection
    assert tracer.spans[("core", "cross_cov")][0] == cfg.realizations
    if projection_dim == 2:
        # and one replicate batch per realization serves every projection's null
        assert counts == [[cfg.calib_replicates]] * cfg.realizations


def test_tracer_sees_the_calibration_of_one_test(monkeypatch):
    from depnorm import CalibrationBudget, RngStream, TestKind, TimeSeriesSample

    # calibrate_null draws its replicates through calibrate._draw_reduced,
    # which the tracer does not span yet, so count its calls here
    draw_reduced = importlib.import_module("depnorm.calibrate")._draw_reduced
    counts = []

    def counting(surrogate, segments):
        counts.append(sum(count for _, count in segments))
        return draw_reduced(surrogate, segments)

    monkeypatch.setattr("depnorm.calibrate._draw_reduced", counting)
    x = TimeSeriesSample(RngStream(61).generator().standard_normal((2, 200)))
    budget = CalibrationBudget(replicates=300, seed=RngStream(67))
    tracer = _tracing().Tracer()
    with tracer.installed():
        kurtosis = importlib.import_module("depnorm.kurtosis")
        kurtosis.run_test(x, TestKind.COLORED_BIVARIATE, 0.05, budget=budget)
    assert tracer.spans[("calibrate", "null_stat")][0] == 1
    assert counts == [budget.replicates]
