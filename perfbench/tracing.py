"""Span tracing from outside the library.

Spans wrap depnorm's public functions at the names their callers look them
up by (``depnorm.harness.generate`` is the copula generator as the harness
calls it), so nothing under ``src/`` changes. Each span is charged to the
layer that defines the function. A span's self time is its duration minus
the durations of the spans it directly encloses; private kernels such as
``_mardia_values_masked`` or ``_autocov_rows`` therefore land in the self
time of the public function that calls them.

Spans are aggregated as they close (calls, total and self seconds per span
name) rather than stored one by one: the 1-D study opens a few thousand
projection spans per realization, and the aggregate is all the report uses.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer, span). The module is where the caller looks the
# name up at call time, which is where the wrapper must go.
FUNCTION_SPANS = [
    ("depnorm.harness", "run_experiment", "harness", "run_experiment"),
    ("depnorm.harness", "generate", "copula", "generate"),
    ("depnorm.harness", "center", "core", "center"),
    ("depnorm.harness", "sample_cross_covariance", "core", "cross_cov"),
    ("depnorm.harness", "simulate_gaussian_batch", "calibrate", "draw"),
    ("depnorm.harness", "iid_null_moments", "kurtosis", "moments"),
    ("depnorm.harness", "two_sided_p_value", "kurtosis", "p_value"),
    ("depnorm.harness", "sample_direction", "projection", "draw"),
    ("depnorm.harness", "sample_plane", "projection", "draw"),
    ("depnorm.harness", "sample_rotation", "projection", "draw"),
    ("depnorm.harness", "rotation_matrix", "projection", "basis"),
    ("depnorm.kurtosis", "run_test", "kurtosis", "run_test"),
    ("depnorm.kurtosis", "mardia_kurtosis", "kurtosis", "statistic"),
    ("depnorm.kurtosis", "center", "core", "center"),
    ("depnorm.kurtosis", "sample_covariance", "core", "covariance"),
    ("depnorm.kurtosis", "sample_cross_covariance", "core", "cross_cov"),
    ("depnorm.kurtosis", "iid_null_moments", "kurtosis", "moments"),
    ("depnorm.kurtosis", "colored_scalar_null_moments", "kurtosis", "moments"),
    ("depnorm.kurtosis", "colored_bivariate_null_moments", "kurtosis", "moments"),
    ("depnorm.kurtosis", "two_sided_p_value", "kurtosis", "p_value"),
    ("depnorm.calibrate", "simulate_gaussian_batch", "calibrate", "draw"),
    ("depnorm.calibrate", "calibrate_null", "calibrate", "null_stat"),
]

# (module, class, method, layer, span). Methods are patched on the class, so
# every caller sees them whatever name it imported the class under.
METHOD_SPANS = [
    ("depnorm.calibrate", "GaussianSurrogate", "__init__", "calibrate", "surrogate_build"),
    ("depnorm.projection", "Direction1D", "vector", "projection", "basis"),
    ("depnorm.projection", "Plane2D", "basis", "projection", "basis"),
]

LAYERS = ("harness", "calibrate", "kurtosis", "core", "copula", "projection")


class Tracer:
    """Aggregates spans by (layer, span) while its patches are installed."""

    def __init__(self) -> None:
        # (layer, span) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.replicates_drawn = 0
        self._stack: list[float] = []  # per open span: time of its closed children

    def _wrap(self, fn, layer: str, span: str):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span
            if span == "run_test":
                kind = args[1] if len(args) > 1 else kwargs["kind"]
                name = f"run_test.{kind.value}"
            elif span == "draw" and layer == "calibrate":
                self.replicates_drawn += args[2] if len(args) > 2 else kwargs["count"]
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dur
                rec = spans[(layer, name)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - children

        return traced

    @contextmanager
    def installed(self):
        """Install every span wrapper; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, layer, span in FUNCTION_SPANS:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, layer, span))
            for mod_name, cls_name, attr, layer, span in METHOD_SPANS:
                cls = getattr(importlib.import_module(mod_name), cls_name)
                orig = cls.__dict__[attr]
                saved.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(orig, layer, span))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def total(self, layer: str, span: str | None = None, field: int = 1) -> float:
        """Sum one field (0 calls, 1 total s, 2 self s) over a layer's spans,
        or over the spans of that layer whose name starts with ``span``."""
        return sum(rec[field] for (lay, name), rec in self.spans.items()
                   if lay == layer and (span is None or name.startswith(span)))

    def self_s(self, layer: str) -> float:
        return self.total(layer, field=2)
