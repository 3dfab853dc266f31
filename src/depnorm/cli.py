"""Command line interface.

Subcommands: generate (copula test data), test (one normality test),
calibrate (standalone null calibration), experiment (rejection-rate study
from a JSON config), reproduce-tables (all four reference tables).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .calibrate import CalibrationBudget, GaussianSurrogate, calibrate_null
from .copula import ArchimedeanFamily, GeneratorConfig, generate
from .core import (
    CalibrationError,
    RngStream,
    load_sample,
    save_sample,
)
from .harness import DEFAULT_SEED, ExperimentConfig, reproduce_tables, run_experiment
from .kurtosis import TestKind, _source_covariance, run_test


_MAX_LAG_HELP = ("lags of the covariance sequence the colored nulls use "
                 "(default N-1; larger values are clamped to N-1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="depnorm",
                                     description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate copula-coupled test data")
    g.add_argument("--family", choices=["gumbel", "clayton"], required=True)
    g.add_argument("--rho", type=float, default=None,
                   help=f"copula parameter (default {ArchimedeanFamily.gumbel().rho:g} "
                        f"for gumbel, {ArchimedeanFamily.clayton().rho:g} for clayton)")
    g.add_argument("--dim", type=int, default=2, help="number of variables p")
    g.add_argument("--len", type=int, default=1000, dest="length",
                   help="series length N")
    g.add_argument("--color", action=argparse.BooleanOptionalAction,
                   default=GeneratorConfig.temporal_coloring,
                   help="AR(1)-color the marginals in time")
    g.add_argument("--ar", type=float, default=GeneratorConfig.ar_coefficient,
                   help="AR(1) coefficient")
    g.add_argument("--drop", type=int, default=GeneratorConfig.n_drop,
                   help="burn-in length")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True,
                   help="output path (.csv for CSV, anything else binary)")

    t = sub.add_parser("test", help="run a normality test on a sample file")
    t.add_argument("--in", dest="input", required=True)
    t.add_argument("--kind", choices=[k.value for k in TestKind], default="iid")
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--max-lag", type=int, default=None, help=_MAX_LAG_HELP)
    t.add_argument("--calib-reps", type=int, default=CalibrationBudget.replicates)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--json", action="store_true", help="emit the report as JSON")

    c = sub.add_parser("calibrate", help="calibrate the kurtosis null for a sample")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--max-lag", type=int, default=None, help=_MAX_LAG_HELP)
    c.add_argument("--reps", type=int, default=CalibrationBudget.replicates)
    c.add_argument("--seed", type=int, default=0)

    e = sub.add_parser("experiment", help="run a rejection-rate study")
    e.add_argument("--config", required=True, help="JSON file of config fields")
    e.add_argument("--out", default=None, help="write the JSON report here")

    r = sub.add_parser("reproduce-tables", help="re-run the reference tables")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--fast", action="store_true",
                   help="CI scale: M=500, 3 realizations")
    r.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(ArchimedeanFamily.named(args.family, args.rho), args.dim,
                          args.length, ar_coefficient=args.ar, n_drop=args.drop,
                          temporal_coloring=args.color)
    save_sample(generate(cfg, RngStream(args.seed, 0)), args.out)
    return 0


def _cmd_test(args) -> int:
    sample = load_sample(args.input)
    kind = TestKind(args.kind)
    # only colored2 draws, so only it checks the replicate count
    budget = (CalibrationBudget(replicates=args.calib_reps, seed=RngStream(args.seed, 0))
              if kind == TestKind.COLORED_BIVARIATE else None)
    report = run_test(sample, kind, args.alpha, max_lag=args.max_lag, budget=budget)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        verdict = "reject normality" if report.reject else "no rejection"
        print(f"B_{sample.p} = {report.statistic:.6f}  z = {report.z:+.4f}  "
              f"p = {report.p_value:.6g}  ({verdict} at alpha = {report.alpha:g})")
    return 0


def _cmd_calibrate(args) -> int:
    sample = load_sample(args.input)
    budget = CalibrationBudget(replicates=args.reps, seed=RngStream(args.seed, 0))
    surrogate = GaussianSurrogate(_source_covariance(sample, args.max_lag), sample.n)
    result = calibrate_null(surrogate, budget=budget)
    print(json.dumps(result.to_dict(), sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    raw = json.loads(Path(args.config).read_text())
    cfg = ExperimentConfig.from_dict(raw)
    report = run_experiment(cfg)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


_TABLE_WIDTHS = (9, 9, 6, 8, 11, 9)


def _cmd_reproduce_tables(args) -> int:
    for name, path in reproduce_tables(args.out, fast=args.fast, seed=args.seed).items():
        print(f"{name}: {path}")
        if name == "report":
            continue
        for line in Path(path).read_text().splitlines():
            cells = zip(line.split(","), _TABLE_WIDTHS)
            print("  " + "  ".join(c.ljust(w) for c, w in cells).rstrip())
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "test": _cmd_test,
    "calibrate": _cmd_calibrate,
    "experiment": _cmd_experiment,
    "reproduce-tables": _cmd_reproduce_tables,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CalibrationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
