#!/usr/bin/env python3
"""depnorm benchmark: rejection-rate studies and single tests at N = 1000.

    python3 perfbench/run.py --workload study-2d --seed 16 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): ``study-2d``, ``study-1d``,
``single-test``; ``all`` (the default) runs each in turn. Every run starts
fresh processes that import depnorm from this checkout's ``src/`` and
nothing else: ``SETUP_REPEATS`` of them only set up, to time set-up, and
one more sets up and then measures. ``--trace 0`` measures with tracing off
and reports the end-to-end metrics; ``--trace 1`` runs every round of
operations twice, untraced and then with spans around every layer, and
reports the per-layer metrics, the tracing overhead and the coverage.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only if a result was printed.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up is timed from here, before any heavy import

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("study-2d", "study-1d", "single-test")
SETUP_REPEATS = 2

END_TO_END = ("setup_s", "proj_tests_per_s", "realization_s_p50", "peak_rss_mb")


# --------------------------------------------------------------------------
# Parent: starts the workload processes and prints the result.
# --------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _run_child(phase: str, args, workload: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", phase,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    # subprocess.run kills and reaps the child if it overruns.
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=60 + 3 * args.seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} process for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git, so a
    checkout that is not a repository never picks up an enclosing one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {value:>14.6g} {unit:<9} {note}".rstrip())


def run_workload(workload: str, args) -> None:
    if args.trace:
        child = _run_child("trace", args, workload)
        setup = None
    else:
        setups = [_run_child("setup", args, workload)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        child = _run_child("measure", args, workload)
        setups.append(child["setup_s"])
        setup = statistics.median(setups)

    env = dict(child["env"], commit=_git_commit(), workload=workload, seed=args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{workload}: seed {args.seed}, {child['ops']} operations in "
          f"{child['wall_s']:.3f} s, trace {int(args.trace)}")
    if setup is None:
        metrics = child["per_layer"]
        for name, (value, unit) in metrics.items():
            _print_metric(name, value, unit)
    else:
        metrics = dict(child["end_to_end"], setup_s=[setup, "s"])
        metrics = {name: metrics[name] for name in END_TO_END}
        for name, (value, unit) in metrics.items():
            note = f"median of {len(setups)} set-ups" if name == "setup_s" else ""
            _print_metric(name, value, unit, note)
        for name, (value, unit, count) in child["summary"].items():
            _print_metric(name, value, unit, f"n={count}")
    attempted, failed = child["attempted"], child["failed"]
    _print_metric("ops_failed_frac", failed / attempted, "ratio",
                  f"{failed} of {attempted} tests")
    for problem in child["problems"][:10]:
        print(f"  problem: {problem}")
    result = {
        "correct": child["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


# --------------------------------------------------------------------------
# Workload process: set up, then measure or trace.
# --------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Threads OpenBLAS reports, when numpy bundles it; None otherwise."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _op(w, j: int) -> tuple:
    """Run operation ``j``; an operation that raises is recorded as None."""
    t0 = perf_counter()
    try:
        out = w.op(j)
    except Exception:  # counted as failed, the run goes on
        traceback.print_exc()
        out = None
    return j, perf_counter() - t0, out


def _measure(w, seconds: float) -> tuple[list, float]:
    """Operations 0, 1, ... until ``seconds`` have passed at a round boundary."""
    records = []
    start = perf_counter()
    while len(records) % w.round_size or perf_counter() - start < seconds:
        records.append(_op(w, len(records)))
    return records, perf_counter() - start


def _trace(w, seconds: float, tracer) -> tuple[list, list]:
    """Each round once untraced and once traced, alternating, so that drift
    in the host's speed falls on both passes alike."""
    untraced, traced = [], []
    start = perf_counter()
    while perf_counter() - start < seconds:
        ops = range(len(untraced), len(untraced) + w.round_size)
        untraced += [_op(w, j) for j in ops]
        with tracer.installed():
            traced += [_op(w, j) for j in ops]
    return untraced, traced


def _tallies(w, records) -> list[dict]:
    """Check every output, after the timed loop, and count its tests."""
    tallies = []
    for j, _, out in records:
        if out is None:
            tests = w.tests_per_op(j)
            tallies.append({"tests": tests, "failed": tests, "problems": [f"operation {j} raised"],
                            "projections": 0, "valid_projections": 0})
        else:
            tallies.append(w.tally(j, out))
    return tallies


def _totals(tallies: list[dict]) -> dict:
    problems = [p for t in tallies for p in t["problems"]]
    return {"attempted": sum(t["tests"] for t in tallies),
            "failed": sum(t["failed"] for t in tallies),
            "correct": not problems,
            "problems": problems,
            "projections": sum(t["projections"] for t in tallies),
            "valid_projections": sum(t["valid_projections"] for t in tallies)}


def _layer_metrics(tracer, ops: int, traced_s: float, untraced_s: float,
                   projections: int, valid: int) -> dict:
    from tracing import LAYERS

    harness_self = tracer.self_s("harness")
    layer_self = {layer: tracer.self_s(layer) for layer in LAYERS}
    t = tracer.total

    def per_op(value):
        return [value / ops, "s/op"]

    def count_per_op(value):
        return [value / ops, "count/op"]

    return {
        "harness.self_s": per_op(harness_self),
        "harness.self_s_per_projection": [harness_self / projections if projections else 0.0, "s"],
        "harness.projections_attempted": count_per_op(projections),
        "harness.useful_ratio": [valid / projections if projections else 0.0, "ratio"],
        "calibrate.self_s": per_op(layer_self["calibrate"]),
        "calibrate.draw_s": per_op(t("calibrate", "draw")),
        "calibrate.replicates_drawn": count_per_op(tracer.replicates_drawn),
        "calibrate.null_stat_s": per_op(t("calibrate", "null_stat", field=2)),
        "calibrate.surrogate_build_s": per_op(t("calibrate", "surrogate_build")),
        "calibrate.surrogate_builds": count_per_op(t("calibrate", "surrogate_build", field=0)),
        "kurtosis.self_s": per_op(layer_self["kurtosis"]),
        "kurtosis.statistic_s": per_op(t("kurtosis", "statistic")),
        "kurtosis.moments_s": per_op(t("kurtosis", "moments", field=2)),
        "kurtosis.run_test_self_s.iid": per_op(t("kurtosis", "run_test.iid", field=2)),
        "kurtosis.run_test_self_s.colored1": per_op(t("kurtosis", "run_test.colored1", field=2)),
        "kurtosis.run_test_self_s.colored2": per_op(t("kurtosis", "run_test.colored2", field=2)),
        "core.self_s": per_op(layer_self["core"]),
        "core.cross_cov_s": per_op(t("core", "cross_cov")),
        "core.cross_cov_calls": count_per_op(t("core", "cross_cov", field=0)),
        "core.center_s": per_op(t("core", "center")),
        "copula.generate_s": per_op(t("copula", "generate")),
        "copula.generate_calls": count_per_op(t("copula", "generate", field=0)),
        "projection.draw_s": per_op(layer_self["projection"]),
        "projection.draw_calls": count_per_op(t("projection", "draw", field=0)),
        "trace.overhead_s": per_op(traced_s - untraced_s),
        "trace.overhead_frac": [traced_s / untraced_s - 1.0, "ratio"],
        "trace.coverage": [sum(layer_self.values()) / traced_s, "ratio"],
    }


def child_main(args) -> None:
    import tracing
    import workloads

    import depnorm

    if Path(depnorm.__file__).resolve().parent != SRC / "depnorm":
        raise RuntimeError(f"depnorm imported from {depnorm.__file__}, not from {SRC}")
    w = workloads.make(args.workload, args.seed)
    w.warm_up()
    setup_s = perf_counter() - _T0
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    out = {"env": _environment(), "setup_s": setup_s}
    if args.phase == "measure":
        import resource

        records, wall = _measure(w, args.seconds)
        totals = _totals(_tallies(w, records))
        ok = [r for r in records if r[2] is not None]
        out["end_to_end"] = {
            "proj_tests_per_s": [totals["attempted"] / wall, "1/s"],
            "realization_s_p50": [statistics.median(dt for _, dt, _ in ok), "s"],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"],
        }
        out["summary"] = w.summary(ok)
    else:
        tracer = tracing.Tracer()
        untraced, records = _trace(w, args.seconds, tracer)
        traced_tallies = _tallies(w, records)
        totals = _totals(_tallies(w, untraced) + traced_tallies)
        traced_totals = _totals(traced_tallies)
        wall = sum(dt for _, dt, _ in records)
        out["per_layer"] = _layer_metrics(
            tracer, len(records), wall, sum(dt for _, dt, _ in untraced),
            traced_totals["projections"], traced_totals["valid_projections"])
    out.update(totals, ops=len(records), wall_s=wall)
    print(json.dumps(out))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=16)  # workloads.DEFAULT_SEED
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.phase:
        child_main(args)
        return 0
    if not (SRC / "depnorm" / "__init__.py").is_file():
        print(f"error: no depnorm sources under {SRC}", file=sys.stderr)
        return 2
    try:
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            run_workload(workload, args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
