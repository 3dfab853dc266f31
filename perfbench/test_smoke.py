"""Smoke test of the benchmark itself: one short run of every workload, with
tracing off and on, checking that every declared metric is emitted with its
unit and that the outputs pass the benchmark's own correctness checks.

    python3 -m pytest perfbench/test_smoke.py      # or: python3 perfbench/test_smoke.py

It takes about a minute (a traced run sets up once, an untraced one three times).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Figures printed above the result line but not declared in BENCHMARK.json.
PRINTED = {
    "study-2d": ["ops_failed_frac", "realization_s_p50.table3-gumbel"],
    "study-1d": ["ops_failed_frac", "realization_s_p50.table1-gumbel"],
    "single-test": ["ops_failed_frac", "test_latency_p50_s", "test_latency_tail_s",
                    "closed_form_tests_per_s"],
}


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    printed, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace == 0:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
        text = "\n".join(printed)
        for name in PRINTED[workload]:
            assert f"  {name}" in text, name
    assert any(line.startswith("env {") for line in printed)


def test_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seconds", "1"], cwd=tmp_path, stdout=subprocess.PIPE,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
