#!/usr/bin/env python3
"""Record the study workloads' exact rejection counts for the default seed.

    PYTHONPATH=src python3 perfbench/record_expected.py

Writes ``expected_seed16.json`` next to this file: for each study workload
and setup, the rejection counts and skipped projections of rounds
0, 1, ... as ``run.py`` numbers them. The benchmark compares every round it
runs at the default seed against this file and counts a mismatch as failed
tests. Re-record only when a change is meant to alter rejection decisions.
"""

import json

import workloads

ROUNDS = {"study-2d": 8, "study-1d": 60}  # more than a 30-second run reaches


def _dump(expected: dict) -> str:
    """JSON with one line per round, so the file reads as a table."""
    studies = []
    for name, by_setup in sorted(expected.items()):
        setups = []
        for label, rounds in sorted(by_setup.items()):
            body = ",\n".join("   " + json.dumps(r, sort_keys=True) for r in rounds)
            setups.append(f'  "{label}": [\n{body}\n  ]')
        studies.append(f' "{name}": {{\n' + ",\n".join(setups) + "\n }")
    return "{\n" + ",\n".join(studies) + "\n}\n"


def main() -> None:
    expected = {}
    for name, rounds in ROUNDS.items():
        w = workloads.StudyWorkload(seed=workloads.DEFAULT_SEED, **workloads.STUDIES[name])
        by_setup = {label: [] for label, _ in w.setups}
        for j in range(rounds * w.round_size):
            label, _ = w.config(j)
            report = w.op(j)
            by_setup[label].append({"rejections": report.rejections,
                                    "skipped": report.skipped_total})
        expected[name] = by_setup
        print(f"{name}: {rounds} rounds recorded")
    workloads.EXPECTED_FILE.write_text(_dump(expected))


if __name__ == "__main__":
    main()
