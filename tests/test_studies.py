"""The scripts under ``studies/`` run on the recorded reports and reproduce
their committed tables."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FULL = ROOT / "tests" / "reproduce_full_seed16"


def test_table_se_reproduces_its_committed_table():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, str(ROOT / "studies" / "table_se.py"),
                          str(FULL / "report.json")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out == (ROOT / "studies" / "table_se_full_seed16.csv").read_text()
    cells = {tuple(line.split(",")[:4]): line.split(",")[4:] for line in out.splitlines()[1:]}
    # the mean of the realizations' rates is the pooled rate of the table CSVs
    for table in ("table1", "table2", "table3", "table4"):
        for line in (FULL / f"{table}.csv").read_text().splitlines()[1:]:
            copula, test, alpha, rate, paper, _ = line.split(",")
            assert cells.pop((table, copula, test, alpha))[::2] == [rate, paper]
    assert cells == {}
    # five realizations of table 4 Clayton, one far below the others
    assert "table4,clayton,colored2,0.05,0.7006,0.1196,0.8540,-1.28" in out.splitlines()
