"""Realization-level uncertainty of the reference tables.

    PYTHONPATH=src python studies/table_se.py tests/reproduce_full_seed16/report.json

Reads the ``report.json`` that ``depnorm reproduce-tables`` writes and prints
one CSV row per cell (table, copula, test, alpha): the rate as the mean of
the realizations' rates, its between-realization standard error, the
reference rate in ``PAPER_RATES``, and the rate's distance from it in those
standard errors, infinite where every realization has the same rate and it
is not the reference rate.

The M projections of a realization share one data sample, so their
decisions are strongly correlated, and a binomial SE over M x realizations
understates the error by an order of magnitude (the design effect of
clustered trials, Kish 1965). The realizations are independent, so the
spread of their rates is the honest measure. Every realization has the
same M, so the mean of their rates is the table's pooled rate.
"""

import json
import math
import statistics
import sys

from depnorm import PAPER_RATES

HEADER = "table,copula,test,alpha,rate,se,paper_rate,distance_se"


def rows(report: dict):
    """(table, copula, test, alpha, rate, se, paper_rate, distance) per cell,
    in the report's table order and each table's copula, test and alpha
    order."""
    for table, by_copula in report["tables"].items():
        for copula, study in by_copula.items():
            for test, by_alpha in study["rates"].items():
                for alpha in by_alpha:
                    rates = [r["rates"][test][alpha] for r in study["realizations"]]
                    rate = statistics.fmean(rates)
                    se = statistics.stdev(rates) / math.sqrt(len(rates))
                    paper = PAPER_RATES[table][copula][test][float(alpha)]
                    gap = rate - paper
                    # with no spread between realizations, a gap is infinitely many SEs
                    distance = gap / se if se > 0 else math.copysign(math.inf, gap) if gap else 0.0
                    yield table, copula, test, alpha, rate, se, paper, distance


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python studies/table_se.py REPORT_JSON", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        report = json.load(fh)
    print(HEADER)
    for table, copula, test, alpha, rate, se, paper, distance in rows(report):
        print(f"{table},{copula},{test},{alpha},{rate:.4f},{se:.4f},{paper:.4f},"
              f"{distance:+.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
