#!/usr/bin/env python3
"""Compares two sets of runs made by `run.py --out DIR` against the bounds in
BENCHMARK.json, one row per workload:

    python3 bench/e2e/compare.py BASE_DIR CHANGE_DIR

For each end-to-end metric it compares medians. A metric whose run-to-run
spread (interquartile range over median, in either set) exceeds its bound is
"unresolved", unless every run of CHANGE_DIR reads better than every run of
BASE_DIR. A metric whose median worsens by more than its bound regressed. Any
rise in the share of failed operations is a regression too. Exit status 1 on
any regression or failed check, else 0.
"""

import json
import sys
from pathlib import Path

from run import ROOT, load_runs, quartiles


def verdict(base, change, bound, higher_is_better):
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = -1.0 if higher_is_better else 1.0
    worse_by = sign * (c_med - b_med) / b_med
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    all_better = (min(change) > max(base) if higher_is_better
                  else max(change) < min(base))
    if spread > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "REGRESSED"
    else:
        label = "ok"
    return f"{worse_by + 0.0:+.1%} worse:{label}", label


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load_runs(Path(sys.argv[1])), load_runs(Path(sys.argv[2]))
    regressed = False
    for workload in sorted(set(base) & set(change)):
        cells = []
        for metric in definition["end_to_end"]:
            name = metric["name"]
            text, label = verdict(base[workload][name], change[workload][name],
                                  metric["bound"],
                                  metric["better"] == "higher")
            regressed = regressed or label == "REGRESSED"
            cells.append(f"{name}={text}")
        rose = max(change[workload]["failed_frac"]) > max(
            base[workload]["failed_frac"])
        wrong = max(change[workload]["incorrect"]) > 0
        regressed = regressed or rose or wrong
        cells.append("failed_frac=" + ("ROSE" if rose else "ok"))
        cells.append("checks=" + ("FAILED" if wrong else "ok"))
        print(f"{workload}: " + "  ".join(cells))
    for workload in sorted(set(base) ^ set(change)):
        print(f"{workload}: only in one set")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
