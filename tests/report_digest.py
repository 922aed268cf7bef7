"""One sha256 over the rendered reports of every benchmark workload scenario.

    PYTHONPATH=src python tests/report_digest.py [SEED ...]

Runs every scenario of the four workloads in `perfbench/workloads.py` at each
seed (101, 102 and 103 when none is given), one at a time through
`run_scenario`, and prints the sha256 of each report's JSON and CSV renderings
joined in workload, seed and scenario order. Two checkouts that print the same
digest produce byte-equal reports on every workload scenario.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from cat0ot.harness import render_report, run_scenario  # noqa: E402


def report_digest(seeds) -> tuple[str, int]:
    """(hex digest, number of reports) over every workload scenario at the seeds."""
    digest = hashlib.sha256()
    count = 0
    for name in sorted(WORKLOADS):
        for seed in seeds:
            for scenario in WORKLOADS[name].scenarios(seed):
                rep = run_scenario(scenario)
                digest.update((render_report(rep) + render_report(rep, "csv")).encode())
                count += 1
    return digest.hexdigest(), count


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or [101, 102, 103]
    hexdigest, count = report_digest(seeds)
    print(f"{hexdigest}  {count} reports, seeds {' '.join(map(str, seeds))}")
