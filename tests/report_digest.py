"""One sha256 over the rendered reports of every benchmark workload scenario.

    PYTHONPATH=src python tests/report_digest.py [SEED ...]

Runs every scenario of the four workloads in `perfbench/workloads.py` at each
seed (101, 102 and 103 when none is given), one at a time through
`run_scenario`. It prints one sha256 per workload, over its reports' JSON and
CSV renderings joined in seed and scenario order, then one over every
workload's renderings joined in workload, seed and scenario order. Two
checkouts that print the same last digest produce byte-equal reports on every
workload scenario; a workload's own line tells which workload moved.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from cat0ot.harness import render_report, run_scenario  # noqa: E402


def report_digests(seeds) -> tuple[dict[str, str], str, int]:
    """({workload: hex digest}, combined hex digest, number of reports) over
    every workload scenario at the seeds."""
    digest = hashlib.sha256()
    per_workload = {}
    count = 0
    for name in sorted(WORKLOADS):
        own = hashlib.sha256()
        for seed in seeds:
            for scenario in WORKLOADS[name].scenarios(seed):
                rep = run_scenario(scenario)
                text = (render_report(rep) + render_report(rep, "csv")).encode()
                digest.update(text)
                own.update(text)
                count += 1
        per_workload[name] = own.hexdigest()
    return per_workload, digest.hexdigest(), count


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or [101, 102, 103]
    per_workload, hexdigest, count = report_digests(seeds)
    for name, own in per_workload.items():
        print(f"{own}  {name}")
    print(f"{hexdigest}  {count} reports, seeds {' '.join(map(str, seeds))}")
