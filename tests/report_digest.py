"""One sha256 over the rendered reports of every benchmark workload scenario.

    PYTHONPATH=src python tests/report_digest.py [SEED ...]

Runs every scenario of the four workloads in `perfbench/workloads.py` at each
seed (101, 102 and 103 when none is given), one at a time through
`run_scenario`. It prints one sha256 per workload, over its reports' JSON and
CSV renderings joined in seed and scenario order, then one over every
workload's renderings joined in workload, seed and scenario order. Two
checkouts that print the same last digest produce byte-equal reports on every
workload scenario; a workload's own line tells which workload moved.

The line before the last is a digest over `EXTRA` reports at each seed, kept
out of the combined digest: experiments in no workload that reach the draws,
difference quotients and polar factorization the workloads also run, and
the drawn directions of a euclidean space of dimension other than 2, the
largest tree's subtree region and one-source distances, and the default
transport-identity ladder, whose side-49 grid of 2,401 atoms runs in no
workload, and the geometry suite and Eilenberg check on a 301-vertex path
rooted at its middle, whose geodesics climb up to 150 levels on each side.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from cat0ot.harness import Scenario, render_report, run_scenario  # noqa: E402

E2 = {"kind": "euclidean", "dim": 2}
E3 = {"kind": "euclidean", "dim": 3}
BOOK3 = {"kind": "open_book", "pages": 3}
TRIPOD = {"kind": "tripod"}
COMB14 = {"kind": "comb", "depth": 1, "grid": 4}
COMB316 = {"kind": "comb", "depth": 3, "grid": 16}
# a path of 301 vertices rooted at its middle: geodesics of up to 300 sections,
# whose lengths do not add exactly
PATH301 = {
    "kind": "tree",
    "vertices": list(range(301)),
    "edges": [[k, k + 1, 0.1 + 0.003 * k] for k in range(300)],
    "root": 150,
}
# (space, experiment, params) of the reports outside the workloads
EXTRA = (
    [(space, "fermat", {}) for space in (E2, BOOK3, TRIPOD, COMB14)]
    + [(COMB14, "twist", {}), (COMB14, "polar", {}), (E3, "twist", {})]
    + [(space, "polar", {"n": 9}) for space in (E2, TRIPOD, BOOK3)]
    + [(BOOK3, "geometry-suite", {"samples": k}) for k in (1, 2, 3, 7, 50)]
    + [(COMB316, "eilenberg", {})]
    + [(E2, "transport-identity", {})]
    + [(PATH301, "geometry-suite", {"samples": 300}), (PATH301, "eilenberg", {})]
)


def _rendered(scenario: Scenario) -> bytes:
    rep = run_scenario(scenario)
    return (render_report(rep) + render_report(rep, "csv")).encode()


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
                text = _rendered(scenario)
                digest.update(text)
                own.update(text)
                count += 1
        per_workload[name] = own.hexdigest()
    return per_workload, digest.hexdigest(), count


def extra_digest(seeds) -> tuple[str, int]:
    """(hex digest, number of reports) over the `EXTRA` reports at the seeds."""
    digest = hashlib.sha256()
    for seed in seeds:
        for space, experiment, params in EXTRA:
            digest.update(_rendered(Scenario(space, experiment, params, seed)))
    return digest.hexdigest(), len(seeds) * len(EXTRA)


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or [101, 102, 103]
    per_workload, hexdigest, count = report_digests(seeds)
    for name, own in per_workload.items():
        print(f"{own}  {name}")
    extra, extra_count = extra_digest(seeds)
    print(f"{extra}  extra: {extra_count} reports outside the workloads")
    print(f"{hexdigest}  {count} reports, seeds {' '.join(map(str, seeds))}")
