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

    PYTHONPATH=src python tests/report_digest.py [SEED ...] --metrics OUT.json
    PYTHONPATH=src python tests/report_digest.py [SEED ...] --against OLD.json

`--metrics` also writes every report's metrics and pass flag, workload and
extra alike, to OUT.json. `--against` reads such a file from another
checkout and prints, per (experiment, metric), how many reports moved and
the largest absolute and relative change, then every pass flag that
flipped. Both may be given; the digests are printed either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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


def _rendered(scenario: Scenario, sink: list | None = None, group: str = "extra") -> bytes:
    rep = run_scenario(scenario)
    if sink is not None:
        sink.append((group, rep))
    return (render_report(rep) + render_report(rep, "csv")).encode()


def report_digests(seeds, sink: list | None = None) -> tuple[dict[str, str], str, int]:
    """({workload: hex digest}, combined hex digest, number of reports) over
    every workload scenario at the seeds; each (workload, report) is
    appended to sink."""
    digest = hashlib.sha256()
    per_workload = {}
    count = 0
    for name in sorted(WORKLOADS):
        own = hashlib.sha256()
        for seed in seeds:
            for scenario in WORKLOADS[name].scenarios(seed):
                text = _rendered(scenario, sink, name)
                digest.update(text)
                own.update(text)
                count += 1
        per_workload[name] = own.hexdigest()
    return per_workload, digest.hexdigest(), count


def extra_digest(seeds, sink: list | None = None) -> tuple[str, int]:
    """(hex digest, number of reports) over the `EXTRA` reports at the seeds;
    each ("extra", report) is appended to sink."""
    digest = hashlib.sha256()
    for seed in seeds:
        for space, experiment, params in EXTRA:
            digest.update(_rendered(Scenario(space, experiment, params, seed), sink))
    return digest.hexdigest(), len(seeds) * len(EXTRA)


def report_metrics(reports) -> list[dict]:
    """One record per (group, report), in digest order: its workload or
    "extra", its experiment, a sha256 of its scenario (space, params and
    seed), its pass flag and its metrics."""
    out = []
    for group, rep in reports:
        sc = rep.scenario
        key = json.dumps([sc.space, sc.experiment, sc.params, sc.seed], sort_keys=True)
        out.append(
            {
                "group": group,
                "experiment": sc.experiment,
                "scenario": hashlib.sha256(key.encode()).hexdigest(),
                "passed": rep.passed,
                "metrics": rep.metrics,
            }
        )
    return out


def _values(record: dict) -> dict[str, float]:
    """A record's metric values, and its sigmas as `name.sigma` where there are any."""
    out = {}
    for name, cell in record["metrics"].items():
        out[name] = cell["value"]
        if cell["sigma"] is not None:
            out[name + ".sigma"] = cell["sigma"]
    return out


def compare_metrics(old: list[dict], new: list[dict]) -> list[str]:
    """Lines naming the reports that moved per workload, then per (experiment,
    metric) with the largest absolute and relative change, then each pass
    flag that flipped. Records are paired by position and must name the same
    scenarios."""
    if [r["scenario"] for r in old] != [r["scenario"] for r in new]:
        raise SystemExit("the two metric files do not hold the same scenarios")
    moves: dict[tuple[str, str], list] = {}
    groups: dict[str, list] = {}
    flips = []
    for k, (was, now) in enumerate(zip(old, new)):
        moved = was["passed"] != now["passed"]
        if moved:
            flips.append(f"pass flag flipped: report {k} ({now['experiment']}) {was['passed']} -> {now['passed']}")
        before, after = _values(was), _values(now)
        for name in sorted(before.keys() | after.keys()):
            x, y = before.get(name), after.get(name)
            row = moves.setdefault((now["experiment"], name), [0, 0, 0.0, 0.0])
            row[0] += 1
            if x is None or y is None or not math.isfinite(x) or not math.isfinite(y):
                # a metric that appears, vanishes or leaves the finite range
                # counts as moved when its repr differs
                if repr(x) != repr(y):
                    row[1] += 1
                    row[2] = row[3] = math.inf
                    moved = True
            elif x != y:
                row[1] += 1
                diff = abs(y - x)
                row[2] = max(row[2], diff)
                row[3] = max(row[3], diff / abs(x) if x else math.inf)
                moved = True
        group = groups.setdefault(now["group"], [0, 0])
        group[0] += 1
        group[1] += moved
    moved = sum(changed for _count, changed in groups.values())
    lines = [f"{moved} of {len(new)} reports moved"]
    lines += [f"{group:>22} {changed:>4}/{count:<4} reports moved" for group, (count, changed) in groups.items()]
    for (experiment, name), (count, changed, absd, reld) in sorted(moves.items()):
        if changed:
            lines.append(f"{experiment:>22} {name:<36} {changed:>4}/{count:<4} max |d| {absd:.3g}  max rel {reld:.3g}")
    return lines + flips


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="sha256 digests over every benchmark workload report")
    parser.add_argument("seeds", nargs="*", type=int)
    parser.add_argument("--metrics", metavar="OUT.json", help="write every report's metrics here")
    parser.add_argument("--against", metavar="OLD.json", help="compare every report's metrics with this file")
    args = parser.parse_args()
    seeds = args.seeds or [101, 102, 103]
    reports: list = []
    per_workload, hexdigest, count = report_digests(seeds, reports)
    for name, own in per_workload.items():
        print(f"{own}  {name}")
    extra, extra_count = extra_digest(seeds, reports)
    print(f"{extra}  extra: {extra_count} reports outside the workloads")
    print(f"{hexdigest}  {count} reports, seeds {' '.join(map(str, seeds))}")
    records = report_metrics(reports)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump({"seeds": seeds, "reports": records}, fh)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            old = json.load(fh)
        if old["seeds"] != seeds:
            raise SystemExit(f"{args.against} holds seeds {old['seeds']}, not {seeds}")
        print("\n".join(compare_metrics(old["reports"], records)))
