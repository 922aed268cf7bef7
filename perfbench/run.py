"""Layered benchmark for cat0ot: seeded scenario workloads through the harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run times several passes over the workload's scenario list
through ``harness.run_scenario`` (``harness.run_batch`` for batch-sweep) with
no tracing installed and reports the end-to-end metrics. With ``--trace 1``
it makes one pass untraced, then the same pass with span wrappers at every
layer boundary, and reports the per-layer metrics and the tracing overhead.
Every report is checked outside the timed window, and one scenario per run
goes through ``cat0ot.cli.main`` and must give the bytes ``render_report``
gives. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A fuller record, with the
environment, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 3
BATCH_PROBES = 5
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_p50_ms": "ms",
    "scenario_tail_ms": "ms",
    "passed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_share", "_ratio")):
        return "ratio"
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_source_tree() -> None:
    """Import cat0ot from this checkout's src/, and refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "cat0ot", "__init__.py")):
        sys.exit(f"error: no cat0ot sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)


def set_up(args):
    """Everything a run pays before its first timed scenario."""
    import cat0ot  # noqa: F401  (numpy and scipy come with it)
    from checks import build_spaces
    from workloads import SPACES, WORKLOADS

    workload = WORKLOADS[args.workload]
    return workload, build_spaces(SPACES), workload.scenarios(args.seed)


def measure_setup(args) -> float:
    """Median wall time from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


@contextlib.contextmanager
def worker_cap():
    """CAT0OT_THREADS set to the cores this process may use, for run_batch."""
    previous = os.environ.get("CAT0OT_THREADS")
    os.environ["CAT0OT_THREADS"] = str(len(os.sched_getaffinity(0)))
    try:
        yield
    finally:
        if previous is None:
            del os.environ["CAT0OT_THREADS"]
        else:
            os.environ["CAT0OT_THREADS"] = previous


def run_pass(workload, scenarios):
    """One closed-loop pass with one client: each call starts when the previous one returned.

    Returns (reports, seconds per unit, probe seconds). A unit is one
    run_scenario call, or one run_batch call for a batch workload. A scenario
    that raised has its traceback in place of a report. Speed probes run
    between units, outside their timing; a batch loads every core, so before
    a batch every core is probed.
    """
    from cat0ot import harness

    reports, units, probes = [], [], []
    if not workload.batch_size:
        for sc in scenarios:
            probes += speed.probe()
            start = time.perf_counter()
            try:
                reports.append(harness.run_scenario(sc))
            except Exception:  # a failed scenario is counted, not fatal
                reports.append(traceback.format_exc())
            units.append(time.perf_counter() - start)
        probes += speed.probe()
        return reports, units, probes
    with worker_cap():
        for batch in workload.units(scenarios):
            probes += speed.probe_each_cpu(BATCH_PROBES)
            start = time.perf_counter()
            try:
                reports.extend(harness.run_batch(batch))
            except Exception:
                reports.extend([traceback.format_exc()] * len(batch))
            units.append(time.perf_counter() - start)
    probes += speed.probe_each_cpu(BATCH_PROBES)
    return reports, units, probes


def verify(scenarios, reports, spaces) -> dict[int, list[str]]:
    """The problems of each scenario whose output is wrong, by index."""
    from checks import check

    bad = {}
    for k, (sc, rep) in enumerate(zip(scenarios, reports)):
        if isinstance(rep, str):
            bad[k] = [f"raised {rep.strip().splitlines()[-1]}"]
            continue
        try:
            found = check(sc, rep, spaces)
        except Exception:
            found = [f"check raised {traceback.format_exc().strip().splitlines()[-1]}"]
        if found:
            bad[k] = found
    return bad


def failed_calls(scenarios, passes, spaces) -> tuple[int, list[str]]:
    """Failed calls over all passes, with one line per problem.

    The first pass is checked against the references. A call in a later pass
    fails with its first-pass twin, or when its report bytes differ from it.
    """
    from cat0ot.harness import render_report

    bad = verify(scenarios, passes[0], spaces)
    failed = len(bad)
    for n, reports in enumerate(passes[1:], start=2):
        for k, (a, b) in enumerate(zip(passes[0], reports)):
            same = not isinstance(a, str) and not isinstance(b, str) and render_report(a) == render_report(b)
            if k in bad or not same:
                failed += 1
            if not same:
                bad.setdefault(k, []).append(f"report differs in pass {n}")
    problems = [
        f"#{k} {scenarios[k].experiment} {scenarios[k].space['kind']}: {msg}"
        for k in sorted(bad)
        for msg in bad[k]
    ]
    return failed, problems


def tail(times_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND samples above it.

    With too few samples for that statistic to lie above the median, the
    maximum is reported instead, as percentile 100.
    """
    xs = sorted(times_ms)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def refuse_if_traced() -> None:
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers installed before untraced timing: {left}")


def timed_run(args, workload, spaces, scenarios) -> tuple[dict, dict]:
    import checks

    refuse_if_traced()
    setup_s = measure_setup(args)
    refuse_if_traced()
    begin = time.perf_counter()
    passes = [run_pass(workload, scenarios) for _ in range(workload.passes(args.seconds))]
    wall = time.perf_counter() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = failed_calls(scenarios, [p[0] for p in passes], spaces)
    parity = checks.cli_parity(scenarios[workload.parity_index], OUT_DIR)
    attempted = len(passes) * len(scenarios)
    # times at reference speed: each pass is divided by its own probe slowdown
    slowdown = [statistics.mean(p[2]) / speed.REFERENCE_S for p in passes]
    scaled = [[u / f for u in p[1]] for p, f in zip(passes, slowdown)]
    # time per scenario of each unit (a batch's wall time is shared by its
    # scenarios), as its median over passes
    sizes = [len(u) for u in workload.units(scenarios)]
    scenario_ms = [
        1000.0 * statistics.median(pass_[k] for pass_ in scaled) / size for k, size in enumerate(sizes)
    ]
    tail_ms, tail_pct = tail(scenario_ms)
    metrics = {
        "setup_s": setup_s,
        "scenarios_per_s": attempted / sum(map(sum, scaled)),
        "scenario_p50_ms": statistics.median(scenario_ms),
        "scenario_tail_ms": tail_ms,
        "passed_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "cli_parity": parity,
        "passes": len(passes),
        "measured_s": wall,
        "pass_slowdown": slowdown,
        "raw_scenarios_per_s": attempted / sum(sum(p[1]) for p in passes),
        "tail_percentile": tail_pct,
        "tail_samples": len(scenario_ms),
        "pass_unit_s": [p[1] for p in passes],
    }
    return metrics, record


def traced_run(args, workload, spaces, scenarios) -> tuple[dict, dict]:
    import checks

    refuse_if_traced()
    plain, units, _ = run_pass(workload, scenarios)
    wall_plain = sum(units)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, units, _ = run_pass(workload, scenarios)
        wall_traced = sum(units)
    finally:
        tracer.uninstall()
    metrics = tracer.summary()
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    # a traced report must match its untraced twin byte for byte
    failed, problems = failed_calls(scenarios, [plain, traced], spaces)
    record = {
        "attempted": 2 * len(scenarios),
        "failed": failed,
        "problems": problems,
        "cli_parity": checks.cli_parity(scenarios[workload.parity_index], OUT_DIR),
        "untraced_s": wall_plain,
        "traced_s": wall_traced,
    }
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    use_source_tree()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload, spaces, scenarios = set_up(args)
    if args.setup_probe:
        print(time.perf_counter())
        return 0
    if args.trace:
        values, record = traced_run(args, workload, spaces, scenarios)
        units = {name: per_layer_unit(name) for name in tracing.metric_names()}
    else:
        values, record = timed_run(args, workload, spaces, scenarios)
        units = END_TO_END
    record["environment"] = environment(args)
    record["metrics"] = values
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for line in record["problems"]:
        print(f"check failed: {line}")
    summary = {k: v for k, v in record.items() if k not in ("problems", "metrics", "pass_unit_s")}
    print(json.dumps(summary, sort_keys=True))
    correct = record["failed"] == 0 and record["cli_parity"]
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
