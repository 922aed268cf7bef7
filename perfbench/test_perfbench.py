"""Self-tests for the benchmark: python3 -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cat0ot import harness, transport  # noqa: E402
from cat0ot.harness import Scenario  # noqa: E402

SPACES = checks.build_spaces(workloads.SPACES)

# cheap scenarios that still cross every layer the tracer wraps
SMALL = [
    Scenario(workloads.E2, "solve", {"instance": "random", "n": 7, "m": 5}, 3),
    Scenario(workloads.TRIPOD, "monotonicity", {"instance": "random", "n": 6, "max_len": 3}, 4),
    Scenario(workloads.COMB14, "geometry-suite", {"samples": 30}, 5),
    Scenario(workloads.BOOK3, "twist", {"trials": 2}, 6),
    Scenario(workloads.E2, "polar", {"trials": 2, "n": 4}, 7),
    Scenario(workloads.E2, "eilenberg", {"n_samples": 2000}, 8),
    Scenario(workloads.E2, "transport-identity", {"sizes": [5, 9]}, 9),
]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_scenario_lists(name):
    w = workloads.WORKLOADS[name]
    assert w.scenarios(11) == w.scenarios(11)
    assert w.scenarios(11) != w.scenarios(12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_change_content_not_classes(name):
    def shape(sc):
        params = {k: v for k, v in sc.params.items() if k not in ("mu", "nu")}
        sizes = [len(sc.params[k]["points"]) for k in ("mu", "nu") if k in sc.params]
        return (sc.experiment, json.dumps(sc.space, sort_keys=True), json.dumps(params, sort_keys=True), sizes)

    w = workloads.WORKLOADS[name]
    assert [shape(s) for s in w.scenarios(1)] == [shape(s) for s in w.scenarios(2)]


def traced_counts(scenarios, batch_size=0):
    workload = workloads.Workload("small", lambda rng: scenarios, 1.0, batch_size=batch_size)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(workload, scenarios)
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.summary().items() if not k.endswith(("_s", "_share"))}


def test_two_traced_runs_give_identical_counts():
    first = traced_counts(SMALL)
    assert first == traced_counts(SMALL)
    assert first["harness.run_scenario.calls"] == len(SMALL)
    for name in ("simplex.solve_transport", "transport.check_cyclic_monotonicity", "spaces.normalize",
                 "geometry.cat0_defect", "calculus.twist_test", "polar.polar_factorize",
                 "calculus.shell_estimate", "transport.verify_transport_identity"):
        assert first[f"{name}.calls"] > 0, name


def test_traced_counts_do_not_depend_on_worker_threads():
    first = traced_counts(SMALL, batch_size=4)
    assert first == traced_counts(SMALL, batch_size=4)
    assert first["harness.run_batch.calls"] == 2
    def calls(counts):
        return {k: v for k, v in counts.items() if "run_batch" not in k and k != "trace.spans"}

    assert calls(first) == calls(traced_counts(SMALL))


def test_tracing_wrappers_are_removed_before_untraced_timing():
    originals = {
        "run_scenario": harness.run_scenario,
        "solve_kantorovich": harness.solve_kantorovich,
        "interior": transport._interior_duals,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.installed_wrappers()
        assert "cat0ot.harness.run_scenario" in wrapped
        assert "cat0ot.polar.solve_kantorovich" in wrapped
        assert "scipy.optimize.linear_sum_assignment" in wrapped
        assert "TreeImpl.distances_from" in wrapped
        args = run.parse_args(["--workload", "geometry-tree", "--seed", "1", "--seconds", "1"])
        w = workloads.WORKLOADS["geometry-tree"]
        with pytest.raises(RuntimeError, match="before untraced timing"):
            run.timed_run(args, w, SPACES, SMALL)
        with pytest.raises(RuntimeError, match="before untraced timing"):
            run.traced_run(args, w, SPACES, SMALL)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert harness.run_scenario is originals["run_scenario"]
    assert harness.solve_kantorovich is originals["solve_kantorovich"]
    assert transport._interior_duals is originals["interior"]


def test_checks_accept_correct_reports_and_reject_a_wrong_cost():
    for sc in SMALL:
        assert checks.check(sc, harness.run_scenario(sc), SPACES) == [], sc.experiment
    sc = Scenario(workloads.COMB316, "solve", {"instance": "random", "n": 5, "m": 4}, 2)
    rep = harness.run_scenario(sc)
    assert checks.check(sc, rep, SPACES) == []
    metrics = dict(rep.metrics, cost={"value": rep.metrics["cost"]["value"] + 1e-7, "sigma": None})
    assert checks.check(sc, dataclasses.replace(rep, metrics=metrics), SPACES)


def test_translation_closed_form_matches_the_lp():
    e2 = SPACES[checks.space_key(workloads.E2)]
    sc = Scenario(workloads.E2, "solve", {"instance": "translation", "n": 5}, 0)
    mu, nu, _shift, _h = harness.translation_instance(e2, 5)
    lp = checks.lp_cost(checks.reference_costs(e2, mu, nu), np.asarray(mu.weights), np.asarray(nu.weights))
    assert abs(checks.reference_cost(e2, sc) - lp) <= 1e-12


def test_cli_parity():
    assert checks.cli_parity(SMALL[0], os.path.join(run.OUT_DIR, "selftest"))


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(k) for k in range(40)])
    assert value == 29.0 and pct == 75.0
    # too few samples for a tail above the median: the maximum stands in
    assert run.tail([float(k) for k in range(20)]) == (19.0, 100.0)
    assert run.tail([float(k) for k in range(21)]) == (10.0, 100.0 * 11 / 21)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
