from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from cat0ot import (
    ConfigInvalid,
    IoFailure,
    ParamOutOfRange,
    Point,
    SupportTooLarge,
    _simplex,
    calculus,
    direction_set,
    geometry,
    harness,
    polar,
    spaces,
    transport,
    twist_test,
)
from cat0ot.cli import main
from cat0ot.geometry import Geodesic, parameter_on
from cat0ot.harness import (
    _ALLOWED_PARAMS,
    EXPERIMENTS,
    Report,
    Scenario,
    emit_report,
    render_report,
    run_batch,
    run_scenario,
    sample_points,
    scenario_from_config,
)
from cat0ot.rng import substream
from cat0ot.spaces import space_from_json

import report_digest
from _oracles import geometry_suite_by_public_api, polar_draws_by_point, polar_in_turn, sample_points_by_point

E2 = {"kind": "euclidean", "dim": 2}


def _scenario(experiment, params, seed=1, space=E2):
    return scenario_from_config(
        {"space": space, "experiment": experiment, "params": params, "seed": seed}
    )


# ---------------------------------------------------------------------------
# configuration parsing


def test_config_requires_fields():
    with pytest.raises(ConfigInvalid):
        scenario_from_config({"experiment": "solve", "seed": 1})
    with pytest.raises(ConfigInvalid):
        scenario_from_config({"space": E2, "seed": 1})
    with pytest.raises(ConfigInvalid):
        scenario_from_config({"space": E2, "experiment": "solve"})
    with pytest.raises(ConfigInvalid):
        scenario_from_config({"space": E2, "experiment": "no-such-tag", "seed": 1})
    with pytest.raises(ConfigInvalid):
        scenario_from_config({"space": E2, "experiment": "solve", "seed": True})
    with pytest.raises(ConfigInvalid):
        scenario_from_config({"space": E2, "experiment": "solve", "seed": 1, "params": 7})
    with pytest.raises(ConfigInvalid):
        scenario_from_config(
            {"space": E2, "experiment": "solve", "seed": 1, "params": {"grd": 5}}
        )


def test_config_overrides_win():
    sc = scenario_from_config(
        {"space": E2, "experiment": "solve", "seed": 1}, experiment="polar", seed=9
    )
    assert sc.experiment == "polar"
    assert sc.seed == 9


def test_experiments_are_the_runners_and_their_params():
    # the CLI choices, in their order, and one parameter whitelist per experiment
    assert EXPERIMENTS == (
        "solve",
        "monotonicity",
        "twist",
        "fermat",
        "eilenberg",
        "transport-identity",
        "polar",
        "geometry-suite",
    )
    assert sorted(_ALLOWED_PARAMS) == sorted(EXPERIMENTS)


def test_malformed_space_fails_at_run():
    sc = _scenario("solve", {"instance": "line"}, space={"kind": "dodecahedron"})
    with pytest.raises(ConfigInvalid):
        run_scenario(sc)


@pytest.mark.parametrize(
    "space",
    [
        {"kind": "dodecahedron"},
        {"kind": "comb", "depth": 1},
        {"kind": "euclidean", "dim": 0},
        {"kind": "euclidean", "dim": "two"},
        {"kind": "comb", "depth": 4, "grid": 4},
        {"kind": "tree", "vertices": [0, 1, 2, 3], "edges": [[0, 1, 1.0], [0, 1, 2.0], [2, 3, 1.0]]},
        {"kind": "tree", "vertices": [0, 0], "edges": [[0, 0, 1.0]]},
        {"kind": "star", "legs": 0},
        {"kind": "open_book", "pages": 1},
        [1, 2, 3],
        {"kind": "euclidean", "dim": float("inf")},
        {"kind": "euclidean", "dim": 2.7},
        {"kind": "euclidean", "dim": True},
        {"kind": "open_book", "pages": 3.9},
        {"kind": "comb", "depth": 1, "grid": "4"},
        {"kind": "comb", "depth": 1.5, "grid": 4},
        {"kind": "star", "legs": 2.5},
        {"kind": "star", "legs": 3, "length": True},
        {"kind": "tree", "vertices": [0, 1], "edges": [[0, 1, "2.5"]]},
    ],
    ids=[
        "unknown-kind",
        "missing-field",
        "zero-dim",
        "text-dim",
        "comb-over-cap",
        "disconnected-tree",
        "duplicate-vertices",
        "zero-star-legs",
        "one-book-page",
        "non-dict",
        "infinite-field",
        "fractional-dim",
        "boolean-dim",
        "fractional-pages",
        "text-grid",
        "fractional-depth",
        "fractional-legs",
        "boolean-star-length",
        "text-edge-length",
    ],
)
def test_every_bad_space_reaches_run_scenario_as_config_invalid(space):
    # a random instance runs on every family, so only the space can be at fault
    with pytest.raises(ConfigInvalid):
        run_scenario(_scenario("solve", {"instance": "random", "n": 3}, space=space))


def test_integral_float_space_fields_build_the_integer_space():
    assert space_from_json({"kind": "euclidean", "dim": 2.0}).dim == 2
    assert space_from_json({"kind": "open_book", "pages": 3.0}).params.pages == 3
    comb = space_from_json({"kind": "comb", "depth": 1.0, "grid": 4.0})
    assert comb.params == space_from_json({"kind": "comb", "depth": 1, "grid": 4}).params
    # integer lengths are numbers too
    star = space_from_json({"kind": "star", "legs": 3, "length": 2})
    assert star.params == space_from_json({"kind": "star", "legs": 3, "length": 2.0}).params


# each experiment's malformed parameters: wrong type, non-integral, boolean,
# non-finite, or a count below one; each must surface as ConfigInvalid at its
# key. A single bad key is named once; inline measures name the bad side, and
# a case that needs a space other than the plane names it third.
OK_MU = {"points": [[0, 0.0, 0.0]]}
BOOK3 = {"kind": "open_book", "pages": 3}
E3 = {"kind": "euclidean", "dim": 3}
TRIPOD = {"kind": "tripod"}
BAD_PARAMS = {
    "solve": [
        {"n": "x"},
        {"n": float("inf")},
        {"n": 6.5},
        {"m": True},
        {"m": 0},
        ("n", {"instance": "translation", "n": [5]}),
        ("mu", {"mu": {}, "nu": OK_MU}),
        ("mu", {"mu": {"points": [["a", 0.0, 0.0]]}, "nu": OK_MU}),
        ("nu", {"mu": OK_MU, "nu": {"points": [[]]}}),
        ("nu", {"mu": OK_MU, "nu": {"points": [[0, 1.0]]}}),
        ("mu", {"mu": {"points": [[1.9, 0.5, 0.0]]}, "nu": OK_MU}, BOOK3),
        ("mu", {"mu": {"points": [[True, 0.2, 0.1]]}, "nu": OK_MU}, BOOK3),
        ("mu", {"mu": {"points": [[0, 0.0, 0.0]], "weights": [True]}, "nu": OK_MU}),
        ("nu", {"mu": OK_MU, "nu": {"points": [[0, 1.0, 0.0]], "weights": ["1.0"]}}),
    ],
    "monotonicity": [{"max_len": 2.5}, {"n": "5"}],
    "twist": [
        {"trials": "a"},
        {"trials": 0},
        {"directions": None},
        ("directions", {"directions": -1}, E3),
        ("directions", {"directions": -4}, BOOK3),
        {"directions": 0},
    ],
    "fermat": [
        {"slope_cap": float("inf")},
        {"slope_cap": True},
        {"n": 9.5},
        {"directions": "16"},
        {"directions": -3},
        ("directions", {"directions": 0}, BOOK3),
        ("directions", {"directions": -3}, TRIPOD),
        ("directions", {"directions": 0}, TRIPOD),
    ],
    "eilenberg": [{"n_samples": "x"}, {"n_samples": 0}, {"epsilon": float("nan")}, {"epsilon": "0.1"}],
    "transport-identity": [
        {"sizes": 5},
        {"sizes": [5, 9.5]},
        {"sizes": ["5", 9]},
        {"sizes": [5, 5]},
        {"sizes": [9, 9, 9]},
        {"sizes": [3, 5]},
    ],
    "polar": [{"trials": True}, {"trials": -1}, {"n": 6.5}, {"n": -2}, {"n": 0}],
    "geometry-suite": [{"samples": [3]}, {"samples": 0}, {"samples": float("nan")}],
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_malformed_parameters_reach_run_scenario_as_config_invalid(experiment, tmp_path, capsys):
    for case in BAD_PARAMS[experiment]:
        key, params, *space = case if isinstance(case, tuple) else (next(iter(case)), case)
        space = space[0] if space else E2
        # built directly, as the benchmark builds its scenarios
        with pytest.raises(ConfigInvalid) as info:
            run_scenario(Scenario(space, experiment, params, 1))
        assert info.value.path == f"params.{key}", params
        # and read from a config file by the CLI
        cfg = _write_config(tmp_path, {"space": space, "params": params, "seed": 1})
        assert main([experiment, "--config", cfg]) == 2, params
        assert capsys.readouterr().err.startswith(f"error: params.{key}:"), params


@pytest.mark.parametrize(
    "experiment, params, sizes",
    [
        ("solve", {"instance": "translation", "n": 101}, (10_201, 10_201)),
        ("solve", {"instance": "random", "n": 10_001}, (10_001, 10_001)),
        ("monotonicity", {"instance": "random", "n": 5, "m": 10_001}, (5, 10_001)),
        ("fermat", {"n": 101}, (10_201, 10_201)),
        ("transport-identity", {"sizes": [5, 101]}, (10_201, 10_201)),
    ],
)
def test_oversized_instances_are_refused_before_any_atom_is_built(experiment, params, sizes, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("an atom was drawn or a measure built")

    monkeypatch.setattr(harness, "_point_draws", built)
    monkeypatch.setattr(transport, "DiscreteMeasure", built)
    with pytest.raises(SupportTooLarge) as info:
        run_scenario(Scenario(E2, experiment, params, 1))
    assert str(info.value) == f"support sizes {sizes} exceed 10000"


@pytest.mark.parametrize(
    "experiment, params, integral",
    [
        ("solve", {"instance": "random", "n": 4, "m": 3}, {"n": 4.0, "m": 3.0}),
        ("monotonicity", {"n": 4, "max_len": 2}, {"n": 4.0, "max_len": 2.0}),
        ("twist", {"trials": 3, "directions": 8}, {"trials": 3.0, "directions": 8.0}),
        ("fermat", {"n": 9, "slope_cap": 10}, {"n": 9.0, "slope_cap": 10.0}),
        ("eilenberg", {"n_samples": 2000, "epsilon": 0.004}, {"n_samples": 2000.0}),
        ("transport-identity", {"sizes": [5, 9]}, {"sizes": [5.0, 9.0]}),
        ("polar", {"trials": 2, "n": 4}, {"trials": 2.0, "n": 4.0}),
        ("geometry-suite", {"samples": 50}, {"samples": 50.0}),
        ("solve", {"mu": {"points": [[0, 0.5, 0.0]]}, "nu": OK_MU},
         {"mu": {"points": [[0.0, 0.5, 0.0]]}}),
        ("solve", {"mu": {"points": [[0, 0.5, 0.0]], "weights": [1.0]}, "nu": OK_MU},
         {"mu": {"points": [[0, 0.5, 0.0]], "weights": [1]}}),
    ],
)
def test_integral_float_parameters_still_run(experiment, params, integral):
    want = run_scenario(Scenario(E2, experiment, params, 5))
    got = run_scenario(Scenario(E2, experiment, {**params, **integral}, 5))
    assert got.metrics == want.metrics
    assert got.passed == want.passed


# ---------------------------------------------------------------------------
# experiment runs


def test_solve_line_report():
    rep = run_scenario(_scenario("solve", {"instance": "line"}))
    assert rep.passed
    assert rep.metrics["cost"]["value"] == pytest.approx(2.0, abs=1e-9)
    assert rep.metrics["duality_gap"]["value"] <= 1e-9
    assert rep.runtime_ms >= 0


def test_eilenberg_square_report():
    rep = run_scenario(_scenario("eilenberg", {"n_samples": 100_000}))
    assert rep.passed
    assert rep.metrics["lhs"]["value"] == pytest.approx(0.785, abs=0.02)
    assert rep.metrics["lhs"]["sigma"] is not None


def test_eilenberg_on_the_largest_comb():
    # comb(3, 16) is at build_comb's caps, with 9,826 vertices; its length is
    # the base segment plus 17 + 17^2 + 17^3 unit teeth
    rep = run_scenario(_scenario("eilenberg", {}, space={"kind": "comb", "depth": 3, "grid": 16}))
    assert rep.passed
    assert rep.metrics["rhs"]["value"] == pytest.approx(1 + 17 + 17**2 + 17**3, abs=1e-9)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("name", ["comb316", "deep_tree", "lopsided_tree", "tripod"])
def test_eilenberg_ends_at_the_first_vertex_farthest_from_the_root(name, request, monkeypatch):
    space = request.getfixturevalue(name)
    impl = space.impl
    start = impl.vertex_point(impl.root)
    # the scalar sweep: max keeps the first of equal keys
    far = max(space.params.vertices, key=lambda v: impl.distance(start, impl.vertex_point(v)))
    ends = []

    def stop_at_the_geodesic(_space, p, q):
        ends.append((p, q))
        raise _Stop

    monkeypatch.setattr(harness, "geodesic", stop_at_the_geodesic)
    with pytest.raises(_Stop):
        harness._run_eilenberg(space, {}, 1)
    assert ends == [(start, impl.vertex_point(far))]
    if name == "tripod":
        assert far == 1  # the three leaves tie, and the first in vertex order wins


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_experiment_runs_deterministically(experiment):
    small = {
        "solve": {"instance": "random", "n": 4},
        "monotonicity": {"n": 5},
        "twist": {"trials": 10},
        "fermat": {"n": 9},
        "eilenberg": {"n_samples": 20_000},
        "transport-identity": {"sizes": [5, 9]},
        "polar": {"trials": 5, "n": 6},
        "geometry-suite": {"samples": 300},
    }[experiment]
    sc = _scenario(experiment, small, seed=7)
    a = render_report(run_scenario(sc))
    b = render_report(run_scenario(sc))
    assert a == b
    assert json.loads(a)["pass"] is True


# ---------------------------------------------------------------------------
# rendering and emission


def test_render_json_shape():
    rep = run_scenario(_scenario("solve", {"instance": "line"}))
    doc = json.loads(render_report(rep))
    assert doc["scenario"]["experiment"] == "solve"
    assert doc["scenario"]["seed"] == 1
    assert "pass" in doc and "metrics" in doc
    assert "runtime_ms" not in doc


def test_one_arc_monotonicity_report_is_strict_json():
    # a single source and target leave no cycle of length 2 to audit
    sc = _scenario("monotonicity", {"n": 1}, seed=3, space={"kind": "tripod"})
    text = render_report(run_scenario(sc))

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    doc = json.loads(text, parse_constant=reject)
    assert doc["metrics"]["worst_slack"]["value"] == 0.0
    assert doc["metrics"]["violations"]["value"] == 0.0


def test_render_csv_shape():
    rep = run_scenario(_scenario("solve", {"instance": "line"}))
    lines = render_report(rep, fmt="csv").splitlines()
    assert lines[0] == "metric,value,sigma"
    assert lines[-1].startswith("pass,")
    names = [ln.split(",")[0] for ln in lines[1:-1]]
    assert names == sorted(names)
    with pytest.raises(ConfigInvalid):
        render_report(rep, fmt="xml")


def test_emit_report_writes_and_fails(tmp_path):
    rep = run_scenario(_scenario("solve", {"instance": "line"}))
    out = tmp_path / "report.json"
    emit_report(rep, str(out))
    assert json.loads(out.read_text())["pass"] is True
    with pytest.raises(IoFailure):
        emit_report(rep, str(tmp_path / "missing" / "report.json"))


def test_run_batch_preserves_order():
    assert run_batch([]) == []
    scs = [
        _scenario("solve", {"instance": "line"}, seed=s) for s in (3, 1, 2)
    ]
    reports = run_batch(scs)
    assert [r.scenario.seed for r in reports] == [3, 1, 2]
    again = run_batch(scs)
    assert [render_report(r) for r in reports] == [render_report(r) for r in again]


@pytest.mark.parametrize("kind", ["tripod", "comb14", "lopsided_tree"])
def test_tree_sampling_draws_as_generator_choice(kind, request):
    space = request.getfixturevalue(kind)
    lens = space.impl._lens
    for seed in range(3):
        got = sample_points(space, substream(seed, "tree-draws"), 200)
        rng = substream(seed, "tree-draws")
        for p in got:
            e = int(rng.choice(len(lens), p=lens / lens.sum()))
            s = float(rng.uniform(0.0, lens[e]))
            assert p == space.impl.normalize(Point(e, (s,)))


@pytest.fixture(scope="module")
def wide_book():
    # the page count past which numpy's bounded integer draw rejects about
    # half of its 32-bit words
    return spaces.build_open_book(2**31 + 1)


@pytest.mark.parametrize("n", [1, 3, 50])
@pytest.mark.parametrize("name", ["e2", "e3", "tripod", "comb316", "book3", "wide_book"])
def test_sample_points_draws_as_point_by_point(name, n, request):
    # the same points, bit for bit, and the generator left in the same state
    space = request.getfixturevalue(name)
    rng, ref = substream(31, f"draws:{n}"), substream(31, f"draws:{n}")
    for _ in range(2):
        assert repr(sample_points(space, rng, n)) == repr(sample_points_by_point(space, ref, n))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("pages", [2, 3, 7, 2**31 + 1, 2**53])
def test_a_page_is_read_off_the_first_double(pages):
    # the least and the greatest random() double give the first and the last page
    space = spaces.build_open_book(pages)
    draws = np.array([[0.0, 0.5, 0.5], [1.0 - 2.0**-53, 0.5, 0.5]])
    charts, _coords = harness._points_from_draws(space, draws)
    assert charts.tolist() == [0, pages - 1]


def test_a_book_of_more_pages_than_exact_floats_is_rejected():
    with pytest.raises(ParamOutOfRange):
        spaces.build_open_book(2**53 + 1)


def test_a_space_kind_with_no_sampler_is_rejected(e2):
    space = dataclasses.replace(e2, kind="cone")
    with pytest.raises(ParamOutOfRange, match="no sampler"):
        sample_points(space, substream(0, "cone"), 3)


@pytest.mark.parametrize("experiment", ["fermat", "transport-identity"])
@pytest.mark.parametrize("dim", [1, 3])
def test_plane_experiments_reject_other_euclidean_dimensions(experiment, dim):
    with pytest.raises(ConfigInvalid) as info:
        run_scenario(Scenario({"kind": "euclidean", "dim": dim}, experiment, {}, 1))
    assert info.value.path == "space"
    assert experiment in str(info.value)


# ---------------------------------------------------------------------------
# command line


def _write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_pass_and_output(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"space": E2, "params": {"instance": "line"}}
    )
    code = main(["solve", "--config", cfg, "--seed", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["metrics"]["cost"]["value"] == pytest.approx(2.0, abs=1e-9)


def test_cli_writes_file_byte_stably(tmp_path):
    cfg = _write_config(
        tmp_path, {"space": E2, "params": {"n_samples": 20_000}, "seed": 4}
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["eilenberg", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["eilenberg", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_certifies_with_the_solvers_own_prices(tmp_path, capsys, monkeypatch):
    # the solve report reads the gap, the slack and feasibility, which any
    # optimal dual pair gives; only solve_kantorovich's default refines
    calls = []
    refine = transport._interior_duals
    monkeypatch.setattr(transport, "_interior_duals", lambda *args: calls.append(args) or refine(*args))
    params = {"instance": "random", "n": 12, "m": 17}
    assert run_scenario(Scenario(E2, "solve", params, 3)).passed
    cfg = _write_config(tmp_path, {"space": E2, "params": params, "seed": 4})
    assert main(["solve", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert calls == []
    space = space_from_json(E2)
    rng = substream(289, "refined-by-default")
    mu, nu = (transport.measure(space, sample_points(space, rng, 289)) for _ in range(2))
    transport.solve_kantorovich(space, mu, nu)
    assert len(calls) == 1


def test_cli_csv_format(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"space": E2, "params": {"instance": "line"}, "seed": 1}
    )
    assert main(["solve", "--config", cfg, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "metric,value,sigma"


def test_cli_failing_experiment_returns_one(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"space": E2, "params": {"n": 9, "slope_cap": 1e-6}, "seed": 1},
    )
    assert main(["fermat", "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_cli_bad_inputs_return_two(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2
    bad = _write_config(tmp_path, {"space": {"kind": "nope"}, "seed": 1}, "bad.json")
    assert main(["solve", "--config", bad]) == 2
    noseed = _write_config(tmp_path, {"space": E2}, "noseed.json")
    assert main(["solve", "--config", noseed]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_space_field_beyond_float_range_returns_two(tmp_path, capsys):
    # JSON reads 1e400 as inf, which no integer field accepts
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"space": {"kind": "euclidean", "dim": 1e400}, "seed": 1}')
    assert main(["solve", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_cli_malformed_parameter_returns_two(tmp_path, capsys):
    cfg = tmp_path / "bad-n.json"
    cfg.write_text('{"space": {"kind": "euclidean", "dim": 2}, "params": {"n": "x"}, "seed": 1}')
    assert main(["solve", "--config", str(cfg)]) == 2
    huge = tmp_path / "huge-n.json"
    huge.write_text('{"space": {"kind": "euclidean", "dim": 2}, "params": {"n": 1e400}, "seed": 1}')
    assert main(["solve", "--config", str(huge)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error: params.n:") == 2
    assert captured.out == ""


# a coordinate of 1e200 is a valid point, but its squared distances overflow;
# one case reaches the assignment path, the other the simplex
HUGE_MU = {"points": [[0, 1e200, 0.0], [0, 1.0, 0.0]]}
HUGE_COSTS = {
    "assignment": {"mu": HUGE_MU, "nu": {"points": [[0, 0.0, 0.0], [0, 2.0, 0.0]]}},
    "simplex": {
        "mu": {**HUGE_MU, "weights": [0.3, 0.7]},
        "nu": {"points": [[0, 0.0, 0.0], [0, 2.0, 0.0], [0, 3.0, 0.0]]},
    },
}


@pytest.mark.parametrize("route", sorted(HUGE_COSTS))
def test_costs_past_the_float_range_are_out_of_range(route, monkeypatch):
    def unreached(*_args):
        raise AssertionError("a solver ran on non-finite costs")

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", unreached)
    monkeypatch.setattr(_simplex, "solve_transport", unreached)
    with pytest.raises(ParamOutOfRange, match="float range"):
        run_scenario(Scenario(E2, "solve", HUGE_COSTS[route], 1))


def test_cli_costs_past_the_float_range_return_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"space": E2, "params": HUGE_COSTS["simplex"], "seed": 1})
    assert main(["solve", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "error: a squared distance" in captured.err
    assert captured.out == ""


# the suite runs all its samples at once through the space's array methods;
# the per-sample loop over the public API must give the same bits

SUITE_SPACES = {
    "e2": E2,
    "e3": {"kind": "euclidean", "dim": 3},
    "book3": {"kind": "open_book", "pages": 3},
    "tripod": {"kind": "tripod"},
    "comb316": {"kind": "comb", "depth": 3, "grid": 16},
    "comb14": {"kind": "comb", "depth": 1, "grid": 4},
    # the conftest trees: uneven lengths, and unit edges 1e20 below the root
    "lopsided_tree": {
        "kind": "tree",
        "vertices": ["a", "b", "c", "d", "e", "f", "g"],
        "edges": [["a", "b", 0.8], ["b", "c", 1.5], ["b", "d", 0.4], ["d", "e", 2.2], ["d", "f", 0.6], ["d", "g", 1.1]],
    },
    "deep_tree": {
        "kind": "tree",
        "vertices": ["r", "a", "b", "c", "d", "e"],
        "edges": [["r", "a", 1e20], ["a", "b", 1.0], ["b", "d", 1.0], ["a", "c", 1.0], ["c", "e", 1.0]],
    },
}


@pytest.mark.parametrize("name", sorted(SUITE_SPACES))
@pytest.mark.parametrize("seed", [3, 8, 101, 102, 103])
def test_geometry_suite_matches_the_public_api_loop(name, seed):
    space = SUITE_SPACES[name]
    samples = 100 if name == "comb316" else 300
    rep = run_scenario(_scenario("geometry-suite", {"samples": samples}, seed, space))
    want = geometry_suite_by_public_api(space_from_json(space), samples, seed)
    assert all(cell["sigma"] is None for cell in rep.metrics.values())
    got = {k: float(cell["value"]).hex() for k, cell in rep.metrics.items()}
    assert got == {k: float(v).hex() for k, v in want.items()}


@pytest.mark.parametrize("name", ["book3", "comb14", "e3", "lopsided_tree"])
def test_the_suite_gives_the_same_bits_in_any_chunk_size(name, monkeypatch):
    monkeypatch.setattr(harness, "SUITE_CHUNK", 7)
    space = SUITE_SPACES[name]
    rep = run_scenario(_scenario("geometry-suite", {"samples": 100}, 101, space))
    want = geometry_suite_by_public_api(space_from_json(space), 100, 101)
    assert {k: float(cell["value"]).hex() for k, cell in rep.metrics.items()} == {
        k: float(v).hex() for k, v in want.items()
    }


@pytest.mark.parametrize("name", ["book3", "comb14", "comb316", "e2", "tripod"])
def test_the_suite_makes_as_many_scalar_calls_at_any_size(name, monkeypatch):
    calls = Counter()

    def counted(key, original):
        def call(*args):
            calls[key] += 1
            return original(*args)

        return call

    monkeypatch.setattr(harness, "cat0_defect", counted("cat0_defect", harness.cat0_defect))
    for cls in (spaces.BookImpl, spaces.EuclideanImpl, spaces.TreeImpl):
        for method in ("distance", "geodesic"):
            monkeypatch.setattr(cls, method, counted(method, getattr(cls, method)))
    counts = []
    for samples in (50, 500):
        calls.clear()
        assert run_scenario(_scenario("geometry-suite", {"samples": samples}, 5, SUITE_SPACES[name])).passed
        counts.append(dict(calls))
    # the least and the greatest defect, checked again through the public API
    assert counts[0] == counts[1]
    assert counts[0]["cat0_defect"] == 2


def test_the_suite_fails_when_the_public_defect_disagrees(monkeypatch):
    monkeypatch.setattr(harness, "cat0_defect", lambda *args: 0.5)
    assert not run_scenario(_scenario("geometry-suite", {"samples": 20}, 5, SUITE_SPACES["tripod"])).passed


# twist runs every trial's directions at once through the space's array
# methods; the per-trial loop over direction_set and twist_test must give the
# same bits, on deep_tree too, whose frac_holds of 1.0 is wrong for a tree

TWIST_SPACES = ["book3", "comb14", "comb316", "deep_tree", "e2", "tripod"]


@pytest.mark.parametrize("name", TWIST_SPACES)
@pytest.mark.parametrize("params", [{}, {"trials": 3, "directions": 1}, {"directions": 5}])
@pytest.mark.parametrize("seed", [3, 101, 102])
def test_twist_matches_the_per_trial_loop(name, params, seed):
    space = space_from_json(SUITE_SPACES[name])
    trials, count = params.get("trials", 20), params.get("directions", 16)
    probes = harness._twist_probes(space, trials, substream(seed, "twist"))
    want = []
    for x, y1, y2 in probes:
        dirs = direction_set(space, x, targets=[y1, y2], count=count, seed=seed)
        # the vectorized pass takes every derivative at s = 0.0
        assert all(parameter_on(space, g, x) == 0.0 for g in dirs)
        want.append(twist_test(space, x, y1, y2, dirs))
    gaps = calculus._twist_gaps(space, probes, count, seed).tolist()
    assert [g.hex() for g in gaps] == [rep.max_gap.hex() for rep in want]
    assert [g > calculus.GAP_TOL for g in gaps] == [rep.twist_holds for rep in want]
    # and the report is the loop's
    rep = run_scenario(Scenario(SUITE_SPACES[name], "twist", params, seed))
    frac = sum(r.twist_holds for r in want) / trials
    assert {k: float(cell["value"]).hex() for k, cell in rep.metrics.items()} == {
        "trials": float(trials).hex(),
        "min_gap": min(r.max_gap for r in want).hex(),
        "max_gap": max(r.max_gap for r in want).hex(),
        "frac_holds": frac.hex(),
    }
    assert rep.passed == (frac == 0.0 if space.kind == "tree" else frac == 1.0)


def test_twist_past_the_float_range_fails_as_the_per_trial_loop_does():
    # squared distances past the float range make every quotient nan, which
    # twist_test reports as ParamOutOfRange; no numpy warning may come first
    sc = Scenario({"kind": "star", "legs": 3, "length": 1e200}, "twist", {"trials": 3}, 1)
    with pytest.raises(ParamOutOfRange, match="no room for any quotient"):
        run_scenario(sc)


@pytest.mark.parametrize("name", ["e2", "tripod"])
@pytest.mark.parametrize(
    "perturb",
    [
        lambda rep: dataclasses.replace(rep, max_gap=math.nextafter(rep.max_gap, math.inf)),
        lambda rep: dataclasses.replace(rep, twist_holds=not rep.twist_holds),
    ],
    ids=["max_gap", "twist_holds"],
)
def test_twist_fails_when_the_public_twist_test_disagrees(name, perturb, monkeypatch):
    sc = Scenario(SUITE_SPACES[name], "twist", {"trials": 4}, 5)
    assert run_scenario(sc).passed
    public = harness.twist_test
    monkeypatch.setattr(harness, "twist_test", lambda *args: perturb(public(*args)))
    assert not run_scenario(sc).passed


@pytest.mark.parametrize("name", ["book3", "comb14", "e2", "tripod"])
def test_twist_runs_the_scalar_path_only_in_its_rechecks(name, monkeypatch):
    calls = Counter()
    inside = []

    def recheck(key, original):
        def call(*args, **kwargs):
            calls[key] += 1
            inside.append(key)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        return call

    plain_eval = Geodesic.eval

    def counted_eval(g, t):
        calls["eval" if inside else "eval outside the rechecks"] += 1
        return plain_eval(g, t)

    monkeypatch.setattr(harness, "twist_test", recheck("twist_test", harness.twist_test))
    monkeypatch.setattr(harness, "direction_set", recheck("direction_set", harness.direction_set))
    monkeypatch.setattr(Geodesic, "eval", counted_eval)
    for trials in (1, 20, 40):
        calls.clear()
        assert run_scenario(Scenario(SUITE_SPACES[name], "twist", {"trials": trials}, 9)).passed
        # the least and the greatest gap, checked again through the public API
        assert calls["twist_test"] == calls["direction_set"] == 2
        assert calls["eval"] > 0
        assert calls["eval outside the rechecks"] == 0


# report bytes pinned by sha256 of the json and csv renderings, computed before
# tree routes, tree geodesics, twist derivatives and space reuse were reworked
# to do each piece of work once; any change to the bits of a metric shows here.
# The book3 reports that sample points were recorded again when a book page
# was read off a random() double, which moved their points

COMB14 = {"kind": "comb", "depth": 1, "grid": 4}
PINNED_REPORTS = {
    "comb14-suite": (
        (COMB14, "geometry-suite", {"samples": 100}, 11),
        "a635a8fae807120a1e209b04a8e49e566829aec0913c59ebf7a9bfc9402dc1fa",
    ),
    "tripod-suite": (
        (TRIPOD, "geometry-suite", {"samples": 100}, 12),
        "33604d0d8282d9b581c2c013989e7808e20086f05864c627bec9aeaec30e6869",
    ),
    "book3-suite": (
        (BOOK3, "geometry-suite", {"samples": 100}, 13),
        "7d9994f4222431df7451008ef03a94dd4b5a7afc00caf9315252b517b8010380",
    ),
    "e2-suite": (
        (E2, "geometry-suite", {"samples": 100}, 14),
        "9f29b83f406ea051e91fc5192d3100653b28a5be2b5eebe1e7165dc6cc896441",
    ),
    "tripod-twist": (
        (TRIPOD, "twist", {}, 15),
        "cb32741f0cc71278c252b8d6f1f2ad9e30cdf141663db11bf155ea02896e6f77",
    ),
    "book3-twist": (
        (BOOK3, "twist", {}, 16),
        "d14f58e2259b50837db8dca8a6b06dc257e2c6a0fd82ee7d592777538f7c8b38",
    ),
    "e2-twist": (
        (E2, "twist", {}, 17),
        "12cfbf39f073eab0007a5ad175db1d2cd5459c98110f9d1d5c0546543a94a088",
    ),
    # the three solves were recorded again when the transportation simplex went
    # to candidate-list pricing: the pivot path moved the flows' last bits
    "comb316-solve": (
        (SUITE_SPACES["comb316"], "solve", {"instance": "random", "n": 24, "m": 24}, 18),
        "764ebd9129f898532551e4afeef226780cbd68179f9448c13182f84e2f792d8d",
    ),
    # computed before interior duals were refined from the solver's prices;
    # the raw exchange closure skipped refinement on both plans. Recorded
    # again when the simplex began from entropic prices: the pivot path moved
    # the flows' last bits
    "e2-solve": (
        (E2, "solve", {"instance": "random", "n": 150, "m": 150}, 2),
        "c680cf5333c956e0b0fcf9b80859304b47a1def5cb10dda33eac9fa233148141",
    ),
    "book3-solve": (
        (BOOK3, "solve", {"instance": "random", "n": 95, "m": 105}, 2),
        "2132d2eaca540b7f8dcacdcdb48df5712ace13996a546d4e3802923cee71297a",
    ),
    # computed before geodesics stopped storing their breakpoints: the suite
    # whose geodesics cross the most tree edges
    "comb316-suite": (
        (SUITE_SPACES["comb316"], "geometry-suite", {"samples": 50}, 19),
        "eb2e51c14f22253d7211879a390e1ec5effbe693018d00c629bcf1610144f1b4",
    ),
    # the comb316-suite settings on the other suite spaces, computed before
    # geodesics took their endpoints from their callers and before sample_points
    # drew in one block
    "e2-suite-19": (
        (E2, "geometry-suite", {"samples": 50}, 19),
        "0f470f1f282be93fb86625b5b4079da84e0d32899d976c4ba71bf9d55306a297",
    ),
    "book3-suite-19": (
        (BOOK3, "geometry-suite", {"samples": 50}, 19),
        "a991d1f44d4905744b30eae792f48bafb5a363c4a32c67064aab08e3bba05d4a",
    ),
    "tripod-suite-19": (
        (TRIPOD, "geometry-suite", {"samples": 50}, 19),
        "10a690daf10217a906e686f84cf6d7d4530573026042dd36b5d3b0ef0d8a9806",
    ),
    "comb14-suite-19": (
        (COMB14, "geometry-suite", {"samples": 50}, 19),
        "06574d6808299c90f4f70f82c232cd6f2557de04b412779218e47cbaeafe3959",
    ),
    # computed before twist ran every trial's directions in one vectorized pass
    "comb14-twist": (
        (COMB14, "twist", {}, 20),
        "c01b83fecea95646fa66dbcd88f73b8e0c4317c7a4da5442305b18548ad18b8d",
    ),
    "e2-twist-5x7": (
        (E2, "twist", {"trials": 5, "directions": 7}, 21),
        "d026a96b64056b5b86b52a9425f86138f58750b832768f8ad308adadc73ac981",
    ),
    # fermat takes its derivatives through the same difference quotients and
    # is in no benchmark workload; computed before the quotients evaluated
    # only the two steps they read
    "e2-fermat": (
        (E2, "fermat", {}, 22),
        "b5422783aabb0b458273605ea5c3e7bcdc838895ecdfe5c89b5184801316c358",
    ),
    "book3-fermat": (
        (BOOK3, "fermat", {}, 23),
        "bb70458c51f80326bea0bd882c48a18b7d55cecf8a376ea0bdfa2b82870f26e4",
    ),
    "tripod-fermat": (
        (TRIPOD, "fermat", {}, 24),
        "ea0ecf551c8b9d33e88918aff4e4c836f8c1bb16cad2e44b7bf2c43dddd29ae6",
    ),
    "comb14-fermat": (
        (COMB14, "fermat", {}, 25),
        "b10525cc6a236cd7462351c29e6d102b8493159e537d28e17b837e8595a8a691",
    ),
}


# the combined and the extra digest that `tests/report_digest.py 101` prints,
# over every benchmark workload report and the reports outside the workloads,
# and each workload's own digest, so that a failure names the workload that
# moved; recorded again when a book page was read off a random() double and
# the transport-identity order was fitted by left folds, when the solve
# experiment kept the solver's own prices, and when the entropic start's
# scalings were over-relaxed (simplex solve costs moved in their last bits)
REPORT_DIGESTS_101 = (
    "a2e650be947b04903f9c80913c9e62a3196795fd588baed64e9db0f614330408",
    "59b0eefbea0c5bf0411a7150093e94294eacf6fa59ec696ecc86493f55c5bb39",
)
WORKLOAD_DIGESTS_101 = {
    "assign-grid": "8a48a7d06fcdecc942a2ebb9cefbfdb27cffd36ffedf25ce5bec829e5eb310b5",
    "batch-sweep": "45f2fd93562d0ae3bfc96d2959266f65dab1b22f4149a7d35160f6298c81ab0d",
    "geometry-tree": "6ac4f792a8cdf020de26545b9159a9a64e659da6b626488a922fbb041c0cb442",
    "simplex-random": "53c9ac33562d22a4a184c37832136b0b05f8accd65c2a2c3b47ab319ff4f8c6f",
}


def test_report_digests_are_pinned_at_seed_101():
    per_workload, combined, count = report_digest.report_digests([101])
    extra, _extra_count = report_digest.extra_digest([101])
    assert count == 64
    assert per_workload == WORKLOAD_DIGESTS_101
    assert (combined, extra) == REPORT_DIGESTS_101


def _digests_at_seed_101_under(**env) -> None:
    """Run `tests/report_digest.py 101` in a fresh interpreter with env set, and
    check its digests against the pins; an ImportWarning (numpy's for a CPU
    feature name it rejects) is an error there."""
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]), **env)
    script = [sys.executable, "-W", "error::ImportWarning", report_digest.__file__, "101"]
    run = subprocess.run(script, env=env, capture_output=True, text=True, check=True)
    digests = [line.split()[0] for line in run.stdout.splitlines()]
    assert digests == [WORKLOAD_DIGESTS_101[name] for name in sorted(WORKLOAD_DIGESTS_101)] + [
        REPORT_DIGESTS_101[1],
        REPORT_DIGESTS_101[0],
    ]


def test_report_digests_at_seed_101_read_no_blas_kernel():
    # a DYNAMIC_ARCH OpenBLAS picks its kernels by CPU, and they sum in
    # different orders; forcing an old one (OPENBLAS_CORETYPE, which any
    # other BLAS ignores) must leave every pinned report as it is
    _digests_at_seed_101_under(OPENBLAS_CORETYPE="Prescott")


def test_report_digests_at_seed_101_read_no_simd_kernel():
    # numpy picks its float32 exp and log loops, which the entropic start
    # runs, among the dispatch targets the CPU supports; with every target
    # disabled it runs its baseline loops, and every pinned report holds
    from numpy._core._multiarray_umath import __cpu_dispatch__

    _digests_at_seed_101_under(NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))


def test_report_digest_names_the_metrics_that_moved():
    # two solves, one with its cost nudged and its pass flag flipped, and a
    # record whose sigma moved
    sink = []
    for seed in (5, 6):
        report_digest._rendered(Scenario(E2, "solve", {"instance": "random", "n": 6, "m": 7}, seed), sink, "w")
    old = report_digest.report_metrics(sink)
    assert [r["group"] for r in old] == ["w", "w"] and all(r["passed"] for r in old)
    new = json.loads(json.dumps(old))
    assert report_digest.compare_metrics(old, new)[:2] == ["0 of 2 reports moved", f"{'w':>22}    0/2    reports moved"]
    cost = new[1]["metrics"]["cost"]
    cost["value"] *= 1.5
    new[1]["passed"] = False
    new[0]["metrics"]["cost"]["sigma"] = 0.25
    lines = report_digest.compare_metrics(old, new)
    assert lines[0] == "2 of 2 reports moved"
    [moved] = [line for line in lines if line.split()[:2] == ["solve", "cost"]]
    assert moved.split()[2:] == ["1/2", "max", "|d|", f"{cost['value'] / 3:.3g}", "max", "rel", "0.5"]
    [sigma] = [line for line in lines if line.split()[:2] == ["solve", "cost.sigma"]]
    assert sigma.split()[2] == "1/1"
    assert lines[-1] == "pass flag flipped: report 1 (solve) True -> False"
    # records of other scenarios are not compared
    with pytest.raises(SystemExit):
        report_digest.compare_metrics(old, new[::-1])


def _recorded_polar_batches(monkeypatch) -> list:
    """Patches the polar experiment's batch to record (charts, coords, result) per call."""
    calls = []

    def recorded(space, charts, coords):
        calls.append((charts, coords, polar._factor_trials(space, charts, coords)))
        return calls[-1][2]

    monkeypatch.setattr(harness, "_factor_trials", recorded)
    return calls


@pytest.mark.parametrize("space", [E2, BOOK3, TRIPOD, COMB14], ids=["e2", "book3", "tripod", "comb14"])
def test_the_polar_experiment_factors_maps_that_move_atoms(space, monkeypatch):
    calls = _recorded_polar_batches(monkeypatch)
    assert run_scenario(Scenario(space, "polar", {}, 101)).passed
    ((charts, coords, (t_targets, _u, _residual, _kept)),) = calls
    assert t_targets.shape == (20, 6)
    # the optimal map onto s#mu moves every atom of mu, in every trial
    at = 6 + t_targets
    moved = charts[:, :6] != np.take_along_axis(charts, at, axis=1)
    moved |= (coords[:, :6] != np.take_along_axis(coords, at[..., None], axis=1)).any(axis=2)
    assert moved.all()


@pytest.mark.parametrize("seed", [101, 102, 103])
@pytest.mark.parametrize("n", [1, 4, 6, 9, 17])
@pytest.mark.parametrize("space", [E2, TRIPOD, BOOK3, COMB14], ids=["e2", "tripod", "book3", "comb14"])
def test_the_polar_batch_equals_the_loop_of_public_calls(space, n, seed, monkeypatch):
    calls = _recorded_polar_batches(monkeypatch)
    public = []
    monkeypatch.setattr(polar, "_factor_row", lambda *args: public.append(args))
    sc = Scenario(space, "polar", {"n": n}, seed)
    rep = run_scenario(sc)
    assert public == []  # the batch factors every sampled trial itself
    handle = space_from_json(space)
    metrics, passed, trials = polar_in_turn(handle, polar_draws_by_point(handle, 20, n, seed))
    ((charts, coords, (t_targets, u_targets, residual, kept)),) = calls
    for t, (mu, fact, preserved) in enumerate(trials):
        assert tuple(t_targets[t].tolist()) == fact.T.targets
        assert tuple(u_targets[t].tolist()) == fact.u.targets
        assert tuple(mu.points[k] for k in fact.u.targets) == fact.u.points
        assert float(residual[t]).hex() == fact.residual.hex()
        assert bool(kept[t]) == preserved
    # the batch's points are the trials' atoms and images
    assert [Point(c, tuple(x)) for c, x in zip(charts[0, :n].tolist(), coords[0, :n].tolist())] == list(trials[0][0].points)
    want = Report(sc, {k: {"value": v, "sigma": None} for k, v in metrics.items()}, passed, 0)
    assert rep.passed and render_report(rep) + render_report(rep, "csv") == render_report(want) + render_report(want, "csv")


def _report_hash(name):
    (space, experiment, params, seed), _want = PINNED_REPORTS[name]
    rep = run_scenario(Scenario(space, experiment, params, seed))
    text = render_report(rep) + render_report(rep, "csv")
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(name):
    assert _report_hash(name) == PINNED_REPORTS[name][1]


@pytest.mark.parametrize("name", sorted(n for n, (sc, _want) in PINNED_REPORTS.items() if sc[1] == "twist"))
@pytest.mark.parametrize("chunk", [1, 3 * 3])
def test_twist_reports_keep_their_bytes_in_any_chunk_size(name, chunk, monkeypatch):
    # one direction per pass, and three
    monkeypatch.setattr(calculus, "TWIST_CHUNK", chunk)
    assert _report_hash(name) == PINNED_REPORTS[name][1]


def test_geodesic_lengths_do_not_depend_on_the_builtin_sum(monkeypatch, compensated_sum):
    # the emulation differs from a left fold where rounding errors build up
    assert compensated_sum([0.1] * 10) == 1.0
    monkeypatch.setattr(geometry, "sum", compensated_sum, raising=False)
    assert _report_hash("comb316-suite") == PINNED_REPORTS["comb316-suite"][1]


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_bytes_do_not_depend_on_the_builtin_sum(name, compensated_package_sum):
    assert _report_hash(name) == PINNED_REPORTS[name][1]
