from __future__ import annotations

import json
import os

import pytest

from cat0ot import ConfigInvalid, IoFailure
from cat0ot.cli import main
from cat0ot.harness import (
    EXPERIMENTS,
    Report,
    Scenario,
    emit_report,
    render_report,
    run_batch,
    run_scenario,
    scenario_from_config,
)

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


def test_malformed_space_fails_at_run():
    sc = _scenario("solve", {"instance": "line"}, space={"kind": "dodecahedron"})
    with pytest.raises(ConfigInvalid):
        run_scenario(sc)


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


def test_run_batch_preserves_order(monkeypatch):
    monkeypatch.setenv("CAT0OT_THREADS", "3")
    scs = [
        _scenario("solve", {"instance": "line"}, seed=s) for s in (3, 1, 2)
    ]
    reports = run_batch(scs)
    assert [r.scenario.seed for r in reports] == [3, 1, 2]
    again = run_batch(scs)
    assert [render_report(r) for r in reports] == [render_report(r) for r in again]


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
