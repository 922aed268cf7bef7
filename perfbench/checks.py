"""Output checks run outside the timed window.

Every ``solve`` and ``monotonicity`` cost is compared at 1e-9 with a
reference that shares no solver code with cat0ot: the cost matrix is rebuilt
here from the raw atoms (tree distances through scipy's csgraph Dijkstra,
book distances through the two-case unfolding formula) and solved with
``scipy.optimize.linprog(method="highs")`` where the LP fits the time budget,
with the closed form |shift|^2 / 2 on translation grids, and with
``linear_sum_assignment`` on the rebuilt matrix for large uniform square
instances. The other experiments are checked against the invariants they
certify, restated here so that a report whose pass flag is wrong still fails.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.optimize
import scipy.sparse
from scipy.sparse.csgraph import dijkstra

from cat0ot import cli
from cat0ot.harness import random_instance, render_report, run_scenario
from cat0ot.spaces import space_from_json
from cat0ot.transport import measure_from_json

TOL = 1e-9
# largest n * m solved as an LP reference; 289 x 289 takes about 1.3 s
LP_CELLS = 90_000


def _points(measure) -> tuple[np.ndarray, np.ndarray]:
    charts = np.array([p.chart for p in measure.points], dtype=np.int64)
    coords = np.array([p.coords for p in measure.points], dtype=float)
    return charts, coords


def _tree_costs(space, mu, nu) -> np.ndarray:
    vertices = space.params.vertices
    edges = space.params.edges
    vid = {v: k for k, v in enumerate(vertices)}
    ea = np.array([vid[a] for a, _b, _ln in edges])
    eb = np.array([vid[b] for _a, b, _ln in edges])
    ln = np.array([e[2] for e in edges])
    graph = scipy.sparse.csr_matrix((ln, (ea, eb)), shape=(len(vertices),) * 2)
    xc, xs = _points(mu)
    yc, ys = _points(nu)
    xs, ys = xs[:, 0], ys[:, 0]
    ends = np.unique(np.concatenate([ea[xc], eb[xc]]))
    rows = dijkstra(graph, directed=False, indices=ends)
    row_of = {int(v): k for k, v in enumerate(ends)}
    da = rows[[row_of[int(v)] for v in ea[xc]]]  # from each source's first endpoint
    db = rows[[row_of[int(v)] for v in eb[xc]]]
    up_x = xs[:, None]
    dn_x = (ln[xc] - xs)[:, None]
    up_y = ys[None, :]
    dn_y = (ln[yc] - ys)[None, :]
    d = np.minimum.reduce(
        [
            up_x + da[:, ea[yc]] + up_y,
            up_x + da[:, eb[yc]] + dn_y,
            dn_x + db[:, ea[yc]] + up_y,
            dn_x + db[:, eb[yc]] + dn_y,
        ]
    )
    same = xc[:, None] == yc[None, :]
    d = np.where(same, np.minimum(d, np.abs(up_x - up_y)), d)
    return 0.5 * d * d


def reference_costs(space, mu, nu) -> np.ndarray:
    """Half squared distances between the atoms, computed without cat0ot geometry."""
    if space.kind == "tree":
        return _tree_costs(space, mu, nu)
    xc, x = _points(mu)
    yc, y = _points(nu)
    if space.kind == "euclidean":
        return 0.5 * ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    if space.kind == "open_book":
        same = xc[:, None] == yc[None, :]
        du = np.where(same, x[:, None, 0] - y[None, :, 0], x[:, None, 0] + y[None, :, 0])
        dv = x[:, None, 1] - y[None, :, 1]
        return 0.5 * (du * du + dv * dv)
    raise ValueError(f"no reference distance for {space.kind!r}")


def lp_cost(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    n, m = C.shape
    cells = np.arange(n * m)
    rows = np.concatenate([cells // m, n + cells % m])
    A = scipy.sparse.csr_matrix((np.ones(2 * n * m), (rows, np.tile(cells, 2))), shape=(n + m, n * m))
    # one marginal row is implied by the others
    res = scipy.optimize.linprog(
        C.ravel(), A_eq=A[:-1], b_eq=np.concatenate([a, b])[:-1], bounds=(0, None), method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def reference_cost(space, scenario) -> float:
    params = scenario.params
    if params.get("instance") == "translation":
        n = int(params["n"])
        h = 1.0 / (n - 1)
        return 0.5 * (round((n - 1) / 4) * h) ** 2
    if "mu" in params:
        mu, nu = measure_from_json(space, params["mu"]), measure_from_json(space, params["nu"])
    else:
        n = int(params["n"])
        mu, nu = random_instance(space, scenario.seed, n, int(params.get("m", n)))
    C = reference_costs(space, mu, nu)
    a, b = np.asarray(mu.weights), np.asarray(nu.weights)
    n, m = C.shape
    if n * m <= LP_CELLS:
        return lp_cost(C, a, b)
    if n == m and np.allclose(a, 1.0 / n, rtol=0, atol=1e-12) and np.allclose(b, 1.0 / n, rtol=0, atol=1e-12):
        rows, cols = scipy.optimize.linear_sum_assignment(C)
        return float(C[rows, cols].sum() / n)
    raise ValueError(f"no reference within budget for a {n} x {m} instance")


def _value(report, key: str) -> float:
    return report.metrics[key]["value"]


def _eilenberg_volume(space) -> float:
    """Closed-form volume of the region the harness eilenberg experiment uses."""
    if space.kind == "euclidean":
        return 1.0
    if space.kind == "tree":
        return float(sum(e[2] for e in space.params.edges))
    return math.pi * 0.4**2


def check(scenario, report, spaces: dict) -> list[str]:
    """Problems found in one report; empty when the output is correct."""
    if not report.passed:
        return ["report pass flag is false"]
    space = spaces[space_key(scenario.space)]
    exp = scenario.experiment
    bad = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    if exp in ("solve", "monotonicity"):
        ref = reference_cost(space, scenario)
        gap = abs(_value(report, "cost") - ref)
        need(gap <= TOL, f"cost differs from the reference by {gap:.3e}")
        if exp == "solve":
            for key in ("duality_gap", "slack_max", "marginal_error"):
                need(_value(report, key) <= TOL, f"{key} = {_value(report, key):.3e}")
        else:
            need(_value(report, "violations") == 0, "cyclic monotonicity violated")
    elif exp == "geometry-suite":
        need(_value(report, "samples") == scenario.params["samples"], "sample count")
        need(_value(report, "min_defect") >= -TOL, "negative CAT(0) defect")
        need(_value(report, "max_triangle_violation") <= TOL, "triangle inequality")
        need(_value(report, "max_symmetry_error") <= 1e-12, "asymmetric distance")
        need(_value(report, "max_speed_deviation") <= TOL, "geodesic speed")
        if space.kind == "euclidean":
            need(_value(report, "max_defect") <= TOL, "nonzero flat defect")
    elif exp == "twist":
        want = 0.0 if space.kind == "tree" else 1.0
        need(_value(report, "frac_holds") == want, "twist verdicts")
    elif exp == "polar":
        need(_value(report, "residual_max") <= TOL, "polar residual")
        need(_value(report, "frac_measure_preserving") == 1.0, "u not measure preserving")
    elif exp == "eilenberg":
        rhs = _eilenberg_volume(space)
        need(abs(_value(report, "rhs") - rhs) <= TOL * max(1.0, rhs), "region volume")
        need(_value(report, "holds") == 1.0, "shell bound")
    elif exp == "transport-identity":
        need(_value(report, "exact_translation") == 1.0, "translation map")
        need(_value(report, "order") >= 0.9, "first-order convergence")
        need(_value(report, "frac_quarter_pitch") >= 0.95, "quarter-pitch residuals")
    else:
        bad.append(f"no check for experiment {exp!r}")
    return bad


def space_key(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def build_spaces(docs) -> dict:
    return {space_key(doc): space_from_json(doc) for doc in docs}


def cli_parity(scenario, workdir: str) -> bool:
    """cli.main on a written config must write the bytes render_report gives."""
    os.makedirs(workdir, exist_ok=True)
    cfg = os.path.join(workdir, "parity-config.json")
    out = os.path.join(workdir, "parity-report.json")
    doc = {
        "space": scenario.space,
        "experiment": scenario.experiment,
        "params": scenario.params,
        "seed": scenario.seed,
    }
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code = cli.main([scenario.experiment, "--config", cfg, "--out", out])
    with open(out, "r", encoding="utf-8") as fh:
        via_cli = fh.read()
    return code == 0 and via_cli == render_report(run_scenario(scenario))
