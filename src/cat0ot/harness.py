"""Scenario runner: wires spaces, calculus, and transport into reproducible reports."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Optional

import numpy as np

from .calculus import (
    GAP_TOL,
    _cost_to,
    _shell_estimate,
    _twist_gaps,
    direction_set,
    fermat_check,
    geodesic_derivative,
    twist_test,
)
from .errors import (
    Cat0otError,
    ConfigInvalid,
    IoFailure,
    ParamOutOfRange,
    config_float,
    config_int,
)
from .geometry import (
    BallRegion,
    BoxRegion,
    Point,
    SpaceHandle,
    TreeRegion,
    _row_points,
    cat0_defect,
    geodesic,
)
from .polar import _factor_row, _factor_trials
from .rng import substream
from .spaces import space_from_json
from .transport import (
    DiscreteMeasure,
    GridPotential,
    _check_support,
    _identity_rows,
    _measure_rows,
    check_cyclic_monotonicity,
    extract_monge_map,
    measure_from_json,
    solve_kantorovich,
    verify_transport_identity,
)

LADDER = (5, 9, 17, 33, 49)


@dataclass(frozen=True)
class Scenario:
    """One experiment request: a space, an experiment tag, params, and a seed."""

    space: dict
    experiment: str
    params: dict
    seed: int


@dataclass(frozen=True)
class Report:
    """Outcome of a scenario; runtime is informational and kept out of serialized bytes."""

    scenario: Scenario
    metrics: dict[str, dict[str, Optional[float]]]
    passed: bool
    runtime_ms: int


def _metric(value: float, sigma: Optional[float] = None) -> dict[str, Optional[float]]:
    return {"value": float(value), "sigma": None if sigma is None else float(sigma)}


# ---------------------------------------------------------------------------
# instance builders (shared with the test suite)


def sample_points(space: SpaceHandle, rng: np.random.Generator, n: int) -> list[Point]:
    """Draw n normal points spread over a bounded patch of the space.

    Every point reads `_draw_width(space)` random() doubles. A euclidean
    point is uniform in [-1, 1]^dim. A tree point picks an edge with
    probability proportional to its length, then a uniform offset on it. A
    book point's page is int(pages * r) for its first double r, then (u, v)
    is uniform in [0, 1] x [-1, 1]. The points come from one block of draws,
    so n points are those of n one-point calls, and `rng` is left in the same
    state.
    """
    return _row_points(*_points_from_draws(space, _point_draws(space, rng, n)))


def _draw_width(space: SpaceHandle) -> int:
    """The random() doubles one point takes: its coordinates on a euclidean
    space, an edge and an offset on a tree, a page and (u, v) on a book."""
    return space.dim if space.kind == "euclidean" else 2 if space.kind == "tree" else 3


def _point_draws(
    space: SpaceHandle, rng: np.random.Generator, n: int, points: int = 1, extra: int = 0
) -> np.ndarray:
    """n rows of random() doubles, each those of `points` points and then
    `extra` more."""
    return rng.random((n, points * _draw_width(space) + extra))


def _points_from_draws(space: SpaceHandle, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(charts, coords) of the normal points that `sample_points` makes of
    `_point_draws` rows. uniform(lo, hi) is lo + (hi - lo) * random()."""
    if space.kind == "euclidean":
        return np.zeros(len(draws), dtype=np.int64), -1.0 + 2.0 * draws
    impl = space.impl
    if space.kind == "open_book":
        # exact and below pages while pages is an exact float (build_open_book)
        page = (space.params.pages * draws[:, 0]).astype(np.int64)
        return impl._normal_rows(page, np.stack([draws[:, 1], -1.0 + 2.0 * draws[:, 2]], axis=1))
    if space.kind != "tree":
        raise ParamOutOfRange(f"no sampler for space kind {space.kind!r}")
    # the draw of Generator.choice(len(lens), p=lens / lens.sum()), then that
    # of uniform(0, lens[e])
    edges = np.searchsorted(impl._cdf, draws[:, 0], side="right")
    return impl._normal_rows(edges, (impl._lens[edges] * draws[:, 1])[:, None])


def line_instance(space: SpaceHandle) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Two unit-spaced sources pushed two units along the first axis."""
    if space.kind != "euclidean":
        raise ConfigInvalid("params.instance", "the line instance needs a euclidean space")
    xs = np.arange(4.0)[:, None] * np.eye(1, space.dim)  # 0, 1, 2 and 3 on the first axis
    charts = np.zeros(2, dtype=np.int64)
    return _measure_rows(space, charts, xs[:2]), _measure_rows(space, charts, xs[2:])


def translation_instance(
    space: SpaceHandle, n: int
) -> tuple[DiscreteMeasure, DiscreteMeasure, tuple[float, float], float]:
    """Uniform n-by-n grid on the unit square shifted by a quarter-width vector.

    Returns (mu, nu, shift, pitch). The shift is axis-aligned and snaps to the
    grid, so the optimal map is a pure lattice translation. Source atoms are
    ordered with the second coordinate fastest, matching grid-potential nodes.
    """
    if space.kind != "euclidean" or space.dim != 2:
        raise ConfigInvalid("space", "translation instances live on the euclidean plane")
    if n < 2:
        raise ConfigInvalid("params.n", "grid needs at least 2 nodes per side")
    _check_support(n * n, n * n)
    h = 1.0 / (n - 1)
    shift = (round((n - 1) / 4) * h, 0.0)
    axis = np.arange(n) * h  # node i at i * h, to the bit
    xs = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(n * n, 2)
    charts = np.zeros(n * n, dtype=np.int64)
    return _measure_rows(space, charts, xs), _measure_rows(space, charts, xs + shift), shift, h


def random_instance(
    space: SpaceHandle, seed: int, n: int, m: Optional[int] = None
) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Random atoms with random weights on both sides."""
    m = n if m is None else m
    _check_support(n, m)
    rng_mu = substream(seed, "mu")
    rng_nu = substream(seed, "nu")
    mu_rows = _points_from_draws(space, _point_draws(space, rng_mu, n))
    nu_rows = _points_from_draws(space, _point_draws(space, rng_nu, m))
    wa = rng_mu.uniform(0.5, 1.5, n)
    wb = rng_nu.uniform(0.5, 1.5, m)
    wa /= wa.sum()
    wb /= wb.sum()
    return _measure_rows(space, *mu_rows, wa), _measure_rows(space, *nu_rows, wb)


def _param(params: dict, key: str, default, read=config_int):
    """An experiment parameter, or its default, read by `read`; a malformed
    value is `ConfigInvalid` at params.<key>."""
    return read(params.get(key, default), f"params.{key}")


def _count(params: dict, key: str, default: int) -> int:
    """A count of atoms, trials or samples: a positive integer parameter."""
    n = _param(params, key, default)
    if n < 1:
        raise ConfigInvalid(f"params.{key}", f"must be positive, got {n}")
    return n


def _inline_measure(space: SpaceHandle, params: dict, key: str) -> DiscreteMeasure:
    try:
        return measure_from_json(space, params[key])
    except (Cat0otError, KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"params.{key}", f"bad inline measure: {exc}") from exc


def _instance(
    space: SpaceHandle, params: dict, seed: int
) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    if "mu" in params and "nu" in params:
        return _inline_measure(space, params, "mu"), _inline_measure(space, params, "nu")
    tag = params.get("instance", "random")
    if tag == "line":
        return line_instance(space)
    if tag == "translation":
        mu, nu, _, _ = translation_instance(space, _param(params, "n", 5))
        return mu, nu
    if tag == "random":
        n = _count(params, "n", 6)
        return random_instance(space, seed, n, _count(params, "m", n))
    raise ConfigInvalid("params.instance", f"unknown instance tag {tag!r}")


# ---------------------------------------------------------------------------
# experiment runners


def _dual_value(
    mu: DiscreteMeasure, nu: DiscreteMeasure, psi: tuple[float, ...], phi: tuple[float, ...]
) -> float:
    return float(
        reduce(add, [p * w for p, w in zip(phi, nu.weights)], 0.0)
        - reduce(add, [p * w for p, w in zip(psi, mu.weights)], 0.0)
    )


def _run_solve(space: SpaceHandle, params: dict, seed: int) -> tuple[dict, bool]:
    mu, nu = _instance(space, params, seed)
    # the solver's own prices certify the plan; the report reads no tight set
    plan, pot, total = solve_kantorovich(space, mu, nu, refine_duals=False)
    row = np.zeros(len(mu.points))
    col = np.zeros(len(nu.points))
    for i, j, w in plan.entries:
        row[i] += w
        col[j] += w
    marg = max(
        float(np.abs(row - np.asarray(mu.weights)).max()),
        float(np.abs(col - np.asarray(nu.weights)).max()),
    )
    gap = abs(total - _dual_value(mu, nu, pot.psi, pot.phi))
    ok = pot.feasible and gap <= 1e-9 and marg <= 1e-9
    metrics = {
        "cost": _metric(total),
        "duality_gap": _metric(gap),
        "slack_max": _metric(pot.slack_max),
        "marginal_error": _metric(marg),
        "entries": _metric(len(plan.entries)),
    }
    return metrics, ok


def _run_monotonicity(space: SpaceHandle, params: dict, seed: int) -> tuple[dict, bool]:
    mu, nu = _instance(space, params, seed)
    # only the plan and its cost are read
    plan, _pot, total = solve_kantorovich(space, mu, nu, refine_duals=False)
    max_len = _param(params, "max_len", 3)
    result = check_cyclic_monotonicity(space, plan, max_len=max_len)
    metrics = {
        "violations": _metric(result["violations"]),
        "worst_slack": _metric(result["worst_slack"]),
        "cost": _metric(total),
    }
    return metrics, result["violations"] == 0


def _branch_vertices(space: SpaceHandle) -> list[int]:
    """The indices of the tree's vertices of degree 3 or more."""
    branch = [i for i, inc in enumerate(space.impl.incident) if len(inc) >= 3]
    if not branch:
        raise ConfigInvalid("space", "twist probes on trees need a branch vertex")
    return branch


def _tree_same_gate_pair(
    space: SpaceHandle, rng: np.random.Generator, branch: Optional[list[int]] = None
) -> tuple[Point, Point, Point]:
    """x behind a branch vertex, y1 != y2 equidistant from x beyond the same
    vertex; `branch` is `_branch_vertices(space)`, found here when not given."""
    edges = space.params.edges
    incident = space.impl.incident
    branch = _branch_vertices(space) if branch is None else branch
    i = branch[int(rng.integers(0, len(branch)))]
    v, inc = space.params.vertices[i], incident[i]
    idx = rng.permutation(len(inc))
    e_x, e_1, e_2 = inc[int(idx[0])], inc[int(idx[1])], inc[int(idx[2])]

    def at_arc(edge: int, s: float) -> Point:
        a, _b, ln = edges[edge]
        return space.impl.normalize(Point(edge, (s if a == v else ln - s,)))

    x = at_arc(e_x, 0.9 * edges[e_x][2])
    s = float(rng.uniform(0.3, 0.7)) * min(edges[e_1][2], edges[e_2][2])
    return x, at_arc(e_1, s), at_arc(e_2, s)


def _twist_probes(
    space: SpaceHandle, trials: int, rng: np.random.Generator
) -> list[tuple[Point, Point, Point]]:
    """The (x, y1, y2) of each twist trial, drawn in turn: on trees behind a
    branch vertex, elsewhere three sampled points with y1 and y2 apart and,
    on open books, every point off the spine."""
    if space.kind == "tree":
        # one scan of the vertices for every trial
        branch = _branch_vertices(space)
        return [_tree_same_gate_pair(space, rng, branch) for _ in range(trials)]
    probes = []
    for _ in range(trials):
        while True:
            x, y1, y2 = sample_points(space, rng, 3)
            if space.impl.distance(y1, y2) <= 1e-3:
                continue
            if space.kind == "open_book" and min(x.coords[0], y1.coords[0], y2.coords[0]) <= 1e-3:
                continue
            break
        probes.append((x, y1, y2))
    return probes


def _run_twist(space: SpaceHandle, params: dict, seed: int) -> tuple[dict, bool]:
    """Twist probes in one vectorized pass over every trial's directions.

    Each trial's max_gap is that of `twist_test` over
    `direction_set(space, x, [y1, y2], count, seed)`, bit for bit, from
    `calculus._twist_gaps`. The trials of least and greatest gap are run
    again through the public `direction_set` and `twist_test`, and the report
    fails if either's max_gap or verdict differs.
    """
    trials = _count(params, "trials", 20)
    count = _count(params, "directions", 16)
    probes = _twist_probes(space, trials, substream(seed, "twist"))
    gaps = _twist_gaps(space, probes, count, seed).tolist()
    holds = [gap > GAP_TOL for gap in gaps]

    def recheck(i: int) -> bool:
        x, y1, y2 = probes[i]
        rep = twist_test(space, x, y1, y2, direction_set(space, x, targets=[y1, y2], count=count, seed=seed))
        return rep.max_gap.hex() == gaps[i].hex() and rep.twist_holds == holds[i]

    rechecked = all([recheck(gaps.index(min(gaps))), recheck(gaps.index(max(gaps)))])
    frac = sum(holds) / trials
    metrics = {
        "trials": _metric(trials),
        "min_gap": _metric(min(gaps)),
        "max_gap": _metric(max(gaps)),
        "frac_holds": _metric(frac),
    }
    # trees are probed with equidistant same-branch targets, which the squared
    # distance cost cannot tell apart; everywhere else the probes distinguish.
    ok = frac == 0.0 if space.kind == "tree" else frac == 1.0
    return metrics, rechecked and ok


def _run_fermat(space: SpaceHandle, params: dict, seed: int) -> tuple[dict, bool]:
    if space.kind == "euclidean" and space.dim != 2:
        raise ConfigInvalid("space", "fermat runs on trees, open books and the euclidean plane")
    cap = _param(params, "slope_cap", 10.0, config_float)
    if space.kind in ("tree", "open_book"):
        # a tree takes one direction per incident edge, whatever the count
        count = _count(params, "directions", 16)
        if space.kind == "tree":
            incident = space.impl.incident
            leaf = next(v for v, inc in zip(space.params.vertices, incident) if len(inc) == 1)
            leaf_pt = space.impl.vertex_point(leaf)
            rep = fermat_check(
                space,
                lambda p: space.impl.distance(p, leaf_pt),
                leaf_pt,
                direction_set(space, leaf_pt, count=count),
            )
            passed = rep.min_directional > 0.0
        else:
            rng = substream(seed, "fermat")
            while True:
                (y,) = sample_points(space, rng, 1)
                if y.coords[0] > 0.05:
                    break
            rep = fermat_check(
                space,
                _cost_to(space, y),
                y,
                direction_set(space, y, count=count),
            )
            passed = rep.min_directional >= -1e-6
        metrics = {
            "min_directional": _metric(rep.min_directional),
            "two_sided_zero": _metric(1.0 if rep.two_sided_zero else 0.0),
            "pitch": _metric(0.0),
        }
        return metrics, passed and rep.two_sided_zero

    n = _param(params, "n", 9)
    mu, nu, _shift, h = translation_instance(space, n)
    plan, pot, _total = solve_kantorovich(space, mu, nu, refine_duals=False)
    grid = GridPotential((0.0, 0.0), h, (n, n), pot.psi)
    # probe the target matched to the central source; the minimizer then sits
    # a quarter width off center and every quotient stays on the grid
    mid = (n // 2) * n + (n // 2)
    j_star = max((e for e in plan.entries if e[0] == mid), key=lambda e: e[2])[1]
    y = nu.points[j_star]
    cost_y = _cost_to(space, y)

    def f(p: Point) -> float:
        return grid.interpolate(p) + cost_y(p)

    x_star = min(range(len(mu.points)), key=lambda i: f(mu.points[i]))
    xs = mu.points[x_star]
    worst = math.inf
    count = _count(params, "directions", 32)
    for g in direction_set(space, xs, targets=[y], count=count, seed=seed):
        d_plus = geodesic_derivative(space, f, xs, g).one_sided_plus
        if not math.isnan(d_plus):
            worst = min(worst, d_plus)
    metrics = {
        "min_directional": _metric(worst),
        "pitch": _metric(h),
        "slope_ratio": _metric(max(0.0, -worst) / h),
    }
    return metrics, worst >= -cap * h


def _run_eilenberg(space: SpaceHandle, params: dict, seed: int) -> tuple[dict, bool]:
    n_samples = _count(params, "n_samples", 40_000)
    eps = params.get("epsilon")
    if eps is not None:
        eps = config_float(eps, "params.epsilon")
    if space.kind == "euclidean":
        region = BoxRegion(0, (-0.5,) * space.dim, (0.5,) * space.dim)
        start = Point(0, (0.0,) * space.dim)
        end = Point(0, (0.5,) + (0.0,) * (space.dim - 1))
    elif space.kind == "tree":
        region = TreeRegion(tuple(space.params.vertices))
        impl = space.impl
        start = impl.vertex_point(impl.root)
        # the first vertex farthest from the root, in vertex order
        end = impl.vertex_point(impl.vertices[int(impl.distances_from(start, *impl._vertex_rows).argmax())])
    elif space.kind == "open_book":
        start = space.impl.normalize(Point(0, (0.5, 0.0)))
        region = BallRegion(start, 0.4)
        end = space.impl.normalize(Point(0, (0.9, 0.0)))
    else:
        raise ConfigInvalid("space", f"no shell experiment for {space.kind!r}")
    g = geodesic(space, start, end)
    lhs, rhs, sigma, holds = _shell_estimate(space, g, region, n_samples, eps, seed)
    metrics = {
        "lhs": _metric(lhs, sigma),
        "rhs": _metric(rhs),
        "holds": _metric(1.0 if holds else 0.0),
    }
    return metrics, holds


def _run_transport_identity(space: SpaceHandle, params: dict, seed: int) -> tuple[dict, bool]:
    if space.kind != "euclidean" or space.dim != 2:
        raise ConfigInvalid("space", "transport-identity runs on the euclidean plane")
    sizes = params.get("sizes", LADDER)
    if not isinstance(sizes, (list, tuple)):
        raise ConfigInvalid("params.sizes", f"expected a list of grid sizes, got {sizes!r}")
    sizes = tuple(config_int(v, "params.sizes") for v in sizes)
    # the order is the slope of a line fitted through the pitches, which needs two distinct ones
    if len(set(sizes)) < 2 or any(s < 4 for s in sizes):
        raise ConfigInvalid("params.sizes", "need two distinct grid sizes, each >= 4 (below 4 the shift is 0)")
    _check_support(max(sizes) ** 2, max(sizes) ** 2)  # before any grid is built
    stats = []  # per grid: pitch, mean, 95% and max residual, 95% gap, share within a quarter pitch
    exact = agree = True
    for n in sizes:
        mu, nu, shift, h = translation_instance(space, n)
        # raw node prices keep the finite-difference error on one scaling
        # regime across the whole ladder, which the order fit needs
        plan, pot, _total = solve_kantorovich(space, mu, nu, refine_duals=False)
        tmap = extract_monge_map(plan)
        if not hasattr(tmap, "points"):
            raise ParamOutOfRange("translation plan did not collapse to a map")
        charts, images = (a[list(tmap.targets)] for a in nu.rows)
        off = space.impl.distances_between(charts, mu.rows[1] + shift, charts, images)
        exact = exact and not (off > 1e-12).any()
        grid = GridPotential((0.0, 0.0), h, (n, n), pot.psi)
        nodes = np.add.outer(np.arange(n, n * (n - 1), n), np.arange(1, n - 1)).ravel()  # interior, in order
        res, gp = _identity_rows(space, grid, tmap, nodes)
        # the first node of greatest residual, again through the public call
        worst = int(res.argmax())
        rep = verify_transport_identity(space, grid, tmap, int(nodes[worst]))
        agree = agree and (rep.residual, rep.brenier_gap) == (res[worst], gp[worst])
        stats.append(
            (h, res.mean(), np.quantile(res, 0.95), res.max(), np.quantile(gp, 0.95), (res <= 0.25 * h).mean())
        )
    pitches, res_mean, res_p95, res_max, gap_p95, frac_quarter = np.array(stats).T
    # the least-squares slope of log residual on log pitch in left folds, as
    # np.polyfit's LAPACK kernel moves its last bits from one CPU to another
    xs, ys = [math.log(h) for h in pitches], [math.log(max(r, 1e-300)) for r in res_mean]
    x_bar, y_bar = reduce(add, xs, 0.0) / len(xs), reduce(add, ys, 0.0) / len(ys)
    dx = [x - x_bar for x in xs]
    order = reduce(add, [d * (y - y_bar) for d, y in zip(dx, ys)], 0.0) / reduce(add, [d * d for d in dx], 0.0)
    c_fit = (res_p95 / pitches).max()
    c_gap = (gap_p95 / pitches).max()
    frac_ok = frac_quarter.min()
    ok = order >= 0.9 and exact and agree and frac_ok >= 0.95
    metrics = {
        "order": _metric(order),
        "c_fit": _metric(c_fit),
        "c_gap": _metric(c_gap),
        "residual_max_finest": _metric(res_max[-1]),
        "frac_quarter_pitch": _metric(frac_ok),
        "exact_translation": _metric(1.0 if exact else 0.0),
    }
    return metrics, ok


def _run_polar(space: SpaceHandle, params: dict, seed: int) -> tuple[dict, bool]:
    """Polar factorization s = T o u of random maps, every trial in one batched pass.

    A trial's atoms of mu and their images under s are the draws of two
    `sample_points` calls, made for every trial in one block.
    `polar._factor_trials` gives each trial's T, u and residual bit for bit
    as `polar_factorize` does, and factors through `polar_factorize` itself
    the trials it cannot batch: duplicate atoms, images within 1e-9,
    non-finite costs, a certificate that does not settle. The first trial of
    greatest residual, the one a running max keeps, is factored again
    through `polar_factorize`, and the report fails if its T, u, residual or
    measure-preserving verdict differ.
    """
    trials = _count(params, "trials", 20)
    n = _count(params, "n", 6)
    draws = _point_draws(space, substream(seed, "polar"), trials, points=2 * n)
    charts, coords = _points_from_draws(space, draws.reshape(trials * 2 * n, -1))
    charts, coords = charts.reshape(trials, 2 * n), coords.reshape(trials, 2 * n, -1)
    t_targets, u_targets, residual, preserved = _factor_trials(space, charts, coords)
    worst = int(residual.argmax())
    fact, kept = _factor_row(space, charts[worst], coords[worst])
    points = _row_points(charts[worst], coords[worst])
    rechecked = (
        fact.T.targets == tuple(t_targets[worst].tolist())
        and fact.T.points == tuple(points[n + j] for j in fact.T.targets)
        and fact.u.targets == tuple(u_targets[worst].tolist())
        and fact.u.points == tuple(points[k] for k in fact.u.targets)
        and fact.residual.hex() == float(residual[worst]).hex()
        and kept == preserved[worst]
    )
    metrics = {
        "trials": _metric(trials),
        "residual_max": _metric(residual[worst]),
        "frac_measure_preserving": _metric(int(preserved.sum()) / trials),
    }
    return metrics, rechecked and residual[worst] <= 1e-9 and bool(preserved.all())


# samples per vectorized pass of the geometry suite: a tree geodesic's sections
# take a row of its path's length, and this bounds the arrays they fill
SUITE_CHUNK = 4096


def _suite_checks(impl, charts: np.ndarray, coords: np.ndarray, draws: np.ndarray) -> tuple:
    """(defect, triangle, symmetry, speed) per sample of the geometry suite,
    from its points x, y, z as consecutive rows and its draws (two geodesic
    parameters, then the defect's t)."""
    x, y, z = ((charts[i::3], coords[i::3]) for i in range(3))
    t1, t2 = np.minimum(draws[:, 0], draws[:, 1]), np.maximum(draws[:, 0], draws[:, 1])
    t = draws[:, 2]
    between = impl.distances_between
    dxy, dxz, dyz = between(*x, *y), between(*x, *z), between(*y, *z)
    length, on_charts, on_coords = impl.geodesic_points(*x, *y, np.stack([t1, t2, t], axis=1))
    at = [(on_charts[:, j], on_coords[:, j]) for j in range(3)]
    dxtz = between(*at[2], *z)
    defect = (1 - t) * dxz * dxz + t * dyz * dyz - t * (1 - t) * dxy * dxy - dxtz * dxtz
    triangle = dxz - dxy - dyz
    symmetry = np.abs(dxy - between(*y, *x))
    speed = np.abs(between(*at[0], *at[1]) - (t2 - t1) * length)
    return defect, triangle, symmetry, speed


def _run_geometry_suite(space: SpaceHandle, params: dict, seed: int) -> tuple[dict, bool]:
    """Symmetry, triangle, constant-speed and CAT(0) defect checks on sampled
    triples, SUITE_CHUNK samples at a time.

    Per sample, the draws are those of `sample_points(space, rng, 3)`, then
    `uniform(0, 1, 2)` for two parameters t1 <= t2 on the geodesic [x, y],
    then `uniform(0, 1)` for the defect's t; they come from one block, as
    `sample_points` draws its points. The space's array methods give every
    distance and geodesic point bit for bit as the scalar calls do, and each
    metric is the first extreme sample's value, as a running min or max keeps
    it. The samples of least and greatest defect are checked again through
    the public `cat0_defect`, and the report fails if either differs.
    """
    samples = _count(params, "samples", 2000)
    rng = substream(seed, "geometry")
    k = _draw_width(space)
    block = _point_draws(space, rng, samples, points=3, extra=3)
    points, draws = block[:, : 3 * k].reshape(-1, k), block[:, 3 * k :]
    charts, coords = _points_from_draws(space, points)
    chunks = [
        _suite_checks(space.impl, charts[3 * a : 3 * b], coords[3 * a : 3 * b], draws[a:b])
        for a in range(0, samples, SUITE_CHUNK)
        for b in [min(samples, a + SUITE_CHUNK)]
    ]
    defect, triangle, symmetry, speed = (np.concatenate(v) for v in zip(*chunks))

    def recheck(i: int) -> bool:
        x, y, z = _row_points(charts[3 * i : 3 * i + 3], coords[3 * i : 3 * i + 3])
        return float(cat0_defect(space, x, y, z, float(draws[i, 2]))).hex() == float(defect[i]).hex()

    lowest, highest = int(defect.argmin()), int(defect.argmax())
    rechecked = all([recheck(lowest), recheck(highest)])
    min_defect, max_defect = float(defect[lowest]), float(defect[highest])
    worst_triangle, worst_symmetry, worst_speed = (float(v[v.argmax()]) for v in (triangle, symmetry, speed))
    metrics = {
        "samples": _metric(samples),
        "min_defect": _metric(min_defect),
        "max_defect": _metric(max_defect),
        "max_triangle_violation": _metric(worst_triangle),
        "max_symmetry_error": _metric(worst_symmetry),
        "max_speed_deviation": _metric(worst_speed),
    }
    ok = (
        rechecked
        and min_defect >= -1e-9
        and worst_triangle <= 1e-9
        and worst_symmetry <= 1e-12
        and worst_speed <= 1e-9
        # flat spaces meet the comparison identity exactly
        and (space.kind != "euclidean" or max_defect <= 1e-9)
    )
    return metrics, ok


_RUNNERS: dict[str, Callable[[SpaceHandle, dict, int], tuple[dict, bool]]] = {
    "solve": _run_solve,
    "monotonicity": _run_monotonicity,
    "twist": _run_twist,
    "fermat": _run_fermat,
    "eilenberg": _run_eilenberg,
    "transport-identity": _run_transport_identity,
    "polar": _run_polar,
    "geometry-suite": _run_geometry_suite,
}
EXPERIMENTS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# scenario plumbing


_ALLOWED_PARAMS = {
    "solve": {"mu", "nu", "instance", "n", "m"},
    "monotonicity": {"mu", "nu", "instance", "n", "m", "max_len"},
    "twist": {"trials", "directions"},
    "fermat": {"slope_cap", "directions", "n"},
    "eilenberg": {"n_samples", "epsilon"},
    "transport-identity": {"sizes"},
    "polar": {"trials", "n"},
    "geometry-suite": {"samples"},
}


def scenario_from_config(
    doc, experiment: Optional[str] = None, seed: Optional[int] = None
) -> Scenario:
    """Build a validated scenario from a parsed config document."""
    if not isinstance(doc, dict):
        raise ConfigInvalid("$", "config must be a JSON object")
    if "space" not in doc:
        raise ConfigInvalid("space", "missing space descriptor")
    tag = experiment if experiment is not None else doc.get("experiment")
    if tag is None:
        raise ConfigInvalid("experiment", "no experiment given")
    if tag not in EXPERIMENTS:
        raise ConfigInvalid("experiment", f"unknown experiment {tag!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigInvalid("params", "params must be an object")
    for key in params:
        if key not in _ALLOWED_PARAMS[tag]:
            raise ConfigInvalid(f"params.{key}", f"unknown parameter for {tag!r}")
    chosen = seed if seed is not None else doc.get("seed")
    if chosen is None:
        raise ConfigInvalid("seed", "no seed given")
    if not isinstance(chosen, int) or isinstance(chosen, bool):
        raise ConfigInvalid("seed", "seed must be an integer")
    return Scenario(space=doc["space"], experiment=str(tag), params=params, seed=chosen)


def run_scenario(scenario: Scenario) -> Report:
    """Run one experiment; identical scenarios produce identical reports."""
    if scenario.experiment not in _RUNNERS:
        raise ConfigInvalid("experiment", f"unknown experiment {scenario.experiment!r}")
    space = space_from_json(scenario.space)
    start = time.perf_counter()
    metrics, passed = _RUNNERS[scenario.experiment](space, scenario.params, scenario.seed)
    runtime_ms = int(1000.0 * (time.perf_counter() - start))
    return Report(scenario=scenario, metrics=metrics, passed=bool(passed), runtime_ms=runtime_ms)


def run_batch(scenarios: list[Scenario]) -> list[Report]:
    """Run scenarios one after another; results come back in input order."""
    return [run_scenario(sc) for sc in scenarios]


# ---------------------------------------------------------------------------
# report emission


def report_to_json(report: Report) -> dict:
    """JSON document for a report; runtime is deliberately left out."""
    return {
        "scenario": {
            "space": report.scenario.space,
            "experiment": report.scenario.experiment,
            "params": report.scenario.params,
            "seed": report.scenario.seed,
        },
        "metrics": report.metrics,
        "pass": report.passed,
    }


def render_report(report: Report, fmt: str = "json") -> str:
    """Serialize a report to a byte-stable string."""
    if fmt == "json":
        return json.dumps(report_to_json(report), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["metric", "value", "sigma"])
        for name in sorted(report.metrics):
            cell = report.metrics[name]
            sigma = cell["sigma"]
            writer.writerow([name, repr(cell["value"]), "" if sigma is None else repr(sigma)])
        writer.writerow(["pass", repr(1.0 if report.passed else 0.0), ""])
        return buf.getvalue()
    raise ConfigInvalid("format", f"unknown format {fmt!r}")


def emit_report(report: Report, out: Optional[str] = None, fmt: str = "json") -> str:
    """Render a report and optionally write it to a file."""
    text = render_report(report, fmt)
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoFailure(f"could not write report to {out!r}: {exc}") from exc
    return text
