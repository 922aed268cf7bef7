"""Inverse transport maps and discrete polar factorization s = T o u."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from ._simplex import _PRICE_CELLS
from .errors import MapUndefined, NotDeterministicError
from .geometry import Point, SpaceHandle, _point_rows, _row_points, normalize
from .transport import (
    DiscreteMeasure,
    NotDeterministic,
    TransportMap,
    TransportPlan,
    _assignment,
    _assignment_duals,
    extract_monge_map,
    map_from_points,
    measure,
    solve_kantorovich,
)

__all__ = ["Factorization", "inverse_map", "polar_factorize", "verify_measure_preserving"]


@dataclass(frozen=True)
class Factorization:
    T: TransportMap
    u: TransportMap
    residual: float


def _map(plan: TransportPlan, tag: str) -> TransportMap:
    result = extract_monge_map(plan)
    if isinstance(result, NotDeterministic):
        raise NotDeterministicError(tag, result.split_mass)
    return result


def inverse_map(
    space: SpaceHandle, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[TransportMap, TransportMap]:
    """Optimal maps T: mu -> nu and T*: nu -> mu; T* inverts T on the support.

    Both are read off one optimal plan, T* off its transpose, so a tie
    between optimal plans cannot make them disagree. Only the plan is read,
    so the solve skips refining its potentials.
    """
    plan, _pot, _cost = solve_kantorovich(space, mu, nu, refine_duals=False)
    back = TransportPlan(nu, mu, tuple(sorted((j, i, mass) for i, j, mass in plan.entries)))
    return _map(plan, "forward"), _map(back, "backward")


def polar_factorize(space: SpaceHandle, mu: DiscreteMeasure, s: TransportMap) -> Factorization:
    """Factor s through the optimal map onto its pushforward: s = T o u, u preserving mu.

    The pushforward s#mu merges collided atoms by summing weights; T is the
    optimal map mu -> s#mu and u = T* o s. The residual is the largest
    distance between T(u(x)) and s(x) over the support.
    """
    if s.source != mu:
        raise MapUndefined("s must be a map on mu")
    if len(s.points) != len(mu.points):
        raise MapUndefined("s must be defined on every atom of mu")
    images = [normalize(space, p) for p in s.points]
    merged: list[Point] = []
    weights: list[float] = []
    where: list[int] = []
    for i, p in enumerate(images):
        for k, q in enumerate(merged):
            if space.impl.distance(p, q) <= 1e-9:
                weights[k] += mu.weights[i]
                where.append(k)
                break
        else:
            merged.append(p)
            weights.append(mu.weights[i])
            where.append(len(merged) - 1)
    total = reduce(add, weights, 0.0)
    nu = measure(space, merged, [w / total for w in weights])

    t_fwd, t_bwd = inverse_map(space, mu, nu)
    # mu's atoms are distinct, so T*'s target indices locate u's images in mu
    u_points = tuple(t_bwd.points[k] for k in where)
    u_targets = tuple(t_bwd.targets[k] for k in where)
    u = TransportMap(mu, u_points, u_targets)
    tu = _point_rows([t_fwd.points[k] for k in u_targets])
    residual = float(space.impl.distances_between(*tu, *_point_rows(images)).max(initial=0.0))
    return Factorization(t_fwd, u, residual)


def verify_measure_preserving(mu: DiscreteMeasure, u: TransportMap) -> bool:
    """True iff u permutes the support with matching atom weights (tol 1e-12)."""
    if u.source != mu:
        raise MapUndefined("u must be a map on mu")
    if len(u.points) != len(mu.points):
        raise MapUndefined("u must be defined on every atom of mu")
    support = {(p.chart, p.coords): i for i, p in enumerate(mu.points)}
    hit = set()
    for i, p in enumerate(u.points):
        k = support.get((p.chart, p.coords))
        if k is None or k in hit:
            return False
        if abs(mu.weights[i] - mu.weights[k]) > 1e-12:
            return False
        hit.add(k)
    return len(hit) == len(mu.points)


def _factor_row(
    space: SpaceHandle, charts: np.ndarray, coords: np.ndarray
) -> tuple[Factorization, bool]:
    """One trial through the public calls: mu uniform on the first half of
    the points and s sending its atoms to the second half in order, then
    `polar_factorize` and `verify_measure_preserving` of its u."""
    points = _row_points(charts, coords)
    n = len(points) // 2
    mu = measure(space, points[:n])
    fact = polar_factorize(space, mu, map_from_points(space, mu, points[n:]))
    return fact, verify_measure_preserving(mu, fact.u)


def _certified(space: SpaceHandle, charts: np.ndarray, coords: np.ndarray) -> dict[int, np.ndarray]:
    """T's targets for each trial of a group that the batch factors.

    Every trial's distances from each atom to each image, and between any two
    of its atoms or two of its images, come from one `distances_between`
    call, of fewer than 1,024 n pairs for a group that `_factor_trials`
    makes; the first give the costs bit for bit as `pairwise_costs` does. A
    trial is left out when two atoms or two images lie within 1e-9 (`measure`
    rejects the one, T* splits over the other) and when a distance is not
    finite. Each other trial's permutation is `_assignment`'s, as in
    `solve_kantorovich`, and one `_assignment_duals` call on the group's
    block-diagonal costs, +inf off the blocks, certifies them all; if it does
    not settle, the group keeps none. The public solve ranks the shortlist of
    a trial of _WARM_ATOMS or more atoms by the entropic prices its LSA ran
    on, which changes neither the permutation nor whether it is certified.
    """
    g, m = charts.shape
    n = m // 2
    # each trial's atom-image pairs, then its atom pairs and its image pairs,
    # each pair (later, earlier) as `polar_factorize` compares images
    later, earlier = np.tril_indices(n, -1)
    mine = np.concatenate([np.repeat(np.arange(n), n), later, n + later])
    other = np.concatenate([np.tile(np.arange(n, m), n), earlier, n + earlier])
    left, right = ((np.arange(0, g * m, m)[:, None] + v).ravel() for v in (mine, other))
    flat_c, flat_x = charts.reshape(-1), coords.reshape(g * m, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan
        d = space.impl.distances_between(flat_c[left], flat_x[left], flat_c[right], flat_x[right]).reshape(g, -1)
        C = (0.5 * d[:, : n * n] * d[:, : n * n]).reshape(g, n, n)
    apart = (d[:, n * n :] > 1e-9).all(axis=1)
    ok = np.flatnonzero(apart & np.isfinite(C).all(axis=(1, 2))).tolist()
    perms = {t: _assignment(C[t])[0] for t in ok}
    if perms:
        keep = list(perms)
        at = np.arange(len(keep))[:, None] * n + np.arange(n)
        B = np.full((len(keep) * n, len(keep) * n), np.inf)
        B[at[:, :, None], at[:, None, :]] = C[keep]
        if _assignment_duals(B, (np.stack(list(perms.values())) + at[:, :1]).ravel()) is None:
            return {}
    return perms


def _factor_trials(
    space: SpaceHandle, charts: np.ndarray, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Polar factorizations of many trials in one batched pass.

    Row t of (charts, coords) holds trial t's 2n normal points, as `_factor_row`
    reads them. Returns each trial's T targets and u targets (u's points are
    mu's atoms at them), its residual, and whether u preserves mu, all as
    `_factor_row` gives them, bit for bit. Trials go in groups whose
    block-diagonal costs hold at most _PRICE_CELLS cells, and `_certified`
    gives their permutations. Then u = T^-1 o s is the inverse permutation,
    the residual is the largest distance from T(u(x)) to s(x), one
    `distances_between` call for every trial, and u preserves the uniform mu
    when it hits every atom once. A trial `_certified` leaves out, or one
    whose costs alone exceed _PRICE_CELLS cells, goes through `_factor_row`,
    in trial order, so the first trial that raises raises here.
    """
    trials, n = charts.shape[0], charts.shape[1] // 2
    t_targets = np.empty((trials, n), dtype=np.intp)
    u_targets = np.empty((trials, n), dtype=np.intp)
    residual = np.empty(trials)
    preserved = np.empty(trials, dtype=bool)
    batched = np.zeros(trials, dtype=bool)
    per = math.isqrt(_PRICE_CELLS) // n  # trials per certificate call
    for a in range(0, trials, per) if per else ():
        for t, perm in _certified(space, charts[a : a + per], coords[a : a + per]).items():
            t_targets[a + t], batched[a + t] = perm, True
    rows = np.flatnonzero(batched)
    u_targets[rows[:, None], t_targets[rows]] = np.arange(n)
    # T(u(x_i)) and s(x_i) as rows of the flattened points; images follow the n atoms
    base = rows[:, None] * 2 * n + n
    tu = (base + np.take_along_axis(t_targets[rows], u_targets[rows], axis=1)).ravel()
    s_at = (base + np.arange(n)).ravel()
    flat_c, flat_x = charts.reshape(-1), coords.reshape(trials * 2 * n, -1)
    d = space.impl.distances_between(flat_c[tu], flat_x[tu], flat_c[s_at], flat_x[s_at])
    residual[rows] = d.reshape(len(rows), n).max(axis=1, initial=0.0)
    preserved[rows] = (np.sort(u_targets[rows], axis=1) == np.arange(n)).all(axis=1)
    for t in np.flatnonzero(~batched).tolist():
        fact, preserved[t] = _factor_row(space, charts[t], coords[t])
        t_targets[t], u_targets[t], residual[t] = fact.T.targets, fact.u.targets, fact.residual
    return t_targets, u_targets, residual, preserved
