"""Inverse transport maps and discrete polar factorization s = T o u."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import MapUndefined, NotDeterministicError
from .geometry import Point, SpaceHandle, normalize
from .transport import (
    DiscreteMeasure,
    NotDeterministic,
    TransportMap,
    TransportPlan,
    extract_monge_map,
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
    residual = 0.0
    for i in range(len(mu.points)):
        tu = t_fwd.points[u_targets[i]]
        residual = max(residual, space.impl.distance(tu, images[i]))
    return Factorization(t_fwd, u, residual)


def verify_measure_preserving(mu: DiscreteMeasure, u: TransportMap) -> bool:
    """True iff u permutes the support with matching atom weights (tol 1e-12)."""
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
