"""Discrete optimal transport for the half-squared-distance cost.

Measures, exact Kantorovich solving with dual potentials, the c-transform,
cyclic-monotonicity checking, map extraction, the ball-restricted potential
psi_R, and the finite-difference check of the first-order transport identity
on grid instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.optimize
import scipy.sparse

from . import _simplex
from .calculus import cost
from .errors import (
    BoundaryPoint,
    EmptyBall,
    EmptySet,
    InvalidPoint,
    MapUndefined,
    ParamOutOfRange,
    SupportTooLarge,
    TooManyTuples,
    UnsupportedShape,
    WeightMismatch,
)
from .geometry import Geodesic, Point, SpaceHandle, distance, normalize
from .rng import substream

MAX_SUPPORT = 10_000
ASSIGNMENT_FAST_PATH = 256
DUAL_REFINE_CAP = 200_000

__all__ = [
    "DiscreteMeasure",
    "TransportPlan",
    "TransportMap",
    "NotDeterministic",
    "PotentialPair",
    "GridPotential",
    "TransportIdentityReport",
    "measure",
    "map_from_points",
    "pairwise_costs",
    "solve_kantorovich",
    "brute_force_oracle",
    "check_cyclic_monotonicity",
    "c_transform",
    "c_subdifferential",
    "extract_monge_map",
    "psi_R",
    "verify_transport_identity",
    "measure_to_json",
    "measure_from_json",
    "plan_to_json",
    "plan_from_json",
    "plan_to_csv",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    points: tuple[Point, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class TransportPlan:
    source: DiscreteMeasure
    target: DiscreteMeasure
    entries: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class TransportMap:
    """Deterministic assignment: source atom index -> image point."""

    source: DiscreteMeasure
    points: tuple[Point, ...]
    targets: Optional[tuple[int, ...]] = None

    @property
    def assignment(self) -> dict[int, Point]:
        return dict(enumerate(self.points))


@dataclass(frozen=True)
class NotDeterministic:
    """Returned when a plan is not concentrated on a graph."""

    split_mass: float


@dataclass(frozen=True)
class PotentialPair:
    psi: tuple[float, ...]
    phi: tuple[float, ...]
    feasible: bool
    slack_max: float


def measure(
    space: SpaceHandle, points: Sequence[Point], weights: Optional[Sequence[float]] = None
) -> DiscreteMeasure:
    """Normalized discrete measure; weights default to uniform."""
    pts = tuple(normalize(space, p) for p in points)
    if not pts:
        raise ParamOutOfRange("a measure needs at least one atom")
    seen = set()
    for p in pts:
        key = (p.chart, p.coords)
        if key in seen:
            raise InvalidPoint(f"duplicate support point {p} after normalization")
        seen.add(key)
    if weights is None:
        w = tuple(1.0 / len(pts) for _ in pts)
    else:
        w = tuple(float(x) for x in weights)
        if len(w) != len(pts):
            raise WeightMismatch("one weight per point required")
        if any(x <= 0 for x in w):
            raise ParamOutOfRange("weights must be strictly positive")
        if abs(sum(w) - 1.0) > 1e-12:
            raise WeightMismatch(f"weights sum to {sum(w)}, not 1")
    return DiscreteMeasure(pts, w)


def map_from_points(
    space: SpaceHandle, source: DiscreteMeasure, points: Sequence[Point]
) -> TransportMap:
    if len(points) != len(source.points):
        raise MapUndefined("need one image point per source atom")
    return TransportMap(source, tuple(normalize(space, p) for p in points))


def _support_arrays(points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
    charts = np.asarray([p.chart for p in points], dtype=np.int64)
    coords = np.asarray([p.coords for p in points], dtype=float)
    return charts, coords


def _cost_rows(
    space: SpaceHandle, sources: Sequence[Point], targets: Sequence[Point]
) -> np.ndarray:
    """C[i, j] = d(x_i, y_j)^2 / 2, one distances_from row per source point."""
    charts, coords = _support_arrays(targets)
    C = np.empty((len(sources), len(targets)))
    for i, x in enumerate(sources):
        d = space.impl.distances_from(x, charts, coords)
        C[i] = 0.5 * d * d
    return C


def pairwise_costs(
    space: SpaceHandle, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> np.ndarray:
    """Cost matrix C[i, j] = d(x_i, y_j)^2 / 2."""
    return _cost_rows(space, mu.points, nu.points)


def _uniform(weights: Sequence[float]) -> bool:
    n = len(weights)
    return bool(np.allclose(weights, 1.0 / n, rtol=0.0, atol=1e-12))


def _assignment_duals(C: np.ndarray, perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feasible LP prices supporting an optimal assignment.

    Potential differences are constrained by the exchange costs
    W[i, k] = C[i, perm[k]] - C[k, perm[k]]; optimality of the assignment
    rules out negative exchange cycles, so iterating alpha to the shortest
    path fixpoint terminates.
    """
    n = C.shape[0]
    W = C[:, perm] - C[np.arange(n), perm][None, :]
    alpha = np.zeros(n)
    for _ in range(n + 5):
        relaxed = np.minimum(alpha, (alpha[None, :] + W).min(axis=1))
        if np.array_equal(relaxed, alpha):
            break
        alpha = relaxed
    beta = np.empty(n)
    beta[perm] = C[np.arange(n), perm] - alpha
    return alpha, beta


def _interior_duals(
    C: np.ndarray, support: Sequence[tuple[int, int]], psi: np.ndarray
) -> np.ndarray:
    """Source potential from the relative interior of the optimal dual face.

    Among all duals tight on the support, maximize the smallest slack on the
    remaining arcs. An arc then stays tight only if it belongs to some other
    optimal plan, so the tight set no longer depends on which dual vertex the
    pivoting happened to end at. Skipped on large instances, where the vertex
    duals are kept as is.
    """
    n, m = C.shape
    off = n * m - len(support)
    if off == 0 or n * m > DUAL_REFINE_CAP:
        return psi
    # variables: psi (n), phi (m), t; maximize t
    mask = np.ones((n, m), dtype=bool)
    si = np.fromiter((i for i, _ in support), int, len(support))
    sj = np.fromiter((j for _, j in support), int, len(support))
    mask[si, sj] = False
    oi, oj = np.nonzero(mask)
    k = len(support)
    a_eq = scipy.sparse.coo_matrix(
        (
            np.concatenate([-np.ones(k), np.ones(k), [1.0]]),
            (
                np.concatenate([np.arange(k), np.arange(k), [k]]),
                np.concatenate([si, n + sj, [0]]),
            ),
        ),
        shape=(k + 1, n + m + 1),
    )
    b_eq = np.concatenate([C[si, sj], [0.0]])
    a_ub = scipy.sparse.coo_matrix(
        (
            np.concatenate([-np.ones(off), np.ones(off), np.ones(off)]),
            (
                np.tile(np.arange(off), 3),
                np.concatenate([oi, n + oj, np.full(off, n + m)]),
            ),
        ),
        shape=(off, n + m + 1),
    )
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(n + m), [-1.0]]),
        A_ub=a_ub,
        b_ub=C[oi, oj],
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * (n + m) + [(0.0, 1.0 + float(C.max() - C.min()))],
        method="highs",
    )
    if not res.success:
        return psi
    return res.x[:n]


def solve_kantorovich(
    space: SpaceHandle,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    refine_duals: bool = True,
) -> tuple[TransportPlan, PotentialPair, float]:
    """Exact optimal plan, tightened dual potentials, and the optimal cost.

    Potentials follow the sign convention phi(y) - psi(x) <= c(x, y) with
    equality on the support; the optimal cost equals sum(phi nu) - sum(psi mu).
    Deterministic for a fixed input order. refine_duals=False keeps the raw
    node prices, whose finite-difference error scales uniformly with the
    instance; grid convergence studies rely on that.
    """
    n, m = len(mu.points), len(nu.points)
    if n > MAX_SUPPORT or m > MAX_SUPPORT:
        raise SupportTooLarge(f"support sizes ({n}, {m}) exceed {MAX_SUPPORT}")
    a = np.asarray(mu.weights)
    b = np.asarray(nu.weights)
    if abs(a.sum() - b.sum()) > 1e-12:
        raise WeightMismatch(f"total masses differ: {a.sum()} vs {b.sum()}")
    C = pairwise_costs(space, mu, nu)

    flow = None
    if n == m and n >= ASSIGNMENT_FAST_PATH and _uniform(a) and _uniform(b):
        rows, cols = scipy.optimize.linear_sum_assignment(C)
        perm = cols[np.argsort(rows)]
        alpha, beta = _assignment_duals(C, perm)
        slack = C - alpha[:, None] - beta[None, :]
        gap = abs(C[np.arange(n), perm].sum() / n - (alpha.mean() + beta.mean()))
        if slack.min() >= -1e-9 and gap <= 1e-9:
            flow = {(i, int(perm[i])): 1.0 / n for i in range(n)}
    if flow is None:
        flow, alpha, beta = _simplex.solve_transport(C, a, b)

    entries = tuple(
        (i, j, float(mass)) for (i, j), mass in sorted(flow.items()) if mass > 0.0
    )
    psi = -alpha
    if refine_duals:
        psi = _interior_duals(C, [(i, j) for i, j, _ in entries], psi)
    phi = (psi[:, None] + C).min(axis=0)
    slack_max = float((phi[None, :] - psi[:, None] - C).max())
    plan = TransportPlan(mu, nu, entries)
    pot = PotentialPair(
        tuple(float(v) for v in psi),
        tuple(float(v) for v in phi),
        slack_max <= 1e-9,
        slack_max,
    )
    total = float(sum(mass * C[i, j] for i, j, mass in entries))
    return plan, pot, total


def brute_force_oracle(
    space: SpaceHandle, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[TransportPlan, float]:
    """Exhaustive minimum over permutation couplings, for small equal-weight inputs."""
    n, m = len(mu.points), len(nu.points)
    if n != m or n > 8 or not (_uniform(mu.weights) and _uniform(nu.weights)):
        raise UnsupportedShape("oracle handles equal uniform weights with n = m <= 8")
    C = pairwise_costs(space, mu, nu)
    best_perm = None
    best_cost = math.inf
    for perm in itertools.permutations(range(n)):
        c = sum(C[i, perm[i]] for i in range(n)) / n
        if c < best_cost - 0.0:
            best_cost = c
            best_perm = perm
    entries = tuple((i, best_perm[i], 1.0 / n) for i in range(n))
    return TransportPlan(mu, nu, entries), float(best_cost)


def check_cyclic_monotonicity(
    space: SpaceHandle,
    plan: TransportPlan,
    max_len: int = 3,
    mode: str = "exhaustive",
    n_samples: int = 10_000,
    seed: int = 0,
) -> dict:
    """Cycle inequality sum c(x_k, y_k) <= sum c(x_k, y_{k+1}) over support tuples."""
    if max_len < 2:
        raise ParamOutOfRange("cycles need length at least 2")
    pairs = [(i, j) for i, j, _mass in plan.entries]
    K = len(pairs)
    Cp = _cost_rows(
        space,
        [plan.source.points[i] for i, _j in pairs],
        [plan.target.points[j] for _i, j in pairs],
    )
    diag = np.diag(Cp)

    violations = 0
    worst = -math.inf

    def run(cycle: tuple[int, ...]) -> None:
        nonlocal violations, worst
        direct = sum(diag[k] for k in cycle)
        shifted = sum(
            Cp[cycle[t], cycle[(t + 1) % len(cycle)]] for t in range(len(cycle))
        )
        slack = float(direct - shifted)
        if slack > worst:
            worst = slack
        if slack > 1e-9:
            violations += 1

    if mode == "exhaustive":
        total = sum(
            math.comb(K, L) * math.factorial(L - 1) for L in range(2, max_len + 1)
        )
        if total > 1_000_000:
            raise TooManyTuples(f"{total} tuples exceed the exhaustive cap 10^6")
        for L in range(2, max_len + 1):
            for combo in itertools.combinations(range(K), L):
                for rest in itertools.permutations(combo[1:]):
                    run((combo[0],) + rest)
    elif mode == "sampled":
        rng = substream(seed, "cyclic")
        for _ in range(int(n_samples)):
            L = int(rng.integers(2, max_len + 1))
            if L > K:
                L = K
            cycle = tuple(rng.permutation(K)[:L])
            run(cycle)
    else:
        raise ParamOutOfRange(f"unknown mode {mode!r}")
    return {"violations": violations, "worst_slack": worst}


def c_transform(
    space: SpaceHandle,
    psi: Sequence[float],
    a_points: Sequence[Point],
    b_points: Sequence[Point],
) -> list[float]:
    """psi^c(y) = min over x in A of psi(x) + c(x, y)."""
    if not a_points:
        raise EmptySet("the c-transform needs a nonempty base set")
    if len(psi) != len(a_points):
        raise ParamOutOfRange("one value per base point required")
    C = _cost_rows(space, [normalize(space, x) for x in a_points], b_points)
    vals = (np.asarray(psi, dtype=float)[:, None] + C).min(axis=0)
    return [float(v) for v in vals]


def c_subdifferential(
    space: SpaceHandle,
    potentials: PotentialPair,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    x_index: int,
    tol: float = 1e-9,
) -> set[int]:
    """Target indices where phi(y) - psi(x) = c(x, y) within tol."""
    x = mu.points[x_index]
    psi_x = potentials.psi[x_index]
    out = set()
    for j, y in enumerate(nu.points):
        if abs(potentials.phi[j] - psi_x - cost(space, x, y)) <= tol:
            out.add(j)
    return out


def extract_monge_map(plan: TransportPlan, tol: float = 1e-9):
    """Largest-entry assignment, or NotDeterministic with the total split mass."""
    n = len(plan.source.points)
    largest: list[Optional[tuple[int, float]]] = [None] * n
    for i, j, mass in plan.entries:
        if largest[i] is None or mass > largest[i][1]:
            largest[i] = (j, mass)
    split = 0.0
    for i in range(n):
        carried = largest[i][1] if largest[i] is not None else 0.0
        split += plan.source.weights[i] - carried
    if split > tol:
        return NotDeterministic(split)
    targets = tuple(largest[i][0] for i in range(n))
    points = tuple(plan.target.points[j] for j in targets)
    return TransportMap(plan.source, points, targets)


def psi_R(
    space: SpaceHandle,
    potentials: PotentialPair,
    nu: DiscreteMeasure,
    x: Point,
    y0: Point,
    R: float,
) -> float:
    """Ball-restricted potential: min of phi(y) - c(x, y) over targets in B(y0, R)."""
    if R <= 0:
        raise ParamOutOfRange(f"ball radius {R} must be positive")
    best = math.inf
    hit = False
    for j, y in enumerate(nu.points):
        if distance(space, y0, y) < R:
            hit = True
            val = potentials.phi[j] - cost(space, x, y)
            if val < best:
                best = val
    if not hit:
        raise EmptyBall(f"no target support point within {R} of the ball center")
    return best


# Grid potentials for the first-order transport identity.


@dataclass(frozen=True)
class GridPotential:
    """Scalar values on a regular Euclidean grid, row-major with the last axis fastest."""

    origin: tuple[float, ...]
    pitch: float
    shape: tuple[int, ...]
    values: tuple[float, ...]

    def flat_index(self, idx: Sequence[int]) -> int:
        flat = 0
        for k, i in zip(self.shape, idx):
            flat = flat * k + i
        return flat

    def node_index(self, flat: int) -> tuple[int, ...]:
        idx = []
        for k in reversed(self.shape):
            idx.append(flat % k)
            flat //= k
        return tuple(reversed(idx))

    def node_point(self, flat: int) -> Point:
        idx = self.node_index(flat)
        return Point(0, tuple(o + self.pitch * i for o, i in zip(self.origin, idx)))

    def is_interior(self, flat: int) -> bool:
        return all(0 < i < k - 1 for i, k in zip(self.node_index(flat), self.shape))

    def gradient(self, flat: int) -> np.ndarray:
        """Central-difference gradient at an interior node."""
        idx = list(self.node_index(flat))
        grad = np.empty(len(self.shape))
        for ax in range(len(self.shape)):
            idx[ax] += 1
            up = self.values[self.flat_index(idx)]
            idx[ax] -= 2
            dn = self.values[self.flat_index(idx)]
            idx[ax] += 1
            grad[ax] = (up - dn) / (2.0 * self.pitch)
        return grad

    def interpolate(self, p: Point) -> float:
        """Multilinear interpolation; linear extrapolation from edge cells outside."""
        q = (np.asarray(p.coords) - np.asarray(self.origin)) / self.pitch
        base = np.clip(np.floor(q).astype(int), 0, np.asarray(self.shape) - 2)
        w = q - base
        acc = 0.0
        for corner in itertools.product((0, 1), repeat=len(self.shape)):
            weight = 1.0
            for ax, c in enumerate(corner):
                weight *= w[ax] if c else 1.0 - w[ax]
            acc += weight * self.values[self.flat_index(base + np.asarray(corner))]
        return float(acc)


@dataclass(frozen=True)
class TransportIdentityReport:
    residual: float
    brenier_gap: float


def verify_transport_identity(
    space: SpaceHandle,
    psi_grid: GridPotential,
    T: TransportMap,
    x_index: int,
    h: Optional[float] = None,
) -> TransportIdentityReport:
    """First-order identity at a grid node: D psi along x -> T(x) cancels D_x c.

    The derivative of the grid potential along the geodesic toward T(x) is
    grad psi . (T(x) - x) in curve-parameter units, and the closed-form cost
    derivative is -d(x, T(x))^2; the residual is their mismatch. The report
    also carries the gradient-form gap |(T(x) - x) - grad psi|.
    """
    if space.kind != "euclidean":
        raise ParamOutOfRange("grid potentials are defined on Euclidean spaces only")
    if h is None:
        h = psi_grid.pitch
    if x_index not in range(len(T.source.points)):
        raise MapUndefined(f"map carries no source index {x_index}")
    if not psi_grid.is_interior(x_index):
        raise BoundaryPoint(f"grid node {x_index} is not interior")
    x = psi_grid.node_point(x_index)
    src = T.source.points[x_index]
    if distance(space, x, src) > 1e-9:
        raise MapUndefined("map source atoms do not sit on the grid nodes")
    tx = T.points[x_index]
    v = np.asarray(tx.coords) - np.asarray(x.coords)
    grad = psi_grid.gradient(x_index)
    residual = abs(float(grad @ v) - float(v @ v))
    gap = float(np.linalg.norm(v - grad))
    return TransportIdentityReport(residual, gap)


# Serialization.


def measure_to_json(m: DiscreteMeasure) -> dict:
    return {
        "points": [[p.chart, *p.coords] for p in m.points],
        "weights": list(m.weights),
    }


def measure_from_json(space: SpaceHandle, doc: dict) -> DiscreteMeasure:
    pts = [Point(int(row[0]), tuple(float(c) for c in row[1:])) for row in doc["points"]]
    return measure(space, pts, doc.get("weights"))


def plan_to_json(plan: TransportPlan) -> dict:
    return {"entries": [[i, j, mass] for i, j, mass in plan.entries]}


def plan_from_json(
    doc: dict, source: DiscreteMeasure, target: DiscreteMeasure
) -> TransportPlan:
    entries = tuple((int(i), int(j), float(m)) for i, j, m in doc["entries"])
    return TransportPlan(source, target, entries)


def plan_to_csv(plan: TransportPlan) -> str:
    lines = ["i,j,mass"]
    for i, j, mass in plan.entries:
        lines.append(f"{i},{j},{mass!r}")
    return "\n".join(lines) + "\n"
