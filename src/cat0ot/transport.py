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

from . import _simplex
from .errors import (
    BoundaryPoint,
    ConfigInvalid,
    EmptyBall,
    EmptySet,
    InvalidPoint,
    MapUndefined,
    ParamOutOfRange,
    SupportTooLarge,
    TooManyTuples,
    UnsupportedShape,
    WeightMismatch,
    config_float,
    config_int,
)
from .geometry import Point, SpaceHandle, distance, normalize
from .rng import substream

MAX_SUPPORT = 10_000
DUAL_REFINE_CAP = 200_000
_SHORTLIST = 16  # nearest targets per row in the exchange graph's first pass
_PRICE_CELLS = 1 << 18  # cost cells priced per row chunk
_TIE_ROWS = 32  # cost rows sampled by the tie rule
_TIE_SHARE = 0.25  # share of zero steps above which the costs count as tied

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


def _cost_rows(
    space: SpaceHandle, sources: Sequence[Point], targets: Sequence[Point]
) -> np.ndarray:
    """C[i, j] = d(x_i, y_j)^2 / 2, one distances_from row per source point."""
    C = np.empty((len(sources), len(targets)))
    if not targets:  # no coordinate rows to broadcast against
        return C
    charts = np.asarray([p.chart for p in targets], dtype=np.int64)
    coords = np.asarray([p.coords for p in targets], dtype=float)
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

    alpha is the shortest-path fixpoint, from a virtual source at 0, of the
    exchange graph with arcs k -> i of weight W[i, k] = C[i, perm[k]] -
    C[k, perm[k]]. It is found on a shortlist: each row's _SHORTLIST (16)
    nearest targets, as arcs from the rows matched to them. Each round
    relaxes, with `np.minimum.at`, the arcs out of the rows whose price moved
    in the round before. Once a pass settles, every arc is priced in row
    chunks, and each arc with alpha[k] + W[i, k] < alpha[i] joins the
    shortlist for another pass; no arc joining means alpha is the fixpoint on
    all n^2 arcs. Every comparison is exact and every sum is the left fold
    along a path, so this is the fixpoint that relaxing the dense graph
    reaches, bit for bit. Optimality of the assignment rules out negative
    cycles, and then a pass settles within n rounds; a pass still moving
    after n + 5 rounds (the dense loop's cap) stops, and the certificate in
    `solve_kantorovich` rejects what it returns.
    """
    n = len(perm)
    rows = np.arange(n)
    d = C[rows, perm]
    back = np.empty(n, dtype=np.intp)  # back[j]: the row matched to column j
    back[perm] = rows
    k = min(_SHORTLIST, n)
    step = max(1, _PRICE_CELLS // n)
    near = np.concatenate(
        [np.argpartition(C[s : s + step], k - 1, axis=1)[:, :k] for s in range(0, n, step)]
    ).ravel()
    head, tail = np.repeat(rows, k), back[near]
    w = C[head, near] - d[tail]
    d_by_col = d[back]  # W read by columns: W[i, back[j]] = C[i, j] - d_by_col[j]
    alpha = np.zeros(n)
    moved = np.ones(n, dtype=bool)
    while True:
        for _ in range(n + 5):
            arcs = np.flatnonzero(moved[tail])
            if len(arcs) == 0:
                break
            relaxed = alpha.copy()
            np.minimum.at(relaxed, head[arcs], alpha[tail[arcs]] + w[arcs])
            moved = relaxed < alpha
            alpha = relaxed
        else:
            break  # a negative cycle: the assignment is not optimal
        alpha_by_col = alpha[back]
        found = []
        for s in range(0, n, step):
            cand = C[s : s + step] - d_by_col
            cand += alpha_by_col
            found.append(np.flatnonzero(cand < alpha[s : s + step, None]) + s * n)
        new_head, new_col = np.divmod(np.concatenate(found), n)
        if len(new_head) == 0:
            break
        head = np.concatenate([head, new_head])
        tail = np.concatenate([tail, back[new_col]])
        w = np.concatenate([w, C[new_head, new_col] - d_by_col[new_col]])
        moved = np.zeros(n, dtype=bool)
        moved[back[new_col]] = True
    beta = np.empty(n)
    beta[perm] = d - alpha
    return alpha, beta


def _tied(C: np.ndarray) -> bool:
    """Whether the costs are tied: over _TIE_ROWS evenly spaced rows, sorted,
    more than _TIE_SHARE of the steps between neighbours are exactly zero.

    Translation grids read 0.43-0.68 (sides 9-49); uniform random atoms on
    e2, the tripod, book3 and comb(3,16) read 0.0 at 256-2,401 atoms. A single
    column has no steps and is not tied.
    """
    n = C.shape[0]
    sample = np.sort(C[np.linspace(0, n - 1, min(_TIE_ROWS, n)).astype(np.intp)], axis=1)
    steps = np.diff(sample, axis=1)
    return bool(steps.size) and bool((steps == 0).mean() > _TIE_SHARE)


def _auction_prices(C: np.ndarray) -> np.ndarray:
    """Column prices from a Jacobi epsilon-scaling auction on C (Bertsekas,
    "The auction algorithm: a distributed relaxation method for the
    assignment problem", Ann. Oper. Res. 1988).

    In each bidding round every unassigned row bids for its cheapest column
    under the prices p, raising that price by its margin over its second
    cheapest plus eps; the highest bid takes the column (ties to the lower
    row) and its former holder is unassigned. eps falls by 4x per phase to
    (max C - min C) / n, starting at most 64 times that. A phase ends when
    fewer than 1% of the rows are unassigned, or after n rounds. Adding a
    price to a column adds the same amount to every assignment, so C + p has
    the optimal assignments of C; only its ties are broken.
    """
    n = C.shape[0]
    p = np.zeros(n)
    eps_final = (float(C.max()) - float(C.min())) / n
    if n < 2 or eps_final <= 0.0:
        return p
    for phase in range(max(0, math.ceil(math.log(n / 64, 4))), -1, -1):
        eps = eps_final * 4.0**phase
        holder = np.full(n, -1)
        held = np.full(n, -1)
        free = np.arange(n)
        for _ in range(n):
            if len(free) * 100 < n:
                break
            V = C[free]
            V += p
            at = np.arange(len(free))
            best = V.argmin(axis=1)
            v1 = V[at, best]
            V[at, best] = np.inf
            bid = p[best] + (V.min(axis=1) - v1) + eps
            order = np.lexsort((free, -bid, best))
            first = np.ones(len(order), dtype=bool)
            first[1:] = best[order[1:]] != best[order[:-1]]
            won = order[first]
            cols = best[won]
            lost = holder[cols]
            held[lost[lost >= 0]] = -1
            holder[cols] = free[won]
            held[free[won]] = cols
            p[cols] = bid[won]
            free = np.flatnonzero(held < 0)
    return p


def _assignment(C: np.ndarray) -> np.ndarray:
    """perm with C[i, perm[i]] summing to the least total: scipy's
    `linear_sum_assignment` on C, or on C plus `_auction_prices` when C is
    `_tied`. The scipy function is looked up at each call, so tests and the
    benchmark tracer can patch it."""
    if _tied(C):
        rows, cols = scipy.optimize.linear_sum_assignment(C + _auction_prices(C)[None, :])
    else:
        rows, cols = scipy.optimize.linear_sum_assignment(C)
    return cols[np.argsort(rows)]


def _interior_duals(
    C: np.ndarray, support: Sequence[tuple[int, int]], psi: np.ndarray
) -> np.ndarray:
    """Source potential tight exactly on the arcs some optimal plan uses.

    psi's slack R = C + psi - psi^c is >= 0 exactly; it is zeroed on the
    support. The exchange graph on the smaller side weighs W[i, k] = min of
    R[i, j] over k's support arcs (k, j), every row holding one. W >= 0, so its
    Floyd-Warshall closure D meets no negative cycle (Johnson's reweighting).
    Each column c of D is a u with psi - u tight on the support, slack on the
    arc (c, l) by the reduced weight of the cheapest exchange cycle through it:
    zero exactly when the arc lies in some optimal plan. The columns' mean is
    thus strictly slack on every other arc, so the tight set no longer depends
    on which dual vertex the pivoting ended at. Returns psi itself when the
    support is full, when n * m exceeds DUAL_REFINE_CAP, or when R exceeds
    1e-9 on the support (psi is not optimal for it).
    """
    n, m = C.shape
    if len(support) == n * m or n * m > DUAL_REFINE_CAP:
        return psi
    rows, cols = np.asarray(support).T
    R = C + psi[:, None]
    R -= R.min(axis=0)
    if R[rows, cols].max() > 1e-9:
        return psi
    R[rows, cols] = 0.0
    flip = m < n
    if flip:
        R, rows, cols = R.T, cols, rows
    order = np.argsort(rows, kind="stable")
    starts = np.flatnonzero(np.diff(rows[order], prepend=-1))
    D = np.minimum.reduceat(R[:, cols[order]], starts, axis=1)
    for k in range(len(D)):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    u = D.mean(axis=1)
    if flip:  # u shifts the targets' prices; a source moves with its targets
        u, v = np.empty(n), u
        u[cols] = -v[rows]
    psi = psi - u
    return psi - psi[0]


def solve_kantorovich(
    space: SpaceHandle,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    refine_duals: bool = True,
) -> tuple[TransportPlan, PotentialPair, float]:
    """Exact optimal plan, tightened dual potentials, and the optimal cost.

    Potentials follow the sign convention phi(y) - psi(x) <= c(x, y) with
    equality on the support; the optimal cost equals sum(phi nu) - sum(psi mu).
    Deterministic for a fixed input order. `_interior_duals` refines the
    solver's prices so that they are tight exactly on the arcs some optimal
    plan uses, which is what `c_subdifferential` reads. refine_duals=False
    keeps the raw node prices, whose finite-difference error scales uniformly
    with the instance; grid convergence studies rely on that.

    Uniform n = m inputs take the assignment path: by Birkhoff-von Neumann
    some optimal plan is a permutation. When the costs are `_tied`
    (translation grids are), scipy's `linear_sum_assignment` runs on C plus
    `_auction_prices`, an auction's column prices, which leave the optimal
    assignments as they are and make the LSA far faster on ties; otherwise
    it runs on C. `_assignment_duals` prices the matching on a shortlist of
    the exchange graph that grows until no arc prices negative. The matching
    is accepted when those prices have slack >= -1e-9 on every cell of C and
    close the duality gap to 1e-9; otherwise, and for every other input, the
    transportation simplex solves the problem.
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
    if n == m and _uniform(a) and _uniform(b):
        perm = _assignment(C)
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
    pot = PotentialPair(tuple(psi.tolist()), tuple(phi.tolist()), slack_max <= 1e-9, slack_max)
    total = float(sum(mass * C[i, j] for i, j, mass in entries))
    return TransportPlan(mu, nu, entries), pot, total


def brute_force_oracle(
    space: SpaceHandle, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[TransportPlan, float]:
    """Exhaustive minimum over permutation couplings, for small equal-weight inputs."""
    n, m = len(mu.points), len(nu.points)
    if n != m or n > 8 or not (_uniform(mu.weights) and _uniform(nu.weights)):
        raise UnsupportedShape("oracle handles equal uniform weights with n = m <= 8")
    C = pairwise_costs(space, mu, nu)
    perms = np.array(list(itertools.permutations(range(n))))
    costs = C[np.arange(n), perms].sum(axis=1) / n
    best = int(np.argmin(costs))
    entries = tuple((i, int(perms[best, i]), 1.0 / n) for i in range(n))
    return TransportPlan(mu, nu, entries), float(costs[best])


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

    def score(cycles: np.ndarray) -> tuple[int, float]:
        """Violations and worst slack over the rows of an (N, L) array of cycles."""
        L = cycles.shape[1]
        # column by column in cycle order, the order sum() adds a tuple's terms
        direct = diag[cycles[:, 0]]
        shifted = Cp[cycles[:, 0], cycles[:, 1 % L]]
        for t in range(1, L):
            direct = direct + diag[cycles[:, t]]
            shifted = shifted + Cp[cycles[:, t], cycles[:, (t + 1) % L]]
        slack = direct - shifted
        return int((slack > 1e-9).sum()), float(slack.max())

    if mode == "exhaustive":
        total = sum(
            math.comb(K, L) * math.factorial(L - 1) for L in range(2, max_len + 1)
        )
        if total > 1_000_000:
            raise TooManyTuples(f"{total} tuples exceed the exhaustive cap 10^6")
        # each cycle is a combination led by its smallest index, then an
        # ordering of the rest
        tallies = []
        for L in range(2, min(max_len, K) + 1):
            combos = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(K), L)),
                dtype=np.intp,
                count=math.comb(K, L) * L,
            ).reshape(-1, L)
            for rest in itertools.permutations(range(1, L)):
                tallies.append(score(combos[:, (0,) + rest]))
    elif mode == "sampled":
        rng = substream(seed, "cyclic")
        by_len: dict[int, list[np.ndarray]] = {}
        for _ in range(int(n_samples)):
            L = int(rng.integers(2, max_len + 1))
            if L > K:
                L = K
            by_len.setdefault(L, []).append(rng.permutation(K)[:L])
        # an empty plan draws empty cycles, which have no terms to score
        tallies = [score(np.array(cycles)) for L, cycles in by_len.items() if L]
    else:
        raise ParamOutOfRange(f"unknown mode {mode!r}")
    # no tuple at all (a one-arc plan) reports the zero slack of a trivial cycle
    return {
        "violations": sum(count for count, _worst in tallies),
        "worst_slack": max((worst for _count, worst in tallies), default=0.0),
    }


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
    xs = [normalize(space, x) for x in a_points]
    C = _cost_rows(space, xs, [normalize(space, y) for y in b_points])
    vals = (np.asarray(psi, dtype=float)[:, None] + C).min(axis=0)
    return [float(v) for v in vals]


def c_subdifferential(
    space: SpaceHandle,
    potentials: PotentialPair,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    x_index: int,
) -> set[int]:
    """Target indices where phi(y) - psi(x) = c(x, y) within 1e-9."""
    # measure atoms are normal already
    x = mu.points[x_index]
    psi_x = potentials.psi[x_index]
    dist = space.impl.distance
    out = set()
    for j, y in enumerate(nu.points):
        d = dist(x, y)
        if abs(potentials.phi[j] - psi_x - 0.5 * d * d) <= 1e-9:
            out.add(j)
    return out


def extract_monge_map(plan: TransportPlan):
    """Largest-entry assignment, or NotDeterministic with the total split mass
    when that mass exceeds 1e-9."""
    n = len(plan.source.points)
    largest: list[Optional[tuple[int, float]]] = [None] * n
    for i, j, mass in plan.entries:
        if largest[i] is None or mass > largest[i][1]:
            largest[i] = (j, mass)
    split = 0.0
    for i in range(n):
        carried = largest[i][1] if largest[i] is not None else 0.0
        split += plan.source.weights[i] - carried
    if split > 1e-9:
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
    x, y0 = normalize(space, x), normalize(space, y0)
    dist = space.impl.distance
    best = math.inf
    hit = False
    # the atoms of nu are normal already
    for j, y in enumerate(nu.points):
        if dist(y0, y) < R:
            hit = True
            d = dist(x, y)
            val = potentials.phi[j] - 0.5 * d * d
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
) -> TransportIdentityReport:
    """First-order identity at a grid node: D psi along x -> T(x) cancels D_x c.

    The derivative of the grid potential along the geodesic toward T(x) is
    grad psi . (T(x) - x) in curve-parameter units, and the closed-form cost
    derivative is -d(x, T(x))^2; the residual is their mismatch. The report
    also carries the gradient-form gap |(T(x) - x) - grad psi|.
    """
    if space.kind != "euclidean":
        raise ParamOutOfRange("grid potentials are defined on Euclidean spaces only")
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
    """Charts are read by `config_int`, coordinates and weights by `config_float`."""
    pts = [
        Point(config_int(row[0], "points"), tuple(config_float(c, "points") for c in row[1:]))
        for row in doc["points"]
    ]
    weights = doc.get("weights")
    if weights is not None:
        weights = [config_float(x, "weights") for x in weights]
    return measure(space, pts, weights)


def plan_to_json(plan: TransportPlan) -> dict:
    return {"entries": [[i, j, mass] for i, j, mass in plan.entries]}


def plan_from_json(
    doc: dict, source: DiscreteMeasure, target: DiscreteMeasure
) -> TransportPlan:
    """A dict whose "entries" is a list of [i, j, mass] lists: indices read by
    `config_int` and in range, masses by `config_float` and >= 0; anything
    else is `ConfigInvalid`."""
    rows = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or any(not isinstance(r, list) or len(r) != 3 for r in rows):
        raise ConfigInvalid("entries", "expected a list of [i, j, mass] entries")
    entries = tuple(
        (config_int(i, "entries"), config_int(j, "entries"), config_float(mass, "entries"))
        for i, j, mass in rows
    )
    for i, j, mass in entries:
        if not (0 <= i < len(source.points) and 0 <= j < len(target.points) and mass >= 0):
            raise ConfigInvalid("entries", f"entry {[i, j, mass]} is out of range")
    return TransportPlan(source, target, entries)


def plan_to_csv(plan: TransportPlan) -> str:
    lines = ["i,j,mass"]
    for i, j, mass in plan.entries:
        lines.append(f"{i},{j},{mass!r}")
    return "\n".join(lines) + "\n"
