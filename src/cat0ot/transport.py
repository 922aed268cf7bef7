"""Discrete optimal transport for the half-squared-distance cost.

Measures, exact Kantorovich solving with dual potentials, the c-transform,
cyclic-monotonicity checking, map extraction, the ball-restricted potential
psi_R, and the finite-difference check of the first-order transport identity
on grid instances. Costs between measures read their `rows`: the atoms as
read-only (charts, coords) arrays, packed from `points` on first read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import Optional, Sequence

import numpy as np
import scipy.optimize

from . import _simplex
from ._simplex import _row_chunks
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
from .geometry import Point, SpaceHandle, _point_rows, normalize
from .rng import substream

MAX_SUPPORT = 10_000
DUAL_REFINE_CAP = 200_000
_SHORTLIST = 24  # nearest targets per row in the exchange graph's first pass
_WARM_ATOMS = 128  # atoms from which the assignment starts from entropic prices
_COST_PAIRS = 1 << 14  # (source, target) pairs per distances_between call

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

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms as read-only (charts, coords) rows, packed on first read."""
        rows = _point_rows(self.points)
        for a in rows:
            a.flags.writeable = False
        return rows


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
        if not all(x > 0 for x in w):  # a nan weight fails too
            raise ParamOutOfRange("weights must be strictly positive")
        if abs(_mass(w) - 1.0) > 1e-12:
            raise WeightMismatch(f"weights sum to {_mass(w)}, not 1")
    return DiscreteMeasure(pts, w)


def _mass(weights: Sequence[float]) -> float:
    """A measure's total mass, summed in the order `measure` checks it."""
    return reduce(add, weights, 0.0)


def map_from_points(
    space: SpaceHandle, source: DiscreteMeasure, points: Sequence[Point]
) -> TransportMap:
    if len(points) != len(source.points):
        raise MapUndefined("need one image point per source atom")
    return TransportMap(source, tuple(normalize(space, p) for p in points))


def _cost_rows(space: SpaceHandle, sources: tuple, targets: tuple) -> np.ndarray:
    """C[i, j] = d(x_i, y_j)^2 / 2 over the (charts, coords) rows of normal points, one
    `distances_between` call per block of whole source rows, _COST_PAIRS pairs or one
    row. Every cost in this module is built here, so its float-range guard lives here too."""
    (xc, xs), (yc, ys) = sources, targets
    n, m = len(xc), len(yc)
    C = np.empty((n, m))
    if not (n and m):  # no coordinate rows to broadcast against
        return C
    step = min(n, max(1, _COST_PAIRS // m))
    # the targets repeated for a whole block; a shorter block reads a prefix
    yc, ys = np.tile(yc, step), np.tile(ys, (step, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan
        for i in range(0, n, step):
            k = min(step, n - i)
            d = space.impl.distances_between(
                np.repeat(xc[i : i + k], m), np.repeat(xs[i : i + k], m, axis=0), yc[: k * m], ys[: k * m]
            )
            C[i : i + k] = (0.5 * d * d).reshape(k, m)
    if not np.isfinite(C.max(initial=0.0)):  # C >= 0, and max passes a nan on
        raise ParamOutOfRange("a squared distance between the point sets exceeds the float range")
    return C


def pairwise_costs(
    space: SpaceHandle, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> np.ndarray:
    """Cost matrix C[i, j] = d(x_i, y_j)^2 / 2."""
    return _cost_rows(space, mu.rows, nu.rows)


def _uniform(weights: Sequence[float]) -> bool:
    """Whether every weight is within 1e-12 of 1/n; a nan weight is not."""
    return bool((np.abs(np.asarray(weights, dtype=float) - 1.0 / len(weights)) <= 1e-12).all())


def _assignment_duals(
    C: np.ndarray, perm: np.ndarray, prices: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """Row prices certifying that perm is an optimal assignment, or None.

    alpha is the shortest-path fixpoint, from a virtual source at 0, of the
    exchange graph with arcs k -> i of weight W[i, k] = C[i, perm[k]] -
    C[k, perm[k]]. It is found on a shortlist: each row's _SHORTLIST (24)
    nearest targets, as arcs from the rows matched to them, nearest by C, or
    by C - prices when column prices are given (the entropic prices the
    matching was found under, whose shortlist holds most of the far partners
    of a translation).
    Each round is a Jacobi round over every shortlist arc: the arcs are kept
    sorted by head, stably, so one `np.minimum.reduceat` takes each row's
    least alpha[k] + W[i, k]. Once a pass settles, every arc is priced
    in row chunks, and each arc with alpha[k] + W[i, k] < alpha[i] joins the
    shortlist for another pass; no arc joining means alpha is the fixpoint on
    all n^2 arcs. Every comparison is exact and every sum is the left fold
    along a path, so this is the fixpoint that relaxing the dense graph
    reaches, bit for bit, from any first shortlist: the ranking only decides
    how many passes it takes, never alpha. It is the certificate: no arc
    prices negative, so alpha and the column prices C[k, perm[k]] - alpha[k]
    are feasible and tight on perm. A pass settles within n rounds exactly
    when the graph has no negative cycle; one still moving after n + 5 rounds
    is the verdict that perm is not optimal, and then None is returned.

    A cost of +inf is a forbidden arc: it never relaxes a price, never joins
    the shortlist in a pricing pass, and perm must not use it. So on a
    block-diagonal C, +inf off the blocks and perm within them, no arc joins
    two blocks: each block's prices are those of a call on that block alone,
    bit for bit, and None is returned exactly when some block's matching is
    not optimal.
    """
    n = len(perm)
    rows = np.arange(n)
    d = C[rows, perm]
    back = np.empty(n, dtype=np.intp)  # back[j]: the row matched to column j
    back[perm] = rows
    k = min(_SHORTLIST, n)
    chunks = _row_chunks(C)
    near = []
    for r in chunks:
        rank = C[r] if prices is None else C[r] - prices
        near.append(np.argpartition(rank, k - 1, axis=1)[:, :k].copy())
    near = np.concatenate(near).ravel()
    head, tail = np.repeat(rows, k), back[near]
    w = C[head, near] - d[tail]
    starts = np.arange(0, n * k, k)  # each row's first arc; every row heads k
    d_by_col = d[back]  # W read by columns: W[i, back[j]] = C[i, j] - d_by_col[j]
    alpha = np.zeros(n)
    while True:
        for _ in range(n + 5):
            relaxed = np.minimum(alpha, np.minimum.reduceat(alpha[tail] + w, starts))
            if not (relaxed < alpha).any():
                break
            alpha = relaxed
        else:
            return None  # a negative cycle: the assignment is not optimal
        alpha_by_col = alpha[back]
        found = []
        for r in chunks:
            cand = C[r] - d_by_col
            cand += alpha_by_col
            found.append(np.flatnonzero(cand < alpha[r, None]) + r.start * n)
        new_head, new_col = np.divmod(np.concatenate(found), n)
        if len(new_head) == 0:
            return alpha
        head = np.concatenate([head, new_head])
        order = np.argsort(head, kind="stable")
        head = head[order]
        tail = np.concatenate([tail, back[new_col]])[order]
        w = np.concatenate([w, C[new_head, new_col] - d_by_col[new_col]])[order]
        starts = np.flatnonzero(np.diff(head, prepend=-1))


def _assignment(C: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """perm with C[i, perm[i]] summing to the least total, and the column
    prices it was found under: scipy's `linear_sum_assignment` on C minus
    the column half beta of `_simplex._entropic_prices` on uniform weights
    when C has at least _WARM_ATOMS rows, or on C alone, with None for the
    prices. Subtracting a price from a column takes the same amount from
    every assignment, so C - beta has the optimal assignments of C: the
    prices only make the LSA's augmenting paths short, and no certified
    number depends on them. Below _WARM_ATOMS the LSA and certificate on C
    take less time than with the prices: the two cross near 110 atoms on
    translation grids and 150 on uniform random atoms. The scipy function
    is looked up at each call, so tests and the benchmark tracer can patch
    it."""
    n = len(C)
    prices = None
    if n >= _WARM_ATOMS:
        w = np.full(n, 1.0 / n)
        prices = _simplex._entropic_prices(C, w, w)[1]
    rows, cols = scipy.optimize.linear_sum_assignment(C if prices is None else C - prices)
    return cols[np.argsort(rows)], prices


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
    via = np.empty_like(D)  # each step's paths through k, in one buffer
    for k in range(len(D)):
        np.add(D[:, k, None], D[None, k, :], out=via)
        np.minimum(D, via, out=D)
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
    Deterministic for a fixed input order. By default `_interior_duals`
    refines the solver's prices so that they are tight exactly on the arcs
    some optimal plan uses, which is what `c_subdifferential` reads; its
    exchange-graph closure costs O(min(n, m)^3). refine_duals=False keeps the
    solver's own prices, which are optimal and so certify the plan just as
    well (same cost, feasibility and duality gap): every harness experiment
    passes it, because none reads the tight set, and grid convergence
    studies rely on their finite-difference error scaling uniformly with the
    instance.

    Both primal paths start from one warm start, `_simplex._entropic_prices`,
    whose prices only order the search and never a certified number.
    Uniform n = m inputs take the assignment path: by Birkhoff-von Neumann
    some optimal plan is a permutation. From _WARM_ATOMS atoms, scipy's
    `linear_sum_assignment` runs on C minus the entropic column prices,
    which leave the optimal assignments as they are and make the LSA faster;
    on fewer atoms it runs on C. `_assignment_duals` prices the matching on
    a shortlist of the exchange graph, first ranked by C minus those prices
    when there are any, that grows until no arc of C prices negative: those
    prices certify it. If they do not settle within n + 5 rounds, a negative
    exchange cycle rules the matching out, and the transportation simplex
    solves the problem, as it does for every other input. The simplex starts
    from the least-cost basis of C minus the entropic prices, which only
    orders its start; it prices from C and declares optimality by a full
    pricing, so its answer is exact. Costs past the float range raise
    ParamOutOfRange before either solver runs.
    """
    n, m = len(mu.points), len(nu.points)
    if n > MAX_SUPPORT or m > MAX_SUPPORT:
        raise SupportTooLarge(f"support sizes ({n}, {m}) exceed {MAX_SUPPORT}")
    # `measure` holds each total within 1e-12 of 1, so two of its measures
    # differ by at most 2e-12 (both differences are exact near 1)
    ma, mb = _mass(mu.weights), _mass(nu.weights)
    if not abs(ma - mb) <= 2e-12:  # a nan mass fails too
        raise WeightMismatch(f"total masses differ: {ma} vs {mb}")
    a, b = np.asarray(mu.weights), np.asarray(nu.weights)
    C = pairwise_costs(space, mu, nu)
    alpha = None
    if n == m and _uniform(a) and _uniform(b):
        perm, prices = _assignment(C)
        alpha = _assignment_duals(C, perm, prices)
        flow = {(i, int(perm[i])): 1.0 / n for i in range(n)}
    if alpha is None:
        flow, alpha, _ = _simplex.solve_transport(C, a, b)

    entries = tuple(
        (i, j, float(mass)) for (i, j), mass in sorted(flow.items()) if mass > 0.0
    )
    psi = -alpha
    if refine_duals:
        psi = _interior_duals(C, [(i, j) for i, j, _ in entries], psi)
    chunks = _row_chunks(C)  # a min and a max are exact in any grouping
    phi = np.full(m, np.inf)
    for r in chunks:
        np.minimum(phi, (psi[r, None] + C[r]).min(axis=0), out=phi)
    slack_max = max(float((phi - psi[r, None] - C[r]).max()) for r in chunks)
    pot = PotentialPair(tuple(psi.tolist()), tuple(phi.tolist()), slack_max <= 1e-9, slack_max)
    total = float(reduce(add, [mass * C[i, j] for i, j, mass in entries], 0.0))
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


def _combinations(K: int, L: int) -> np.ndarray:
    """The L-subsets of range(K) as the rows of a (comb(K, L), L) intp array,
    in the order of itertools.combinations(range(K), L).

    In that order the l-subsets run by their least element, and the
    (l - 1)-subsets that can follow a lead a are the tail of their own list
    led by more than a; so each length repeats every lead over its tail. The
    array is built by columns and returned as a transposed view, whose
    columns, which the cycle audit gathers, are contiguous."""
    cols = np.arange(K, dtype=np.intp)[None, :]
    for _ in range(2, L + 1):
        tails = np.searchsorted(cols[0], np.arange(1, K + 1))  # where each lead's tail starts
        counts = cols.shape[1] - tails
        skip = np.repeat(tails - (np.cumsum(counts) - counts), counts)
        lead = np.repeat(np.arange(K, dtype=np.intp), counts)
        cols = np.vstack([lead, np.take(cols, np.arange(len(lead)) + skip, axis=1)])
    return cols.T


def check_cyclic_monotonicity(
    space: SpaceHandle,
    plan: TransportPlan,
    max_len: int = 3,
    mode: str = "exhaustive",
    n_samples: int = 10_000,
    seed: int = 0,
) -> dict:
    """Cycle inequality sum c(x_k, y_k) <= sum c(x_k, y_{k+1}) over support tuples.

    The support is the plan's entries of positive mass; entries of mass 0 are
    neither scored nor counted. "exhaustive" scores every cycle of 2 to
    max_len arcs; past 10^6 of them it raises TooManyTuples before building
    any cost. "sampled" scores n_samples cycles drawn from substream(seed,
    "cyclic"); no harness path uses it. A slack above 1e-9 is a violation, and
    a support of one arc or none reports zero slack. The costs come from
    `pairwise_costs` over every atom, so one past the float range raises
    ParamOutOfRange even between atoms that the support leaves out."""
    if max_len < 2:
        raise ParamOutOfRange("cycles need length at least 2")
    if mode not in ("exhaustive", "sampled"):
        raise ParamOutOfRange(f"unknown mode {mode!r}")
    support = np.array([(i, j) for i, j, mass in plan.entries if mass > 0], dtype=np.intp).reshape(-1, 2)
    K = len(support)
    if mode == "exhaustive":
        total = sum(math.comb(K, L) * math.factorial(L - 1) for L in range(2, max_len + 1))
        if total > 1_000_000:
            raise TooManyTuples(f"{total} tuples exceed the exhaustive cap 10^6")
    Cp = pairwise_costs(space, plan.source, plan.target)[np.ix_(support[:, 0], support[:, 1])]
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
        # each cycle is a combination led by its smallest index, then an
        # ordering of the rest
        tallies = []
        for L in range(2, min(max_len, K) + 1):
            combos = _combinations(K, L)
            for rest in itertools.permutations(range(1, L)):
                tallies.append(score(combos[:, (0,) + rest]))
    else:
        rng = substream(seed, "cyclic")
        by_len: dict[int, list[np.ndarray]] = {}
        for _ in range(int(n_samples)):
            L = min(int(rng.integers(2, max_len + 1)), K)
            by_len.setdefault(L, []).append(rng.permutation(K)[:L])
        tallies = [score(np.array(cycles)) for L, cycles in by_len.items() if L]
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
    xs, ys = (_point_rows([normalize(space, p) for p in pts]) for pts in (a_points, b_points))
    C = _cost_rows(space, xs, ys)
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
    if x_index not in range(len(mu.points)):
        raise ParamOutOfRange(f"mu has no atom {x_index}")
    if len(potentials.psi) != len(mu.points) or len(potentials.phi) != len(nu.points):
        raise ParamOutOfRange("potentials need one value per atom of mu and of nu")
    # measure atoms are normal already
    c = _cost_rows(space, tuple(a[[x_index]] for a in mu.rows), nu.rows)[0]
    tight = np.abs(np.asarray(potentials.phi) - potentials.psi[x_index] - c) <= 1e-9
    return set(np.flatnonzero(tight).tolist())


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
    if not R > 0:  # a nan radius fails too
        raise ParamOutOfRange(f"ball radius {R} must be positive")
    if len(potentials.phi) != len(nu.points):
        raise ParamOutOfRange("potentials need one value per atom of nu")
    x, y0 = normalize(space, x), normalize(space, y0)
    # the atoms of nu are normal already
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan past the float range: outside
        inside = space.impl.distances_from(y0, *nu.rows) < R
    if not inside.any():
        raise EmptyBall(f"no target support point within {R} of the ball center")
    vals = np.asarray(potentials.phi) - _cost_rows(space, _point_rows([x]), nu.rows)[0]
    return float(vals[inside].min())


# Grid potentials for the first-order transport identity.


@dataclass(frozen=True)
class GridPotential:
    """Scalar values on a regular Euclidean grid, row-major with the last axis fastest:
    one value per node, and a node index, flat or per axis, past the grid raises
    ParamOutOfRange."""

    origin: tuple[float, ...]
    pitch: float
    shape: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        size = math.prod(self.shape)
        if len(self.values) != size:
            raise ParamOutOfRange(f"a grid of shape {self.shape} needs {size} values, got {len(self.values)}")

    def flat_index(self, idx: Sequence[int]) -> int:
        if len(idx) != len(self.shape):
            raise ParamOutOfRange(f"a node of a grid of shape {self.shape} has {len(self.shape)} indices, got {len(idx)}")
        flat = 0
        for k, i in zip(self.shape, idx):
            if not 0 <= i < k:
                raise ParamOutOfRange(f"node {tuple(idx)} lies past the grid of shape {self.shape}")
            flat = flat * k + i
        return flat

    def node_index(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < len(self.values):
            raise ParamOutOfRange(f"node {flat} lies past the grid's {len(self.values)} nodes")
        idx = []
        for k in reversed(self.shape):
            idx.append(flat % k)
            flat //= k
        return tuple(reversed(idx))

    def is_interior(self, flat: int) -> bool:
        return all(0 < i < k - 1 for i, k in zip(self.node_index(flat), self.shape))

    @cached_property
    def _array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def gradient(self, flat: int) -> np.ndarray:
        """Central-difference gradient at an interior node."""
        return self._gradients(np.array([flat]))[0]

    def _gradients(self, nodes: np.ndarray) -> np.ndarray:
        """Central-difference gradients at interior flat nodes, one row each."""
        steps = np.cumprod((self.shape[1:] + (1,))[::-1])[::-1]  # a node's flat step along each axis
        up, dn = (self._array[nodes[:, None] + k * steps] for k in (1, -1))
        return (up - dn) / (2.0 * self.pitch)

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
    if x_index >= len(psi_grid.values):
        raise MapUndefined(f"source atom {x_index} lies past the {len(psi_grid.values)} grid nodes")
    if not psi_grid.is_interior(x_index):
        raise BoundaryPoint(f"grid node {x_index} is not interior")
    residual, gap = _identity_rows(space, psi_grid, T, np.array([x_index]))
    return TransportIdentityReport(float(residual[0]), float(gap[0]))


def _identity_rows(space: SpaceHandle, grid: GridPotential, T: TransportMap, nodes: np.ndarray) -> tuple:
    """(residuals, gaps) of `verify_transport_identity` at interior flat nodes, bit for bit:
    each dot product is a row times a column in one stacked `np.matmul`, which adds as
    `grad @ v` does, and a gap is the square root of one, as `np.linalg.norm` takes it."""
    x = np.asarray(grid.origin) + grid.pitch * np.stack(np.unravel_index(nodes, grid.shape), 1)
    charts = np.zeros(len(nodes), dtype=np.int64)
    if (space.impl.distances_between(charts, x, charts, T.source.rows[1][nodes]) > 1e-9).any():
        raise MapUndefined("map source atoms do not sit on the grid nodes")
    v = _point_rows([T.points[i] for i in nodes])[1] - x
    grad = grid._gradients(nodes)
    pairs = ((grad, v), (v, v), (v - grad, v - grad))
    gv, vv, gap = (np.matmul(a[:, None], b[..., None])[:, 0, 0] for a, b in pairs)
    return np.abs(gv - vv), np.sqrt(gap)


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
