"""Independent reference computations the tests compare against.

Everything here deliberately avoids the library's own geodesic and solver
code paths: tree distances go through networkx shortest paths on the raw edge
data, book distances through the two-case unfolding formula, transport costs
and the arcs of optimal plans through scipy's LP solver, comb sizes
through a closed-form count, the cycle audit one tuple at a time, the
assignment prices by relaxing the dense n-by-n exchange graph every round,
and the interior potential by closing the raw, unreduced exchange graph.
The cost-blind northwest-corner staircase is kept as a start to force on
the transportation simplex, the least-cost start as its first scan of
every sorted cell, and the simplex itself as it first priced: the whole
reduced-cost matrix at every pivot.
Geodesic assembly, the geometry-suite loop and the tree route are kept in
their earlier, plainer forms: the constructor that builds every section with
generator expressions, the suite loop that goes through the public API only,
the route that climbs to an LCA for each of its four endpoint pairs, and the
pair kernel that keeps the shortest of the four routes on every row; the
one route the tree now takes is also kept as a plain scalar climb, and a
geodesic's sections as the climb of one parent per pass.
The per-family geodesic extension and segment projection are kept as each
family first wrote them, whole, the subtree check as a scan of every edge,
and a tree vertex's normal point as the incident-edge lookup.
The region questions are kept as the three separate methods per family
(volume, diameter, sample) that first answered them, each running its own
admissibility check. The point sampler is kept as it first drew, point by
point, and the one-sided difference quotient as it first ran, from f at
every one of the eleven `DEFAULT_STEPS`. The polar experiment is kept as
its first loop: one `polar_factorize` call per trial. The direction targets
are kept as each family first built them, one Point at a time. The
transport identity at a grid node is kept as its first walk: the gradient
by index arithmetic one axis at a time, then `grad @ v` and
`np.linalg.norm`.
"""

from __future__ import annotations

import functools
import itertools
import math

import networkx as nx
import numpy as np
import scipy.optimize

from cat0ot import (
    DEFAULT_STEPS,
    BallRegion,
    BoxRegion,
    Geodesic,
    NotExtendable,
    Piece,
    Point,
    SpaceHandle,
    TreeRegion,
    UnsupportedConvexSet,
    UnsupportedRegion,
    cat0_defect,
    distance,
    geodesic,
    geodesic_from_chain,
    map_from_points,
    measure,
    normalize,
    pairwise_costs,
    polar_factorize,
    verify_measure_preserving,
)
from cat0ot import _simplex
from cat0ot.rng import substream


def tree_distance(space: SpaceHandle, p: Point, q: Point) -> float:
    """Shortest-path distance from the raw edge list via networkx."""
    edges = space.params.edges
    pn = normalize(space, p)
    qn = normalize(space, q)
    if pn.chart == qn.chart:
        return abs(pn.coords[0] - qn.coords[0])
    G = nx.Graph()
    for a, b, ln in edges:
        G.add_edge(a, b, weight=ln)

    def splice(pt: Point, name: str):
        a, b, ln = edges[pt.chart]
        s = pt.coords[0]
        if s <= 1e-12:
            return a
        if s >= ln - 1e-12:
            return b
        G.add_edge(name, a, weight=s)
        G.add_edge(name, b, weight=ln - s)
        return name

    return float(
        nx.dijkstra_path_length(G, splice(pn, "__p__"), splice(qn, "__q__"))
    )


def vertex_point_by_incident_edge(space: SpaceHandle, v) -> Point:
    """A tree vertex as a normal point, by the rule its first per-vertex cache
    used: its offset on the first of its incident edges, the lowest-index one."""
    impl = space.impl
    i = impl._vidx[v]
    e = impl.incident[i][0]
    return Point(e, (0.0,) if impl._ea[e] == i else (impl.edges[e][2],))


def book_distance(p: Point, q: Point) -> float:
    """Two-case open book distance: in-page straight line or unfolding."""
    (u1, v1), (u2, v2) = p.coords, q.coords
    if p.chart == q.chart:
        return math.hypot(u1 - u2, v1 - v2)
    return math.hypot(u1 + u2, v1 - v2)


def comb_counts(depth: int, grid: int) -> tuple[int, int]:
    """(vertices, edges) of the comb by direct counting.

    Generation 0 is the base chain with grid segments. Each later generation
    glues one tooth at every chain node of every previous-generation tooth
    (the base chain counts as the generation-0 tooth); intermediate teeth are
    themselves subdivided into grid segments, last-generation teeth are single
    unit edges.
    """
    if depth == 0:
        return 2, 1
    verts = grid + 1
    edges = grid
    anchors = grid + 1
    for gen in range(1, depth + 1):
        if gen < depth:
            verts += anchors * grid
            edges += anchors * grid
            anchors = anchors * (grid + 1)
        else:
            verts += anchors
            edges += anchors
    return verts, edges


def _marginal_constraints(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Row- and column-sum equalities on a row-major plan, the last one dropped."""
    n, m = len(a), len(b)
    A = []
    rhs = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1.0
        A.append(row)
        rhs.append(a[i])
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        A.append(row)
        rhs.append(b[j])
    return np.array(A[:-1]), np.array(rhs[:-1])


def lp_transport_cost(space: SpaceHandle, mu, nu) -> float:
    """Optimal transport cost via scipy's LP solver (no shared solver code)."""
    C = pairwise_costs(space, mu, nu)
    A_eq, b_eq = _marginal_constraints(mu.weights, nu.weights)
    res = scipy.optimize.linprog(C.reshape(-1), A_eq=A_eq, b_eq=b_eq, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def optimal_arcs(C: np.ndarray, a, b) -> set[tuple[int, int]]:
    """Arcs (i, j) that carry mass in some optimal plan, one LP per arc.

    (i, j) is marked when the largest x_ij over the plans with cost at most
    the optimum + 1e-11 exceeds 1e-7.
    """
    n, m = C.shape
    A_eq, b_eq = _marginal_constraints(a, b)
    best = scipy.optimize.linprog(C.reshape(-1), A_eq=A_eq, b_eq=b_eq, method="highs")
    assert best.status == 0, best.message
    out = set()
    for k in range(n * m):
        goal = np.zeros(n * m)
        goal[k] = -1.0
        res = scipy.optimize.linprog(
            goal,
            A_ub=C.reshape(1, -1),
            b_ub=[best.fun + 1e-11],
            A_eq=A_eq,
            b_eq=b_eq,
            method="highs",
        )
        assert res.status == 0, res.message
        if -res.fun > 1e-7:
            out.add(divmod(k, m))
    return out


def assignment_duals_by_dense_relaxation(C: np.ndarray, perm, arcs=None):
    """Row prices alpha of an assignment by relaxing every exchange arc each
    round, or None when they do not settle.

    W[i, k] = C[i, perm[k]] - C[k, perm[k]]; arcs, a boolean n-by-n mask,
    keeps only the arcs it marks (the rest weigh +inf). alpha starts at 0 and
    takes min(alpha, min_k alpha[k] + W[i, k]) until it stops moving; alpha
    still moving after n + 5 rounds means a negative cycle, and None.
    """
    n = C.shape[0]
    d = C[np.arange(n), perm]
    W = C[:, perm] - d[None, :]
    if arcs is not None:
        W = np.where(arcs, W, np.inf)
    alpha = np.zeros(n)
    for _ in range(n + 5):
        relaxed = np.minimum(alpha, (alpha[None, :] + W).min(axis=1))
        if np.array_equal(relaxed, alpha):
            return alpha
        alpha = relaxed
    return None


def staircase_basis(C: np.ndarray, a, b) -> dict[tuple[int, int], float]:
    """Northwest-corner start for the transportation simplex: flows on exactly
    n + m - 1 arcs of a staircase, C unread. It takes `least_cost`'s
    arguments so that tests can force it on `_simplex.solve_transport`; on
    translation grids it is the optimal shift, and its degenerate pivots from
    there turn on the Bland rule on the 21 grid."""
    n, m = len(a), len(b)
    ra = np.asarray(a, dtype=float).copy()
    rb = np.asarray(b, dtype=float).copy()
    flow: dict[tuple[int, int], float] = {}
    i = j = 0
    for k in range(n + m - 1):
        q = min(ra[i], rb[j])
        flow[(i, j)] = q
        ra[i] -= q
        rb[j] -= q
        if k == n + m - 2:
            break
        if i == n - 1:
            j += 1
        elif j == m - 1:
            i += 1
        elif ra[i] <= 1e-15:
            i += 1
        else:
            j += 1
    return flow


def least_cost_by_scan(C: np.ndarray, a, b) -> dict[tuple[int, int], float]:
    """The least-cost start as it first ran: one stable ascending sort of all
    n x m cells, visited one at a time, skipping each cell whose row or
    column has closed."""
    n, m = C.shape
    ra = np.asarray(a, dtype=float).tolist()
    rb = np.asarray(b, dtype=float).tolist()
    row_open, col_open = [True] * n, [True] * m
    rows_left, cols_left = n, m
    flow: dict[tuple[int, int], float] = {}
    for cell in np.argsort(C, axis=None, kind="stable").tolist():
        i, j = divmod(cell, m)
        if not (row_open[i] and col_open[j]):
            continue
        q = min(ra[i], rb[j])
        flow[(i, j)] = q
        ra[i] -= q
        rb[j] -= q
        if rows_left == 1 and cols_left == 1:
            break
        if cols_left == 1 or (rows_left > 1 and ra[i] <= rb[j]):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    return flow


def solve_transport_by_full_pricing(C: np.ndarray, a, b):
    """The transportation simplex as it priced before candidate lists: every
    pivot rebuilds the whole n-by-m reduced-cost matrix and enters its most
    negative cell (the first in row-major order on a tie), or the first
    negative cell once Bland's rule is on. It starts from `least_cost` on C
    itself, not on C minus the solver's entropic prices, so it reaches the
    optimum by a path of its own: an independent check on the solver's start
    as well as on its pricing. It shares the tree walks and the pricing
    recurrence with `_simplex.solve_transport`, and reads `least_cost` from
    the module at call time, so a test that patches `least_cost` patches
    both starts. Returns (flow, alpha, beta) as the solver does; n, m >= 2.
    """
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    flow = _simplex.least_cost(C, np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    bi = np.array([i for i, _j in flow])
    bj = np.array([j for _i, j in flow])
    x = list(flow.values())
    adj: list[dict[int, int]] = [{} for _ in range(n + m)]
    for k, (i, j) in enumerate(flow):
        adj[i][n + j] = adj[n + j][i] = k
    Cl = C.tolist()
    price = [0.0] * (n + m)
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    _simplex._hang(n, adj, Cl, price, parent, depth, 0, -1)
    enter_eps = 1e-12 * max(1.0, float(np.abs(C).max()))
    bland = False
    degenerate_streak = 0
    reduced = np.empty_like(C)
    for _ in range(100 * (n + m) ** 2 + 10_000):
        alpha, beta = np.array(price[:n]), np.array(price[n:])
        np.subtract(C, alpha[:, None], out=reduced)
        np.subtract(reduced, beta[None, :], out=reduced)
        reduced[bi, bj] = 0.0
        if bland:
            entering = reduced < -enter_eps
            flat = int(np.argmax(entering))
            if not entering.flat[flat]:
                break
            ei, ej = divmod(flat, m)
        else:
            flat = int(np.argmin(reduced))
            ei, ej = divmod(flat, m)
            if reduced[ei, ej] >= -enter_eps:
                break
        path, meet = _simplex._cycle_path(parent, depth, ei, n + ej)
        slots = [adj[u][w] for u, w in zip(path, path[1:])]
        lose = slots[::2]
        theta = min(x[k] for k in lose)
        _arc, cut = min(
            ((bi[k], bj[k]), p)
            for p, k in zip(range(0, len(slots), 2), lose)
            if x[k] <= theta + 1e-15
        )
        for k in lose:
            x[k] = max(0.0, x[k] - theta)
        for k in slots[1::2]:
            x[k] += theta
        k, u, w = slots[cut], path[cut], path[cut + 1]
        del adj[u][w], adj[w][u]
        adj[ei][n + ej] = adj[n + ej][ei] = k
        bi[k], bj[k], x[k] = ei, ej, theta
        if cut < meet:
            _simplex._hang(n, adj, Cl, price, parent, depth, ei, n + ej)
        else:
            _simplex._hang(n, adj, Cl, price, parent, depth, n + ej, ei)
        if theta <= 1e-15:
            degenerate_streak += 1
            if degenerate_streak > 2 * (n + m):
                bland = True
        else:
            degenerate_streak = 0
    else:
        raise RuntimeError("transportation simplex failed to terminate")
    return dict(zip(zip(bi.tolist(), bj.tolist()), x)), alpha, beta


def interior_duals_by_raw_closure(C: np.ndarray, support, psi):
    """Source potential tight exactly on the arcs some optimal plan uses, from
    the Floyd-Warshall closure of the raw exchange weights.

    The graph is on the smaller side: W[i, k] = min over k's support arcs
    (k, j) of C[i, j] - C[k, j], every row holding a support arc. alpha is the
    mean of the closure's columns; on the target side the source prices are
    read off the support as C[i, j] - beta[j]. Returns psi itself when the
    closure's diagonal falls below -1e-12 * max(1, max |C|), and otherwise
    -alpha anchored at 0 on the first source. psi enters only through that
    skip: the answer is re-derived from C alone.
    """
    n, m = C.shape
    rows, cols = np.asarray(support).T
    flip = m < n
    if flip:
        C, rows, cols = C.T, cols, rows
    order = np.argsort(rows, kind="stable")
    si, sj = rows[order], cols[order]
    starts = np.flatnonzero(np.diff(si, prepend=-1))
    D = np.minimum.reduceat(C[:, sj] - C[si, sj][None, :], starts, axis=1)
    for k in range(len(D)):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    if D.diagonal().min() < -1e-12 * max(1.0, float(np.abs(C).max())):
        return psi
    alpha = D.mean(axis=1)
    if flip:
        beta, alpha = alpha, np.empty(n)
        alpha[cols] = C[rows, cols] - beta[rows]
    return alpha[0] - alpha


def euclidean_vertex_angle(origin, a, b) -> float:
    """Angle at origin of the Euclidean triangle (origin, a, b)."""
    u = np.asarray(a.coords) - np.asarray(origin.coords)
    v = np.asarray(b.coords) - np.asarray(origin.coords)
    cosv = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
    return math.acos(max(-1.0, min(1.0, cosv)))


def cyclic_monotonicity_by_tuple(
    space: SpaceHandle,
    plan,
    max_len: int,
    mode: str = "exhaustive",
    n_samples: int = 10_000,
    seed: int = 0,
) -> dict:
    """Cycle audit scored one tuple at a time with Python's sum.

    Enumerates (exhaustive) or draws (sampled, same substream and draw order)
    the same cycles as check_cyclic_monotonicity, over the entries of positive
    mass. With no tuple at all the worst slack stays -inf.
    """
    si = [i for i, _j, mass in plan.entries if mass > 0]
    sj = [j for _i, j, mass in plan.entries if mass > 0]
    K = len(si)
    Cp = pairwise_costs(space, plan.source, plan.target)[np.ix_(si, sj)]
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
        for L in range(2, max_len + 1):
            for combo in itertools.combinations(range(K), L):
                for rest in itertools.permutations(combo[1:]):
                    run((combo[0],) + rest)
    else:
        rng = substream(seed, "cyclic")
        for _ in range(int(n_samples)):
            L = min(int(rng.integers(2, max_len + 1)), K)
            run(tuple(rng.permutation(K)[:L]))
    return {"violations": violations, "worst_slack": worst}


def sample_points_by_point(space: SpaceHandle, rng: np.random.Generator, n: int) -> list:
    """harness.sample_points as first written: the draws of each point in turn,
    the tree edge through the CDF that Generator.choice(p=...) builds, and the
    book page read off a random() double as int(random() * pages)."""
    out = []
    if space.kind == "euclidean":
        for _ in range(n):
            out.append(Point(0, tuple(rng.uniform(-1.0, 1.0, space.dim).tolist())))
        return out
    if space.kind == "tree":
        lens = np.array([ln for _a, _b, ln in space.params.edges])
        cdf = np.cumsum(lens / lens.sum())
        cdf /= cdf[-1]
        for _ in range(n):
            e = int(cdf.searchsorted(rng.random(), side="right"))
            s = float(rng.uniform(0.0, lens[e]))
            out.append(space.impl.normalize(Point(e, (s,))))
        return out
    for _ in range(n):
        page = int(rng.random() * space.params.pages)
        u = float(rng.uniform(0.0, 1.0))
        v = float(rng.uniform(-1.0, 1.0))
        out.append(space.impl.normalize(Point(page, (u, v))))
    return out


def geodesic_from_chain_by_section(space: SpaceHandle, chain) -> tuple[Geodesic, tuple]:
    """geodesic_from_chain as first written: per-section generator expressions.

    Returns the geodesic and, next to it, its breakpoints as a list of
    (parameter, normal point) pairs built junction by junction.
    """
    segs = []
    for chart, c0, c1 in chain:
        ln = math.sqrt(sum((b - a) * (b - a) for a, b in zip(c0, c1)))
        if ln == 0:
            continue
        chart = int(chart)
        c0 = tuple(map(float, c0))
        c1 = tuple(map(float, c1))
        if segs and segs[-1][0] == chart and segs[-1][2] == c0:
            pch, pc0, pc1, pln = segs[-1]
            d_prev = tuple((b - a) / pln for a, b in zip(pc0, pc1))
            d_new = tuple((b - a) / ln for a, b in zip(c0, c1))
            if all(abs(u - v) <= 1e-12 for u, v in zip(d_prev, d_new)):
                segs[-1] = (chart, pc0, c1, pln + ln)
                continue
        segs.append((chart, c0, c1, ln))
    if not segs:
        chart, c0, _ = chain[0]
        p = space.impl.normalize(Point(int(chart), tuple(map(float, c0))))
        pc = Piece(0.0, 1.0, p.chart, p.coords, p.coords)
        return Geodesic(space, p, p, 0.0, (pc,)), ()
    total = sum(s[3] for s in segs)
    pieces = []
    breakpoints = []
    acc = 0.0
    for k, (chart, c0, c1, ln) in enumerate(segs):
        t0 = acc / total
        acc += ln
        t1 = 1.0 if k == len(segs) - 1 else acc / total
        pieces.append(Piece(t0, t1, chart, c0, c1))
        if k < len(segs) - 1:
            breakpoints.append((t1, space.impl.normalize(Point(chart, c1))))
    start = space.impl.normalize(Point(segs[0][0], segs[0][1]))
    end = space.impl.normalize(Point(segs[-1][0], segs[-1][2]))
    return Geodesic(space, start, end, total, tuple(pieces)), tuple(breakpoints)


def geometry_suite_by_public_api(space: SpaceHandle, samples: int, seed: int) -> dict:
    """The geometry-suite metrics from a per-sample loop over the public API only.

    Same draws, in the same order, as the harness runner, made one at a time;
    every distance and geodesic goes through the validating public functions.
    """
    rng = substream(seed, "geometry")
    min_defect = math.inf
    max_defect = -math.inf
    worst_triangle = -math.inf
    worst_symmetry = 0.0
    worst_speed = 0.0
    for _ in range(samples):
        x, y, z = sample_points_by_point(space, rng, 3)
        dxy = distance(space, x, y)
        worst_symmetry = max(worst_symmetry, abs(dxy - distance(space, y, x)))
        worst_triangle = max(
            worst_triangle, distance(space, x, z) - dxy - distance(space, y, z)
        )
        g = geodesic(space, x, y)
        t1, t2 = sorted(rng.uniform(0.0, 1.0, 2))
        seg = distance(space, g.eval(float(t1)), g.eval(float(t2)))
        worst_speed = max(worst_speed, abs(seg - (t2 - t1) * g.length))
        defect = cat0_defect(space, x, y, z, float(rng.uniform(0, 1)))
        min_defect = min(min_defect, defect)
        max_defect = max(max_defect, defect)
    return {
        "samples": float(samples),
        "min_defect": min_defect,
        "max_defect": max_defect,
        "max_triangle_violation": worst_triangle,
        "max_symmetry_error": worst_symmetry,
        "max_speed_deviation": worst_speed,
    }


def polar_draws_by_point(space: SpaceHandle, trials: int, n: int, seed: int):
    """Each trial's atoms of mu, then their images under s, drawn point by
    point in turn from the polar experiment's stream."""
    rng = substream(seed, "polar")
    for _ in range(trials):
        yield sample_points_by_point(space, rng, n), sample_points_by_point(space, rng, n)


def polar_in_turn(space: SpaceHandle, trial_points) -> tuple[dict, bool, list]:
    """The polar experiment as first written: one trial at a time, mu
    uniform on the trial's atoms and s sending them to its images in order,
    factored through the public `polar_factorize`.

    Returns the report's metrics and verdict, and each trial's (mu,
    Factorization, measure-preserving verdict).
    """
    worst, preserved, out = 0.0, 0, []
    for atoms, images in trial_points:
        mu = measure(space, atoms)
        s = map_from_points(space, mu, images)
        fact = polar_factorize(space, mu, s)
        worst = max(worst, fact.residual)
        kept = verify_measure_preserving(mu, fact.u)
        preserved += kept
        out.append((mu, fact, kept))
    metrics = {
        "trials": float(len(out)),
        "residual_max": worst,
        "frac_measure_preserving": preserved / len(out),
    }
    return metrics, worst <= 1e-9 and preserved == len(out), out


def eval_by_scan(g: Geodesic, t: float) -> Point:
    """Geodesic.eval as first written: a linear scan for the first piece with t <= t1."""
    if t <= 0:
        return g.start
    if t >= 1:
        return g.end
    for pc in g.pieces:
        if t <= pc.t1:
            w = (t - pc.t0) / (pc.t1 - pc.t0)
            coords = tuple(a + w * (b - a) for a, b in zip(pc.c0, pc.c1))
            return g.space.impl.normalize(Point(pc.chart, coords))
    return g.end


def _tree_legs(impl) -> tuple:
    """(lca, leg) on vertex indices, from the parent pointers and raw edge
    lengths alone.

    An LCA is the first of one end's ancestors met by a climb from the other.
    Each root distance is summed from the raw edge lengths along the root
    path, as a plain sum hi and its TwoSum rounding errors lo, and
    leg(u, w) is the path length from u up to its ancestor w.
    """

    def lca(u: int, v: int) -> int:
        above = {u}
        while impl.parent[u] >= 0:
            u = impl.parent[u]
            above.add(u)
        while v not in above:
            v = impl.parent[v]
        return v

    @functools.cache
    def root_distance(u: int) -> tuple:
        path = []
        while impl.parent[u] >= 0:
            path.append(impl.edges[impl.parent_edge[u]][2])
            u = impl.parent[u]
        hi = lo = 0.0
        for ln in reversed(path):
            total = hi + ln
            back = total - hi
            hi, lo = total, lo + ((hi - (total - back)) + (ln - back))
        return hi, lo

    def leg(u: int, w: int) -> float:
        (hu, lu), (hw, lw) = root_distance(u), root_distance(w)
        return (hu - hw) + (lu - lw)

    return lca, leg


def route_by_four_lcas(space: SpaceHandle, p: Point, q: Point) -> tuple:
    """TreeImpl._route as first written: one LCA climb per endpoint pair, the
    shortest of the four routes kept."""
    impl = space.impl
    lca, leg = _tree_legs(impl)
    a, b, lp = impl.edges[p.chart]
    c, d, lq = impl.edges[q.chart]
    s, t = p.coords[0], q.coords[0]
    best = None
    for u, off_u, cu in ((a, s, 0.0), (b, lp - s, lp)):
        for v, off_v, cv in ((c, t, 0.0), (d, lq - t, lq)):
            ui, vi = impl._vidx[u], impl._vidx[v]
            w = lca(ui, vi)
            tot = off_u + (leg(ui, w) + leg(vi, w)) + off_v
            if best is None or tot < best[0]:
                best = (tot, ui, cu, vi, cv, w)
    return best


def route_by_one_lca(space: SpaceHandle, p: Point, q: Point) -> tuple:
    """TreeImpl._route's one route, with one LCA climb per pair.

    A point at a vertex leaves by that vertex; a point inside an edge leaves
    by its lower end, the end whose parent edge it is, when that end is the
    LCA w of the two points' lower exits, and by the edge's other end
    otherwise.
    """
    impl = space.impl
    lca, leg = _tree_legs(impl)

    def exits(e: int, x: float) -> tuple:
        a, b, ln = impl.edges[e]
        ai, bi = impl._vidx[a], impl._vidx[b]
        if x == 0:
            return ai, ai
        if x == ln:
            return bi, bi
        return (ai, bi) if impl.parent_edge[ai] == e else (bi, ai)

    (pl, ph), (ql, qh) = exits(p.chart, p.coords[0]), exits(q.chart, q.coords[0])
    w = lca(pl, ql)
    u = pl if w == pl else ph
    v = ql if w == ql else qh
    a, _b, lp = impl.edges[p.chart]
    c, _d, lq = impl.edges[q.chart]
    s, t = p.coords[0], q.coords[0]
    off_u, cu = (s, 0.0) if u == impl._vidx[a] else (lp - s, lp)
    off_v, cv = (t, 0.0) if v == impl._vidx[c] else (lq - t, lq)
    return off_u + (leg(u, w) + leg(v, w)) + off_v, u, cu, v, cv, w


def distances_by_four_routes(space: SpaceHandle, charts_p, coords_p, charts_q, coords_q) -> np.ndarray:
    """TreeImpl.distances_between as it first ran: on every row, the four routes
    p -> u ~> v -> q over the two ends of each edge, the shortest kept.

    The LCA of the two edges' lower ends is climbed to one parent per pass,
    and it fixes the LCA of every end pair: u's when it is p's lower end, v's
    when it is q's, else itself.
    """
    impl = space.impl
    ends, lens, tout, parent = impl._ends, impl._lens, impl._pre_tout, impl._pre_parent
    hi, lo = impl._pre_droot, impl._pre_droot_lo
    s, t = coords_p[:, 0], coords_q[:, 0]
    pl, ql = impl._pre_lower[charts_p], impl._pre_lower[charts_q]
    top = pl.copy()
    rows = np.flatnonzero((top > ql) | (ql >= tout[top]))
    while rows.size:
        top[rows] = parent[top[rows]]
        rows = rows[(top[rows] > ql[rows]) | (ql[rows] >= tout[top[rows]])]
    tots = []
    for u, off_u in ((ends[charts_p, 0], s), (ends[charts_p, 1], lens[charts_p] - s)):
        for v, off_v in ((ends[charts_q, 0], t), (ends[charts_q, 1], lens[charts_q] - t)):
            w = np.where(top == pl, u, np.where(top == ql, v, top))
            tots.append(off_u + (((hi[u] - hi[w]) + (lo[u] - lo[w])) + ((hi[v] - hi[w]) + (lo[v] - lo[w]))) + off_v)
    return np.where(charts_p == charts_q, np.abs(s - t), functools.reduce(np.minimum, tots))


def path_sections_by_climb(space: SpaceHandle, u: np.ndarray, w: np.ndarray) -> tuple:
    """TreeImpl._path_sections as it first ran: one parent per numpy pass over
    every row, one column per pass, until each row reaches its ancestor w.

    The parent edges come from the vertex-indexed `parent_edge` list, read
    in preorder.
    """
    impl = space.impl
    ends, lens, parent = impl._ends, impl._lens, impl._pre_parent
    pedge = np.asarray(impl.parent_edge, dtype=np.int64)[np.argsort(impl._tin)]
    cols = []
    live = u != w
    while live.any():
        e = pedge[u]
        lower_first = ends[e, 0] == u
        cols.append(
            (
                np.where(live, e, 0),
                np.where(live & ~lower_first, lens[e], 0.0),
                np.where(live & lower_first, lens[e], 0.0),
            )
        )
        u = np.where(live, parent[u], u)
        live = u != w
    if not cols:
        return np.zeros((len(u), 0), dtype=np.int64), np.zeros((len(u), 0)), np.zeros((len(u), 0))
    return tuple(np.stack(c, axis=1) for c in zip(*cols))


def extend_by_family(space: SpaceHandle, g: Geodesic, delta: float) -> Geodesic:
    """The space families' own `extend` methods as first written, one per kind.

    Each rebuilds the whole chain and assembles it itself; only the assembler
    is shared with the library, which is handed g's start and the normal form
    of the chain's last point.
    """
    impl = space.impl
    if g.length == 0:
        raise NotExtendable("zero-length geodesic has no direction")

    def assemble(chain):
        chart, _c0, c1 = chain[-1]
        return geodesic_from_chain(space, chain, g.start, impl.normalize(Point(chart, c1)))

    chain = [(q.chart, q.c0, q.c1) for q in g.pieces]
    pc = g.pieces[-1]
    if space.kind == "euclidean":
        seg = [b - a for a, b in zip(pc.c0, pc.c1)]
        ln = math.sqrt(sum(v * v for v in seg))
        tip = tuple(c + delta * v / ln for c, v in zip(pc.c1, seg))
        return assemble(chain + [(0, pc.c1, tip)])
    if space.kind == "tree":
        e = pc.chart
        s = pc.c1[0]
        forward = pc.c1[0] > pc.c0[0]
        remaining = delta
        while remaining > 0:
            a, b, ln = impl.edges[e]
            room = (ln - s) if forward else s
            if room >= remaining:
                s2 = s + remaining if forward else s - remaining
                chain.append((e, (s,), (s2,)))
                remaining = 0.0
                break
            if room > 0:
                chain.append((e, (s,), (ln,) if forward else (0.0,)))
                remaining -= room
            v = b if forward else a
            nxt = None
            for e2 in impl.incident[impl._vidx[v]]:
                if e2 != e:
                    nxt = e2
                    break
            if nxt is None:
                raise NotExtendable(f"leaf vertex {v} admits no continuation")
            e = nxt
            a2, _b2, ln2 = impl.edges[e]
            forward = a2 == v
            s = 0.0 if forward else ln2
        return assemble(chain)
    ln = math.hypot(pc.c1[0] - pc.c0[0], pc.c1[1] - pc.c0[1])
    du = (pc.c1[0] - pc.c0[0]) / ln
    dv = (pc.c1[1] - pc.c0[1]) / ln
    ue, ve = pc.c1
    if du >= 0:
        chain.append((pc.chart, pc.c1, (ue + delta * du, ve + delta * dv)))
        return assemble(chain)
    to_spine = ue / (-du)
    if delta <= to_spine:
        chain.append((pc.chart, pc.c1, (ue + delta * du, ve + delta * dv)))
        return assemble(chain)
    vs = ve + to_spine * dv
    if to_spine > 0:
        chain.append((pc.chart, pc.c1, (0.0, vs)))
    rest = delta - to_spine
    nxt = 0 if pc.chart != 0 else 1
    chain.append((nxt, (0.0, vs), (rest * (-du), vs + rest * dv)))
    return assemble(chain)


def project_segment_by_family(space: SpaceHandle, x: Point, g: Geodesic) -> Point:
    """The space families' own `project_segment` methods as first written,
    each with its zero-length guard and its own clamp-and-project arithmetic;
    x is a normal point."""
    impl = space.impl
    if g.length == 0:
        return g.start
    if space.kind == "euclidean":
        a = g.start.coords
        seg = [b - c for c, b in zip(a, g.end.coords)]
        w = sum((xc - c) * v for xc, c, v in zip(x.coords, a, seg)) / sum(
            v * v for v in seg
        )
        w = min(1.0, max(0.0, w))
        return Point(0, tuple(c + w * v for c, v in zip(a, seg)))
    if space.kind == "tree":
        da = impl.distance(x, g.start)
        db = impl.distance(x, g.end)
        t = (da + g.length - db) / (2.0 * g.length)
        return g.eval(min(1.0, max(0.0, t)))
    best = None
    for pc in g.pieces:
        rep = impl.represent_in_chart(x, pc.chart)
        if rep is None:
            rep = (-x.coords[0], x.coords[1])
        seg = (pc.c1[0] - pc.c0[0], pc.c1[1] - pc.c0[1])
        sq = seg[0] * seg[0] + seg[1] * seg[1]
        w = ((rep[0] - pc.c0[0]) * seg[0] + (rep[1] - pc.c0[1]) * seg[1]) / sq
        w = min(1.0, max(0.0, w))
        proj = (pc.c0[0] + w * seg[0], pc.c0[1] + w * seg[1])
        dist = math.hypot(rep[0] - proj[0], rep[1] - proj[1])
        if best is None or dist < best[0]:
            best = (dist, impl.normalize(Point(pc.chart, proj)))
    return best[1]


def check_subtree_by_scan(space: SpaceHandle, vertex_set) -> list[int]:
    """A tree's subtree check as first written: the induced edges found by
    scanning every edge, then one member per component with its parent outside."""
    impl = space.impl
    vs = list(dict.fromkeys(vertex_set))
    if not vs:
        raise UnsupportedConvexSet("empty vertex set")
    inside = set(vs)
    unknown = inside - set(impl.vertices)
    if unknown:
        raise UnsupportedConvexSet(f"unknown vertices {sorted(unknown)}")
    edges = [e for e, (a, b, _ln) in enumerate(impl.edges) if a in inside and b in inside]
    members = {impl._vidx[v] for v in vs}
    if sum(impl.parent[u] not in members for u in members) != 1:
        raise UnsupportedConvexSet("vertex set does not induce a connected subtree")
    return edges


def project_subtree_by_loop(space: SpaceHandle, x: Point, vertex_set) -> Point:
    """A tree's subtree projection as first written: an explicit loop over the
    member vertices that keeps the first nearest one; x is a normal point."""
    impl = space.impl
    edges = check_subtree_by_scan(space, vertex_set)
    if x.chart in edges:
        return x
    xv = impl._vertex_of(x)
    if xv is not None and xv in set(vertex_set):
        return impl.vertex_point(xv)
    best = None
    for v in dict.fromkeys(vertex_set):
        d = impl.distance(x, impl.vertex_point(v))
        if best is None or d < best[0]:
            best = (d, v)
    return impl.vertex_point(best[1])


# The region methods as each family first wrote them: volume, diameter and
# sample answered separately, each repeating the family's checks.

_FAMILY_NAMES = {"euclidean": "euclidean", "tree": "trees", "open_book": "open books"}


def _unsupported(space: SpaceHandle, region) -> UnsupportedRegion:
    return UnsupportedRegion(
        f"{type(region).__name__} unsupported on {_FAMILY_NAMES[space.kind]}"
    )


def _check_euclidean_box(space: SpaceHandle, region: BoxRegion) -> None:
    dim = space.impl.dim
    if region.chart != 0 or len(region.lo) != dim or len(region.hi) != dim:
        raise UnsupportedRegion("box chart/shape does not match the space")
    if any(h < l for l, h in zip(region.lo, region.hi)):
        raise UnsupportedRegion("box has hi < lo")


def _check_book_box(space: SpaceHandle, region: BoxRegion) -> None:
    if not (0 <= region.chart < space.impl.pages):
        raise UnsupportedRegion(f"page {region.chart} out of range")
    if len(region.lo) != 2 or len(region.hi) != 2:
        raise UnsupportedRegion("book boxes are two-dimensional")
    if region.lo[0] < -1e-12 or any(h < l for l, h in zip(region.lo, region.hi)):
        raise UnsupportedRegion("box must sit inside a single page (u >= 0)")


def _check_book_ball(space: SpaceHandle, region: BallRegion) -> Point:
    space.impl.validate_point(region.center)
    c = space.impl.normalize(region.center)
    if c.coords[0] - region.radius < -1e-12:
        raise UnsupportedRegion("ball must sit inside a single page")
    return c


def region_volume_by_family(space: SpaceHandle, region) -> float:
    impl = space.impl
    if space.kind == "euclidean":
        if isinstance(region, BoxRegion):
            _check_euclidean_box(space, region)
            return float(np.prod([h - l for l, h in zip(region.lo, region.hi)]))
        if isinstance(region, BallRegion):
            d = impl.dim
            return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * region.radius**d
    elif space.kind == "tree":
        if isinstance(region, TreeRegion):
            return sum(impl.edges[e][2] for e in check_subtree_by_scan(space, region.vertices))
    else:
        if isinstance(region, BoxRegion):
            _check_book_box(space, region)
            return (region.hi[0] - region.lo[0]) * (region.hi[1] - region.lo[1])
        if isinstance(region, BallRegion):
            _check_book_ball(space, region)
            return math.pi * region.radius**2
    raise _unsupported(space, region)


def region_diameter_by_family(space: SpaceHandle, region) -> float:
    impl = space.impl
    if space.kind == "euclidean":
        if isinstance(region, BoxRegion):
            _check_euclidean_box(space, region)
            return math.sqrt(sum((h - l) ** 2 for l, h in zip(region.lo, region.hi)))
        if isinstance(region, BallRegion):
            return 2.0 * region.radius
    elif space.kind == "tree":
        if isinstance(region, TreeRegion):
            check_subtree_by_scan(space, region.vertices)
            # the double sweep, one scalar distance at a time; max keeps the first of equal keys
            vs = [impl.vertex_point(v) for v in dict.fromkeys(region.vertices)]
            far = max(vs, key=lambda q: impl.distance(vs[0], q))
            return max(impl.distance(far, q) for q in vs)
    else:
        if isinstance(region, BoxRegion):
            _check_book_box(space, region)
            return math.hypot(region.hi[0] - region.lo[0], region.hi[1] - region.lo[1])
        if isinstance(region, BallRegion):
            _check_book_ball(space, region)
            return 2.0 * region.radius
    raise _unsupported(space, region)


def sample_region_by_family(space: SpaceHandle, region, n: int, rng):
    impl = space.impl
    if space.kind == "euclidean":
        charts = np.zeros(n, dtype=np.int64)
        if isinstance(region, BoxRegion):
            _check_euclidean_box(space, region)
            lo = np.asarray(region.lo, dtype=float)
            hi = np.asarray(region.hi, dtype=float)
            return charts, rng.uniform(lo, hi, size=(n, impl.dim))
        if isinstance(region, BallRegion):
            impl.validate_point(region.center)
            gauss = rng.standard_normal((n, impl.dim))
            gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
            radii = region.radius * rng.uniform(0.0, 1.0, n) ** (1.0 / impl.dim)
            return charts, np.asarray(region.center.coords) + gauss * radii[:, None]
    elif space.kind == "tree":
        if isinstance(region, TreeRegion):
            edges = check_subtree_by_scan(space, region.vertices)
            if not edges:
                raise UnsupportedRegion("subtree region has zero length")
            lens = np.asarray([impl.edges[e][2] for e in edges])
            pick = rng.choice(len(edges), size=n, p=lens / lens.sum())
            charts = np.asarray(edges, dtype=np.int64)[pick]
            offs = rng.uniform(0.0, 1.0, n) * lens[pick]
            return charts, offs[:, None]
    else:
        if isinstance(region, BoxRegion):
            _check_book_box(space, region)
            charts = np.full(n, region.chart, dtype=np.int64)
            lo = np.asarray(region.lo, dtype=float)
            hi = np.asarray(region.hi, dtype=float)
            return charts, rng.uniform(lo, hi, size=(n, 2))
        if isinstance(region, BallRegion):
            c = _check_book_ball(space, region)
            charts = np.full(n, c.chart, dtype=np.int64)
            th = rng.uniform(0.0, 2.0 * math.pi, n)
            r = region.radius * np.sqrt(rng.uniform(0.0, 1.0, n))
            pts = np.stack([c.coords[0] + r * np.cos(th), c.coords[1] + r * np.sin(th)], axis=1)
            return charts, pts
    raise _unsupported(space, region)


def one_sided_by_every_step(f, g: Geodesic, s: float, sign: float) -> float:
    """The refined one-sided quotient of f along g at parameter s as first
    computed: one quotient at each of the eleven `DEFAULT_STEPS`, scaled by
    the room left, then extrapolated from the last two; nan without room."""
    room = (1.0 - s) if sign > 0 else s
    if room <= 1e-15:
        return math.nan
    scale = min(1.0, room / DEFAULT_STEPS[0])
    hs = [h * scale for h in DEFAULT_STEPS]
    f0 = f(g.eval(s))
    quots = [(f(g.eval(s + sign * h)) - f0) / (sign * h) for h in hs]
    h1, h2 = hs[-2], hs[-1]
    return (h1 * quots[-1] - h2 * quots[-2]) / (h1 - h2)


def direction_targets_by_family(space: SpaceHandle, x: Point, count: int, seed: int) -> list[Point]:
    """The targets of `direction_set` at the normal point x, before the
    caller's, as each family first built them: one Point per target from
    `math.cos` and `math.sin`, then `impl.normalize` on each."""
    impl = space.impl
    out = []
    if space.kind == "euclidean":
        if space.dim == 2:
            for j in range(count):
                th = 2.0 * math.pi * j / count
                out.append(Point(0, (x.coords[0] + math.cos(th), x.coords[1] + math.sin(th))))
        else:
            vecs = substream(seed, "directions").standard_normal((count, space.dim))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            out = [Point(0, tuple(np.asarray(x.coords) + v)) for v in vecs]
    elif space.kind == "tree":
        a, b, ln = space.params.edges[x.chart]
        v = a if x.coords[0] <= 1e-12 else b if x.coords[0] >= ln - 1e-12 else None
        if v is None:
            out = [impl.vertex_point(a), impl.vertex_point(b)]
        else:  # the edges at v in index order, by a scan of every edge
            out = [impl.vertex_point(b if a == v else a) for a, b, _ln in space.params.edges if v in (a, b)]
    else:
        u, v = x.coords
        if u > 1e-12:
            other = 0 if x.chart != 0 else 1
            for j in range(count):
                th = 2.0 * math.pi * j / count
                ru, rv = u + math.cos(th), v + math.sin(th)
                out.append(Point(x.chart, (ru, rv)) if ru >= 0 else Point(other, (-ru, rv)))
        else:
            per_page = max(2, count // space.params.pages)
            for page in range(space.params.pages):
                for j in range(per_page):
                    th = math.pi * (j + 1) / (per_page + 1)
                    out.append(Point(page, (math.sin(th), v + math.cos(th))))
            out.append(Point(0, (0.0, v + 1.0)))
            out.append(Point(0, (0.0, v - 1.0)))
    return [impl.normalize(p) for p in out]


def transport_identity_by_node(space: SpaceHandle, grid, T, flat: int) -> tuple[float, float]:
    """(residual, gap) of the first-order identity at the interior node flat,
    as `verify_transport_identity` first computed them, one node at a time."""
    idx = []
    rest = flat
    for k in reversed(grid.shape):
        idx.append(rest % k)
        rest //= k
    idx = list(reversed(idx))
    x = Point(0, tuple(o + grid.pitch * i for o, i in zip(grid.origin, idx)))
    assert distance(space, x, T.source.points[flat]) <= 1e-9

    def value_at(at) -> float:
        k = 0
        for size, i in zip(grid.shape, at):
            k = k * size + i
        return grid.values[k]

    grad = np.empty(len(grid.shape))
    for ax in range(len(grid.shape)):
        idx[ax] += 1
        up = value_at(idx)
        idx[ax] -= 2
        dn = value_at(idx)
        idx[ax] += 1
        grad[ax] = (up - dn) / (2.0 * grid.pitch)
    v = np.asarray(T.points[flat].coords) - np.asarray(x.coords)
    return abs(float(grad @ v) - float(v @ v)), float(np.linalg.norm(v - grad))
