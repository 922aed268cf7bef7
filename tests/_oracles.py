"""Independent reference computations the tests compare against.

Everything here deliberately avoids the library's own geodesic and solver
code paths: tree distances go through networkx shortest paths on the raw edge
data, book distances through the two-case unfolding formula, transport costs
and the arcs of optimal plans through scipy's LP solver, comb sizes
through a closed-form count, the cycle audit one tuple at a time, the
assignment prices by relaxing the dense n-by-n exchange graph every round,
and the interior potential by closing the raw, unreduced exchange graph.
The cost-blind northwest-corner staircase is kept as a start to force on
the transportation simplex.
Geodesic assembly, the geometry-suite loop and the tree route are kept in
their earlier, plainer forms: the constructor that builds every section with
generator expressions, the suite loop that goes through the public API only,
and the route that climbs to an LCA for each of its four endpoint pairs.
The per-family geodesic extension and segment projection are kept as each
family first wrote them, whole, and the subtree check as a scan of every edge.
The region questions are kept as the three separate methods per family
(volume, diameter, sample) that first answered them, each running its own
admissibility check.
"""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np
import scipy.optimize

from cat0ot import (
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
    normalize,
    pairwise_costs,
)
from cat0ot.harness import sample_points
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
    """(alpha, beta) of an assignment by relaxing every exchange arc each round.

    W[i, k] = C[i, perm[k]] - C[k, perm[k]]; arcs, a boolean n-by-n mask,
    keeps only the arcs it marks (the rest weigh +inf). alpha starts at 0 and
    takes min(alpha, min_k alpha[k] + W[i, k]) until it stops moving, for at
    most n + 5 rounds; beta[perm] = C[i, perm[i]] - alpha.
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
            break
        alpha = relaxed
    beta = np.empty(n)
    beta[perm] = d - alpha
    return alpha, beta


def staircase_basis(C: np.ndarray, a, b) -> dict[tuple[int, int], float]:
    """Northwest-corner start for the transportation simplex: flows on exactly
    n + m - 1 arcs of a staircase, C unread. It takes `least_cost`'s
    arguments so that tests can force it on `_simplex.solve_transport`; on
    translation grids it is the optimal shift, and its degenerate pivots from
    there turn on the Bland rule on the 13 and 17 grids."""
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
    the same cycles as check_cyclic_monotonicity. With no tuple at all the
    worst slack stays -inf.
    """
    si = [i for i, _j, _mass in plan.entries]
    sj = [j for _i, j, _mass in plan.entries]
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


def geodesic_from_chain_by_section(space: SpaceHandle, chain) -> tuple[Geodesic, tuple]:
    """geodesic_from_chain as first written: per-section generator expressions.

    Returns the geodesic and, next to it, its breakpoints as a list of
    (parameter, normal point) pairs built junction by junction.
    """
    segs = []
    for chart, c0, c1 in chain:
        ln = math.sqrt(sum((b - a) ** 2 for a, b in zip(c0, c1)))
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

    Same draws, in the same order, as the harness runner; every distance and
    geodesic goes through the validating public functions.
    """
    rng = substream(seed, "geometry")
    min_defect = math.inf
    max_defect = -math.inf
    worst_triangle = -math.inf
    worst_symmetry = 0.0
    worst_speed = 0.0
    for _ in range(samples):
        x, y, z = sample_points(space, rng, 3)
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


def route_by_four_lcas(space: SpaceHandle, p: Point, q: Point) -> tuple:
    """TreeImpl._route as first written: one LCA climb per endpoint pair.

    Each LCA is found from the parent pointers alone: the ancestors of one
    end, then a climb from the other until it meets them.
    """
    impl = space.impl

    def lca(u: int, v: int) -> int:
        above = {u}
        while impl.parent[u] >= 0:
            u = impl.parent[u]
            above.add(u)
        while v not in above:
            v = impl.parent[v]
        return v

    a, b, lp = impl.edges[p.chart]
    c, d, lq = impl.edges[q.chart]
    s, t = p.coords[0], q.coords[0]
    best = None
    for u, off_u, cu in ((a, s, 0.0), (b, lp - s, lp)):
        for v, off_v, cv in ((c, t, 0.0), (d, lq - t, lq)):
            ui, vi = impl._vidx[u], impl._vidx[v]
            w = lca(ui, vi)
            tot = off_u + (impl.droot[ui] + impl.droot[vi] - 2.0 * impl.droot[w]) + off_v
            if best is None or tot < best[0]:
                best = (tot, ui, cu, vi, cv, w)
    return best


def extend_by_family(space: SpaceHandle, g: Geodesic, delta: float) -> Geodesic:
    """The space families' own `extend` methods as first written, one per kind.

    Each rebuilds the whole chain and assembles it itself; only the assembler
    is shared with the library.
    """
    impl = space.impl
    if g.length == 0:
        raise NotExtendable("zero-length geodesic has no direction")
    chain = [(q.chart, q.c0, q.c1) for q in g.pieces]
    pc = g.pieces[-1]
    if space.kind == "euclidean":
        seg = [b - a for a, b in zip(pc.c0, pc.c1)]
        ln = math.sqrt(sum(v * v for v in seg))
        tip = tuple(c + delta * v / ln for c, v in zip(pc.c1, seg))
        return geodesic_from_chain(space, chain + [(0, pc.c1, tip)])
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
        return geodesic_from_chain(space, chain)
    ln = math.hypot(pc.c1[0] - pc.c0[0], pc.c1[1] - pc.c0[1])
    du = (pc.c1[0] - pc.c0[0]) / ln
    dv = (pc.c1[1] - pc.c0[1]) / ln
    ue, ve = pc.c1
    if du >= 0:
        chain.append((pc.chart, pc.c1, (ue + delta * du, ve + delta * dv)))
        return geodesic_from_chain(space, chain)
    to_spine = ue / (-du)
    if delta <= to_spine:
        chain.append((pc.chart, pc.c1, (ue + delta * du, ve + delta * dv)))
        return geodesic_from_chain(space, chain)
    vs = ve + to_spine * dv
    if to_spine > 0:
        chain.append((pc.chart, pc.c1, (0.0, vs)))
    rest = delta - to_spine
    nxt = 0 if pc.chart != 0 else 1
    chain.append((nxt, (0.0, vs), (rest * (-du), vs + rest * dv)))
    return geodesic_from_chain(space, chain)


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
            vs = list(dict.fromkeys(region.vertices))
            far = max(vs, key=lambda v: impl.vertex_distance(vs[0], v))
            return max(impl.vertex_distance(far, v) for v in vs)
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
