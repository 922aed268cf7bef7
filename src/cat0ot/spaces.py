"""Concrete space families: Euclidean R^d, finite metric trees, open books.

Each builder returns a SpaceHandle whose `impl` object realizes the chart
logic for its family: point validation and canonical form, exact distances
and geodesics, the sections that continue a geodesic past its end,
nearest-point helpers, one checked answer per region (volume, diameter and
a uniform sampler) for the Monte Carlo estimators, and rows of direction
targets for the derivative-based testers. Axis boxes in R^d and in a book
page share `_box_region`; `geometry` holds what the families share and
lists the methods every impl defines.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    ConfigInvalid,
    InvalidPoint,
    NotExtendable,
    ParamOutOfRange,
    UnsupportedConvexSet,
    UnsupportedRegion,
    config_float,
    config_int,
)
from .geometry import (
    BallRegion,
    BoxRegion,
    Geodesic,
    Piece,
    Point,
    SpaceHandle,
    TreeRegion,
    geodesic_from_chain,
    section_length,
    segment_projection,
)
from .rng import substream

SNAP_TOL = 1e-12

__all__ = [
    "EuclideanParams",
    "TreeParams",
    "OpenBookParams",
    "build_euclidean",
    "build_tree",
    "build_tripod",
    "build_star",
    "build_comb",
    "build_open_book",
    "space_to_json",
    "space_from_json",
    "point_to_json",
    "point_from_json",
]


@dataclass(frozen=True)
class EuclideanParams:
    dim: int


@dataclass(frozen=True)
class TreeParams:
    vertices: tuple
    edges: tuple  # (vertex, vertex, positive length)
    root: object


@dataclass(frozen=True)
class OpenBookParams:
    pages: int


def _finite(coords: Sequence[float]) -> bool:
    return all(map(math.isfinite, coords))


def _path_length(hi, lo, u, w):
    """Length of the tree path from vertex u up to its ancestor w, from root
    distances kept as hi + lo; u and w index hi and lo, one by one or as arrays."""
    return (hi[u] - hi[w]) + (lo[u] - lo[w])


def _with_view(table: np.ndarray) -> tuple:
    """(table, view): a 1-d int64 or float64 table rebuilt over the buffer of an
    `array`, and that array, whose items index to Python numbers."""
    view = array("d" if table.dtype.kind == "f" else "q", table.tobytes())
    return np.frombuffer(view, dtype=table.dtype), view


def _distances_from(self, p: Point, charts: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """`distances_between` from p to each row, p repeated as zero-copy views;
    the flat families bind it by name as their `distances_from`."""
    n, at = len(charts), np.asarray(p.coords, dtype=float)
    return self.distances_between(np.broadcast_to(p.chart, n), np.broadcast_to(at, (n, len(at))), charts, coords)


def _chain_points(start: tuple, end: tuple, sections: tuple, t: np.ndarray, normal_rows) -> tuple:
    """`geodesic_from_chain`, then `Geodesic.eval`, on rows.

    Row i of `sections` = (charts [n, L], c0 [n, L, d], c1 [n, L, d]) holds in
    chain order the sections of the geodesic from row i of `start` to row i of
    `end`, each a (charts, coords) pair of normal points; a row with fewer
    sections pads with zero-length ones anywhere. Returns (lengths [n],
    charts [n, k], coords [n, k, d]): each geodesic's length and its normal
    points at the parameters t [n, k] in [0, 1], bit for bit as the scalar
    geodesic gives them. A zero-length section adds +0.0 to the left fold of
    the lengths and ends where the section before it ends, so the search for
    the first piece with t <= t1 never stops on it. No family chains two
    collinear sections in one chart, so the scalar assembly merges none.
    `normal_rows(charts, coords)` is the family's `normalize` on rows.
    """
    (p_charts, p_coords), (q_charts, q_coords) = start, end
    charts, c0, c1 = sections
    n, k = t.shape
    rows = np.arange(n)[:, None]
    # rows that eval overrides (t at an end, a zero-length geodesic) may divide by zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = c1 - c0
        lengths = np.sqrt(functools.reduce(add, [diff[..., j] * diff[..., j] for j in range(diff.shape[2])]))
        fold = np.cumsum(lengths, axis=1)  # the left fold, column by column
        total = fold[:, -1]
        flat = (total == 0)[:, None]
        ends = fold / np.where(flat, 1.0, total[:, None])
        j = (ends[:, None, :] >= t[:, :, None]).argmax(axis=2)
        # a zero-length geodesic is one piece over [0, 1], from its start to its start
        t0 = np.where(flat | (j == 0), 0.0, ends[rows, j - 1])
        t1 = np.where(flat, 1.0, ends[rows, j])
        a = np.where(flat[..., None], p_coords[:, None, :], c0[rows, j])
        b = np.where(flat[..., None], p_coords[:, None, :], c1[rows, j])
        w = ((t - t0) / (t1 - t0))[..., None]
        ch, x = normal_rows(
            np.where(flat, p_charts[:, None], charts[rows, j]).ravel(),
            (a + w * (b - a)).reshape(n * k, -1),
        )
    # eval's ends: the start at t <= 0, the end at t >= 1 (the start, when flat)
    q_charts = np.where(flat[:, 0], p_charts, q_charts)
    q_coords = np.where(flat, p_coords, q_coords)
    lo, hi = t <= 0, t >= 1
    ch = np.where(lo, p_charts[:, None], np.where(hi, q_charts[:, None], ch.reshape(n, k)))
    x = np.where(
        lo[..., None], p_coords[:, None, :], np.where(hi[..., None], q_coords[:, None, :], x.reshape(n, k, -1))
    )
    return total, ch, x


def _circle(count: int) -> np.ndarray:
    """[count, 2]: the cosine and sine of 2 pi j / count for each j, by
    `math.cos` and `math.sin`, whose last bit np.cos and np.sin may not share."""
    angles = (2.0 * math.pi * j / count for j in range(count))
    return np.array([(math.cos(th), math.sin(th)) for th in angles]).reshape(count, 2)


def _box_region(region: BoxRegion) -> tuple:
    """(volume, diameter, sample) of an axis box whose chart the family has checked."""
    if any(h < l for l, h in zip(region.lo, region.hi)):
        raise UnsupportedRegion("box has hi < lo")

    def sample(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
        coords = rng.uniform(region.lo, region.hi, size=(n, len(region.lo)))
        return np.full(n, region.chart, dtype=np.int64), coords

    sides = [h - l for l, h in zip(region.lo, region.hi)]
    return float(np.prod(sides)), section_length(region.lo, region.hi), sample


class EuclideanImpl:
    def __init__(self, dim: int):
        self.dim = dim
        self.handle: SpaceHandle = None  # type: ignore[assignment]

    def validate_point(self, p: Point) -> None:
        if p.chart != 0:
            raise InvalidPoint(f"Euclidean space has a single chart 0, got {p.chart}")
        if len(p.coords) != self.dim or not _finite(p.coords):
            raise InvalidPoint(f"expected {self.dim} finite coordinates, got {p.coords}")

    def normalize(self, p: Point) -> Point:
        return Point(0, tuple(map(float, p.coords)))

    def distance(self, p: Point, q: Point) -> float:
        return section_length(p.coords, q.coords)

    def geodesic(self, p: Point, q: Point) -> Geodesic:
        return geodesic_from_chain(self.handle, [(0, p.coords, q.coords)], p, q)

    def represent_in_chart(self, p: Point, chart: int) -> Optional[tuple]:
        return p.coords if chart == 0 else None

    def continuation(self, pc: Piece, delta: float) -> list[tuple]:
        seg = [b - a for a, b in zip(pc.c0, pc.c1)]
        ln = section_length(pc.c0, pc.c1)
        return [(0, pc.c1, tuple(c + delta * v / ln for c, v in zip(pc.c1, seg)))]

    def project_segment(self, x: Point, g: Geodesic) -> Point:
        return Point(0, tuple(segment_projection(x.coords, g.start.coords, g.end.coords)[1]))

    def region(self, region) -> tuple:
        if isinstance(region, BoxRegion):
            if region.chart != 0 or len(region.lo) != self.dim or len(region.hi) != self.dim:
                raise UnsupportedRegion("box chart/shape does not match the space")
            return _box_region(region)
        if isinstance(region, BallRegion):
            self.validate_point(region.center)
            d = self.dim

            def sample(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
                gauss = rng.standard_normal((n, d))
                gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
                radii = region.radius * rng.uniform(0.0, 1.0, n) ** (1.0 / d)
                pts = np.asarray(region.center.coords) + gauss * radii[:, None]
                return np.zeros(n, dtype=np.int64), pts

            volume = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * region.radius**d
            return volume, 2.0 * region.radius, sample
        raise UnsupportedRegion(f"{type(region).__name__} unsupported on euclidean")

    distances_from = _distances_from

    def distances_between(self, charts_p, coords_p, charts_q, coords_q):
        with np.errstate(over="ignore"):  # past the float range, inf as the scalar gives it
            cols = [coords_q[:, k] - coords_p[:, k] for k in range(self.dim)]  # section_length's fold
            return np.sqrt(functools.reduce(add, [d * d for d in cols]))

    def geodesic_points(self, charts_p, coords_p, charts_q, coords_q, t):
        sections = (charts_p[:, None], coords_p[:, None, :], coords_q[:, None, :])
        return _chain_points((charts_p, coords_p), (charts_q, coords_q), sections, t, self._normal_rows)

    @staticmethod
    def _normal_rows(charts, coords):
        return charts, coords

    def direction_rows(self, x: Point, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        if self.dim == 2:
            steps = _circle(count)
        else:
            steps = substream(seed, "directions").standard_normal((count, self.dim))
            steps /= np.linalg.norm(steps, axis=1, keepdims=True)
        return np.zeros(count, dtype=np.int64), np.asarray(x.coords) + steps


class TreeImpl:
    """A finite metric tree, rooted at `root`, with points on its edges.

    One route per pair: each edge joins its lower endpoint to that vertex's
    parent, and a tree is uniquely geodesic, so for p and q on different
    edges one lowest common ancestor (LCA) fixes the route p -> u ~> w <~ v
    -> q. A point inside an edge may leave by its low end, the edge's lower
    endpoint, or its high end, that vertex's parent; a point at a vertex
    leaves by that vertex, its low and high end both. w is the LCA of the two
    low ends. When w is p's low end, q lies below p: p leaves by its low end
    (u = w) and q by its high end. When w is q's low end, the same holds with
    p and q swapped. Otherwise both leave by their high ends. The length is
    off_u + (path(u, w) + path(v, w)) + off_v, each off the leg along the
    point's own edge, zero at a vertex; so the distance between a vertex and
    any point reads the same both ways.

    Both distance forms read one set of preorder tables: the pair kernels as
    numpy arrays, the scalar `distance` and `geodesic` through `array` views
    over the same buffers. `_route` is `_pair_routes` on one pair and returns
    u, v and w as preorder positions, as the row does.
    """

    def __init__(self, vertices: tuple, edges: tuple, root):
        self.vertices = vertices
        self.edges = edges  # (a, b, length)
        self.root = root
        self.handle: SpaceHandle = None  # type: ignore[assignment]
        vidx = self._vidx = {v: i for i, v in enumerate(vertices)}
        nv = len(vertices)
        # each edge's endpoints as vertex indices, in the edge's own order
        ea = self._ea = [vidx[a] for a, _b, _ln in edges]
        eb = self._eb = [vidx[b] for _a, b, _ln in edges]
        self.incident: list[list[int]] = [[] for _ in range(nv)]
        for e, (ia, ib) in enumerate(zip(ea, eb)):
            self.incident[ia].append(e)
            self.incident[ib].append(e)
        # rooted structure: the stack pops vertices in preorder, so the subtree
        # of u is the preorder range [tin[u], tout[u])
        self.parent = [-1] * nv
        self.parent_edge = [-1] * nv
        # root distances as hi + lo: hi the plain sum down the path, lo its
        # rounding errors by TwoSum (Knuth, TAOCP vol. 2, 4.2.2), so the
        # distances below a long edge keep their precision
        hi, lo = [0.0] * nv, [0.0] * nv
        tin = self._tin = [0] * nv
        depth = [0] * nv
        order: list[int] = []
        seen = [False] * nv
        ridx = vidx[root]
        seen[ridx] = True
        stack = [ridx]
        while stack:
            u = stack.pop()
            tin[u] = len(order)
            order.append(u)
            for e in self.incident[u]:
                w = eb[e] if ea[e] == u else ea[e]
                if not seen[w]:
                    seen[w] = True
                    self.parent[w] = u
                    self.parent_edge[w] = e
                    depth[w] = depth[u] + 1
                    ln = edges[e][2]
                    hi[w] = hi[u] + ln
                    back = hi[w] - hi[u]
                    lo[w] = lo[u] + ((hi[u] - (hi[w] - back)) + (ln - back))
                    stack.append(w)
        tout = [t + 1 for t in tin]
        for u in reversed(order[1:]):
            p = self.parent[u]
            tout[p] = max(tout[p], tout[u])
        # preorder-indexed tables; those the scalar `_route` and `geodesic` read
        # also come as an `_with_view` view, named after the table
        self._pre_tout, self._tout_view = _with_view(np.array([tout[u] for u in order], dtype=np.int64))
        self._pre_droot, self._droot_view = _with_view(np.array([hi[u] for u in order]))
        self._pre_droot_lo, self._droot_lo_view = _with_view(np.array([lo[u] for u in order]))
        self._ends = np.array([[tin[ia], tin[ib]] for ia, ib in zip(ea, eb)], dtype=np.int64)
        self._lens = np.array([ln for _a, _b, ln in edges], dtype=float)
        pre = np.asarray(order, dtype=np.int64)
        up = np.asarray(self.parent, dtype=np.int64)[pre]
        self._pre_parent, self._parent_view = _with_view(np.where(up < 0, 0, np.asarray(tin, dtype=np.int64)[up]))
        self._pre_depth = np.asarray(depth, dtype=np.int64)[pre]
        # each position's section up to its parent, as (edge, offset of the lower
        # end, of the upper end); the root's, (0, 0.0, 0.0), pads `_path_sections`
        pedge = np.asarray(self.parent_edge, dtype=np.int64)[pre]
        lower_first = self._ends[pedge, 0] == np.arange(len(pre))
        ln = np.where(pedge < 0, 0.0, self._lens[pedge])
        sections = (np.maximum(pedge, 0), np.where(lower_first, 0.0, ln), np.where(lower_first, ln, 0.0))
        self._pre_up, self._up_view = zip(*map(_with_view, sections))
        self._pre_lower = self._ends.max(axis=1)
        # each edge's exits by `_exit_keys`: its lower end and that end's parent
        # from inside the edge, else the vertex it sits at, twice
        ends, lower = self._ends, self._pre_lower
        self._exit_low, self._exit_low_view = _with_view(np.stack([lower, *ends.T], axis=1).ravel())
        self._exit_high, self._exit_high_view = _with_view(np.stack([self._pre_parent[lower], *ends.T], axis=1).ravel())
        # binary lifting (Bender & Farach-Colton, LATIN 2000): level k holds each
        # position's 2^k-th ancestor, the root its own. A climb in `_lcas` stops
        # below the LCA, so it takes fewer steps than the max depth D, and the
        # ceil(log2 D) levels (one at least) spell every such count. They also
        # double `_path_sections`' one column to the at most D it needs
        lift = [self._pre_parent]
        for _ in range(1, (max(depth) - 1).bit_length()):
            lift.append(lift[-1][lift[-1]])
        self._lift = tuple(lift)
        first = np.full(len(order), len(edges), dtype=np.int64)  # lowest-index incident edge
        np.minimum.at(first, self._ends.ravel(), np.repeat(np.arange(len(edges)), 2))
        self._pre_vchart = first
        self._pre_voff = np.where(self._ends[first, 0] == np.arange(len(order)), 0.0, self._lens[first])
        # every vertex's normal point as rows, in vertex order; read-only, as they are shared
        at = np.asarray(tin, dtype=np.int64)
        self._vertex_rows = (self._pre_vchart[at], self._pre_voff[at][:, None])
        for a in self._vertex_rows:
            a.flags.writeable = False
        # length-weighted edge CDF for sampling, as Generator.choice(p=...) builds it
        cdf = np.cumsum(self._lens / self._lens.sum())
        self._cdf = cdf / cdf[-1]

    # Point bookkeeping. A point is (edge index, (arc offset,)); vertices are
    # normalized onto their lowest-index incident edge.

    def validate_point(self, p: Point) -> None:
        if not (0 <= p.chart < len(self.edges)):
            raise InvalidPoint(f"edge index {p.chart} out of range")
        if len(p.coords) != 1 or not _finite(p.coords):
            raise InvalidPoint(f"tree points carry one finite offset, got {p.coords}")
        ln = self.edges[p.chart][2]
        if not (-SNAP_TOL <= p.coords[0] <= ln + SNAP_TOL):
            raise InvalidPoint(f"offset {p.coords[0]} outside edge of length {ln}")

    def normalize(self, p: Point) -> Point:
        ln = self.edges[p.chart][2]
        s = min(ln, max(0.0, float(p.coords[0])))
        if s <= SNAP_TOL:
            return self._vpoint(self._ea[p.chart])
        if s >= ln - SNAP_TOL:
            return self._vpoint(self._eb[p.chart])
        return Point(p.chart, (s,))

    def vertex_point(self, v) -> Point:
        """The vertex as a normal point: its offset on its lowest-index edge."""
        return self._vpoint(self._vidx[v])

    def _vpoint(self, i: int) -> Point:
        t = self._tin[i]
        return Point(int(self._pre_vchart[t]), (float(self._pre_voff[t]),))

    def _vertex_of(self, p: Point):
        """Vertex id when p sits at an edge endpoint, else None."""
        a, b, ln = self.edges[p.chart]
        if p.coords[0] <= SNAP_TOL:
            return a
        if p.coords[0] >= ln - SNAP_TOL:
            return b
        return None

    def _route(self, p: Point, q: Point) -> tuple:
        """(length, u, cu, v, cv, w) of the route p -> u ~> v -> q between points on
        different edges, by the class docstring's rule: u ends p's edge, v ends
        q's edge, cu, cv are their offsets on those edges, and w is the LCA of u
        and v. It is `_pair_routes` on one pair, bit for bit, read through the
        tables' views as Python numbers: u, v and w are preorder positions."""
        e, f = p.chart, q.chart
        s, t = p.coords[0], q.coords[0]
        lp, lq = self.edges[e][2], self.edges[f][2]
        low, high = self._exit_low_view, self._exit_high_view
        pk = 3 * e + (1 if s == 0 else 2 if s == lp else 0)  # as `_exit_keys`
        qk = 3 * f + (1 if t == 0 else 2 if t == lq else 0)
        pl, ql = low[pk], low[qk]
        # `_lcas`' climb, one parent at a time
        w, tout, parent = pl, self._tout_view, self._parent_view
        while w > ql or ql >= tout[w]:
            w = parent[w]
        u = pl if w == pl else high[pk]
        v = ql if w == ql else high[qk]
        # low[3 e + 1] is edge e's first end
        off_u, cu = (s, 0.0) if u == low[3 * e + 1] else (lp - s, lp)
        off_v, cv = (t, 0.0) if v == low[3 * f + 1] else (lq - t, lq)
        hi, lo = self._droot_view, self._droot_lo_view
        return off_u + (_path_length(hi, lo, u, w) + _path_length(hi, lo, v, w)) + off_v, u, cu, v, cv, w

    def _lcas(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The LCAs of rows of preorder positions: lift each u that does not hold
        v in its range to its highest ancestor that does not, then take its parent."""
        tout = self._pre_tout
        rows = np.flatnonzero((u > v) | (v >= tout[u]))
        ur, vr = u[rows], v[rows]
        for up in reversed(self._lift):
            a = up[ur]
            ur = np.where((a > vr) | (vr >= tout[a]), a, ur)
        u = u.copy()
        u[rows] = self._pre_parent[ur]
        return u

    def _exit_keys(self, e, s):
        """The ends a route may leave edges e by from offsets s, as keys 3 e + c
        into `_exit_low` and `_exit_high`: c is 1 at the edge's first end, 2 at
        its second, else 0."""
        k = 3 * e + (s == 0)
        k[s == self._lens[e]] += 2
        return k

    def _route_rows(self, e, s, f, k) -> tuple:
        """The class docstring's route on rows, from offsets s on edges e to the
        points on edges f whose exit keys are k: (head, u, v, w, q_first), u, v
        and w as preorder positions. head is off_u + (path(u, w) + path(v, w)),
        the length but for q's own leg: its offset when q_first is set (q
        leaves by its edge's first end), else the rest of its edge. Rows with
        e == f are finite and meaningless."""
        first, hi, lo = self._ends[:, 0], self._pre_droot, self._pre_droot_lo
        pk = self._exit_keys(e, s)
        pl, ph, ql, qh = self._exit_low[pk], self._exit_high[pk], self._exit_low[k], self._exit_high[k]
        w = self._lcas(pl, ql)
        u = np.where(w == pl, pl, ph)
        v = np.where(w == ql, ql, qh)
        off_u = np.where(first[e] == u, s, self._lens[e] - s)
        head = off_u + (_path_length(hi, lo, u, w) + _path_length(hi, lo, v, w))
        return head, u, v, w, first[f] == v

    def _pair_routes(self, e, s, f, t) -> tuple:
        """`_route` on rows, from offsets s on edges e to offsets t on edges f:
        (length, u, cu, v, cv, w), with u, v and w as preorder positions."""
        head, u, v, w, q_first = self._route_rows(e, s, f, self._exit_keys(f, t))
        lp, lq = self._lens[e], self._lens[f]
        return (
            head + np.where(q_first, t, lq - t),
            u,
            np.where(self._ends[e, 0] == u, 0.0, lp),
            v,
            np.where(q_first, 0.0, lq),
            w,
        )

    def _path_sections(self, u: np.ndarray, w: np.ndarray) -> tuple:
        """(charts, near, far), each [n, K]: the sections from preorder position u
        up to its ancestor w, row by row, as the edge and the offsets on it of
        the lower and the upper end; zero-length sections pad the shorter rows.
        K is the most levels a row climbs. Column j holds the section above u's
        j-th ancestor, found by pointer doubling: column 0 is u, and level k of
        `_lift` takes columns [0, 2^k) to [2^k, 2^(k+1)), so ceil(log2 K)
        levels fill the K columns. A column past its row's climb reads the
        root's section, the padding."""
        n = len(u)
        if not (u != w).any():
            return np.zeros((n, 0), dtype=np.int64), np.zeros((n, 0)), np.zeros((n, 0))
        steps = self._pre_depth[u] - self._pre_depth[w]
        K = int(steps.max())
        at = np.empty((K, n), dtype=np.int64)  # transposed, so that each column is contiguous
        at[0] = u
        for k, up in enumerate(self._lift[: (K - 1).bit_length()]):
            at[2**k : 2 ** (k + 1)] = up[at[: min(2**k, K - 2**k)]]
        at = np.where(np.arange(K)[:, None] < steps, at, 0)
        return tuple(a[at].T for a in self._pre_up)

    def distance(self, p: Point, q: Point) -> float:
        if p.chart == q.chart:
            return abs(p.coords[0] - q.coords[0])
        return self._route(p, q)[0]

    def distances_between(self, charts_p, coords_p, charts_q, coords_q):
        s, t = coords_p[:, 0], coords_q[:, 0]
        head, _u, _v, _w, q_first = self._route_rows(charts_p, s, charts_q, self._exit_keys(charts_q, t))
        return np.where(charts_p == charts_q, np.abs(s - t), head + np.where(q_first, t, self._lens[charts_q] - t))

    def distances_from(self, p: Point, charts: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """`distances_between` from p to each row, bit for bit: a row's head
        depends only on its exit key, so the route runs once per key present."""
        t = coords[:, 0]
        k = self._exit_keys(charts, t)
        present = np.zeros(len(self._exit_low), dtype=bool)
        present[k] = True
        keys = np.flatnonzero(present)
        s, n = float(p.coords[0]), len(keys)
        head, _u, _v, _w, q_first = self._route_rows(np.full(n, p.chart), np.full(n, s), keys // 3, keys)
        heads, firsts = np.zeros(len(present)), np.zeros(len(present), dtype=bool)
        heads[keys], firsts[keys] = head, q_first
        leg = np.where(firsts[k], t, self._lens[charts] - t)
        return np.where(charts == p.chart, np.abs(s - t), heads[k] + leg)

    def geodesic_points(self, charts_p, coords_p, charts_q, coords_q, t):
        s, tq = coords_p[:, 0], coords_q[:, 0]
        same = charts_p == charts_q
        _tot, u, cu, v, cv, w = self._pair_routes(charts_p, s, charts_q, tq)
        # a same-edge pair is the one section p -> q, then a zero-length one
        cu, cv = np.where(same, tq, cu), np.where(same, tq, cv)
        u, v = np.where(same, w, u), np.where(same, w, v)
        up_charts, up_near, up_far = self._path_sections(u, w)
        # the far side climbs from q, then runs downwards
        dn_charts, dn_near, dn_far = (a[:, ::-1] for a in self._path_sections(v, w))
        charts = np.concatenate([charts_p[:, None], up_charts, dn_charts, charts_q[:, None]], axis=1)
        c0 = np.concatenate([s[:, None], up_near, dn_far, cv[:, None]], axis=1)
        c1 = np.concatenate([cu[:, None], up_far, dn_near, tq[:, None]], axis=1)
        sections = (charts, c0[..., None], c1[..., None])
        return _chain_points((charts_p, coords_p), (charts_q, coords_q), sections, t, self._normal_rows)

    def _normal_rows(self, charts, coords):
        """`normalize` on rows: the normal (charts, coords) of edge offsets."""
        ln = self._lens[charts]
        s = np.minimum(ln, np.maximum(0.0, coords[:, 0]))
        at_a = s <= SNAP_TOL
        snap = at_a | (s >= ln - SNAP_TOL)
        vertex = np.where(at_a, self._ends[charts, 0], self._ends[charts, 1])
        charts = np.where(snap, self._pre_vchart[vertex], charts)
        return charts, np.where(snap, self._pre_voff[vertex], s)[:, None]

    def geodesic(self, p: Point, q: Point) -> Geodesic:
        if p.chart == q.chart:
            return geodesic_from_chain(self.handle, [(p.chart, p.coords, q.coords)], p, q)
        _tot, u, cu, v, cv, w = self._route(p, q)
        # each position's section up to its parent, as `_path_sections` reads it
        parent, (edge, near, far) = self._parent_view, self._up_view
        chain = [(p.chart, p.coords, (cu,))]
        while u != w:
            chain.append((edge[u], (near[u],), (far[u],)))
            u = parent[u]
        # the far side, gathered from q upwards and then reversed
        down = [(q.chart, (cv,), q.coords)]
        while v != w:
            down.append((edge[v], (far[v],), (near[v],)))
            v = parent[v]
        chain += reversed(down)
        return geodesic_from_chain(self.handle, chain, p, q)

    def represent_in_chart(self, p: Point, chart: int) -> Optional[tuple]:
        if p.chart == chart:
            return p.coords
        v = self._vertex_of(p)
        if v is None:
            return None
        a, b, ln = self.edges[chart]
        if v == a:
            return (0.0,)
        if v == b:
            return (ln,)
        return None

    def continuation(self, pc: Piece, delta: float) -> list[tuple]:
        chain = []
        e = pc.chart
        s = pc.c1[0]
        forward = pc.c1[0] > pc.c0[0]
        remaining = delta
        while remaining > 0:
            a, b, ln = self.edges[e]
            room = (ln - s) if forward else s
            if room >= remaining:
                chain.append((e, (s,), (s + remaining if forward else s - remaining,)))
                break
            if room > 0:
                chain.append((e, (s,), (ln,) if forward else (0.0,)))
                remaining -= room
            v = b if forward else a
            e = next((e2 for e2 in self.incident[self._vidx[v]] if e2 != e), None)
            if e is None:
                raise NotExtendable(f"leaf vertex {v} admits no continuation")
            a2, _b2, ln2 = self.edges[e]
            forward = a2 == v
            s = 0.0 if forward else ln2
        return chain

    def project_segment(self, x: Point, g: Geodesic) -> Point:
        # Gromov-product parameter; exact on trees.
        da = self.distance(x, g.start)
        db = self.distance(x, g.end)
        t = (da + g.length - db) / (2.0 * g.length)
        return g.eval(min(1.0, max(0.0, t)))

    def _check_subtree(self, vertex_set) -> list[int]:
        """The sorted edge indices the connected vertex set induces."""
        vs = list(dict.fromkeys(vertex_set))
        if not vs:
            raise UnsupportedConvexSet("empty vertex set")
        unknown = [v for v in vs if v not in self._vidx]
        if unknown:
            raise UnsupportedConvexSet(f"unknown vertices {sorted(unknown)}")
        # every edge joins a vertex to its parent; the members' induced forest
        # is connected when it has one edge fewer than members
        members = {self._vidx[v] for v in vs}
        edges = sorted(self.parent_edge[u] for u in members if self.parent[u] in members)
        if len(edges) != len(members) - 1:
            raise UnsupportedConvexSet("vertex set does not induce a connected subtree")
        return edges

    def _pack_vertices(self, vertex_set) -> tuple:
        """(vertices, charts, coords): the distinct vertices in first-seen order,
        and their normal points as the rows `distances_from` takes."""
        verts = list(dict.fromkeys(vertex_set))
        at = np.asarray([self._vidx[v] for v in verts], dtype=np.int64)
        charts, coords = self._vertex_rows
        return verts, charts[at], coords[at]

    def project_subtree(self, x: Point, vertex_set) -> Point:
        edges = self._check_subtree(vertex_set)
        if x.chart in edges:
            return x
        # the first of the nearest members; x at a member vertex is its own nearest
        verts, charts, coords = self._pack_vertices(vertex_set)
        return self.vertex_point(verts[int(self.distances_from(x, charts, coords).argmin())])

    def region(self, region) -> tuple:
        if not isinstance(region, TreeRegion):
            raise UnsupportedRegion(f"{type(region).__name__} unsupported on trees")
        edges = self._check_subtree(region.vertices)
        # double sweep, exact on the connected vertex set of a tree: the first
        # member farthest from the first member, then the farthest from it
        verts, charts, coords = self._pack_vertices(region.vertices)
        first = self.vertex_point(verts[0])
        far = self.vertex_point(verts[int(self.distances_from(first, charts, coords).argmax())])
        diameter = float(self.distances_from(far, charts, coords).max())

        def sample(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
            if not edges:
                raise UnsupportedRegion("subtree region has zero length")
            lens = np.asarray([self.edges[e][2] for e in edges])
            pick = rng.choice(len(edges), size=n, p=lens / lens.sum())
            offs = rng.uniform(0.0, 1.0, n) * lens[pick]
            return np.asarray(edges, dtype=np.int64)[pick], offs[:, None]

        return functools.reduce(add, [self.edges[e][2] for e in edges], 0.0), diameter, sample

    def direction_rows(self, x: Point, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        # the far end of each edge at x, as preorder indices: both ends inside an edge
        v = self._vertex_of(x)
        if v is None:
            ends = self._ends[x.chart]
        else:
            i = self._vidx[v]
            pairs = self._ends[self.incident[i]]
            ends = np.where(pairs[:, 0] == self._tin[i], pairs[:, 1], pairs[:, 0])
        return self._pre_vchart[ends], self._pre_voff[ends][:, None]


class BookImpl:
    """k half-planes {(u, v): u >= 0} glued along the line u = 0."""

    def __init__(self, pages: int):
        self.pages = pages
        self.handle: SpaceHandle = None  # type: ignore[assignment]

    def validate_point(self, p: Point) -> None:
        if not (0 <= p.chart < self.pages):
            raise InvalidPoint(f"page {p.chart} out of range")
        if len(p.coords) != 2 or not _finite(p.coords):
            raise InvalidPoint(f"book points carry (u, v), got {p.coords}")
        if p.coords[0] < -SNAP_TOL:
            raise InvalidPoint(f"page coordinate u = {p.coords[0]} < 0")

    def normalize(self, p: Point) -> Point:
        u, v = float(p.coords[0]), float(p.coords[1])
        if u <= SNAP_TOL:
            return Point(0, (0.0, v))
        return Point(p.chart, (u, v))

    def distance(self, p: Point, q: Point) -> float:
        # abs(complex) calls C hypot, as np.hypot in the rows does; math.hypot
        # differs from it in the last bit
        (pu, pv), (qu, qv) = p.coords, q.coords
        try:
            return abs(complex(pu - qu if p.chart == q.chart else pu + qu, pv - qv))
        except OverflowError:  # past the float range, where np.hypot gives inf
            return math.inf

    def geodesic(self, p: Point, q: Point) -> Geodesic:
        if p.chart == q.chart:
            return geodesic_from_chain(self.handle, [(p.chart, p.coords, q.coords)], p, q)
        u1, v1 = p.coords
        u2, v2 = q.coords
        if u1 <= SNAP_TOL:
            return geodesic_from_chain(self.handle, [(q.chart, (0.0, v1), q.coords)], p, q)
        if u2 <= SNAP_TOL:
            return geodesic_from_chain(self.handle, [(p.chart, p.coords, (0.0, v2))], p, q)
        # unfold the two pages into one plane; the straight segment crosses u = 0
        vs = v1 + u1 * (v2 - v1) / (u1 + u2)
        return geodesic_from_chain(
            self.handle,
            [(p.chart, p.coords, (0.0, vs)), (q.chart, (0.0, vs), q.coords)],
            p,
            q,
        )

    def represent_in_chart(self, p: Point, chart: int) -> Optional[tuple]:
        if p.chart == chart:
            return p.coords
        if p.coords[0] <= SNAP_TOL:
            return (0.0, p.coords[1])
        return None

    def continuation(self, pc: Piece, delta: float) -> list[tuple]:
        ln = math.hypot(pc.c1[0] - pc.c0[0], pc.c1[1] - pc.c0[1])
        du = (pc.c1[0] - pc.c0[0]) / ln
        dv = (pc.c1[1] - pc.c0[1]) / ln
        ue, ve = pc.c1
        # a direction away from the spine (du >= 0) never reaches it
        to_spine = ue / (-du) if du < 0 else math.inf
        if delta <= to_spine:
            return [(pc.chart, pc.c1, (ue + delta * du, ve + delta * dv))]
        vs = ve + to_spine * dv
        chain = [(pc.chart, pc.c1, (0.0, vs))] if to_spine > 0 else []
        rest = delta - to_spine
        nxt = 0 if pc.chart != 0 else 1
        return chain + [(nxt, (0.0, vs), (rest * (-du), vs + rest * dv))]

    def project_segment(self, x: Point, g: Geodesic) -> Point:
        best = None
        for pc in g.pieces:
            rep = self.represent_in_chart(x, pc.chart)
            if rep is None:
                # unfold x across the spine into the piece's page
                rep = (-x.coords[0], x.coords[1])
            _w, proj = segment_projection(rep, pc.c0, pc.c1)
            dist = math.hypot(rep[0] - proj[0], rep[1] - proj[1])
            if best is None or dist < best[0]:
                best = (dist, self.normalize(Point(pc.chart, proj)))
        return best[1]

    def region(self, region) -> tuple:
        if isinstance(region, BoxRegion):
            if not (0 <= region.chart < self.pages):
                raise UnsupportedRegion(f"page {region.chart} out of range")
            if len(region.lo) != 2 or len(region.hi) != 2:
                raise UnsupportedRegion("book boxes are two-dimensional")
            if region.lo[0] < -SNAP_TOL:
                raise UnsupportedRegion("box must sit inside a single page (u >= 0)")
            return _box_region(region)
        if isinstance(region, BallRegion):
            self.validate_point(region.center)
            c = self.normalize(region.center)
            if c.coords[0] - region.radius < -SNAP_TOL:
                raise UnsupportedRegion("ball must sit inside a single page")

            def sample(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
                th = rng.uniform(0.0, 2.0 * math.pi, n)
                r = region.radius * np.sqrt(rng.uniform(0.0, 1.0, n))
                pts = np.stack(
                    [c.coords[0] + r * np.cos(th), c.coords[1] + r * np.sin(th)], axis=1
                )
                return np.full(n, c.chart, dtype=np.int64), pts

            return math.pi * region.radius**2, 2.0 * region.radius, sample
        raise UnsupportedRegion(f"{type(region).__name__} unsupported on open books")

    distances_from = _distances_from

    def distances_between(self, charts_p, coords_p, charts_q, coords_q):
        (pu, pv), (qu, qv) = coords_p.T, coords_q.T
        with np.errstate(over="ignore"):  # past the float range, inf as the scalar gives it
            return np.hypot(np.where(charts_p == charts_q, pu - qu, pu + qu), pv - qv)

    def geodesic_points(self, charts_p, coords_p, charts_q, coords_q, t):
        (pu, pv), (qu, qv) = coords_p.T, coords_q.T
        same = charts_p == charts_q
        from_spine = ~same & (pu <= SNAP_TOL)
        to_spine = ~same & ~from_spine & (qu <= SNAP_TOL)
        cross = ~(same | from_spine | to_spine)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # read on crossing rows only
            vs = pv + pu * (qv - pv) / (pu + qu)
        # as `geodesic`: p -> q on one page, from or to a spine end, or two
        # sections through the spine point (0, vs); a zero-length one pads
        zero = np.zeros_like(pu)
        cut = np.stack([zero, np.where(to_spine, qv, vs)], axis=1)
        first_c0 = np.where(from_spine[:, None], np.stack([zero, pv], axis=1), coords_p)
        first_c1 = np.where((same | from_spine)[:, None], coords_q, cut)
        charts = np.stack([np.where(from_spine, charts_q, charts_p), charts_q], axis=1)
        c0 = np.stack([first_c0, np.where(cross[:, None], cut, coords_q)], axis=1)
        c1 = np.stack([first_c1, coords_q], axis=1)
        return _chain_points((charts_p, coords_p), (charts_q, coords_q), (charts, c0, c1), t, self._normal_rows)

    @staticmethod
    def _normal_rows(charts, coords):
        spine = coords[:, 0] <= SNAP_TOL
        coords = np.stack([np.where(spine, 0.0, coords[:, 0]), coords[:, 1]], axis=1)
        return np.where(spine, 0, charts), coords

    def direction_rows(self, x: Point, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        u, v = x.coords
        if u > SNAP_TOL:
            # a unit circle about x, its part past the spine folded onto the next page
            ru, rv = (np.asarray(x.coords) + _circle(count)).T
            stay = ru >= 0
            charts = np.where(stay, x.chart, 0 if x.chart != 0 else 1)
            return self._normal_rows(charts, np.stack([np.where(stay, ru, -ru), rv], axis=1))
        # on the spine: half circles into every page, then along the spine both ways
        per_page = max(2, count // self.pages)
        angles = (math.pi * (j + 1) / (per_page + 1) for j in range(per_page))
        half = np.array([(math.sin(th), math.cos(th)) for th in angles])
        steps = np.concatenate([np.tile(half, (self.pages, 1)), [(0.0, 1.0), (0.0, -1.0)]])
        charts = np.append(np.repeat(np.arange(self.pages), per_page), [0, 0])
        return self._normal_rows(charts, np.stack([steps[:, 0], v + steps[:, 1]], axis=1))


# Builders.


def build_euclidean(dim: int) -> SpaceHandle:
    if not isinstance(dim, int) or dim < 1:
        raise ParamOutOfRange(f"dimension must be a positive integer, got {dim}")
    impl = EuclideanImpl(dim)
    handle = SpaceHandle("euclidean", dim, EuclideanParams(dim), impl)
    impl.handle = handle
    return handle


def build_tree(vertices: Sequence, edges: Sequence[tuple], root=None) -> SpaceHandle:
    verts = tuple(vertices)
    if len(set(verts)) != len(verts) or not verts:
        raise ParamOutOfRange("vertex ids must be nonempty and distinct")
    eds = tuple((a, b, float(ln)) for a, b, ln in edges)
    known = set(verts)
    for a, b, ln in eds:
        if a not in known or b not in known or a == b:
            raise ParamOutOfRange(f"edge ({a}, {b}) does not join distinct known vertices")
        if not 0 < ln < math.inf:
            raise ParamOutOfRange(f"edge ({a}, {b}) needs a positive finite length, got {ln}")
    if not functools.reduce(add, [ln for _a, _b, ln in eds], 0.0) < math.inf:
        raise ParamOutOfRange("the edge lengths sum past the float range")
    if len(eds) != len(verts) - 1:
        raise ParamOutOfRange("a tree on n vertices has exactly n - 1 edges")
    if not eds:
        raise ParamOutOfRange("a tree needs at least one edge to carry points")
    if root is None:
        root = verts[0]
    if root not in known:
        raise ParamOutOfRange(f"root {root} is not a vertex")
    impl = TreeImpl(verts, eds, root)
    if any(impl.parent[i] < 0 and verts[i] != root for i in range(len(verts))):
        raise ParamOutOfRange("edge list is not connected")
    handle = SpaceHandle("tree", 1, TreeParams(verts, eds, root), impl)
    impl.handle = handle
    return handle


def build_star(legs: int, length: float = 1.0) -> SpaceHandle:
    if legs < 1:
        raise ParamOutOfRange(f"a star needs at least one leg, got {legs}")
    vertices = list(range(legs + 1))
    edges = [(0, i, float(length)) for i in range(1, legs + 1)]
    return build_tree(vertices, edges, root=0)


def build_tripod() -> SpaceHandle:
    return build_star(3)


def build_comb(depth: int, grid: int) -> SpaceHandle:
    """Unit segment with unit teeth glued at the grid points j/grid, iterated.

    Teeth of every generation before the last are subdivided at their own grid
    points so the next generation can attach there; last-generation teeth stay
    single unit edges.
    """
    if depth < 0 or grid < 1:
        raise ParamOutOfRange(f"need depth >= 0 and grid >= 1, got ({depth}, {grid})")
    if depth > 3 or grid > 16:
        raise CapExceeded(f"caps are depth <= 3, grid <= 16, got ({depth}, {grid})")
    if depth == 0:
        return build_tree([0, 1], [(0, 1, 1.0)], root=0)
    vertices = list(range(grid + 1))
    edges = [(i, i + 1, 1.0 / grid) for i in range(grid)]
    chains = [vertices[:]]
    nxt = grid + 1
    for gen in range(1, depth + 1):
        last = gen == depth
        new_chains = []
        for chain in chains:
            for node in chain:
                if last:
                    vertices.append(nxt)
                    edges.append((node, nxt, 1.0))
                    nxt += 1
                else:
                    tooth = [node]
                    for _ in range(grid):
                        vertices.append(nxt)
                        edges.append((tooth[-1], nxt, 1.0 / grid))
                        tooth.append(nxt)
                        nxt += 1
                    new_chains.append(tooth)
        chains = new_chains
    return build_tree(vertices, edges, root=0)


def build_open_book(pages: int) -> SpaceHandle:
    if not isinstance(pages, int) or pages < 2:
        raise ParamOutOfRange(f"an open book needs at least 2 pages, got {pages}")
    if pages > 2**53:  # a sampled page, int(pages * random()), needs pages to be an exact float
        raise ParamOutOfRange(f"an open book has at most 2^53 pages, got {pages}")
    impl = BookImpl(pages)
    handle = SpaceHandle("open_book", 2, OpenBookParams(pages), impl)
    impl.handle = handle
    return handle


# JSON descriptions, used by the CLI harness.


def space_to_json(space: SpaceHandle) -> dict:
    if space.kind == "euclidean":
        return {"kind": "euclidean", "dim": space.dim}
    if space.kind == "tree":
        p: TreeParams = space.params
        return {
            "kind": "tree",
            "vertices": list(p.vertices),
            "edges": [[a, b, ln] for a, b, ln in p.edges],
            "root": p.root,
        }
    if space.kind == "open_book":
        return {"kind": "open_book", "pages": space.params.pages}
    raise ConfigInvalid("kind", f"unknown space kind {space.kind}")


def space_from_json(doc: dict) -> SpaceHandle:
    """The space a JSON descriptor names, built once per distinct descriptor.

    Descriptors that differ only in key order name the same handle. Only a
    descriptor that reads back from its canonical JSON unchanged is kept; an
    invalid one raises `ConfigInvalid` on every call and is never kept.
    """
    try:
        key = json.dumps(doc, sort_keys=True)
        kept = json.loads(key) == doc
    except (TypeError, ValueError):
        kept = False
    if not kept:
        return _space_from_json(doc)
    return _built(key)


# The last 8 built spaces, by canonical descriptor. This relies on descriptors
# repeating within one process: a geometry-tree benchmark pass runs 15
# scenarios on 5 spaces, and a CLI call builds its one space once, while a
# comb(3, 16) takes tens of milliseconds to build. A built handle is never
# changed after its builder returns, so one handle serves every caller.
# lru_cache is thread-safe, and it keeps no result for a call that raised.
@functools.lru_cache(maxsize=8)
def _built(key: str) -> SpaceHandle:
    return _space_from_json(json.loads(key))


def _space_from_json(doc: dict) -> SpaceHandle:
    try:
        kind = doc["kind"]
        if kind == "euclidean":
            return build_euclidean(config_int(doc["dim"], "space.dim"))
        if kind == "tree":
            edges = [(a, b, config_float(ln, "space.edges")) for a, b, ln in doc["edges"]]
            return build_tree(doc["vertices"], edges, doc.get("root"))
        if kind == "tripod":
            return build_tripod()
        if kind == "star":
            legs = config_int(doc["legs"], "space.legs")
            return build_star(legs, config_float(doc.get("length", 1.0), "space.length"))
        if kind == "comb":
            depth = config_int(doc["depth"], "space.depth")
            return build_comb(depth, config_int(doc["grid"], "space.grid"))
        if kind == "open_book":
            return build_open_book(config_int(doc["pages"], "space.pages"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid("space", f"bad space description: {exc}") from exc
    except (ParamOutOfRange, CapExceeded) as exc:
        raise ConfigInvalid("space", str(exc)) from exc
    raise ConfigInvalid("space.kind", f"unknown space kind {kind!r}")


def point_to_json(p: Point) -> list:
    return [p.chart, *p.coords]


def point_from_json(space: SpaceHandle, doc: Sequence) -> Point:
    if len(doc) < 2:
        raise ConfigInvalid("point", f"need [chart, coords...], got {doc}")
    p = Point(config_int(doc[0], "point"), tuple(config_float(c, "point") for c in doc[1:]))
    space.impl.validate_point(p)
    return space.impl.normalize(p)
