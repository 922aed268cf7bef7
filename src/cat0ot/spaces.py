"""Concrete space families: Euclidean R^d, finite metric trees, open books.

Each builder returns a SpaceHandle whose `impl` object realizes the chart
logic for its family: point validation and canonical form, exact distances
and geodesics, one-sided geodesic extension, nearest-point helpers, region
sampling for the Monte Carlo estimators, and direction targets for the
derivative-based testers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .errors import (
    CapExceeded,
    ConfigInvalid,
    InvalidPoint,
    NotExtendable,
    ParamOutOfRange,
    UnsupportedConvexSet,
    UnsupportedRegion,
)
from .geometry import (
    BallRegion,
    BoxRegion,
    EmptyRegion,
    Geodesic,
    Point,
    SpaceHandle,
    TreeRegion,
    geodesic_from_chain,
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
    return all(math.isfinite(c) for c in coords)


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
        return Point(0, tuple(float(c) for c in p.coords))

    def distance(self, p: Point, q: Point) -> float:
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(p.coords, q.coords)))

    def geodesic(self, p: Point, q: Point) -> Geodesic:
        return geodesic_from_chain(self.handle, [(0, p.coords, q.coords)])

    def represent_in_chart(self, p: Point, chart: int) -> Optional[tuple]:
        return p.coords if chart == 0 else None

    def extend(self, g: Geodesic, delta: float) -> Geodesic:
        if g.length == 0:
            raise NotExtendable("zero-length geodesic has no direction")
        pc = g.pieces[-1]
        seg = [b - a for a, b in zip(pc.c0, pc.c1)]
        ln = math.sqrt(sum(v * v for v in seg))
        tip = tuple(c + delta * v / ln for c, v in zip(pc.c1, seg))
        chain = [(q.chart, q.c0, q.c1) for q in g.pieces] + [(0, pc.c1, tip)]
        return geodesic_from_chain(self.handle, chain)

    def project_segment(self, x: Point, g: Geodesic) -> Point:
        if g.length == 0:
            return g.start
        a = g.start.coords
        seg = [b - c for c, b in zip(a, g.end.coords)]
        w = sum((xc - c) * v for xc, c, v in zip(x.coords, a, seg)) / sum(
            v * v for v in seg
        )
        w = min(1.0, max(0.0, w))
        return Point(0, tuple(c + w * v for c, v in zip(a, seg)))

    # Regions.

    def region_volume(self, region) -> float:
        if isinstance(region, BoxRegion):
            self._check_box(region)
            return float(np.prod([h - l for l, h in zip(region.lo, region.hi)]))
        if isinstance(region, BallRegion):
            d = self.dim
            return (
                math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * region.radius**d
            )
        raise UnsupportedRegion(f"{type(region).__name__} unsupported on euclidean")

    def region_diameter(self, region) -> float:
        if isinstance(region, BoxRegion):
            self._check_box(region)
            return math.sqrt(sum((h - l) ** 2 for l, h in zip(region.lo, region.hi)))
        if isinstance(region, BallRegion):
            return 2.0 * region.radius
        raise UnsupportedRegion(f"{type(region).__name__} unsupported on euclidean")

    def sample_region(self, region, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
        charts = np.zeros(n, dtype=np.int64)
        if isinstance(region, BoxRegion):
            self._check_box(region)
            lo = np.asarray(region.lo, dtype=float)
            hi = np.asarray(region.hi, dtype=float)
            return charts, rng.uniform(lo, hi, size=(n, self.dim))
        if isinstance(region, BallRegion):
            self.validate_point(region.center)
            gauss = rng.standard_normal((n, self.dim))
            gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
            radii = region.radius * rng.uniform(0.0, 1.0, n) ** (1.0 / self.dim)
            pts = np.asarray(region.center.coords) + gauss * radii[:, None]
            return charts, pts
        raise UnsupportedRegion(f"{type(region).__name__} unsupported on euclidean")

    def distances_from(self, p: Point, charts: np.ndarray, coords: np.ndarray):
        return np.linalg.norm(coords - np.asarray(p.coords), axis=1)

    def _check_box(self, region: BoxRegion) -> None:
        if region.chart != 0 or len(region.lo) != self.dim or len(region.hi) != self.dim:
            raise UnsupportedRegion("box chart/shape does not match the space")
        if any(h < l for l, h in zip(region.lo, region.hi)):
            raise UnsupportedRegion("box has hi < lo")

    def direction_targets(self, x: Point, count: int, seed: int) -> list[Point]:
        base = np.asarray(x.coords)
        out = []
        if self.dim == 2:
            for j in range(count):
                th = 2.0 * math.pi * j / count
                out.append(Point(0, (x.coords[0] + math.cos(th), x.coords[1] + math.sin(th))))
            return out
        rng = substream(seed, "directions")
        vecs = rng.standard_normal((count, self.dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        for v in vecs:
            out.append(Point(0, tuple(base + v)))
        return out


class TreeImpl:
    def __init__(self, vertices: tuple, edges: tuple, root):
        self.vertices = vertices
        self.edges = edges  # (a, b, length)
        self.root = root
        self.handle: SpaceHandle = None  # type: ignore[assignment]
        self._vidx = {v: i for i, v in enumerate(vertices)}
        nv = len(vertices)
        self.incident: list[list[int]] = [[] for _ in range(nv)]
        for e, (a, b, _ln) in enumerate(edges):
            self.incident[self._vidx[a]].append(e)
            self.incident[self._vidx[b]].append(e)
        # rooted structure for lowest-common-ancestor queries
        self.parent = [-1] * nv
        self.parent_edge = [-1] * nv
        self.depth = [0] * nv
        self.droot = [0.0] * nv
        seen = [False] * nv
        ridx = self._vidx[root]
        seen[ridx] = True
        queue = [ridx]
        while queue:
            u = queue.pop()
            for e in self.incident[u]:
                a, b, ln = edges[e]
                w = self._vidx[b] if self._vidx[a] == u else self._vidx[a]
                if not seen[w]:
                    seen[w] = True
                    self.parent[w] = u
                    self.parent_edge[w] = e
                    self.depth[w] = self.depth[u] + 1
                    self.droot[w] = self.droot[u] + ln
                    queue.append(w)
        # edge endpoint and length arrays, and the weighted adjacency for csgraph
        self._ends = np.array(
            [[self._vidx[a], self._vidx[b]] for a, b, _ln in edges], dtype=np.int64
        )
        self._lens = np.array([ln for _a, _b, ln in edges], dtype=float)
        tails, heads = self._ends.T
        self._graph = scipy.sparse.csr_matrix(
            (np.tile(self._lens, 2), (np.r_[tails, heads], np.r_[heads, tails])),
            shape=(nv, nv),
        )

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
        a, b, ln = self.edges[p.chart]
        s = min(ln, max(0.0, float(p.coords[0])))
        if s <= SNAP_TOL:
            return self.vertex_point(a)
        if s >= ln - SNAP_TOL:
            return self.vertex_point(b)
        return Point(p.chart, (s,))

    def vertex_point(self, v) -> Point:
        e = self.incident[self._vidx[v]][0]
        a, _b, ln = self.edges[e]
        return Point(e, (0.0,) if a == v else (ln,))

    def _vertex_of(self, p: Point):
        """Vertex id when p sits at an edge endpoint, else None."""
        a, b, ln = self.edges[p.chart]
        if p.coords[0] <= SNAP_TOL:
            return a
        if p.coords[0] >= ln - SNAP_TOL:
            return b
        return None

    def _lca(self, u: int, v: int) -> int:
        while self.depth[u] > self.depth[v]:
            u = self.parent[u]
        while self.depth[v] > self.depth[u]:
            v = self.parent[v]
        while u != v:
            u = self.parent[u]
            v = self.parent[v]
        return u

    def vertex_distance(self, a, b) -> float:
        u, v = self._vidx[a], self._vidx[b]
        return self.droot[u] + self.droot[v] - 2.0 * self.droot[self._lca(u, v)]

    def _anchors(self, p: Point) -> list[tuple]:
        """(vertex id, offset from p, coordinate of the vertex on p's edge)."""
        a, b, ln = self.edges[p.chart]
        s = p.coords[0]
        return [(a, s, 0.0), (b, ln - s, ln)]

    def distance(self, p: Point, q: Point) -> float:
        if p.chart == q.chart:
            return abs(p.coords[0] - q.coords[0])
        best = math.inf
        for u, off_u, _cu in self._anchors(p):
            for v, off_v, _cv in self._anchors(q):
                tot = off_u + self.vertex_distance(u, v) + off_v
                if tot < best:
                    best = tot
        return best

    def geodesic(self, p: Point, q: Point) -> Geodesic:
        if p.chart == q.chart:
            return geodesic_from_chain(self.handle, [(p.chart, p.coords, q.coords)])
        best = None
        for u, off_u, cu in self._anchors(p):
            for v, off_v, cv in self._anchors(q):
                tot = off_u + self.vertex_distance(u, v) + off_v
                if best is None or tot < best[0]:
                    best = (tot, u, cu, v, cv)
        _tot, u, cu, v, cv = best
        chain = [(p.chart, p.coords, (cu,))]
        chain.extend(self._vertex_chain(u, v))
        chain.append((q.chart, (cv,), q.coords))
        return geodesic_from_chain(self.handle, chain)

    def _vertex_chain(self, u, v) -> list[tuple]:
        """Edge pieces along the unique vertex path u -> v."""
        ui, vi = self._vidx[u], self._vidx[v]
        up, down = [ui], [vi]
        a, b = ui, vi
        while self.depth[a] > self.depth[b]:
            a = self.parent[a]
            up.append(a)
        while self.depth[b] > self.depth[a]:
            b = self.parent[b]
            down.append(b)
        while a != b:
            a = self.parent[a]
            up.append(a)
            b = self.parent[b]
            down.append(b)
        path = up + down[:-1][::-1]
        chain = []
        for w0, w1 in zip(path, path[1:]):
            child = w0 if self.parent[w0] == w1 else w1
            e = self.parent_edge[child]
            ea, _eb, ln = self.edges[e]
            c0 = 0.0 if self.vertices[w0] == ea else ln
            c1 = 0.0 if self.vertices[w1] == ea else ln
            chain.append((e, (c0,), (c1,)))
        return chain

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

    def extend(self, g: Geodesic, delta: float) -> Geodesic:
        if g.length == 0:
            raise NotExtendable("zero-length geodesic has no direction")
        chain = [(q.chart, q.c0, q.c1) for q in g.pieces]
        pc = g.pieces[-1]
        e = pc.chart
        s = pc.c1[0]
        forward = pc.c1[0] > pc.c0[0]
        remaining = delta
        while remaining > 0:
            a, b, ln = self.edges[e]
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
            for e2 in self.incident[self._vidx[v]]:
                if e2 != e:
                    nxt = e2
                    break
            if nxt is None:
                raise NotExtendable(f"leaf vertex {v} admits no continuation")
            e = nxt
            a2, _b2, ln2 = self.edges[e]
            forward = a2 == v
            s = 0.0 if forward else ln2
        return geodesic_from_chain(self.handle, chain)

    def project_segment(self, x: Point, g: Geodesic) -> Point:
        # Gromov-product parameter; exact on trees.
        if g.length == 0:
            return g.start
        da = self.distance(x, g.start)
        db = self.distance(x, g.end)
        t = (da + g.length - db) / (2.0 * g.length)
        return g.eval(min(1.0, max(0.0, t)))

    def induced_edges(self, vertex_set) -> list[int]:
        vs = set(vertex_set)
        unknown = vs - set(self.vertices)
        if unknown:
            raise UnsupportedConvexSet(f"unknown vertices {sorted(unknown)}")
        return [e for e, (a, b, _ln) in enumerate(self.edges) if a in vs and b in vs]

    def _check_subtree(self, vertex_set) -> list[int]:
        vs = list(dict.fromkeys(vertex_set))
        if not vs:
            raise UnsupportedConvexSet("empty vertex set")
        edges = self.induced_edges(vs)
        adj: dict = {v: [] for v in vs}
        for e in edges:
            a, b, _ln = self.edges[e]
            adj[a].append(b)
            adj[b].append(a)
        seen = {vs[0]}
        stack = [vs[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vs):
            raise UnsupportedConvexSet("vertex set does not induce a connected subtree")
        return edges

    def project_subtree(self, x: Point, vertex_set) -> Point:
        edges = self._check_subtree(vertex_set)
        if x.chart in edges:
            return x
        xv = self._vertex_of(x)
        if xv is not None and xv in set(vertex_set):
            return self.vertex_point(xv)
        best = None
        for v in dict.fromkeys(vertex_set):
            d = self.distance(x, self.vertex_point(v))
            if best is None or d < best[0]:
                best = (d, v)
        return self.vertex_point(best[1])

    # Regions.

    def _region_edges(self, region: TreeRegion) -> list[int]:
        return self._check_subtree(region.vertices)

    def region_volume(self, region) -> float:
        if isinstance(region, TreeRegion):
            return sum(self.edges[e][2] for e in self._region_edges(region))
        raise UnsupportedRegion(f"{type(region).__name__} unsupported on trees")

    def region_diameter(self, region) -> float:
        if isinstance(region, TreeRegion):
            self._region_edges(region)
            # double sweep: exact on the connected vertex set of a tree
            vs = list(dict.fromkeys(region.vertices))
            far = max(vs, key=lambda v: self.vertex_distance(vs[0], v))
            return max(self.vertex_distance(far, v) for v in vs)
        raise UnsupportedRegion(f"{type(region).__name__} unsupported on trees")

    def sample_region(self, region, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
        if not isinstance(region, TreeRegion):
            raise UnsupportedRegion(f"{type(region).__name__} unsupported on trees")
        edges = self._region_edges(region)
        if not edges:
            raise UnsupportedRegion("subtree region has zero length")
        lens = np.asarray([self.edges[e][2] for e in edges])
        pick = rng.choice(len(edges), size=n, p=lens / lens.sum())
        charts = np.asarray(edges, dtype=np.int64)[pick]
        offs = rng.uniform(0.0, 1.0, n) * lens[pick]
        return charts, offs[:, None]

    def distances_from(self, p: Point, charts: np.ndarray, coords: np.ndarray):
        a, b, ln = self.edges[p.chart]
        sp = p.coords[0]
        da, db = scipy.sparse.csgraph.dijkstra(
            self._graph, indices=[self._vidx[a], self._vidx[b]]
        )
        # distance from p to each target edge's two endpoints, leaving p via a or b
        ends = self._ends[charts]
        dp = np.minimum(sp + da[ends], (ln - sp) + db[ends])
        s = coords[:, 0]
        base = np.minimum(dp[:, 0] + s, dp[:, 1] + self._lens[charts] - s)
        return np.where(charts == p.chart, np.abs(s - sp), base)

    def direction_targets(self, x: Point, count: int, seed: int) -> list[Point]:
        v = self._vertex_of(x)
        if v is None:
            a, b, _ln = self.edges[x.chart]
            return [self.vertex_point(a), self.vertex_point(b)]
        out = []
        for e in self.incident[self._vidx[v]]:
            a, b, _ln = self.edges[e]
            out.append(self.vertex_point(b if a == v else a))
        return out


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
        if p.chart == q.chart:
            return math.hypot(p.coords[0] - q.coords[0], p.coords[1] - q.coords[1])
        return math.hypot(p.coords[0] + q.coords[0], p.coords[1] - q.coords[1])

    def geodesic(self, p: Point, q: Point) -> Geodesic:
        if p.chart == q.chart:
            return geodesic_from_chain(self.handle, [(p.chart, p.coords, q.coords)])
        u1, v1 = p.coords
        u2, v2 = q.coords
        if u1 <= SNAP_TOL:
            return geodesic_from_chain(self.handle, [(q.chart, (0.0, v1), q.coords)])
        if u2 <= SNAP_TOL:
            return geodesic_from_chain(self.handle, [(p.chart, p.coords, (0.0, v2))])
        # unfold the two pages into one plane; the straight segment crosses u = 0
        vs = v1 + u1 * (v2 - v1) / (u1 + u2)
        return geodesic_from_chain(
            self.handle,
            [(p.chart, p.coords, (0.0, vs)), (q.chart, (0.0, vs), q.coords)],
        )

    def represent_in_chart(self, p: Point, chart: int) -> Optional[tuple]:
        if p.chart == chart:
            return p.coords
        if p.coords[0] <= SNAP_TOL:
            return (0.0, p.coords[1])
        return None

    def extend(self, g: Geodesic, delta: float) -> Geodesic:
        if g.length == 0:
            raise NotExtendable("zero-length geodesic has no direction")
        chain = [(q.chart, q.c0, q.c1) for q in g.pieces]
        pc = g.pieces[-1]
        ln = math.hypot(pc.c1[0] - pc.c0[0], pc.c1[1] - pc.c0[1])
        du = (pc.c1[0] - pc.c0[0]) / ln
        dv = (pc.c1[1] - pc.c0[1]) / ln
        ue, ve = pc.c1
        if du >= 0:
            chain.append((pc.chart, pc.c1, (ue + delta * du, ve + delta * dv)))
            return geodesic_from_chain(self.handle, chain)
        to_spine = ue / (-du)
        if delta <= to_spine:
            chain.append((pc.chart, pc.c1, (ue + delta * du, ve + delta * dv)))
            return geodesic_from_chain(self.handle, chain)
        vs = ve + to_spine * dv
        if to_spine > 0:
            chain.append((pc.chart, pc.c1, (0.0, vs)))
        rest = delta - to_spine
        nxt = 0 if pc.chart != 0 else 1
        chain.append((nxt, (0.0, vs), (rest * (-du), vs + rest * dv)))
        return geodesic_from_chain(self.handle, chain)

    def project_segment(self, x: Point, g: Geodesic) -> Point:
        if g.length == 0:
            return g.start
        best = None
        for pc in g.pieces:
            rep = self.represent_in_chart(x, pc.chart)
            if rep is None:
                # unfold x across the spine into the piece's page
                rep = (-x.coords[0], x.coords[1])
            seg = (pc.c1[0] - pc.c0[0], pc.c1[1] - pc.c0[1])
            sq = seg[0] * seg[0] + seg[1] * seg[1]
            w = ((rep[0] - pc.c0[0]) * seg[0] + (rep[1] - pc.c0[1]) * seg[1]) / sq
            w = min(1.0, max(0.0, w))
            proj = (pc.c0[0] + w * seg[0], pc.c0[1] + w * seg[1])
            dist = math.hypot(rep[0] - proj[0], rep[1] - proj[1])
            if best is None or dist < best[0]:
                best = (dist, self.normalize(Point(pc.chart, proj)))
        return best[1]

    # Regions.

    def region_volume(self, region) -> float:
        if isinstance(region, BoxRegion):
            self._check_box(region)
            return (region.hi[0] - region.lo[0]) * (region.hi[1] - region.lo[1])
        if isinstance(region, BallRegion):
            self._check_ball(region)
            return math.pi * region.radius**2
        raise UnsupportedRegion(f"{type(region).__name__} unsupported on open books")

    def region_diameter(self, region) -> float:
        if isinstance(region, BoxRegion):
            self._check_box(region)
            return math.hypot(region.hi[0] - region.lo[0], region.hi[1] - region.lo[1])
        if isinstance(region, BallRegion):
            self._check_ball(region)
            return 2.0 * region.radius
        raise UnsupportedRegion(f"{type(region).__name__} unsupported on open books")

    def sample_region(self, region, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(region, BoxRegion):
            self._check_box(region)
            charts = np.full(n, region.chart, dtype=np.int64)
            lo = np.asarray(region.lo, dtype=float)
            hi = np.asarray(region.hi, dtype=float)
            return charts, rng.uniform(lo, hi, size=(n, 2))
        if isinstance(region, BallRegion):
            c = self._check_ball(region)
            charts = np.full(n, c.chart, dtype=np.int64)
            th = rng.uniform(0.0, 2.0 * math.pi, n)
            r = region.radius * np.sqrt(rng.uniform(0.0, 1.0, n))
            pts = np.stack(
                [c.coords[0] + r * np.cos(th), c.coords[1] + r * np.sin(th)], axis=1
            )
            return charts, pts
        raise UnsupportedRegion(f"{type(region).__name__} unsupported on open books")

    def distances_from(self, p: Point, charts: np.ndarray, coords: np.ndarray):
        du_same = coords[:, 0] - p.coords[0]
        du_cross = coords[:, 0] + p.coords[0]
        dv = coords[:, 1] - p.coords[1]
        return np.where(
            charts == p.chart, np.hypot(du_same, dv), np.hypot(du_cross, dv)
        )

    def _check_box(self, region: BoxRegion) -> None:
        if not (0 <= region.chart < self.pages):
            raise UnsupportedRegion(f"page {region.chart} out of range")
        if len(region.lo) != 2 or len(region.hi) != 2:
            raise UnsupportedRegion("book boxes are two-dimensional")
        if region.lo[0] < -SNAP_TOL or any(h < l for l, h in zip(region.lo, region.hi)):
            raise UnsupportedRegion("box must sit inside a single page (u >= 0)")

    def _check_ball(self, region: BallRegion) -> Point:
        self.validate_point(region.center)
        c = self.normalize(region.center)
        if c.coords[0] - region.radius < -SNAP_TOL:
            raise UnsupportedRegion("ball must sit inside a single page")
        return c

    def direction_targets(self, x: Point, count: int, seed: int) -> list[Point]:
        u, v = x.coords
        out = []
        if u > SNAP_TOL:
            other = 0 if x.chart != 0 else 1
            for j in range(count):
                th = 2.0 * math.pi * j / count
                ru, rv = u + math.cos(th), v + math.sin(th)
                if ru >= 0:
                    out.append(Point(x.chart, (ru, rv)))
                else:
                    out.append(Point(other, (-ru, rv)))
            return out
        per_page = max(2, count // self.pages)
        for page in range(self.pages):
            for j in range(per_page):
                th = math.pi * (j + 1) / (per_page + 1)
                out.append(Point(page, (math.sin(th), v + math.cos(th))))
        out.append(Point(0, (0.0, v + 1.0)))
        out.append(Point(0, (0.0, v - 1.0)))
        return out


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
        if ln <= 0:
            raise ParamOutOfRange(f"edge ({a}, {b}) has nonpositive length {ln}")
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
    try:
        kind = doc["kind"]
        if kind == "euclidean":
            return build_euclidean(int(doc["dim"]))
        if kind == "tree":
            edges = [(a, b, float(ln)) for a, b, ln in doc["edges"]]
            return build_tree(doc["vertices"], edges, doc.get("root"))
        if kind == "tripod":
            return build_tripod()
        if kind == "star":
            return build_star(int(doc["legs"]), float(doc.get("length", 1.0)))
        if kind == "comb":
            return build_comb(int(doc["depth"]), int(doc["grid"]))
        if kind == "open_book":
            return build_open_book(int(doc["pages"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid("space", f"bad space description: {exc}") from exc
    except (ParamOutOfRange, CapExceeded) as exc:
        raise ConfigInvalid("space", str(exc)) from exc
    raise ConfigInvalid("space.kind", f"unknown space kind {kind!r}")


def point_to_json(p: Point) -> list:
    return [p.chart, *p.coords]


def point_from_json(space: SpaceHandle, doc: Sequence) -> Point:
    if len(doc) < 2:
        raise ConfigInvalid("point", f"need [chart, coords...], got {doc}")
    p = Point(int(doc[0]), tuple(float(c) for c in doc[1:]))
    space.impl.validate_point(p)
    return space.impl.normalize(p)
