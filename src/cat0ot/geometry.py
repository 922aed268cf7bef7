"""Space-agnostic comparison geometry.

Points, geodesics, comparison and upper angles, the nonpositive-curvature
defect, projection onto convex sets, and geodesic extension. The concrete
space families live in `spaces`; every handle built there carries an
implementation object that this module dispatches to.

The contract between the two: every public function here validates and
normalizes each point argument exactly once, and the `space.impl` methods
take points that are already normal (validated, then passed through
`impl.normalize`) and never check them again. Points that come out of
`impl.normalize`, `Geodesic.eval` and the library's geodesics are normal, so
code holding them calls `space.impl` directly. A geodesic starts and ends at
the normal points its builder already holds: `impl.geodesic(p, q)` hands p and
q to `geodesic_from_chain`, and `extend` hands over its geodesic's start and
its normalized new end; the assembly takes them as given.

The impl supplies only what differs between families. Every family's impl
defines `impl.validate_point`, `impl.normalize`, `impl.distance`,
`impl.geodesic`, `impl.represent_in_chart`, `impl.continuation` (the
sections past a geodesic's end that `extend` assembles),
`impl.project_segment` (given only geodesics of positive length),
`impl.region` (every check on a region, then its volume, its diameter and a
sampler `sample(n, rng) -> (charts, coords)`), `impl.distances_from`,
`impl.distances_between`, `impl.geodesic_points` and
`impl.direction_rows`; trees add `impl.vertex_point` and
`impl.project_subtree`. One array distance per family, chart lengths through
`section_length`: `impl.distances_from(p, charts, coords)` answers as the
pair kernel `impl.distances_between` on p repeated, bit for bit. The flat
families compute it that way; a tree evaluates its route once per distinct
edge of the rows, and once per vertex for rows at a vertex, and gathers.
A tree's scalar and pair forms read one set of preorder tables: its scalar
`_route` gives the row `_pair_routes` gives for the same pair, with the
route's vertices as preorder positions. The two pair methods take rows of
normal points P_i and Q_i as (charts, coords) arrays, and answer bit for bit
as the scalar calls do: row i of `impl.distances_between(charts_p, coords_p,
charts_q, coords_q)` is `impl.distance(P_i, Q_i)`, and
`impl.geodesic_points(charts_p, coords_p, charts_q, coords_q, t)` gives, for
parameters t [n, k] in [0, 1], (lengths [n], charts [n, k], coords [n, k, d]):
the length of `impl.geodesic(P_i, Q_i)` and its points `eval(t[i, j])`.
`impl.direction_rows(x, count, seed)` gives the targets that `direction_set`
aims at from the normal point x, as rows (charts, coords) of normal points:
unit steps from x on flat pieces, equiangular in the plane and on a book,
drawn from `substream(seed, "directions")` in other dimensions, and on a
tree the far end of each edge at x.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from operator import add, attrgetter, sub
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateTriangle,
    NotATriangle,
    NotExtendable,
    OriginMismatch,
    ParamOutOfRange,
    PointNotOnGeodesic,
    UnsupportedConvexSet,
)

PT_TOL = 1e-9

__all__ = [
    "Point",
    "point",
    "Piece",
    "Geodesic",
    "AngleEstimate",
    "SpaceHandle",
    "Segment",
    "Ball",
    "Subtree",
    "BoxRegion",
    "BallRegion",
    "TreeRegion",
    "EmptyRegion",
    "distance",
    "geodesic",
    "convex_combination",
    "comparison_angle",
    "comparison_angle_sequence",
    "alexandrov_angle",
    "cat0_defect",
    "project_convex",
    "extend",
    "parameter_on",
    "geodesic_from_chain",
    "normalize",
    "points_equal",
]


@dataclass(frozen=True, slots=True)
class Point:
    """A point in one chart of a space.

    `chart` is the page id (open book), edge index (tree), or 0 (Euclidean);
    `coords` are the chart coordinates: the full coordinate vector in
    Euclidean space, (u, v) with u >= 0 on a page, or the arc-length offset
    (s,) along a tree edge.
    """

    chart: int
    coords: tuple[float, ...]


def point(chart: int, *coords: float) -> Point:
    return Point(int(chart), tuple(float(c) for c in coords))


def _row_points(charts, coords) -> list[Point]:
    """Points from numpy rows: chart i and the coordinates in row i of coords."""
    return [Point(c, tuple(x)) for c, x in zip(charts.tolist(), coords.tolist())]


def _point_rows(points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
    """Numpy rows of points, as `_row_points` reads them: chart i, coordinates in row i."""
    charts = np.asarray([p.chart for p in points], dtype=np.int64)
    return charts, np.asarray([p.coords for p in points], dtype=float)


class Piece(NamedTuple):
    """One straight-in-chart section of a geodesic, spanning [t0, t1].

    Tuple-backed, so it is immutable and hashable, and it equals a plain tuple
    with the same five fields in the same order.
    """

    t0: float
    t1: float
    chart: int
    c0: tuple[float, ...]
    c1: tuple[float, ...]


_END_PARAM = attrgetter("t1")


@dataclass(frozen=True)
class SpaceHandle:
    """A concrete geodesic space: family tag, declared dimension, build data."""

    kind: str
    dim: int
    params: object
    impl: object = field(repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Geodesic:
    """A constant-speed curve on [0, 1] between two points.

    `pieces` are its straight-in-chart sections in increasing parameter
    order; each ends where the next begins, at a chart transition (spine
    crossing, tree vertex).
    """

    space: SpaceHandle
    start: Point
    end: Point
    length: float
    pieces: tuple[Piece, ...]

    @property
    def breakpoints(self) -> tuple[tuple[float, Point], ...]:
        """The interior chart transitions as (parameter, normal point) pairs,
        in increasing parameter order: the end of every piece but the last."""
        normal = self.space.impl.normalize
        return tuple((pc.t1, normal(Point(pc.chart, pc.c1))) for pc in self.pieces[:-1])

    def eval(self, t: float) -> Point:
        if not (-1e-12 <= t <= 1 + 1e-12):
            raise ParamOutOfRange(f"geodesic parameter {t} outside [0, 1]")
        if t <= 0:
            return self.start
        if t >= 1:
            return self.end
        # the first piece with t <= t1 (the t1 values rise along the curve)
        k = bisect_left(self.pieces, t, key=_END_PARAM)
        if k == len(self.pieces):
            return self.end
        pc = self.pieces[k]
        w = (t - pc.t0) / (pc.t1 - pc.t0)
        coords = tuple([a + w * (b - a) for a, b in zip(pc.c0, pc.c1)])
        return self.space.impl.normalize(Point(pc.chart, coords))

    def at_arc(self, s: float) -> Point:
        """Point at arc length s from the start."""
        if self.length == 0:
            return self.start
        return self.eval(s / self.length)

    def reverse(self) -> "Geodesic":
        rev = tuple(
            Piece(1 - pc.t1, 1 - pc.t0, pc.chart, pc.c1, pc.c0)
            for pc in reversed(self.pieces)
        )
        return Geodesic(self.space, self.end, self.start, self.length, rev)


@dataclass(frozen=True)
class AngleEstimate:
    """Upper angle estimate with its monotone bracket from the halving schedule."""

    value: float
    bracket_low: float
    bracket_high: float
    converged: bool


# Convex-set descriptors accepted by project_convex.


@dataclass(frozen=True)
class Segment:
    geodesic: Geodesic


@dataclass(frozen=True)
class Ball:
    center: Point
    radius: float


@dataclass(frozen=True)
class Subtree:
    """Tree-only: the subtree induced by a connected set of vertex ids."""

    vertices: tuple


# Region descriptors for the measure-theoretic estimators in `calculus`.


@dataclass(frozen=True)
class BoxRegion:
    """Axis box in one chart (Euclidean chart 0 or a single book page)."""

    chart: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]


@dataclass(frozen=True)
class BallRegion:
    center: Point
    radius: float


@dataclass(frozen=True)
class TreeRegion:
    """Tree-only: the induced subtree of a connected vertex set."""

    vertices: tuple


@dataclass(frozen=True)
class EmptyRegion:
    pass


def normalize(space: SpaceHandle, p: Point) -> Point:
    """Canonical representative: boundary points land in the lowest chart."""
    impl = space.impl
    impl.validate_point(p)
    return impl.normalize(p)


def points_equal(space: SpaceHandle, p: Point, q: Point) -> bool:
    """Whether d(p, q) is within `PT_TOL` = 1e-9."""
    return distance(space, p, q) <= PT_TOL


def distance(space: SpaceHandle, p: Point, q: Point) -> float:
    return space.impl.distance(normalize(space, p), normalize(space, q))


def geodesic(space: SpaceHandle, p: Point, q: Point) -> Geodesic:
    return space.impl.geodesic(normalize(space, p), normalize(space, q))


def convex_combination(space: SpaceHandle, p: Point, q: Point, t: float) -> Point:
    """The point x_t on [p, q] with d(p, x_t) = t d(p, q)."""
    if not (0.0 <= t <= 1.0):
        raise ParamOutOfRange(f"combination parameter {t} outside [0, 1]")
    return space.impl.geodesic(normalize(space, p), normalize(space, q)).eval(t)


def comparison_angle(a: float, b: float, c: float) -> float:
    """Euclidean angle between sides a and b opposite side c, clamped to [0, pi]."""
    if a <= 0 or b <= 0:
        raise DegenerateTriangle(f"zero side in comparison triangle (a={a}, b={b})")
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise NotATriangle(f"sides ({a}, {b}, {c}) are not all finite")
    if c < -1e-12:
        raise NotATriangle(f"negative side c={c}")
    c = max(c, 0.0)
    slack = 1e-12
    if c > a + b + slack or c < abs(a - b) - slack:
        raise NotATriangle(f"sides ({a}, {b}, {c}) violate the triangle inequality")
    cos_val = (a * a + b * b - c * c) / (2.0 * a * b)
    return math.acos(min(1.0, max(-1.0, cos_val)))


def _default_angle_schedule(lg: float, lh: float) -> list[float]:
    s0 = min(lg, lh) / 4.0
    return [s0 * 2.0 ** (-k) for k in range(13)]


def alexandrov_angle(space: SpaceHandle, g: Geodesic, h: Geodesic) -> AngleEstimate:
    """Upper angle between two geodesics issuing from a common point.

    Comparison angles are taken along `_default_angle_schedule`: a quarter of
    the shorter length, halved twelve times. They are non-increasing in
    nonpositive curvature, so the value at the smallest scale is a certified
    upper bound on the limit and [last, first] brackets the whole sequence.
    The estimate is converged when its last two angles differ by less than
    1e-7. The start points must agree within `PT_TOL` = 1e-9.
    """
    if distance(space, g.start, h.start) > PT_TOL:
        raise OriginMismatch("geodesics do not share a start point")
    if g.length <= 0 or h.length <= 0:
        raise ParamOutOfRange("angle needs two non-degenerate geodesics")
    angles = comparison_angle_sequence(
        space, g, h, _default_angle_schedule(g.length, h.length)
    )
    converged = abs(angles[-1] - angles[-2]) < 1e-7
    low = min(angles[-1], angles[0])
    high = max(angles[-1], angles[0])
    return AngleEstimate(angles[-1], low, high, converged)


def comparison_angle_sequence(
    space: SpaceHandle, g: Geodesic, h: Geodesic, schedule: Sequence[float]
) -> list[float]:
    """Comparison angles along an explicit arc-length schedule (for monotonicity checks)."""
    cap = min(g.length, h.length)
    out = []
    for s in schedule:
        s = min(float(s), cap)
        out.append(comparison_angle(s, s, space.impl.distance(g.at_arc(s), h.at_arc(s))))
    return out


def cat0_defect(space: SpaceHandle, x: Point, y: Point, z: Point, t: float) -> float:
    """Slack in the quadratic nonpositive-curvature inequality at x_t.

    Returns (1-t) d(x,z)^2 + t d(y,z)^2 - t(1-t) d(x,y)^2 - d(x_t,z)^2, which
    is nonnegative in every space built here and identically zero in
    Euclidean space.
    """
    if not (0.0 <= t <= 1.0):
        raise ParamOutOfRange(f"parameter {t} outside [0, 1]")
    impl = space.impl
    x, y, z = normalize(space, x), normalize(space, y), normalize(space, z)
    xt = impl.geodesic(x, y).eval(t)
    dxz = impl.distance(x, z)
    dyz = impl.distance(y, z)
    dxy = impl.distance(x, y)
    dxtz = impl.distance(xt, z)
    return (1 - t) * dxz * dxz + t * dyz * dyz - t * (1 - t) * dxy * dxy - dxtz * dxtz


def project_convex(space: SpaceHandle, x: Point, cset) -> Point:
    """Nearest-point projection onto a segment, closed ball, or subtree."""
    xn = normalize(space, x)
    if isinstance(cset, Ball):
        if cset.radius < 0:
            raise UnsupportedConvexSet("ball radius must be nonnegative")
        center = normalize(space, cset.center)
        d0 = space.impl.distance(xn, center)
        if d0 <= cset.radius:
            return xn
        # the entry point of [center, x] into the sphere
        return space.impl.geodesic(center, xn).eval(cset.radius / d0)
    if isinstance(cset, Segment):
        g = cset.geodesic
        if g.length == 0:
            return g.start
        return space.impl.project_segment(xn, g)
    if isinstance(cset, Subtree):
        proj = getattr(space.impl, "project_subtree", None)
        if proj is None:
            raise UnsupportedConvexSet(f"subtree projection unsupported on {space.kind}")
        return proj(xn, cset.vertices)
    raise UnsupportedConvexSet(f"unsupported convex-set descriptor {type(cset).__name__}")


def extend(space: SpaceHandle, g: Geodesic, delta: float) -> Geodesic:
    """Prolong g beyond its endpoint by arc length delta, keeping constant speed.

    At branch points (book spine, tree vertices) the continuation enters the
    admissible chart with the lowest identifier. Raises ParamOutOfRange unless
    delta is positive and finite, and NotExtendable when g has no direction or
    its endpoint admits no continuation.
    """
    if not 0 < delta < math.inf:
        raise ParamOutOfRange(f"extension length {delta} must be positive and finite")
    if g.length == 0:
        raise NotExtendable("zero-length geodesic has no direction")
    impl = space.impl
    more = impl.continuation(g.pieces[-1], delta)
    chart, _c0, c1 = more[-1]
    chain = [(pc.chart, pc.c0, pc.c1) for pc in g.pieces] + more
    return geodesic_from_chain(space, chain, g.start, impl.normalize(Point(chart, c1)))


def parameter_on(space: SpaceHandle, g: Geodesic, x: Point) -> float:
    """Curve parameter of a point lying on g within `PT_TOL` = 1e-9 (smallest
    match wins)."""
    xn = normalize(space, x)
    if g.length == 0:
        if space.impl.distance(xn, g.start) <= PT_TOL:
            return 0.0
        raise PointNotOnGeodesic("point is not on the (degenerate) geodesic")
    best = None
    for pc in g.pieces:
        coords = space.impl.represent_in_chart(xn, pc.chart)
        if coords is None:
            continue
        w, proj = segment_projection(coords, pc.c0, pc.c1)
        if section_length(proj, coords) <= PT_TOL:
            t = pc.t0 + w * (pc.t1 - pc.t0)
            if best is None or t < best:
                best = t
    if best is None:
        raise PointNotOnGeodesic("point is not on the geodesic (within 1e-9)")
    return best


def segment_projection(coords: Sequence, c0: Sequence, c1: Sequence) -> tuple[float, list]:
    """(w, proj): the nearest point proj = c0 + w (c1 - c0) of the chart segment
    [c0, c1] to coords, with w clamped to [0, 1] (0 on a segment of length 0)."""
    seg = [b - a for a, b in zip(c0, c1)]
    sq = reduce(add, [v * v for v in seg], 0.0)
    if sq == 0:
        w = 0.0
    else:
        w = reduce(add, [(c - a) * v for c, a, v in zip(coords, c0, seg)], 0.0) / sq
        w = min(1.0, max(0.0, w))
    return w, [a + w * v for a, v in zip(c0, seg)]


def section_length(c0: Sequence, c1: Sequence) -> float:
    """Length of a straight-in-chart section: the square root of d * d, for
    d = c1 - c0, folded left in coordinate order, on the coordinates as given."""
    return math.sqrt(reduce(add, [d * d for d in map(sub, c1, c0)], 0.0))


def geodesic_from_chain(
    space: SpaceHandle, chain: Sequence[tuple], start: Point, end: Point
) -> Geodesic:
    """Assemble the Geodesic from `start` to `end` out of consecutive
    straight-in-chart sections.

    A section is (chart, c0, c1). Zero-length sections are dropped and
    collinear ones in the same chart merged; the surviving junctions are the
    geodesic's breakpoints. The chain is trusted to be a geodesic of the
    space, and `start` and `end` to be the normal points where it begins and
    ends; a chain of length zero gives the constant curve at `start`. The
    total length folds the section lengths left, in chain order.
    """
    segs: list[tuple[int, tuple, tuple, float]] = []
    for chart, c0, c1 in chain:
        ln = section_length(c0, c1)
        chart = int(chart)
        c0 = tuple(map(float, c0))
        c1 = tuple(map(float, c1))
        if ln == 0:
            continue
        if segs and segs[-1][0] == chart and segs[-1][2] == c0:
            # same chart, continuing where the last section ended: merge if collinear
            _pch, pc0, pc1, pln = segs[-1]
            if all(
                abs((b - a) / pln - (d - c) / ln) <= 1e-12
                for a, b, c, d in zip(pc0, pc1, c0, c1)
            ):
                segs[-1] = (chart, pc0, c1, pln + ln)
                continue
        segs.append((chart, c0, c1, ln))
    if not segs:
        pc = Piece(0.0, 1.0, start.chart, start.coords, start.coords)
        return Geodesic(space, start, start, 0.0, (pc,))
    total = reduce(add, [s[3] for s in segs], 0.0)
    pieces = []
    acc = 0.0
    for chart, c0, c1, ln in segs[:-1]:
        t0 = acc / total
        acc += ln
        pieces.append(Piece(t0, acc / total, chart, c0, c1))
    chart, c0, c1, _ln = segs[-1]
    pieces.append(Piece(acc / total, 1.0, chart, c0, c1))
    return Geodesic(space, start, end, total, tuple(pieces))
