"""Derivatives along geodesics and the testers built on them.

The squared-distance cost, one-sided geodesic derivatives extrapolated from
the two finest steps of a halving schedule, twist and first-order minimality
reports, radial projection, and two Monte Carlo shell estimators: the
co-area inequality for regions swept by distance spheres, and positivity of
the sphere-density at probe points. `_twist_gaps` is `twist_test` over many
probes in one vectorized pass, bit for bit; the twist experiment runs it and
checks its least and greatest gap again through `twist_test`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BadEpsilon,
    NotExtendable,
    OriginMismatch,
    ParamOutOfRange,
    ProbeAtCenter,
    param_int,
)
from .geometry import (
    BallRegion,
    EmptyRegion,
    Geodesic,
    Point,
    SpaceHandle,
    _point_rows,
    _row_points,
    distance,
    extend,
    normalize,
    parameter_on,
)
from .rng import substream

# Parameter-step schedule for difference quotients: 1/16 halved ten times.
# The quotients read the two finest steps, 2^-13 and 2^-14; the first step
# sets the scale near an endpoint, where less than 1/16 of room is left.
DEFAULT_STEPS: tuple[float, ...] = tuple(2.0 ** (-4 - k) for k in range(11))
_READ_STEPS = DEFAULT_STEPS[-2:]
DIFF_TOL = 1e-5
GAP_TOL = 1e-6

__all__ = [
    "DEFAULT_STEPS",
    "DerivativeEstimate",
    "TwistReport",
    "FermatReport",
    "cost",
    "cost_derivative_closed",
    "geodesic_derivative",
    "direction_set",
    "twist_test",
    "fermat_check",
    "radial_projection",
    "eilenberg_estimate",
    "zeta_positivity",
]


@dataclass(frozen=True)
class DerivativeEstimate:
    """One-sided derivatives of f along a geodesic, in curve-parameter units."""

    value: float
    one_sided_plus: float
    one_sided_minus: float
    step: float
    differentiable: bool


@dataclass(frozen=True)
class TwistReport:
    distinguishing_geodesic: Optional[Geodesic]
    max_gap: float
    twist_holds: bool


@dataclass(frozen=True)
class FermatReport:
    min_directional: float
    two_sided_zero: bool


def cost(space: SpaceHandle, x: Point, y: Point) -> float:
    """Half squared distance."""
    d = distance(space, x, y)
    return 0.5 * d * d


def _cost_to(space: SpaceHandle, y: Point) -> Callable[[Point], float]:
    """z -> cost(space, z, y) for a normal y, on normal z (not validated again)."""
    dist = space.impl.distance

    def f(z: Point) -> float:
        d = dist(z, y)
        return 0.5 * d * d

    return f


def cost_derivative_closed(g: Geodesic, t: float, s: float) -> float:
    """d/dt of cost(g(t), g(s)) along g: (t - s) * length(g)^2."""
    if not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0):
        raise ParamOutOfRange(f"parameters ({t}, {s}) outside [0, 1]")
    return (t - s) * g.length * g.length


def _extrapolated(fvals: Sequence, f0, hs: Sequence[float], sign: float):
    """The refined one-sided difference quotient from f at the two step points
    (one value per step h in hs, the coarser first) and f0 at the base point.
    Works alike on floats and on numpy rows, with the same bits."""
    q1, q2 = ((f - f0) / (sign * h) for f, h in zip(fvals, hs))
    # two-point extrapolation in h, exact for quadratic f along g
    h1, h2 = hs
    return (h1 * q2 - h2 * q1) / (h1 - h2)


def _one_sided(
    fs: Sequence[Callable[[Point], float]],
    g: Geodesic,
    s: float,
    f0s: Sequence[float],
    sign: float,
) -> list[tuple[float, float]]:
    """Refined difference quotient on one side for each f, from one evaluation
    of each of the two step points it reads; (nan, nan) when there is no
    room."""
    room = (1.0 - s) if sign > 0 else s
    if room <= 1e-15:
        return [(math.nan, math.nan)] * len(fs)
    scale = min(1.0, room / DEFAULT_STEPS[0])
    hs = [h * scale for h in _READ_STEPS]
    pts = [g.eval(s + sign * h) for h in hs]
    return [(_extrapolated([f(pt) for pt in pts], f0, hs, sign), hs[-1]) for f, f0 in zip(fs, f0s)]


def _derivatives(
    space: SpaceHandle,
    fs: Sequence[Callable[[Point], float]],
    x: Point,
    g: Geodesic,
) -> list[DerivativeEstimate]:
    """geodesic_derivative of each f in fs, evaluating each point of g once."""
    s = parameter_on(space, g, x)
    p0 = g.eval(s)
    f0s = [f(p0) for f in fs]
    plus = _one_sided(fs, g, s, f0s, +1.0)
    minus = _one_sided(fs, g, s, f0s, -1.0)
    out = []
    for (d_plus, h_plus), (d_minus, h_minus) in zip(plus, minus):
        have_plus = not math.isnan(d_plus)
        have_minus = not math.isnan(d_minus)
        if have_plus and have_minus:
            diff = abs(d_plus - d_minus) < DIFF_TOL * (1.0 + abs(d_plus) + abs(d_minus))
            value = 0.5 * (d_plus + d_minus)
            step = min(h_plus, h_minus)
        elif have_plus:
            diff, value, step = False, d_plus, h_plus
        elif have_minus:
            diff, value, step = False, d_minus, h_minus
        else:
            raise ParamOutOfRange("degenerate geodesic leaves no room for any quotient")
        out.append(DerivativeEstimate(value, d_plus, d_minus, step, diff))
    return out


def geodesic_derivative(
    space: SpaceHandle,
    f: Callable[[Point], float],
    x: Point,
    g: Geodesic,
) -> DerivativeEstimate:
    """Derivative of f along g at x, with respect to the parameter on [0, 1].

    x must lie on g (within `PT_TOL` = 1e-9). Each side extrapolates from the
    two finest `DEFAULT_STEPS`, scaled down where less than the first step of
    room is left, and the two sides must agree within `DIFF_TOL` = 1e-5
    (relative) for f to count as differentiable. At the endpoints only the inward one-sided quotient
    exists; the missing side is reported as nan and the estimate is flagged
    non-differentiable.
    """
    return _derivatives(space, (f,), x, g)[0]


def direction_set(
    space: SpaceHandle,
    x: Point,
    targets: Sequence[Point] = (),
    count: int = 64,
    seed: int = 0,
) -> list[Geodesic]:
    """Geodesics issuing from x that exhaust the local directions.

    Equiangular unit targets on flat pieces (plus the explicit targets);
    on trees one direction per incident edge, which is already exhaustive.
    """
    xn = normalize(space, x)
    impl = space.impl
    # the space's own targets are normal by construction; the caller's are checked
    tgts = _row_points(*impl.direction_rows(xn, count, seed))
    if space.kind != "tree":
        tgts += [normalize(space, tgt) for tgt in targets]
    return [impl.geodesic(xn, tgt) for tgt in tgts if impl.distance(xn, tgt) > 1e-12]


def _check_origins(space: SpaceHandle, x: Point, directions: Sequence[Geodesic]) -> None:
    for g in directions:
        if space.impl.distance(g.start, x) > 1e-9:
            raise OriginMismatch("direction does not issue from the base point")


def twist_test(
    space: SpaceHandle,
    x: Point,
    y1: Point,
    y2: Point,
    directions: Sequence[Geodesic],
) -> TwistReport:
    """Can first-order cost data at x tell y1 and y2 apart along some direction?
    Yes when the two cost derivatives differ by more than `GAP_TOL` = 1e-6."""
    xn = normalize(space, x)
    _check_origins(space, xn, directions)
    f1 = _cost_to(space, normalize(space, y1))
    f2 = _cost_to(space, normalize(space, y2))
    max_gap = 0.0
    witness: Optional[Geodesic] = None
    for g in directions:
        if g.length == 0:
            continue
        e1, e2 = _derivatives(space, (f1, f2), xn, g)
        gap = abs(e1.value - e2.value)
        if gap > max_gap:
            max_gap = gap
            witness = g
    holds = max_gap > GAP_TOL
    return TwistReport(witness if holds else None, max_gap, holds)


# step points per vectorized pass of `_twist_gaps`: a tree geodesic's sections
# take a row of its path's length, and this bounds the arrays they fill
TWIST_CHUNK = 8192


def _twist_gaps(
    space: SpaceHandle, probes: Sequence[tuple[Point, Point, Point]], count: int, seed: int
) -> np.ndarray:
    """For each probe (x, y1, y2), the `max_gap` of
    `twist_test(space, x, y1, y2, direction_set(space, x, [y1, y2], count, seed))`,
    bit for bit, from one vectorized pass over every probe's directions.

    A direction is the row (x, target) for each target `direction_set` keeps,
    and the derivative along it is taken at s = 0.0. That is the parameter
    `_derivatives` finds: `impl.geodesic` starts its first piece, over
    [t0, t1] with t0 = 0.0, at x's own coordinates c0 in that piece's chart,
    so every term (x - c0) * (c1 - c0) of x's projection weight is zero, the
    weight is 0.0, and `parameter_on` returns t0 + 0.0 * (t1 - t0) = 0.0, the
    least parameter any piece can give. At s = 0.0 the backward side has no
    room, and the derivative is the forward quotient. The rows go through
    `impl.geodesic_points` at t = 0 and at the two steps the quotient reads,
    and the costs to y1 and y2 through `impl.distances_between`,
    `TWIST_CHUNK` step points at a time; the quotients share `_extrapolated`
    with the scalar path.
    """
    impl = space.impl
    ends, targets = [], []
    for probe in probes:
        xn, y1n, y2n = (normalize(space, p) for p in probe)
        charts, coords = impl.direction_rows(xn, count, seed)
        if space.kind != "tree":  # direction_set's checked targets
            charts, coords = map(np.concatenate, zip((charts, coords), _point_rows([y1n, y2n])))
        ends.append((xn, y1n, y2n))
        targets.append((charts, coords))
    sizes = [len(charts) for charts, _coords in targets]
    trial = np.repeat(np.arange(len(probes)), sizes)
    tgt = tuple(np.concatenate(rows) for rows in zip(*targets))
    # each probe's x, y1 and y2, repeated over its targets
    x, y1, y2 = (tuple(np.repeat(a, sizes, axis=0) for a in _point_rows(pts)) for pts in zip(*ends))
    between = impl.distances_between
    # direction_set drops the targets at x
    keep = between(*x, *tgt) > 1e-12
    # at s = 0.0 the forward side has room 1.0, which scales no step
    s, hs = 0.0, _READ_STEPS
    t = np.array([s] + [s + h for h in hs])
    k = len(t)
    gaps = np.zeros(len(probes))
    chunk = max(1, TWIST_CHUNK // k)
    for a in range(0, len(trial), chunk):
        part = slice(a, a + chunk)
        (xc, xx), (tc, tx) = ((c[part], v[part]) for c, v in (x, tgt))
        n = len(xc)
        length, charts, coords = impl.geodesic_points(xc, xx, tc, tx, np.tile(t, (n, 1)))
        charts, coords = charts.ravel(), coords.reshape(n * k, -1)
        values = []
        for yc, yx in (y1, y2):
            # the cost to y at every point, as `_cost_to` gives it
            d = between(charts, coords, np.repeat(yc[part], k), np.repeat(yx[part], k, axis=0))
            # past the float range, inf and nan as the float arithmetic gives them
            with np.errstate(over="ignore", invalid="ignore"):
                f = (0.5 * d * d).reshape(n, k)
                values.append(_extrapolated(f[:, 1:].T, f[:, 0], hs, 1.0))
        # twist_test skips directions of length zero, and a nan derivative
        # fails as it does in `_derivatives`
        live = keep[part] & (length != 0)
        if np.isnan(np.stack(values)[:, live]).any():
            raise ParamOutOfRange("degenerate geodesic leaves no room for any quotient")
        # a running maximum from 0.0 that a nan gap never raises
        np.fmax.at(gaps, trial[part][live], np.abs(values[0] - values[1])[live])
    return gaps


def fermat_check(
    space: SpaceHandle,
    f: Callable[[Point], float],
    x_star: Point,
    directions: Sequence[Geodesic],
) -> FermatReport:
    """First-order minimality at x_star: directional derivatives over the sample.

    two_sided_zero asks both derivatives to be within `DIFF_TOL` = 1e-5 of 0.
    It quantifies only over directions that extend through x_star;
    at points with no continuation (tree leaves) it is vacuously true.
    """
    xn = normalize(space, x_star)
    _check_origins(space, xn, directions)
    min_dir = math.inf
    two_sided = True
    seen = False
    for g in directions:
        if g.length == 0:
            continue
        seen = True
        d_fwd = geodesic_derivative(space, f, xn, g).value
        min_dir = min(min_dir, d_fwd)
        try:
            ext = extend(space, g.reverse(), g.length)
        except NotExtendable:
            continue
        opp = space.impl.geodesic(xn, ext.end)
        d_opp = geodesic_derivative(space, f, xn, opp).value
        if abs(d_fwd) > DIFF_TOL or abs(d_opp) > DIFF_TOL:
            two_sided = False
    if not seen:
        raise ParamOutOfRange("no non-degenerate directions supplied")
    return FermatReport(min_dir, two_sided)


def radial_projection(space: SpaceHandle, g: Geodesic, x: Point) -> Point:
    """Point of g at arc length min(d(g(0), x), length(g)) from its start."""
    d0 = distance(space, g.start, x)
    return g.at_arc(min(d0, g.length))


def _batch_sigma(values: np.ndarray) -> float:
    """Standard error of the mean from 20 batch means (plain below 40 values)."""
    batches = 20
    n = values.size
    if n < 2 * batches:
        return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    m = n // batches
    means = values[: m * batches].reshape(batches, m).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def eilenberg_estimate(
    space: SpaceHandle,
    g: Geodesic,
    region,
    n_samples: int,
    eps: Optional[float] = None,
    seed: int = 0,
) -> tuple[float, float, bool]:
    """Shell estimate of the sphere-swept mass of a region against its volume.

    lhs integrates, over radii r in [0, length(g)], the co-dimension-one mass
    of the distance sphere about g(0) inside the region; each sphere slice is
    read off as (shell volume)/(2 eps). Collapsing the radius integral gives a
    single Monte Carlo average of vol * overlap/(2 eps), where overlap is the
    radial overlap of (d - eps, d + eps) with [0, length(g)]. rhs is the region
    volume, and holds checks lhs <= rhs within three standard errors.
    """
    lhs, vol, _sigma, holds = _shell_estimate(space, g, region, n_samples, eps, seed)
    return lhs, vol, holds


def _shell_estimate(
    space: SpaceHandle,
    g: Geodesic,
    region,
    n_samples: int,
    eps: Optional[float],
    seed: int,
) -> tuple[float, float, float, bool]:
    """eilenberg_estimate plus the Monte Carlo standard error of the lhs."""
    if param_int(n_samples, "n_samples") < 1:
        raise ParamOutOfRange(f"n_samples must be at least 1, got {n_samples}")
    if isinstance(region, EmptyRegion):
        return 0.0, 0.0, 0.0, True
    vol, diam, sample = space.impl.region(region)
    if vol <= 0:
        return 0.0, 0.0, 0.0, True
    if eps is None:
        eps = diam / 200.0
    if not 0 < eps <= diam / 10.0:  # a nan eps fails too
        raise BadEpsilon(f"eps = {eps} outside (0, diam/10 = {diam / 10.0}]")
    rng = substream(seed, "eilenberg")
    charts, coords = sample(int(n_samples), rng)
    d = space.impl.distances_from(normalize(space, g.start), charts, coords)
    overlap = np.clip(np.minimum(g.length, d + eps) - np.maximum(0.0, d - eps), 0.0, None)
    est = vol * overlap / (2.0 * eps)
    lhs = float(est.mean())
    sigma = _batch_sigma(est)
    # the bound is attained with equality when the region sits inside the
    # annulus of radii [eps, length - eps]; there every overlap is exactly
    # 2 eps analytically, sigma vanishes, and the verdict must survive the
    # rounding of the same-scale subtraction above
    round_err = (
        8.0 * vol * np.finfo(float).eps * (float(d.max(initial=0.0)) + eps + g.length) / (2.0 * eps)
    )
    return lhs, vol, sigma, bool(lhs <= vol + 3.0 * sigma + round_err)


def zeta_positivity(
    space: SpaceHandle,
    x: Point,
    g: Geodesic,
    probe_points: Sequence[Point],
    eps: Optional[float] = None,
    n_samples: int = 100_000,
    seed: int = 0,
) -> dict:
    """Positivity of the sphere density about x at each probe point.

    Around a probe at radius r, the density is estimated as the shell volume
    {|d(x, .) - r| < eps} inside the ball B(probe, 5 eps), normalized by
    2 eps times the flat cross-section 2 * 5 eps; in flat pieces the estimate
    is 1. positive requires every probe to clear zero by three standard errors.
    """
    if param_int(n_samples, "n_samples") < 1:
        raise ParamOutOfRange(f"n_samples must be at least 1, got {n_samples}")
    xn = normalize(space, x)
    if space.impl.distance(g.start, xn) > 1e-9:
        raise OriginMismatch("the reference geodesic does not issue from x")
    if not probe_points:
        raise ParamOutOfRange("need at least one probe point")
    if eps is None:
        eps = g.length / 200.0
    if eps <= 0 or not math.isfinite(eps):
        raise BadEpsilon(f"eps = {eps} must be positive")
    radius = 5.0 * eps
    min_density = math.inf
    min_margin = math.inf
    for i, probe in enumerate(probe_points):
        pn = normalize(space, probe)
        r = space.impl.distance(xn, pn)
        if r <= 1e-9:
            raise ProbeAtCenter(f"probe {i} coincides with x")
        vol, _diam, sample = space.impl.region(BallRegion(pn, radius))
        rng = substream(seed, f"zeta:{i}")
        charts, coords = sample(int(n_samples), rng)
        d = space.impl.distances_from(xn, charts, coords)
        ind = (np.abs(d - r) < eps).astype(float)
        est = vol * ind / (2.0 * eps * 2.0 * radius)
        dens = float(est.mean())
        sigma = _batch_sigma(est)
        min_density = min(min_density, dens)
        min_margin = min(min_margin, dens - 3.0 * sigma)
    return {"min_density": min_density, "positive": bool(min_margin > 0.0)}
