from __future__ import annotations

import math

import numpy as np
import pytest

from cat0ot import (
    BadEpsilon,
    BoxRegion,
    EmptyRegion,
    Geodesic,
    OriginMismatch,
    ParamOutOfRange,
    Point,
    ProbeAtCenter,
    TreeRegion,
    cost,
    cost_derivative_closed,
    direction_set,
    distance,
    eilenberg_estimate,
    fermat_check,
    geodesic,
    geodesic_derivative,
    radial_projection,
    twist_test,
    zeta_positivity,
)
from cat0ot.calculus import _twist_gaps
from cat0ot.geometry import _row_points, normalize, parameter_on
from cat0ot.harness import sample_points
from cat0ot.rng import substream

from _oracles import direction_targets_by_family, one_sided_by_every_step


# ---------------------------------------------------------------------------
# cost and closed-form derivatives


def test_cost_values(e2, tripod):
    assert cost(e2, Point(0, (0.0, 0.0)), Point(0, (3.0, 4.0))) == pytest.approx(12.5, abs=1e-12)
    a, b = Point(0, (0.4,)), Point(1, (0.7,))
    assert cost(tripod, a, b) == pytest.approx(0.605, abs=1e-12)


def test_cost_derivative_closed_is_parameter_scaled(e2):
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (3.0, 4.0)))
    # c(g(t), g(s)) = (t - s)^2 l^2 / 2, so d/dt = (t - s) l^2
    assert cost_derivative_closed(g, 1.0, 0.0) == pytest.approx(25.0, abs=1e-12)
    assert cost_derivative_closed(g, 0.25, 0.75) == pytest.approx(-12.5, abs=1e-12)


def test_derivative_of_cost_at_start_is_minus_squared_distance(e2, tripod, book3):
    for space in (e2, tripod, book3):
        rng = substream(31, f"dxc:{space.kind}")
        for _ in range(40):
            x, y = sample_points(space, rng, 2)
            d = distance(space, x, y)
            if d <= 1e-3:
                continue
            g = geodesic(space, x, y)
            est = geodesic_derivative(space, lambda z: cost(space, z, y), x, g)
            assert est.value == pytest.approx(-d * d, abs=1e-6)


def test_closed_form_matches_numeric_quotients(e2, tripod):
    for space in (e2, tripod):
        rng = substream(32, f"closed:{space.kind}")
        for _ in range(40):
            p, q = sample_points(space, rng, 2)
            if distance(space, p, q) <= 1e-3:
                continue
            g = geodesic(space, p, q)
            t = float(rng.uniform(0.2, 0.8))
            s = float(rng.uniform(0.0, 1.0))
            if abs(t - s) <= 1e-2:
                continue
            est = geodesic_derivative(space, lambda z, s=s: cost(space, z, g.eval(s)), g.eval(t), g)
            want = cost_derivative_closed(g, t, s)
            assert est.value == pytest.approx(want, abs=1e-6 * (1 + abs(want)))


def test_linear_function_derivative_is_exact(e2):
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (2.0, 0.0)))
    est = geodesic_derivative(e2, lambda p: p.coords[0], Point(0, (1.0, 0.0)), g)
    assert est.value == pytest.approx(2.0, abs=1e-12)  # parameter units
    assert est.differentiable
    est0 = geodesic_derivative(e2, lambda p: 5.0, Point(0, (1.0, 0.0)), g)
    assert est0.value == 0.0


def test_one_sided_behaviour_at_endpoints(e2):
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (1.0, 0.0)))
    est = geodesic_derivative(e2, lambda p: p.coords[0], g.start, g)
    assert math.isnan(est.one_sided_minus)
    assert not est.differentiable
    assert est.value == pytest.approx(1.0, abs=1e-12)
    est_end = geodesic_derivative(e2, lambda p: p.coords[0], g.end, g)
    assert math.isnan(est_end.one_sided_plus)
    assert est_end.value == pytest.approx(1.0, abs=1e-12)


def test_kink_is_flagged_not_differentiable(e2):
    g = geodesic(e2, Point(0, (-1.0, 0.0)), Point(0, (1.0, 0.0)))
    est = geodesic_derivative(e2, lambda p: abs(p.coords[0]), Point(0, (0.0, 0.0)), g)
    assert not est.differentiable
    assert est.one_sided_plus == pytest.approx(2.0, abs=1e-9)
    assert est.one_sided_minus == pytest.approx(-2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# direction sets


def test_direction_sets_by_space(e2, tripod, book3):
    x = Point(0, (0.25, 0.25))
    dirs = direction_set(e2, x, count=16)
    assert len(dirs) == 16
    assert all(distance(e2, g.start, x) <= 1e-12 for g in dirs)

    center = Point(0, (0.0,))
    assert len(direction_set(tripod, center)) == 3
    assert len(direction_set(tripod, Point(0, (0.5,)))) == 2
    leaf = Point(0, (1.0,))
    assert len(direction_set(tripod, leaf)) == 1

    interior = Point(1, (0.5, 0.0))
    dirs_book = direction_set(book3, interior, count=8)
    assert all(distance(book3, g.start, interior) <= 1e-12 for g in dirs_book)
    spine = Point(0, (0.0, 0.0))
    dirs_spine = direction_set(book3, spine, count=9)
    assert all(distance(book3, g.start, spine) <= 1e-12 for g in dirs_spine)
    # the spine fan covers every page
    pages = {g.eval(1.0).chart for g in dirs_spine if g.eval(1.0).coords[0] > 1e-9}
    assert pages == {0, 1, 2}


def _bits(points):
    return [(p.chart, tuple(c.hex() for c in p.coords)) for p in points]


@pytest.mark.parametrize("count", [0, 1, 7, 16, 17])
def test_direction_rows_are_the_targets_each_family_first_built(count, e2, e3, book3, tripod, comb316):
    cases = [
        (e2, Point(0, (0.25, -0.75))),
        (e3, Point(0, (0.1, 0.2, -0.3))),  # a draw, not a circle
        (book3, Point(1, (2.0, 0.3))),  # the unit circle stays on its page
        (book3, Point(0, (0.5, -0.2))),  # it crosses the spine onto page 1
        (book3, Point(2, (0.25, 0.1))),  # and onto page 0
        (book3, Point(2, (0.0, 0.4))),  # on the spine: 3 pages divide none of 1, 7, 16, 17
        (book3, Point(1, (1e-13, -0.6))),  # snapped onto the spine
        (tripod, Point(1, (0.5,))),  # inside an edge
        (tripod, Point(0, (0.0,))),  # the branch vertex
        (tripod, Point(2, (1.0,))),  # a leaf
    ]
    verts = comb316.params.vertices
    cases += [(comb316, comb316.impl.vertex_point(v)) for v in verts[:: len(verts) // 40]]
    cases += [(comb316, p) for p in sample_points(comb316, substream(count, "comb"), 8)]
    for space, x in cases:
        xn = normalize(space, x)
        for seed in (0, 3):
            charts, coords = space.impl.direction_rows(xn, count, seed)
            assert charts.dtype == np.int64 and coords.shape == (len(charts), space.dim)
            want = direction_targets_by_family(space, xn, count, seed)
            assert _bits(_row_points(charts, coords)) == _bits(want), (space.kind, x, seed)


# ---------------------------------------------------------------------------
# twist


def test_twist_distinguishes_euclidean_targets(e2):
    x = Point(0, (0.0, 0.0))
    y1 = Point(0, (1.0, 0.0))
    y2 = Point(0, (0.0, 1.0))
    rep = twist_test(e2, x, y1, y2, direction_set(e2, x, targets=[y1, y2], count=16))
    assert rep.twist_holds
    assert rep.max_gap > 1e-6
    assert rep.distinguishing_geodesic is not None


def test_twist_fails_behind_tree_branch_point(tripod):
    x = Point(0, (0.9,))
    y1 = Point(1, (0.5,))
    y2 = Point(2, (0.5,))
    rep = twist_test(tripod, x, y1, y2, direction_set(tripod, x))
    assert not rep.twist_holds
    assert rep.max_gap < 1e-9
    assert rep.distinguishing_geodesic is None


@pytest.mark.parametrize("name", ["e2", "book3", "tripod"])
def test_twist_evaluates_each_step_point_once(name, request, monkeypatch):
    space = request.getfixturevalue(name)
    rng = substream(29, f"twist once:{name}")
    calls = []
    plain_eval = Geodesic.eval

    def counting_eval(g, t):
        calls.append(t)
        return plain_eval(g, t)

    for _ in range(5):
        x, y1, y2 = sample_points(space, rng, 3)
        dirs = direction_set(space, x, targets=[y1, y2], count=16, seed=3)
        # the per-target loop: one geodesic_derivative per cost and direction
        want, witness = 0.0, None
        for g in dirs:
            d1 = geodesic_derivative(space, lambda z: cost(space, z, y1), x, g).value
            d2 = geodesic_derivative(space, lambda z: cost(space, z, y2), x, g).value
            if abs(d1 - d2) > want:
                want, witness = abs(d1 - d2), g
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(Geodesic, "eval", counting_eval)
            rep = twist_test(space, x, y1, y2, dirs)
        # every direction starts at x: the base point and the two forward
        # steps the quotient reads
        assert len(calls) == 3 * len(dirs)
        assert rep.max_gap.hex() == want.hex()
        assert rep.distinguishing_geodesic is (witness if rep.twist_holds else None)


QUOTIENT_SPACES = ["e2", "e3", "tripod", "comb14", "lopsided_tree", "book2", "book3"]


@pytest.mark.parametrize("name", QUOTIENT_SPACES)
def test_two_step_quotients_equal_the_quotient_over_every_step(name, request):
    # each step's quotient is computed on its own, so leaving out the nine
    # that the extrapolation never reads changes no bit; t = 0.97 and
    # 1 - 2^-10 leave less room than the first step, which scales them all
    space = request.getfixturevalue(name)
    rng = substream(33, f"two steps:{name}")
    for _ in range(12):
        y, z, w = sample_points(space, rng, 3)
        if distance(space, y, z) <= 1e-3:
            continue
        g = geodesic(space, y, z)

        def f(p, w=w):
            return cost(space, p, w)

        for t in (0.0, float(rng.random()), 0.97, 1.0 - 2.0**-10, 1.0):
            x = g.eval(t)
            s = parameter_on(space, g, x)
            est = geodesic_derivative(space, f, x, g)
            assert est.one_sided_plus.hex() == one_sided_by_every_step(f, g, s, 1.0).hex()
            assert est.one_sided_minus.hex() == one_sided_by_every_step(f, g, s, -1.0).hex()


@pytest.mark.parametrize("name", QUOTIENT_SPACES)
def test_twist_gaps_equal_the_quotients_over_every_step(name, request):
    space = request.getfixturevalue(name)
    rng = substream(34, f"two steps twist:{name}")
    probes = [tuple(sample_points(space, rng, 3)) for _ in range(6)]
    for gap, (x, y1, y2) in zip(_twist_gaps(space, probes, 8, 5), probes):
        want = 0.0
        for g in direction_set(space, x, [y1, y2], 8, 5):
            if g.length == 0:
                continue
            s = parameter_on(space, g, normalize(space, x))
            d1, d2 = (one_sided_by_every_step(lambda p, y=y: cost(space, p, y), g, s, 1.0) for y in (y1, y2))
            want = max(want, abs(d1 - d2))
        assert gap.hex() == want.hex()


def test_twist_checks_direction_origins(e2):
    x = Point(0, (0.0, 0.0))
    stray = [geodesic(e2, Point(0, (5.0, 5.0)), Point(0, (6.0, 5.0)))]
    with pytest.raises(OriginMismatch):
        twist_test(e2, x, Point(0, (1.0, 0.0)), Point(0, (0.0, 1.0)), stray)


# ---------------------------------------------------------------------------
# first-order minimality


def test_fermat_at_smooth_minimizer(e2):
    targets = [Point(0, (1.0, 0.0)), Point(0, (-1.0, 0.0)), Point(0, (0.0, 1.0))]
    fsum = lambda p: sum(cost(e2, p, t) for t in targets)
    x_star = Point(0, (0.0, 1.0 / 3.0))  # centroid
    rep = fermat_check(e2, fsum, x_star, direction_set(e2, x_star, count=16))
    assert rep.min_directional >= -1e-6
    assert rep.two_sided_zero


def test_fermat_at_tree_leaf_is_one_sided(tripod):
    leaf = Point(0, (1.0,))
    f = lambda p: distance(tripod, p, leaf)
    rep = fermat_check(tripod, f, leaf, direction_set(tripod, leaf))
    assert rep.min_directional > 0.0  # moving away from the leaf increases f
    assert rep.two_sided_zero  # vacuous: no direction extends through a leaf


def test_fermat_flags_non_minimizer(e2):
    y = Point(0, (1.0, 1.0))
    f = lambda p: cost(e2, p, y)
    not_min = Point(0, (0.0, 0.0))
    rep = fermat_check(e2, f, not_min, direction_set(e2, not_min, targets=[y], count=16))
    assert rep.min_directional < -1e-3
    assert not rep.two_sided_zero


# ---------------------------------------------------------------------------
# radial projection


def test_radial_projection_values(e2):
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (2.0, 0.0)))
    assert radial_projection(e2, g, Point(0, (1.5, 0.0))).coords == pytest.approx(
        (1.5, 0.0), abs=1e-12
    )
    assert radial_projection(e2, g, Point(0, (1.5, 7.0))).coords == pytest.approx(
        (2.0, 0.0), abs=1e-12
    )


def test_radial_projection_non_expansive(e2, tripod, book3):
    for space in (e2, tripod, book3):
        rng = substream(33, f"radial:{space.kind}")
        a, b = sample_points(space, rng, 2)
        while distance(space, a, b) <= 1e-6:
            a, b = sample_points(space, rng, 2)
        g = geodesic(space, a, b)
        for _ in range(100):
            x, y = sample_points(space, rng, 2)
            dr = distance(space, radial_projection(space, g, x), radial_projection(space, g, y))
            assert dr <= distance(space, x, y) + 1e-9


# ---------------------------------------------------------------------------
# shell estimates


def test_eilenberg_quarter_disc(e2):
    region = BoxRegion(0, (0.0, 0.0), (1.0, 1.0))
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (1.0, 0.0)))
    lhs, rhs, holds = eilenberg_estimate(e2, g, region, 200_000, seed=5)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert lhs == pytest.approx(math.pi / 4.0, abs=0.02)
    assert holds


def test_eilenberg_tripod_counting(tripod):
    region = TreeRegion((0, 1, 2, 3))
    g = geodesic(tripod, Point(0, (0.0,)), Point(0, (1.0,)))
    lhs, rhs, holds = eilenberg_estimate(tripod, g, region, 200_000, eps=0.01, seed=5)
    assert rhs == pytest.approx(3.0, abs=1e-12)
    # three branches each eat eps/2 at both shell ends: lhs ~ 3 - 1.5 eps
    assert lhs == pytest.approx(3.0 - 1.5 * 0.01, abs=0.01)
    assert holds


def test_eilenberg_empty_region_and_bad_eps(e2):
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (1.0, 0.0)))
    assert eilenberg_estimate(e2, g, EmptyRegion(), 100) == (0.0, 0.0, True)
    region = BoxRegion(0, (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(BadEpsilon):
        eilenberg_estimate(e2, g, region, 100, eps=0.0)
    with pytest.raises(BadEpsilon):
        eilenberg_estimate(e2, g, region, 100, eps=10.0)


def test_eilenberg_rejects_a_nan_eps(e2):
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (1.0, 0.0)))
    with pytest.raises(BadEpsilon):
        eilenberg_estimate(e2, g, BoxRegion(0, (0.0, 0.0), (1.0, 1.0)), 100, eps=math.nan)


def test_zeta_positive_in_flat_and_book_spaces(e2, book3):
    x = Point(0, (0.0, 0.0))
    g = geodesic(e2, x, Point(0, (1.0, 0.0)))
    probes = [Point(0, (0.5, 0.0)), Point(0, (0.25, 0.25))]
    out = zeta_positivity(e2, x, g, probes, n_samples=40_000, seed=5)
    assert out["positive"]
    assert out["min_density"] == pytest.approx(1.0, abs=0.05)

    xb = Point(1, (0.5, 0.0))
    gb = geodesic(book3, xb, Point(1, (1.5, 0.0)))
    probes_b = [Point(1, (1.0, 0.0)), Point(0, (0.4, 0.3))]
    out_b = zeta_positivity(book3, xb, gb, probes_b, n_samples=40_000, seed=5)
    assert out_b["positive"]


def test_zeta_error_contracts(e2):
    x = Point(0, (0.0, 0.0))
    g = geodesic(e2, x, Point(0, (1.0, 0.0)))
    with pytest.raises(ProbeAtCenter):
        zeta_positivity(e2, x, g, [Point(0, (0.0, 0.0))], n_samples=100)
    stray = geodesic(e2, Point(0, (3.0, 3.0)), Point(0, (4.0, 3.0)))
    with pytest.raises(OriginMismatch):
        zeta_positivity(e2, x, stray, [Point(0, (0.5, 0.0))], n_samples=100)
    with pytest.raises(ParamOutOfRange):
        zeta_positivity(e2, x, g, [], n_samples=100)
