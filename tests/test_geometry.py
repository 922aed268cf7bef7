from __future__ import annotations

import math
from bisect import bisect_left
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cat0ot import (
    Ball,
    Cat0otError,
    DegenerateTriangle,
    NotATriangle,
    NotExtendable,
    OriginMismatch,
    ParamOutOfRange,
    Piece,
    Point,
    PointNotOnGeodesic,
    Segment,
    Subtree,
    UnsupportedConvexSet,
    alexandrov_angle,
    build_tree,
    cat0_defect,
    comparison_angle,
    comparison_angle_sequence,
    convex_combination,
    distance,
    extend,
    geodesic,
    geodesic_from_chain,
    normalize,
    parameter_on,
    points_equal,
    project_convex,
)
from cat0ot import geometry, spaces
from cat0ot.harness import sample_points
from cat0ot.rng import substream

from _oracles import (
    check_subtree_by_scan,
    euclidean_vertex_angle,
    eval_by_scan,
    extend_by_family,
    geodesic_from_chain_by_section,
    project_segment_by_family,
    project_subtree_by_loop,
)


# ---------------------------------------------------------------------------
# geodesics


def test_euclidean_geodesic_is_straight(e2):
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (3.0, 4.0)))
    assert g.length == pytest.approx(5.0, abs=1e-12)
    assert len(g.pieces) == 1
    mid = g.eval(0.5)
    assert mid.coords == pytest.approx((1.5, 2.0), abs=1e-12)
    assert g.at_arc(5.0).coords == pytest.approx((3.0, 4.0), abs=1e-12)


def test_geodesic_reverse(tripod):
    g = geodesic(tripod, Point(0, (0.4,)), Point(1, (0.7,)))
    r = g.reverse()
    assert r.length == g.length
    assert distance(tripod, r.eval(0.0), g.eval(1.0)) <= 1e-12
    assert distance(tripod, r.eval(0.3), g.eval(0.7)) <= 1e-12


@pytest.mark.parametrize("name", ["e2", "book3", "tripod", "comb14", "comb316"])
def test_reversed_breakpoints_mirror_the_forward_ones(name, request):
    space = request.getfixturevalue(name)
    rng = substream(29, "reverse")
    crossed = 0
    for _ in range(50):
        p, q = sample_points(space, rng, 2)
        g = space.impl.geodesic(p, q)
        want = tuple((1 - t, b) for t, b in reversed(g.breakpoints))
        assert repr(g.reverse().breakpoints) == repr(want)
        crossed += len(want)
    if name != "e2":
        assert crossed > 0


def test_constant_speed_on_all_spaces(e2, tripod, book3):
    for space in (e2, tripod, book3):
        rng = substream(21, f"speed:{space.kind}")
        for _ in range(100):
            p, q = sample_points(space, rng, 2)
            g = geodesic(space, p, q)
            t1, t2 = sorted(float(v) for v in rng.uniform(0, 1, 2))
            seg = distance(space, g.eval(t1), g.eval(t2))
            assert abs(seg - (t2 - t1) * g.length) <= 1e-9


def test_convex_combination_endpoint_distance(tripod):
    a, b = Point(0, (0.4,)), Point(1, (0.7,))
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        xt = convex_combination(tripod, a, b, t)
        assert distance(tripod, a, xt) == pytest.approx(t * 1.1, abs=1e-12)
    with pytest.raises(ParamOutOfRange):
        convex_combination(tripod, a, b, 1.5)


def test_parameter_on_recovers_parameter(e2, tripod, book3):
    for space in (e2, tripod, book3):
        rng = substream(22, f"param:{space.kind}")
        for _ in range(50):
            p, q = sample_points(space, rng, 2)
            if distance(space, p, q) <= 1e-9:
                continue
            g = geodesic(space, p, q)
            t = float(rng.uniform(0, 1))
            assert parameter_on(space, g, g.eval(t)) == pytest.approx(t, abs=1e-9)


def test_parameter_on_rejects_off_curve_points(e2):
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (1.0, 0.0)))
    with pytest.raises(PointNotOnGeodesic):
        parameter_on(e2, g, Point(0, (0.5, 0.5)))


def test_parameter_on_a_zero_length_geodesic(e2):
    p = Point(0, (0.3, 0.4))
    g = geodesic(e2, p, p)
    assert g.length == 0.0
    assert parameter_on(e2, g, Point(0, (0.3, 0.4 + 1e-10))) == 0.0
    with pytest.raises(PointNotOnGeodesic):
        parameter_on(e2, g, Point(0, (0.3, 0.5)))


@pytest.mark.parametrize("edges", [[(1, 0, 1.0), (2, 1, 1.0)], [(0, 1, 1.0), (1, 2, 1.0)]], ids=["down", "up"])
def test_parameter_on_finds_a_tree_vertex_from_another_edge_chart(edges):
    # vertex 1 is normal in one edge's chart; the geodesic 0 -> 2 also runs
    # along the other edge at 1, whose chart holds it only as an endpoint
    space = build_tree([0, 1, 2], edges, root=0)
    impl = space.impl
    g = geodesic(space, impl.vertex_point(0), impl.vertex_point(2))
    assert len(g.pieces) == 2
    assert parameter_on(space, g, impl.vertex_point(1)) == 0.5
    # vertex 0 is no end of the edge from 1 to 2
    with pytest.raises(PointNotOnGeodesic):
        parameter_on(space, geodesic(space, impl.vertex_point(1), impl.vertex_point(2)), impl.vertex_point(0))


def test_parameter_on_finds_the_spine_from_either_page_chart(book3):
    g = geodesic(book3, Point(1, (1.0, 0.0)), Point(2, (1.0, 0.0)))
    assert parameter_on(book3, g, Point(0, (0.0, 0.0))) == 0.5


def test_geodesic_from_chain_merges_collinear_sections(e2):
    g = geodesic_from_chain(
        e2,
        [
            (0, (0.0, 0.0), (1.0, 0.0)),
            (0, (1.0, 0.0), (2.0, 0.0)),
            (0, (2.0, 0.0), (2.0, 1.0)),
        ],
        Point(0, (0.0, 0.0)),
        Point(0, (2.0, 1.0)),
    )
    assert g.length == pytest.approx(3.0, abs=1e-12)
    assert len(g.pieces) == 2  # the two straight sections merged


def _bits(g):
    """The constructed fields, and their repr, which tells -0.0 and numpy scalars apart."""
    fields = (g.start, g.end, g.length, g.pieces)
    return fields, repr(fields)


def _check_against_section_loop(space, chain, start=None, end=None):
    """Compare the assembly of `chain` with the section loop, which rebuilds the
    endpoints from the chain; endpoints left out are taken from that rebuild."""
    want, want_breakpoints = geodesic_from_chain_by_section(space, chain)
    g = geodesic_from_chain(
        space, chain, want.start if start is None else start, want.end if end is None else end
    )
    assert _bits(g) == _bits(want)
    # the derived breakpoints equal the ones the section loop records per junction
    assert g.breakpoints == want_breakpoints
    assert repr(g.breakpoints) == repr(want_breakpoints)
    ts = [0.0, 1e-13, 0.5, 1.0 - 1e-13, 1.0] + [t for t, _p in g.breakpoints]
    ts += [pc.t0 + 0.3 * (pc.t1 - pc.t0) for pc in g.pieces]
    for t in ts:
        assert repr(g.eval(t)) == repr(eval_by_scan(g, t))


@pytest.mark.parametrize(
    "name", ["e2", "e3", "book3", "tripod", "comb14", "comb316", "lopsided_tree"]
)
def test_geodesic_from_chain_matches_the_section_loop(name, request, monkeypatch):
    space = request.getfixturevalue(name)
    calls = []

    def spy(handle, chain, start, end):
        calls.append((list(chain), start, end))
        return geodesic_from_chain(handle, chain, start, end)

    # geodesics are assembled in `spaces`, extensions in `geometry`
    monkeypatch.setattr(spaces, "geodesic_from_chain", spy)
    monkeypatch.setattr(geometry, "geodesic_from_chain", spy)
    rng = substream(17, "chain oracle")
    for _ in range(200):
        p, q = sample_points(space, rng, 2)
        g = geodesic(space, p, q)
        # extensions continue straight in the last chart (the collinear merge)
        # or change chart at a spine or a vertex
        try:
            extend(space, g, 0.25)
        except NotExtendable:
            pass
    assert len(calls) >= 300
    for chain, start, end in calls:
        # the endpoints the callers hand over equal the ones rebuilt from the chain
        _check_against_section_loop(space, chain, start, end)


@pytest.mark.parametrize(
    "name", ["e2", "e3", "book3", "tripod", "comb14", "comb316", "lopsided_tree"]
)
def test_geodesics_start_and_end_at_their_normal_endpoints(name, request):
    # the geodesic keeps the endpoints it is given, which are the normal points
    # that rebuilding them from its first and last pieces gives
    space = request.getfixturevalue(name)
    impl = space.impl
    pts = sample_points(space, substream(29, "normal endpoints"), 40)
    if space.kind == "tree":
        pts += [impl.vertex_point(v) for v in impl.vertices[:40]]
    elif space.kind == "open_book":
        pts += [impl.normalize(Point(k, (0.0, v))) for k, v in enumerate((-0.5, -0.0, 0.25))]
    else:
        pts.append(Point(0, (-0.0,) * space.dim))
    pairs = list(zip(pts, reversed(pts))) + list(zip(pts, pts[1:])) + [(p, p) for p in pts]
    for p, q in pairs:
        g = impl.geodesic(p, q)
        first, last = g.pieces[0], g.pieces[-1]
        rebuilt = (
            impl.normalize(Point(first.chart, first.c0)),
            impl.normalize(Point(last.chart, last.c1)),
        )
        assert repr((g.start, g.end)) == repr((p, q)) == repr(rebuilt)
        if p == q:
            assert g.length == 0.0 and g.pieces == (Piece(0.0, 1.0, p.chart, p.coords, p.coords),)


def test_piece_is_a_named_immutable_tuple():
    pc = Piece(0.0, 0.5, 1, (0.0, 0.25), (0.5, 1.0))
    assert repr(pc) == "Piece(t0=0.0, t1=0.5, chart=1, c0=(0.0, 0.25), c1=(0.5, 1.0))"
    same = Piece(0.0, 0.5, 1, (0.0, 0.25), (0.5, 1.0))
    assert pc == same and hash(pc) == hash(same) and len({pc, same}) == 1
    assert pc != Piece(0.0, 0.5, 2, (0.0, 0.25), (0.5, 1.0))
    # tuple-backed: equal to the plain tuple of its fields, in field order
    assert pc == (0.0, 0.5, 1, (0.0, 0.25), (0.5, 1.0))
    with pytest.raises(AttributeError):
        pc.t1 = 1.0
    pieces = [Piece(t0, t1, 0, (t0,), (t1,)) for t0, t1 in ((0.0, 0.25), (0.25, 0.75), (0.75, 1.0))]
    got = [bisect_left(pieces, t, key=attrgetter("t1")) for t in (0.0, 0.25, 0.3, 0.75, 0.9, 1.0)]
    assert got == [0, 0, 1, 1, 2, 2]


HAND_CHAINS = {
    "zero-length drop": (
        "e2",
        [(0, (0.0, 0.0), (0.0, 0.0)), (0, (0.0, 0.0), (1.0, 0.5)), (0, (1.0, 0.5), (1.0, 0.5))],
    ),
    "underflowing section": ("e2", [(0, (0.0, 0.0), (1e-170, 0.0)), (0, (1e-170, 0.0), (1.0, 0.0))]),
    "collinear merge": (
        "e2",
        [(0, (0.0, 0.0), (1.0, 0.5)), (0, (1.0, 0.5), (3.0, 1.5)), (0, (3.0, 1.5), (3.0, 2.0))],
    ),
    "merge of integer and numpy coordinates": (
        "e2",
        [(np.int64(0), (0, 0), (np.float64(0.5), 2)), (0, (np.float64(0.5), 2), (1.0, 4.0))],
    ),
    "all-zero chain": ("e2", [(0, (0.25, -0.5), (0.25, -0.5)), (0, (0.25, -0.5), (0.25, -0.5))]),
    "all-zero chain at a vertex": ("tripod", [(1, (0.0,), (0.0,))]),
    "zero section on the spine": (
        "book3",
        [(1, (0.5, 0.0), (0.0, 0.25)), (2, (0.0, 0.25), (0.0, 0.25)), (2, (0.0, 0.25), (0.75, 1.0))],
    ),
    "vertex path": (
        "lopsided_tree",
        [(0, (0.3,), (0.8,)), (2, (0.0,), (0.4,)), (3, (0.0,), (2.2,))],
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_CHAINS))
def test_hand_built_chains_match_the_section_loop(case, request):
    name, chain = HAND_CHAINS[case]
    _check_against_section_loop(request.getfixturevalue(name), chain)


@pytest.mark.parametrize("name", ["e2", "e3", "book3", "tripod", "comb14", "lopsided_tree"])
def test_library_points_are_normal(name, request):
    # internal callers hand these to space.impl without normalizing them again
    space = request.getfixturevalue(name)
    impl = space.impl
    rng = substream(23, "normal points")
    for _ in range(100):
        p, q = sample_points(space, rng, 2)
        g = impl.geodesic(p, q)
        pts = [p, q, g.start, g.end] + [b for _t, b in g.breakpoints]
        pts += [g.eval(float(t)) for t in rng.uniform(0.0, 1.0, 3)]
        for pt in pts:
            impl.validate_point(pt)
            assert repr(impl.normalize(pt)) == repr(pt)


# ---------------------------------------------------------------------------
# angles


def test_comparison_angle_basics():
    assert comparison_angle(1.0, 1.0, 1.0) == pytest.approx(math.pi / 3, abs=1e-12)
    assert comparison_angle(1.0, 1.0, 2.0) == pytest.approx(math.pi, abs=1e-12)
    assert comparison_angle(1.0, 1.0, 0.0) == 0.0
    with pytest.raises(DegenerateTriangle):
        comparison_angle(0.0, 1.0, 1.0)
    with pytest.raises(NotATriangle):
        comparison_angle(1.0, 1.0, 2.1)


def test_alexandrov_angle_matches_euclidean_vertex_angle(e2):
    rng = substream(23, "angles")
    for _ in range(100):
        o, a, b = sample_points(e2, rng, 3)
        if min(distance(e2, o, a), distance(e2, o, b)) <= 1e-3:
            continue
        est = alexandrov_angle(e2, geodesic(e2, o, a), geodesic(e2, o, b))
        want = euclidean_vertex_angle(o, a, b)
        assert est.value == pytest.approx(want, abs=1e-7)
        assert est.bracket_low <= want + 1e-9
        assert want <= est.bracket_high + 1e-9


def test_tripod_opposite_legs_angle_is_pi(tripod):
    center = Point(0, (0.0,))
    g = geodesic(tripod, center, Point(0, (1.0,)))
    h = geodesic(tripod, center, Point(1, (1.0,)))
    est = alexandrov_angle(tripod, g, h)
    assert est.converged
    assert est.value == pytest.approx(math.pi, abs=1e-7)


def test_comb_shared_segment_angle_is_zero(comb14):
    # two geodesics from a tooth leaf that run together along the base before
    # splitting at different teeth: the angle between them is zero
    space = comb14
    x = space.impl.vertex_point(5)
    y1 = space.impl.vertex_point(3)
    y2 = space.impl.vertex_point(7)
    est = alexandrov_angle(space, geodesic(space, x, y1), geodesic(space, x, y2))
    assert est.converged
    assert est.value == pytest.approx(0.0, abs=1e-7)


def test_comparison_angles_non_increasing_along_halving(e2, book3):
    # generic configurations: angle noise stays far below the 1e-9 slack
    for space in (e2, book3):
        rng = substream(24, f"mono:{space.kind}")
        for _ in range(60):
            o, a, b = sample_points(space, rng, 3)
            if min(distance(space, o, a), distance(space, o, b)) <= 1e-3:
                continue
            g = geodesic(space, o, a)
            h = geodesic(space, o, b)
            s0 = min(g.length, h.length) / 4.0
            sched = [s0 * 2.0 ** (-k) for k in range(10)]
            seq = comparison_angle_sequence(space, g, h, sched)
            assert all(seq[i + 1] <= seq[i] + 1e-9 for i in range(len(seq) - 1))


def test_tree_comparison_angles_monotone_on_cosine_scale(tripod, lopsided_tree):
    # tree limits sit at the arccos endpoints where roundoff in the chord is
    # amplified like 1/sqrt(scale), so the same monotone statement is checked
    # on cosines, where the noise stays polynomial in the scale
    for space in (tripod, lopsided_tree):
        rng = substream(24, f"treemono:{space.kind}")
        for _ in range(60):
            o, a, b = sample_points(space, rng, 3)
            if min(distance(space, o, a), distance(space, o, b)) <= 1e-3:
                continue
            g = geodesic(space, o, a)
            h = geodesic(space, o, b)
            s0 = min(g.length, h.length) / 4.0
            sched = [s0 * 2.0 ** (-k) for k in range(10)]
            seq = [math.cos(v) for v in comparison_angle_sequence(space, g, h, sched)]
            assert all(seq[i + 1] >= seq[i] - 1e-9 for i in range(len(seq) - 1))


def test_alexandrov_angle_error_contracts(e2):
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (1.0, 0.0)))
    h = geodesic(e2, Point(0, (0.5, 0.5)), Point(0, (1.0, 1.0)))
    with pytest.raises(OriginMismatch):
        alexandrov_angle(e2, g, h)


# ---------------------------------------------------------------------------
# curvature defect


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    st.floats(0.0, 1.0),
)
def test_euclidean_defect_vanishes(vals, t):
    from cat0ot import build_euclidean

    e2 = build_euclidean(2)
    x = Point(0, (vals[0], vals[1]))
    y = Point(0, (vals[2], vals[3]))
    z = Point(0, (vals[4], vals[5]))
    assert abs(cat0_defect(e2, x, y, z, t)) <= 1e-9 * (1 + max(abs(v) for v in vals) ** 2)


def test_defect_nonnegative_on_branching_spaces(tripod, book3):
    for space in (tripod, book3):
        rng = substream(25, f"defect:{space.kind}")
        for _ in range(300):
            x, y, z = sample_points(space, rng, 3)
            assert cat0_defect(space, x, y, z, float(rng.uniform(0, 1))) >= -1e-9


def test_tripod_defect_worked_example(tripod):
    # three leaf points, midpoint of one side: defect strictly positive
    x, y, z = Point(0, (1.0,)), Point(1, (1.0,)), Point(2, (1.0,))
    d = cat0_defect(tripod, x, y, z, 0.5)
    assert d == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# projections


def test_ball_projection(e2):
    ball = Ball(Point(0, (0.0, 0.0)), 1.0)
    p = project_convex(e2, Point(0, (1.2, 1.6)), ball)
    assert p.coords == pytest.approx((0.6, 0.8), abs=1e-12)
    inside = Point(0, (0.1, -0.2))
    q = project_convex(e2, inside, ball)
    assert q.coords == pytest.approx(inside.coords, abs=1e-15)


def test_segment_projection_euclidean(e2):
    seg = Segment(geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (2.0, 0.0))))
    p = project_convex(e2, Point(0, (0.5, 1.0)), seg)
    assert p.coords == pytest.approx((0.5, 0.0), abs=1e-12)
    p = project_convex(e2, Point(0, (-1.0, 1.0)), seg)
    assert p.coords == pytest.approx((0.0, 0.0), abs=1e-12)


def test_segment_projection_beats_dense_sampling(tripod, book3):
    for space in (tripod, book3):
        rng = substream(26, f"proj:{space.kind}")
        for _ in range(40):
            a, b, x = sample_points(space, rng, 3)
            if distance(space, a, b) <= 1e-9:
                continue
            seg = Segment(geodesic(space, a, b))
            p = project_convex(space, x, seg)
            dp = distance(space, x, p)
            best = min(
                distance(space, x, seg.geodesic.eval(t))
                for t in np.linspace(0.0, 1.0, 200)
            )
            assert dp <= best + 1e-9


def test_subtree_projection(tripod):
    # subtree = center plus leg 0; a point on leg 1 projects to the center
    sub = Subtree((0, 1))
    p = project_convex(tripod, Point(1, (0.6,)), sub)
    center = Point(0, (0.0,))
    assert distance(tripod, p, center) <= 1e-12
    # a point on leg 0 already in the subtree stays put
    q = project_convex(tripod, Point(0, (0.3,)), sub)
    assert distance(tripod, q, Point(0, (0.3,))) <= 1e-12


def test_subtree_projection_rejects_disconnected_or_foreign(tripod, e2):
    with pytest.raises(UnsupportedConvexSet):
        project_convex(tripod, Point(0, (0.5,)), Subtree((1, 2)))  # two leaves, no center
    with pytest.raises(UnsupportedConvexSet):
        project_convex(tripod, Point(0, (0.5,)), Subtree(()))
    with pytest.raises(UnsupportedConvexSet):
        project_convex(e2, Point(0, (0.5, 0.5)), Subtree((0, 1)))


def test_projection_inequality_and_idempotence(e2, tripod, book3):
    # d(x, Px)^2 + d(y, Px)^2 <= d(x, y)^2 for y in the set, and the projection
    # is constant along [x, Px]
    for space in (e2, tripod, book3):
        rng = substream(27, f"projineq:{space.kind}")
        for _ in range(60):
            a, b, x = sample_points(space, rng, 3)
            if distance(space, a, b) <= 1e-9:
                continue
            seg = Segment(geodesic(space, a, b))
            px = project_convex(space, x, seg)
            dxp = distance(space, x, px)
            for t in (0.0, 0.3, 0.7, 1.0):
                y = seg.geodesic.eval(t)
                lhs = dxp**2 + distance(space, y, px) ** 2
                assert lhs <= distance(space, x, y) ** 2 + 1e-9
            if dxp > 1e-9:
                mid = convex_combination(space, x, px, 0.5)
                again = project_convex(space, mid, seg)
                assert distance(space, again, px) <= 1e-9


# ---------------------------------------------------------------------------
# extension


def test_extend_euclidean_prolongs_straight_line(e2):
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (1.0, 0.0)))
    ext = extend(e2, g, 1.0)
    assert ext.length == pytest.approx(2.0, abs=1e-12)
    assert ext.end.coords == pytest.approx((2.0, 0.0), abs=1e-12)
    assert len(ext.pieces) == 1  # no spurious breakpoint at the old endpoint
    with pytest.raises(ParamOutOfRange):
        extend(e2, g, 0.0)


def test_extend_through_tree_center_picks_lowest_edge(tripod):
    g = geodesic(tripod, Point(0, (0.9,)), Point(0, (0.0,)))
    ext = extend(tripod, g, 0.7)
    assert ext.end.chart == 1
    assert ext.end.coords[0] == pytest.approx(0.7, abs=1e-12)


def test_extend_at_leaf_raises(tripod):
    g = geodesic(tripod, Point(0, (0.2,)), Point(0, (1.0,)))
    with pytest.raises(NotExtendable):
        extend(tripod, g, 0.1)


def test_extend_across_book_spine(book3):
    g = geodesic(book3, Point(1, (1.0, 0.0)), Point(1, (0.5, 0.0)))
    ext = extend(book3, g, 1.0)
    # heading toward the spine: crosses at u=0 and continues into page 0
    assert ext.end.chart == 0
    assert ext.end.coords[0] == pytest.approx(0.5, abs=1e-12)
    assert distance(book3, ext.eval(0.0), g.eval(0.0)) <= 1e-12
    assert ext.length == pytest.approx(1.5, abs=1e-12)


def test_extend_zero_length_geodesic_raises(e2):
    g = geodesic(e2, Point(0, (0.5, 0.5)), Point(0, (0.5, 0.5)))
    with pytest.raises(NotExtendable):
        extend(e2, g, 0.5)


@pytest.mark.parametrize("delta", [0.0, -0.5, math.inf, math.nan])
@pytest.mark.parametrize("name", ["e2", "book3", "tripod"])
def test_extend_rejects_lengths_that_are_not_positive_and_finite(name, delta, request):
    # a NaN or infinite length would give a geodesic with NaN length or coordinates
    space = request.getfixturevalue(name)
    p, q = sample_points(space, substream(37, "extend lengths"), 2)
    with pytest.raises(ParamOutOfRange):
        extend(space, geodesic(space, p, q), delta)


def _outcome(fn, *args):
    """repr of what fn returns, or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except Cat0otError as exc:
        return type(exc).__name__, str(exc)


def _family_cases(space, rng):
    """Geodesics to extend and project onto, with a point and a length each.

    Random geodesics, zero-length ones, and per family the ends that take the
    other branches: tree geodesics into a leaf or a branch vertex, book
    geodesics parallel to, onto and away from the spine, and Euclidean ones
    far from the origin, whose extension keeps two pieces because the
    collinear merge declines.
    """
    impl = space.impl
    specials = []
    if space.kind == "tree":
        specials = [impl.vertex_point(v) for v in impl.vertices]
    for k in range(200):
        p, q, x = sample_points(space, rng, 3)
        if k % 10 == 0:
            q = p
        elif k % 4 == 1 and specials:
            q = specials[int(rng.integers(len(specials)))]
        elif k % 4 == 1 and space.kind == "open_book":
            u, v = p.coords
            q = normalize(space, Point(p.chart, [(u, v + 0.5), (0.0, v), (u + 0.5, v)][k % 3]))
        elif k % 4 == 1:
            far = tuple(c + 1e6 for c in p.coords)
            p, q = Point(0, far), Point(0, tuple(c + 1e6 for c in q.coords))
            x = Point(0, tuple(c + 1e6 for c in x.coords))
        delta = float(rng.uniform(1e-5, 2.0)) if k % 3 else 1e-5
        yield geodesic(space, p, q), x, delta


@pytest.mark.parametrize("name", ["e2", "e3", "book3", "tripod", "comb14", "lopsided_tree"])
def test_extension_and_segment_projection_match_the_family_methods(name, request):
    space = request.getfixturevalue(name)
    rng = substream(23, "family oracle")
    kept_two = 0
    for g, x, delta in _family_cases(space, rng):
        assert _outcome(extend, space, g, delta) == _outcome(extend_by_family, space, g, delta)
        xn = normalize(space, x)
        lines = [g]
        if g.length > 0:
            try:
                lines.append(extend(space, g, delta))
            except NotExtendable:
                pass
        for line in lines:
            got = _outcome(project_convex, space, x, Segment(line))
            assert got == _outcome(project_segment_by_family, space, xn, line)
        kept_two += space.kind == "euclidean" and len(lines[-1].pieces) == 2
    if space.kind == "euclidean":
        assert kept_two > 0


def _vertex_sets(space, rng):
    """Connected vertex sets grown from a random vertex, and random ones that
    are mostly disconnected, of up to 40 vertices, plus the error cases."""
    impl = space.impl
    verts = impl.vertices
    for k in range(200):
        size = int(rng.integers(1, min(40, len(verts)) + 1))
        if k % 2:
            yield [verts[int(i)] for i in rng.choice(len(verts), size, replace=False)]
            continue
        grown = [int(rng.integers(len(verts)))]
        frontier = set()
        while len(grown) < size:
            frontier.update(
                w for e in impl.incident[grown[-1]] for w in (impl._ea[e], impl._eb[e])
            )
            frontier.difference_update(grown)
            grown.append(sorted(frontier)[int(rng.integers(len(frontier)))])
        yield [verts[i] for i in rng.permutation(grown)]
    yield []
    yield [verts[0], 10**6, -7, verts[0]]


@pytest.mark.parametrize("name", ["comb14", "comb316"])
def test_subtree_check_matches_the_edge_scan(name, request):
    space = request.getfixturevalue(name)
    rng = substream(29, "subtree oracle")
    connected = 0
    for vs in _vertex_sets(space, rng):
        want = _outcome(check_subtree_by_scan, space, vs)
        assert _outcome(space.impl._check_subtree, vs) == want
        connected += isinstance(want, str)
    assert 100 <= connected < 202


@pytest.mark.parametrize("name", ["comb14", "comb316"])
def test_subtree_projection_matches_the_vertex_loop(name, request):
    space = request.getfixturevalue(name)
    rng = substream(31, "subtree projection oracle")
    for vs in _vertex_sets(space, rng):
        # sampled points, and points at member vertices
        members = [space.impl.vertex_point(v) for v in vs[:2] if v in space.impl._vidx]
        for x in sample_points(space, rng, 3) + members:
            want = _outcome(project_subtree_by_loop, space, x, vs)
            assert _outcome(project_convex, space, x, Subtree(tuple(vs))) == want


# ---------------------------------------------------------------------------
# misc


def test_points_equal_uses_metric(tripod):
    assert points_equal(tripod, Point(0, (0.0,)), Point(2, (0.0,)))
    assert not points_equal(tripod, Point(0, (0.5,)), Point(1, (0.5,)))


@settings(deadline=None, max_examples=40)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_euclidean_distance_symmetry_property(ax, ay, bx, by):
    from cat0ot import build_euclidean

    e2 = build_euclidean(2)
    p, q = Point(0, (ax, ay)), Point(0, (bx, by))
    assert distance(e2, p, q) == distance(e2, q, p)
    assert distance(e2, p, p) == 0.0
