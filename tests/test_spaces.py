from __future__ import annotations

import json
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from cat0ot import (
    Ball,
    BallRegion,
    BoxRegion,
    CapExceeded,
    ConfigInvalid,
    EmptyRegion,
    InvalidPoint,
    ParamOutOfRange,
    Point,
    Subtree,
    TreeRegion,
    UnsupportedConvexSet,
    UnsupportedRegion,
    build_comb,
    build_euclidean,
    build_open_book,
    build_star,
    build_tree,
    build_tripod,
    cat0_defect,
    convex_combination,
    cost,
    distance,
    eilenberg_estimate,
    geodesic,
    measure,
    normalize,
    pairwise_costs,
    point_from_json,
    points_equal,
    project_convex,
    point_to_json,
    space_from_json,
    space_to_json,
)
from cat0ot import geometry, spaces
from cat0ot.harness import EXPERIMENTS, Scenario, render_report, run_scenario, sample_points
from cat0ot.rng import substream

from _oracles import (
    _tree_legs,
    book_distance,
    comb_counts,
    distances_by_four_routes,
    path_sections_by_climb,
    region_diameter_by_family,
    region_volume_by_family,
    route_by_four_lcas,
    route_by_one_lca,
    sample_region_by_family,
    tree_distance,
    vertex_point_by_incident_edge,
)


# ---------------------------------------------------------------------------
# builders


def test_euclidean_builder_rejects_bad_dim():
    with pytest.raises(ParamOutOfRange):
        build_euclidean(0)


def test_euclidean_distance_matches_norm(e3):
    rng = substream(3, "test")
    for _ in range(200):
        a, b = rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3)
        d = distance(e3, Point(0, tuple(a)), Point(0, tuple(b)))
        assert d == pytest.approx(float(np.linalg.norm(a - b)), abs=1e-12)


def test_tree_builder_validation():
    with pytest.raises(ParamOutOfRange):
        build_tree(["a", "b"], [("a", "b", 0.0)])  # nonpositive length
    with pytest.raises(ParamOutOfRange):
        build_tree(["a", "b", "c"], [("a", "b", 1.0)])  # not v-1 edges
    with pytest.raises(ParamOutOfRange):
        build_tree(["a", "a"], [("a", "a", 1.0)])  # duplicate vertex
    with pytest.raises(ParamOutOfRange):
        build_tree(
            ["a", "b", "c", "d"],
            [("a", "b", 1.0), ("a", "b", 2.0), ("c", "d", 1.0)],
        )  # disconnected despite the edge count
    with pytest.raises(ParamOutOfRange):
        build_tree(["a"], [])  # no edge to carry points


def test_star_and_tripod_shapes():
    tri = build_tripod()
    assert len(tri.params.edges) == 3
    assert all(ln == 1.0 for _a, _b, ln in tri.params.edges)
    star5 = build_star(5, length=0.5)
    assert len(star5.params.edges) == 5
    assert all(ln == 0.5 for _a, _b, ln in star5.params.edges)


@pytest.mark.parametrize("depth,grid", [(0, 1), (1, 2), (1, 4), (2, 2), (3, 2)])
def test_comb_counts_match_direct_enumeration(depth, grid):
    space = build_comb(depth, grid)
    verts, edges = comb_counts(depth, grid)
    assert len(space.params.vertices) == verts
    assert len(space.params.edges) == edges


def test_comb_caps_and_bounds():
    with pytest.raises(CapExceeded):
        build_comb(4, 2)
    with pytest.raises(CapExceeded):
        build_comb(1, 17)
    with pytest.raises(ParamOutOfRange):
        build_comb(-1, 2)
    with pytest.raises(ParamOutOfRange):
        build_comb(1, 0)


def test_open_book_needs_two_pages():
    with pytest.raises(ParamOutOfRange):
        build_open_book(1)


# ---------------------------------------------------------------------------
# tree metric against the shortest-path oracle


def test_tripod_worked_example(tripod):
    a = Point(0, (0.4,))
    b = Point(1, (0.7,))
    assert distance(tripod, a, b) == pytest.approx(1.1, abs=1e-12)
    g = geodesic(tripod, a, b)
    mid = g.at_arc(0.55)
    assert mid.chart == 1
    assert mid.coords[0] == pytest.approx(0.15, abs=1e-12)


def _oracle_points(fixture, space, rng, n):
    """n sampled points; on the deep tree, drawn on its unit edges below the
    long root edge, where path lengths are at most 4 and an absolute
    tolerance holds."""
    if fixture != "deep_tree":
        return sample_points(space, rng, n)
    edges = rng.integers(1, len(space.params.edges), n)
    return [Point(int(e), (float(s),)) for e, s in zip(edges, rng.uniform(0.0, 1.0, n))]


@pytest.mark.parametrize("fixture", ["tripod", "comb14", "lopsided_tree", "deep_tree"])
def test_tree_distance_matches_networkx(fixture, request):
    space = request.getfixturevalue(fixture)
    rng = substream(11, f"oracle:{fixture}")
    pts = _oracle_points(fixture, space, rng, 40)
    for k in range(0, 38, 2):
        p, q = pts[k], pts[k + 1]
        want = tree_distance(space, p, q)
        assert distance(space, p, q) == pytest.approx(want, abs=1e-9)


@pytest.fixture(scope="module")
def comb24():
    return build_comb(2, 4)


@pytest.fixture(scope="module")
def lopsided_at_e(lopsided_tree):
    # same tree rooted at a leaf, so vertex index 0 is not the root
    return build_tree(lopsided_tree.params.vertices, lopsided_tree.params.edges, root="e")


@pytest.mark.parametrize(
    "fixture", ["tripod", "comb14", "lopsided_tree", "comb24", "lopsided_at_e", "deep_tree"]
)
def test_tree_cost_rows_match_networkx(fixture, request):
    space = request.getfixturevalue(fixture)
    impl = space.impl
    rng = substream(13, f"rows:{fixture}")
    inner = _oracle_points(fixture, space, rng, 8)
    # sources at every vertex (but the deep tree's root, 1e20 above the rest)
    # and inside edges; targets inside edges, some on a source's own edge, and
    # at the vertices too
    same_edge = [Point(p.chart, (0.5 * p.coords[0],)) for p in inner[:3]]
    verts = space.params.vertices[fixture == "deep_tree" :]
    sources = [impl.vertex_point(v) for v in verts] + inner[:4]
    targets = inner + same_edge + [impl.vertex_point(space.params.vertices[-1])]
    mu, nu = measure(space, sources), measure(space, targets)
    C = pairwise_costs(space, mu, nu)
    assert C.shape == (len(mu.points), len(nu.points))
    for i, x in enumerate(mu.points):
        for j, y in enumerate(nu.points):
            assert C[i, j] == pytest.approx(0.5 * impl.distance(x, y) ** 2, abs=1e-12)
            assert C[i, j] == pytest.approx(0.5 * tree_distance(space, x, y) ** 2, abs=1e-12)


def _edge_points(space):
    """Points where two distance formulas are most likely to part: book spine
    points, -0.0 coordinates, tree vertices, Euclidean coordinates of 1e200,
    whose distances overflow to inf, a book point whose distances overflow
    from finite coordinate differences, and two points 1e-170 apart, whose
    squared distance underflows to zero."""
    if space.kind == "euclidean":
        zero = (-0.0,) * space.dim
        tiny = [Point(0, (c,) * space.dim) for c in (1e-170, 2e-170)]
        return [Point(0, zero), Point(0, (1e200,) + zero[1:]), Point(0, (-1e200,) * space.dim)] + tiny
    if space.kind == "open_book":
        return [
            Point(0, (0.0, 0.5)),
            Point(0, (0.0, -0.0)),
            Point(2, (0.5, -0.0)),
            Point(1, (1e200, -1e200)),
            Point(1, (1.5e308, 1.5e308)),
            Point(2, (0.5, 1e-170)),
            Point(2, (0.5, 2e-170)),
        ]
    return [space.impl.vertex_point(v) for v in space.params.vertices[:40]]


@pytest.mark.parametrize(
    "name", ["book3", "comb14", "comb316", "deep_tree", "e2", "e3", "lopsided_tree", "tripod"]
)
def test_distance_rows_match_the_scalar_distance(name, request):
    space = request.getfixturevalue(name)
    rng = substream(17, f"rows-vs-distance:{name}")
    edge = [space.impl.normalize(p) for p in _edge_points(space)]
    sources = sample_points(space, rng, 50) + edge
    # every source is a target as well, so each row holds its own p == q
    targets = sample_points(space, rng, 200) + edge + sources
    charts = np.asarray([y.chart for y in targets])
    coords = np.asarray([y.coords for y in targets], dtype=float)
    for x in sources:
        with np.errstate(over="ignore"):  # 1e200 squared is inf on both sides
            row = space.impl.distances_from(x, charts, coords)
        want = np.array([space.impl.distance(x, y) for y in targets])
        assert row.tobytes() == want.tobytes()
    if space.kind == "euclidean":
        assert space.impl.distance(edge[1], edge[2]) == math.inf


def _rows(points):
    """(charts, coords) arrays of a list of points, as the array methods take them."""
    return np.asarray([p.chart for p in points], dtype=np.int64), np.asarray([p.coords for p in points], dtype=float)


def test_path_lengths_below_a_long_root_edge_are_exact(deep_tree):
    impl = deep_tree.impl
    p, q = Point(2, (0.5,)), Point(4, (0.5,))  # halfway along b-d and c-e
    want = tree_distance(deep_tree, p, q)
    assert distance(deep_tree, p, q) == want == 3.0
    C = pairwise_costs(deep_tree, measure(deep_tree, [p]), measure(deep_tree, [q]))
    assert C[0, 0] == 0.5 * want**2 == 4.5
    d, e = impl.vertex_point("d"), impl.vertex_point("e")
    assert impl.distance(d, e) == tree_distance(deep_tree, d, e) == 4.0
    # the pair forms, on both pairs at once
    ends = (_rows([p, d]), _rows([q, e]))
    rows = impl.distances_between(*ends[0], *ends[1])
    assert rows.tolist() == [3.0, 4.0]
    assert (0.5 * rows[0] ** 2) == 4.5
    lengths, _charts, _coords = impl.geodesic_points(*ends[0], *ends[1], np.full((2, 1), 0.5))
    assert lengths.tolist() == [3.0, 4.0]


PAIR_SPACES = [
    "book3",
    "comb14",
    "comb316",
    "deep_tree",
    "e2",
    "e3",
    "long_tree",
    "lopsided_at_e",
    "lopsided_tree",
    "tripod",
]


def _pairs(space, rng):
    """Point pairs where the pair methods and the scalar calls are most likely
    to part: sampled pairs, the `_edge_points` against each other and against
    samples, pairs on one edge or page, spine points and p == q."""
    impl = space.impl
    edge = [impl.normalize(p) for p in _edge_points(space)]
    pts = sample_points(space, rng, 80)
    pairs = list(zip(pts[::2], pts[1::2]))
    pairs += [(p, q) for p in edge[:12] for q in edge + pts[:8]] + [(q, p) for p in edge for q in pts[:8]]
    pairs += [(p, p) for p in pts[:8] + edge]
    if space.kind == "tree":
        same = [impl.normalize(Point(p.chart, (0.5 * p.coords[0],))) for p in pts[:20]]
    elif space.kind == "open_book":
        spine = [Point(0, (0.0, p.coords[1])) for p in pts[:10]]
        pairs += [(p, q) for p, q in zip(spine, pts[10:20])] + [(q, p) for p, q in zip(spine, pts[20:30])]
        same = [impl.normalize(Point(p.chart, (0.5 * p.coords[0], -p.coords[1]))) for p in pts[:20]]
    else:
        same = pts[40:60]
    return pairs + list(zip(pts[:20], same))


@pytest.mark.parametrize("name", PAIR_SPACES)
def test_distances_between_match_the_scalar_distance(name, request):
    space = request.getfixturevalue(name)
    pairs = _pairs(space, substream(23, f"pairs:{name}"))
    got = space.impl.distances_between(*_rows([p for p, _ in pairs]), *_rows([q for _, q in pairs]))
    want = np.array([space.impl.distance(p, q) for p, q in pairs])
    assert got.tobytes() == want.tobytes()
    # the overflowing edge points read inf, as the scalar gives it, and warn nowhere
    assert np.isinf(want).any() == (space.kind != "tree")


def _geodesic_points_agree(impl, pairs, geos, rng, stride: int = 1) -> None:
    """`geodesic_points` on the pairs equals each scalar geodesic's `eval`, byte
    for byte: at t at both ends, at every stride-th exact piece end, just short
    of it, where a tree point snaps to the vertex, and at two t inside."""
    ts = [
        [0.0, 1.0, *(pc.t1 for pc in g.pieces[::stride]), *(max(0.0, pc.t1 - 1e-14) for pc in g.pieces[::stride])]
        + rng.uniform(0.0, 1.0, 2).tolist()
        for g in geos
    ]
    width = max(map(len, ts))
    t = np.array([row + [0.5] * (width - len(row)) for row in ts])
    lengths, charts, coords = impl.geodesic_points(
        *_rows([p for p, _ in pairs]), *_rows([q for _, q in pairs]), t
    )
    assert lengths.tobytes() == np.array([g.length for g in geos]).tobytes()
    want = [g.eval(float(s)) for g, row in zip(geos, t) for s in row]
    want_charts, want_coords = _rows(want)
    assert charts.ravel().tobytes() == want_charts.tobytes()
    assert coords.reshape(len(want), -1).tobytes() == want_coords.tobytes()


@pytest.mark.parametrize("name", PAIR_SPACES)
def test_geodesic_points_match_the_scalar_geodesic(name, request):
    space = request.getfixturevalue(name)
    impl = space.impl
    rng = substream(29, f"geodesic-pairs:{name}")
    pairs = [(p, q) for p, q in _pairs(space, rng) if math.isfinite(impl.distance(p, q))]
    geos = [impl.geodesic(p, q) for p, q in pairs]
    pairs = [pq for pq, g in zip(pairs, geos) if math.isfinite(g.length)]
    geos = [g for g in geos if math.isfinite(g.length)]
    _geodesic_points_agree(impl, pairs, geos, rng)
    assert any(g.length == 0 for g in geos)
    # on the flat families, the points 1e-170 apart span a zero-length geodesic
    assert any(g.length == 0 and p != q for (p, q), g in zip(pairs, geos)) == (space.kind != "tree")
    assert any(len(g.pieces) > 1 for g in geos) == (space.kind != "euclidean")


@pytest.mark.parametrize("fixture", ["tripod", "comb14", "lopsided_tree"])
def test_tree_region_diameter_is_all_pairs_maximum(fixture, request):
    space = request.getfixturevalue(fixture)
    impl = space.impl
    verts = list(space.params.vertices)
    _verts, charts, coords = impl._pack_vertices(verts)
    rows = [impl.distances_from(impl.vertex_point(c), charts, coords).tolist() for c in verts]
    # closed vertex balls are connected, so each is a valid subtree region
    balls = [[v for v, d in zip(verts, row) if d <= r] for row in rows for r in (0.5, 1.0, 1.6)]
    for vs in [verts, verts[::-1]] + balls:
        ends = [impl.vertex_point(v) for v in vs]
        want = max(impl.distance(p, q) for p in ends for q in ends)
        assert impl.region(TreeRegion(tuple(vs)))[1] == want


def _route_cases(space, rng):
    """Point pairs on different edges: sampled, at vertices, and inside edges
    that share a vertex."""
    impl = space.impl
    pts = sample_points(space, rng, 120)
    verts = list(space.params.vertices)
    if len(verts) > 60:
        verts = [verts[int(k)] for k in rng.choice(len(verts), 60, replace=False)]
    pts += [impl.vertex_point(v) for v in verts]
    pairs = [(p, q) for p in pts[::3] for q in pts]
    for v in verts:
        inc = impl.incident[impl._vidx[v]]
        for e in inc:
            for f in inc:
                for s, t in ((0.25, 0.75), (0.75, 0.25)):
                    ls, lt = impl.edges[e][2], impl.edges[f][2]
                    pairs.append((Point(e, (s * ls,)), Point(f, (t * lt,))))
    return [(p, q) for p, q in pairs if p.chart != q.chart]


def _at_positions(impl, route: tuple) -> tuple:
    """An oracle's route (length, u, cu, v, cv, w) with its vertex indices u, v
    and w mapped to preorder positions, as `_route` gives them."""
    tot, u, cu, v, cv, w = route
    return tot, impl._tin[u], cu, impl._tin[v], cv, impl._tin[w]


def _lower_end(impl, e: int) -> int:
    """The vertex index of edge e's lower end, the end whose parent edge it is."""
    a, b, _ln = impl.edges[e]
    ai, bi = impl._vidx[a], impl._vidx[b]
    return ai if impl.parent_edge[ai] == e else bi


@pytest.mark.parametrize("name", ["comb316", "comb14", "tripod", "lopsided_tree"])
def test_route_matches_the_four_lca_loop(name, request):
    space = request.getfixturevalue(name)
    impl = space.impl
    lca, _leg = _tree_legs(impl)
    cases = {"above both": 0, "at p's lower end": 0, "at q's lower end": 0}
    for p, q in _route_cases(space, substream(19, f"route:{name}")):
        got = repr(impl._route(p, q))
        assert got == repr(_at_positions(impl, route_by_one_lca(space, p, q)))
        if impl._vertex_of(p) is None and impl._vertex_of(q) is None:
            # inside both edges the one route is the shortest of the four; a
            # point at a vertex leaves by it, which may part from the four-route
            # pick in its ends or last bit (the pair-kernel test bounds that)
            assert got == repr(_at_positions(impl, route_by_four_lcas(space, p, q)))
        pl, ql = _lower_end(impl, p.chart), _lower_end(impl, q.chart)
        top = lca(pl, ql)
        cases["at p's lower end" if top == pl else "at q's lower end" if top == ql else "above both"] += 1
    if name == "tripod":
        # every edge hangs from the root, so no edge lies below another
        assert cases["above both"] > 0
    else:
        assert min(cases.values()) > 0, cases


@pytest.mark.parametrize("name", ["comb316", "comb14", "tripod", "lopsided_tree", "long_tree", "deep_tree"])
def test_route_is_the_pair_routes_row(name, request):
    space = request.getfixturevalue(name)
    impl = space.impl
    pairs = _route_cases(space, substream(53, f"route-row:{name}"))
    assert any(impl._vertex_of(p) is not None for pq in pairs for p in pq)
    routes = [impl._route(p, q) for p, q in pairs]
    # the scalar route answers in Python numbers
    assert {type(x) for r in routes for x in r} == {int, float}
    (e, s), (f, t) = _rows([p for p, _ in pairs]), _rows([q for _, q in pairs])
    for k, want in enumerate(impl._pair_routes(e, s[:, 0], f, t[:, 0])):
        got = np.array([r[k] for r in routes], dtype=want.dtype)
        assert got.tobytes() == want.tobytes()


def _tree_rows(space, rng, n: int) -> dict:
    """{kind: (charts, coords)} of n normal rows: "inside" points drawn inside
    the edges, "vertex" points drawn among the vertices."""
    impl = space.impl
    e = rng.integers(0, len(impl.edges), n)
    inside = impl._normal_rows(e, (rng.uniform(0.0, 1.0, n) * impl._lens[e])[:, None])
    at = np.asarray(impl._tin)[rng.integers(0, len(impl.vertices), n)]
    return {"inside": inside, "vertex": (impl._pre_vchart[at], impl._pre_voff[at][:, None])}


def _ulps(got, want) -> np.ndarray:
    """|got - want| in units of the spacing of the smaller, row by row."""
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want) / np.spacing(np.minimum(got, want))


@pytest.mark.parametrize(
    "name, vertex_ulps",
    [("tripod", 0), ("comb14", 1), ("comb316", 1), ("deep_tree", 1), ("lopsided_tree", 2), ("long_tree", 2)],
)
def test_pair_kernel_matches_the_four_route_minimum(name, vertex_ulps, request):
    space = request.getfixturevalue(name)
    rows = _tree_rows(space, substream(31, f"four-routes:{name}"), 20_000)
    for kp, kq in [("inside", "inside"), ("vertex", "inside"), ("inside", "vertex"), ("vertex", "vertex")]:
        ends = (*rows[kp], *rows[kq])
        got = space.impl.distances_between(*ends)
        want = distances_by_four_routes(space, *ends)
        if kp == kq == "inside":
            assert got.tobytes() == want.tobytes()
        else:
            # the one route is one of the four, so never below their minimum;
            # it parts from it only in routes that tie at a vertex
            assert (got >= want).all()
            assert _ulps(got, want).max() <= vertex_ulps


@pytest.mark.parametrize("name", ["comb316", "long_tree", "deep_tree", "lopsided_tree"])
def test_tree_distances_from_equal_the_pair_kernel(name, request):
    space = request.getfixturevalue(name)
    impl = space.impl
    rng = substream(37, f"one-source:{name}")
    rows = _tree_rows(space, rng, 300)
    edges = np.arange(len(impl.edges))
    every = impl._normal_rows(edges, (0.5 * impl._lens)[:, None])
    charts = np.concatenate([rows["inside"][0], rows["vertex"][0], every[0]])
    coords = np.concatenate([rows["inside"][1], rows["vertex"][1], every[1]])
    sources = [Point(int(c), tuple(x)) for c, x in zip(charts[::97], coords[::97])]
    assert any(impl._vertex_of(p) is None for p in sources)
    assert any(impl._vertex_of(p) is not None for p in sources)
    for p in sources:
        own = np.flatnonzero(charts == p.chart)
        one = np.flatnonzero(charts == charts[1])[:1].repeat(5)
        for pick in (np.arange(0), np.arange(1), one, own, np.arange(len(charts))):
            ch, x = charts[pick], coords[pick]
            got = impl.distances_from(p, ch, x)
            want = impl.distances_between(np.full(len(pick), p.chart), np.tile(p.coords, (len(pick), 1)), ch, x)
            assert got.tobytes() == want.tobytes()


def _lca_pairs_agree(impl, u, v) -> None:
    """`_lcas` on the preorder positions of vertex indices u, v equals the
    oracle's climb on u, v, mapped to preorder positions."""
    lca, _leg = _tree_legs(impl)
    tin = np.asarray(impl._tin)
    got = impl._lcas(tin[u], tin[v])
    assert got.tolist() == [impl._tin[lca(a, b)] for a, b in zip(u.tolist(), v.tolist())]


@pytest.mark.parametrize("name", ["lopsided_tree", "long_tree"])
def test_lcas_match_the_scalar_lca_on_every_vertex_pair(name, request):
    impl = request.getfixturevalue(name).impl
    u, v = np.divmod(np.arange(len(impl.vertices) ** 2), len(impl.vertices))
    _lca_pairs_agree(impl, u, v)


def test_lcas_match_the_scalar_lca_on_comb316(comb316):
    rng = substream(41, "lcas:comb316")
    _lca_pairs_agree(comb316.impl, *rng.integers(0, len(comb316.impl.vertices), (2, 5_000)))


@pytest.fixture(scope="module")
def path301():
    # a path of 301 vertices rooted at its middle: depth 150 on both sides,
    # and an LCA at the root for every pair across it
    return build_tree(range(301), [(k, k + 1, 1.0) for k in range(300)], root=150)


def test_lcas_lift_a_path_in_log_depth_levels(path301):
    impl = path301.impl
    assert len(impl._lift) == math.ceil(math.log2(150)) == 8
    rng = substream(43, "lcas:path")
    u, v = rng.integers(0, 301, (2, 3_000))
    # k and 300 - k meet at the root, a climb of 149 - k steps from k < 150; the
    # climbs 0 to 149 between them set every bit of every level
    _lca_pairs_agree(impl, np.concatenate([u, np.arange(301)]), np.concatenate([v, np.arange(301)[::-1]]))


def test_geodesic_points_match_the_scalar_geodesic_on_a_deep_path(path301):
    impl = path301.impl
    rng = substream(47, "geodesic-points:path301")
    # from inside each edge left of the root to inside one right of it, both
    # ways, and between vertices on one side, whose LCA lies below the root
    across = [(Point(k, (0.25,)), Point(150 + (37 * k) % 150, (0.5,))) for k in range(150)]
    pairs = across + [(q, p) for p, q in across]
    pairs += [(impl.vertex_point(k), impl.vertex_point(k + 3 + k % 50)) for k in range(0, 140, 7)]
    geos = [impl.geodesic(p, q) for p, q in pairs]
    _geodesic_points_agree(impl, pairs, geos, rng, stride=23)
    # the climbs take every level of `_lift`, and most of their counts are no power of 2
    (e, s), (f, t) = _rows([p for p, _ in pairs]), _rows([q for _, q in pairs])
    _tot, u, _cu, v, _cv, w = impl._pair_routes(e, s[:, 0], f, t[:, 0])
    climbs = set((impl._pre_depth[np.concatenate([u, v])] - impl._pre_depth[np.concatenate([w, w])]).tolist())
    assert len(impl._lift) == 8 and max(climbs) > 2**7
    assert len(climbs - {0} - {2**k for k in range(8)}) > 100


@pytest.mark.parametrize("name", ["comb316", "long_tree", "lopsided_tree", "path301"])
def test_path_sections_match_the_one_parent_climb(name, request):
    space = request.getfixturevalue(name)
    impl = space.impl
    rng = substream(53, f"sections:{name}")
    u = rng.integers(0, len(impl.vertices), 3_000)  # preorder positions
    w = impl._lcas(u, rng.integers(0, len(impl.vertices), 3_000))
    every = np.arange(len(impl.vertices))
    # mixed rows; every position up to the root; rows that climb nothing,
    # whose sections are [n, 0] with the climb's dtypes; and no rows
    for a, b in ((u, w), (every, np.zeros_like(every)), (u, u), (u[:0], w[:0])):
        got, want = impl._path_sections(a, b), path_sections_by_climb(space, a, b)
        assert [(x.dtype, x.shape) for x in got] == [(y.dtype, y.shape) for y in want]
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
    assert impl._path_sections(u, u)[0].shape == (len(u), 0)
    assert (u != w).any() and (u == w).any()


def test_rerooted_subtree_connectivity(lopsided_at_e):
    impl = lopsided_at_e.impl
    x = Point(3, (1.0,))  # inside edge d-e
    apart = ("a", "g")  # two leaves joined through b and d
    with pytest.raises(UnsupportedConvexSet):
        impl.region(TreeRegion(apart))
    with pytest.raises(UnsupportedConvexSet):
        project_convex(lopsided_at_e, x, Subtree(apart))
    cases = [
        (("b",), 0.0, impl.vertex_point("b")),
        (lopsided_at_e.params.vertices, 6.6, x),
        (("d", "e", "d"), 2.2, x),
        (("a", "b", "d", "f"), 1.8, impl.vertex_point("d")),  # connected, without the root e
    ]
    for vs, volume, proj in cases:
        assert impl.region(TreeRegion(vs))[0] == pytest.approx(volume, abs=1e-12)
        assert distance(lopsided_at_e, project_convex(lopsided_at_e, x, Subtree(vs)), proj) <= 1e-12


def test_tree_geodesic_length_and_endpoints(lopsided_tree):
    rng = substream(12, "geo")
    pts = sample_points(lopsided_tree, rng, 30)
    for k in range(0, 28, 2):
        g = geodesic(lopsided_tree, pts[k], pts[k + 1])
        assert g.length == pytest.approx(tree_distance(lopsided_tree, pts[k], pts[k + 1]), abs=1e-9)
        assert distance(lopsided_tree, g.eval(0.0), pts[k]) <= 1e-9
        assert distance(lopsided_tree, g.eval(1.0), pts[k + 1]) <= 1e-9


def test_tree_vertex_normalization(tripod):
    # the center vertex is reachable from every leg; all spellings normalize
    # to the lowest incident edge
    spellings = [Point(e, (0.0,)) for e in range(3)]
    canon = [normalize(tripod, p) for p in spellings]
    assert all(p.chart == canon[0].chart and p.coords == canon[0].coords for p in canon)


def test_tree_point_validation(tripod):
    with pytest.raises(InvalidPoint):
        distance(tripod, Point(7, (0.1,)), Point(0, (0.1,)))
    with pytest.raises(InvalidPoint):
        distance(tripod, Point(0, (1.5,)), Point(0, (0.1,)))


# every public scalar entry point checks each point it is given

VALID_POINTS = {
    "e2": (Point(0, (0.1, 0.2)), Point(0, (-0.3, 0.4)), Point(0, (0.5, -0.6))),
    "book3": (Point(0, (0.5, 0.1)), Point(1, (0.3, -0.2)), Point(2, (0.7, 0.4))),
    "tripod": (Point(0, (0.3,)), Point(1, (0.6,)), Point(2, (0.2,))),
}
# a chart out of range, a wrong or out-of-chart coordinate, a non-finite one
INVALID_POINTS = {
    "e2": (Point(1, (0.0, 0.0)), Point(0, (0.0,)), Point(0, (math.nan, 0.0))),
    "book3": (Point(3, (0.5, 0.0)), Point(0, (-0.5, 0.0)), Point(1, (math.inf, 0.0))),
    "tripod": (Point(7, (0.1,)), Point(0, (1.5,)), Point(0, (math.nan,))),
}
# entry point -> (call on a list of points, number of point arguments)
ENTRY_POINTS = {
    "distance": (lambda s, p: distance(s, p[0], p[1]), 2),
    "geodesic": (lambda s, p: geodesic(s, p[0], p[1]), 2),
    "convex_combination": (lambda s, p: convex_combination(s, p[0], p[1], 0.5), 2),
    "cat0_defect": (lambda s, p: cat0_defect(s, p[0], p[1], p[2], 0.5), 3),
    "points_equal": (lambda s, p: points_equal(s, p[0], p[1]), 2),
    "project_convex": (lambda s, p: project_convex(s, p[0], Ball(p[1], 0.1)), 2),
    "cost": (lambda s, p: cost(s, p[0], p[1]), 2),
}
BOUNDARY_CASES = [
    (family, entry, position)
    for family in VALID_POINTS
    for entry, (_call, n) in ENTRY_POINTS.items()
    for position in range(n)
]


@pytest.mark.parametrize(
    "family,entry,position",
    BOUNDARY_CASES,
    ids=[f"{f}-{e}-{p}" for f, e, p in BOUNDARY_CASES],
)
def test_public_entry_points_validate_every_point(family, entry, position, request):
    space = request.getfixturevalue(family)
    call, _n = ENTRY_POINTS[entry]
    call(space, list(VALID_POINTS[family]))
    for bad in INVALID_POINTS[family]:
        points = list(VALID_POINTS[family])
        points[position] = bad
        with pytest.raises(InvalidPoint):
            call(space, points)


@pytest.mark.parametrize("family", sorted(VALID_POINTS))
@pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
def test_cat0_defect_rejects_parameters_outside_the_unit_interval(family, t, request):
    x, y, z = VALID_POINTS[family]
    with pytest.raises(ParamOutOfRange):
        cat0_defect(request.getfixturevalue(family), x, y, z, t)


# ---------------------------------------------------------------------------
# open book metric against the unfolding oracle


def test_book_worked_example(book2):
    p = Point(0, (1.0, 0.0))
    q = Point(1, (1.0, 3.0))
    assert distance(book2, p, q) == pytest.approx(math.sqrt(13.0), abs=1e-12)


def test_book_distance_matches_unfolding(book3):
    rng = substream(13, "book")
    pts = sample_points(book3, rng, 60)
    for k in range(0, 58, 2):
        p, q = pts[k], pts[k + 1]
        assert distance(book3, p, q) == pytest.approx(book_distance(p, q), abs=1e-12)


def test_two_page_book_is_isometric_to_plane(book2):
    e2 = build_euclidean(2)
    rng = substream(14, "isometry")

    def embed(p: Point) -> Point:
        u, v = p.coords
        return Point(0, (u if p.chart == 0 else -u, v))

    worst = 0.0
    for _ in range(10_000):
        page1, page2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        p = Point(page1, (float(rng.uniform(0, 3)), float(rng.uniform(-3, 3))))
        q = Point(page2, (float(rng.uniform(0, 3)), float(rng.uniform(-3, 3))))
        worst = max(
            worst,
            abs(distance(book2, p, q) - distance(e2, embed(p), embed(q))),
        )
    assert worst <= 1e-9


def test_book_spine_normalization(book3):
    spine_spellings = [Point(page, (0.0, 0.25)) for page in range(3)]
    canon = [normalize(book3, p) for p in spine_spellings]
    assert all(p.chart == 0 for p in canon)
    assert all(p.coords == (0.0, 0.25) for p in canon)


def test_book_cross_page_geodesic_hits_spine(book3):
    p = Point(1, (1.0, 0.0))
    q = Point(2, (1.0, 3.0))
    g = geodesic(book3, p, q)
    # single spine crossing at v* = v1 + u1 (v2 - v1) / (u1 + u2)
    assert len(g.breakpoints) == 1
    t_cross, crossing = g.breakpoints[0]
    assert t_cross == pytest.approx(0.5, abs=1e-12)
    assert crossing.coords[0] == pytest.approx(0.0, abs=1e-12)
    assert crossing.coords[1] == pytest.approx(1.5, abs=1e-12)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "euclidean", "dim": 3},
        {"kind": "tripod"},
        {"kind": "star", "legs": 4, "length": 0.5},
        {"kind": "comb", "depth": 1, "grid": 4},
        {"kind": "open_book", "pages": 3},
        {
            "kind": "tree",
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", 1.0], ["b", "c", 2.0]],
        },
    ],
)
def test_space_json_round_trip(doc):
    space = space_from_json(doc)
    doc2 = space_to_json(space)
    space2 = space_from_json(doc2)
    assert space_to_json(space2) == doc2
    assert json.dumps(doc2, sort_keys=True) == json.dumps(space_to_json(space), sort_keys=True)


def test_space_json_rejects_garbage():
    with pytest.raises(ConfigInvalid):
        space_from_json({"kind": "sphere"})
    with pytest.raises(ConfigInvalid):
        space_from_json({"dim": 2})
    with pytest.raises(ConfigInvalid):
        space_from_json({"kind": "euclidean"})
    with pytest.raises(ConfigInvalid):
        space_from_json([1, 2, 3])


INF = float("inf")


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "euclidean", "dim": INF},
        {"kind": "comb", "depth": INF, "grid": 4},
        {"kind": "comb", "depth": 1, "grid": -INF},
        {"kind": "star", "legs": INF},
        {"kind": "star", "legs": 3, "length": INF},
        {"kind": "open_book", "pages": INF},
        {"kind": "tree", "vertices": [0, 1], "edges": [[0, 1, INF]]},
    ],
)
def test_space_json_rejects_infinite_fields(doc):
    # an integer field of inf overflows int(); an infinite edge length is no metric tree
    with pytest.raises(ConfigInvalid):
        space_from_json(doc)


@pytest.mark.parametrize("ln", [math.inf, math.nan])
def test_tree_builder_rejects_non_finite_lengths(ln):
    with pytest.raises(ParamOutOfRange):
        build_tree(["a", "b"], [("a", "b", ln)])


def test_tree_builder_rejects_edges_summing_past_the_float_range():
    half = sys.float_info.max / 2
    build_tree(["a", "b", "c"], [("a", "b", half), ("b", "c", half)])
    with pytest.raises(ParamOutOfRange, match="float range"):
        build_tree(["a", "b", "c"], [("a", "b", half), ("b", "c", 2 * half)])


@pytest.fixture
def empty_memo():
    """space_from_json with no space built yet."""
    spaces._built.cache_clear()
    return spaces._built


def test_space_memo_ignores_key_order(empty_memo):
    a = space_from_json({"kind": "comb", "depth": 1, "grid": 4})
    b = space_from_json({"grid": 4, "kind": "comb", "depth": 1})
    assert a is b
    assert space_from_json({"kind": "comb", "depth": 1, "grid": 3}) is not a


def test_space_memo_never_keeps_a_bad_descriptor(empty_memo):
    for doc in ({"kind": "comb", "depth": 4, "grid": 4}, {"kind": "euclidean"}, [1, 2, 3]):
        for _ in range(3):
            with pytest.raises(ConfigInvalid):
                space_from_json(doc)
    assert empty_memo.cache_info().currsize == 0
    # a list and a tuple vertex id have one canonical JSON; only the tuple is
    # a valid (hashable) id, and a descriptor that does not read back from its
    # JSON is built but never kept
    tuple_ids = {"kind": "tree", "vertices": [(0, 0), (0, 1)], "edges": [[(0, 0), (0, 1), 1.0]]}
    list_ids = {"kind": "tree", "vertices": [[0, 0], [0, 1]], "edges": [[[0, 0], [0, 1], 1.0]]}
    assert space_from_json(tuple_ids) is not space_from_json(tuple_ids)
    with pytest.raises(ConfigInvalid):
        space_from_json(list_ids)
    assert empty_memo.cache_info().currsize == 0


def test_space_memo_is_bounded(empty_memo):
    keep = empty_memo.cache_info().maxsize
    docs = [{"kind": "euclidean", "dim": d} for d in range(1, 2 * keep + 1)]
    first = [space_from_json(doc) for doc in docs]
    assert empty_memo.cache_info().currsize == keep
    # the most recent are kept, the oldest were dropped and are built afresh
    assert space_from_json(docs[-1]) is first[-1]
    assert space_from_json(docs[0]) is not first[0]
    assert empty_memo.cache_info().currsize == keep


def test_space_memo_under_threads(empty_memo):
    # more descriptors than the memo keeps, so threads evict what others look up
    keep = empty_memo.cache_info().maxsize
    docs = [{"kind": "euclidean", "dim": d} for d in range(1, 2 * keep + 3)]
    errors = []

    def work(k):
        try:
            for i in range(400):
                doc = docs[(i * (k + 1)) % len(docs)]
                assert space_from_json(doc).dim == doc["dim"]
        except Exception as exc:  # reported below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert empty_memo.cache_info().currsize <= keep


def test_reports_from_a_reused_space_equal_a_fresh_build(empty_memo):
    comb = {"kind": "comb", "depth": 1, "grid": 4}
    scenarios = [
        Scenario(comb, "geometry-suite", {"samples": 200}, 4),
        Scenario(comb, "solve", {"instance": "random", "n": 12, "m": 12}, 5),
        Scenario(comb, "twist", {}, 6),
        Scenario(comb, "eilenberg", {}, 7),
        Scenario({"kind": "tripod"}, "twist", {}, 8),
    ]

    def rendered():
        reports = [run_scenario(sc) for sc in scenarios]
        return [render_report(r) + render_report(r, "csv") for r in reports]

    impl = space_from_json(comb).impl
    built = _impl_state(impl)
    rendered()
    # the runs leave the kept handle as its builder left it
    assert _impl_state(impl) == built
    reused = rendered()
    assert space_from_json(comb).impl is impl
    empty_memo.cache_clear()
    assert reused == rendered()
    assert space_from_json(comb).impl is not impl


def _random_tree(rng):
    """A random tree on 2-30 shuffled integer ids, with edges in random order
    and orientation, and a random root."""
    n = int(rng.integers(2, 31))
    ids = rng.permutation(n).tolist()
    edges = []
    for k in range(1, n):
        a, b = ids[int(rng.integers(0, k))], ids[k]
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b, float(rng.uniform(0.1, 2.0))))
    edges = [edges[int(i)] for i in rng.permutation(n - 1)]
    return build_tree(rng.permutation(ids).tolist(), edges, root=ids[int(rng.integers(0, n))])


def test_vertex_points_follow_the_incident_edge_rule(request):
    rng = substream(43, "random trees")
    fixtures = ["tripod", "comb14", "comb316", "lopsided_tree", "deep_tree", "long_tree"]
    trees = [request.getfixturevalue(name) for name in fixtures] + [_random_tree(rng) for _ in range(20)]
    for space in trees:
        for v in space.params.vertices:
            # repr tells a numpy scalar from the builtin int and float
            assert repr(space.impl.vertex_point(v)) == repr(vertex_point_by_incident_edge(space, v))


def _impl_state(impl) -> dict:
    """Every attribute of a space impl but its handle, as bytes."""
    return {
        key: (val.dtype.str, val.shape, val.tobytes()) if isinstance(val, np.ndarray) else pickle.dumps(val)
        for key, val in vars(impl).items()
        if key != "handle"
    }


# one small run of each experiment
SMALL_RUNS = {
    "solve": {"instance": "random", "n": 6, "m": 5},
    "monotonicity": {"instance": "random", "n": 5},
    "twist": {"trials": 3},
    "fermat": {},
    "eilenberg": {"n_samples": 2000},
    "transport-identity": {"sizes": [5, 9]},
    "polar": {"trials": 2, "n": 4},
    "geometry-suite": {"samples": 50},
}


@pytest.mark.parametrize("name", ["e2", "book3", "tripod", "comb14", "comb316", "deep_tree"])
def test_built_spaces_do_not_change(name, request, empty_memo):
    assert sorted(SMALL_RUNS) == sorted(EXPERIMENTS)
    doc = space_to_json(request.getfixturevalue(name))
    impl = space_from_json(doc).impl
    built = _impl_state(impl)
    ran = []
    for experiment, params in SMALL_RUNS.items():
        try:
            run_scenario(Scenario(doc, experiment, params, 3))
        except ConfigInvalid as exc:
            # an experiment the space does not support
            assert exc.path == "space", (experiment, exc)
            continue
        ran.append(experiment)
    assert space_from_json(doc).impl is impl
    assert {"solve", "eilenberg", "geometry-suite"} <= set(ran)
    assert _impl_state(impl) == built


def test_point_json_round_trip(tripod, book3, e2):
    cases = [
        (e2, Point(0, (0.25, -1.5))),
        (tripod, Point(2, (0.75,))),
        (book3, Point(1, (0.5, 0.25))),
    ]
    for space, p in cases:
        doc = point_to_json(p)
        q = point_from_json(space, doc)
        assert q.chart == p.chart and q.coords == p.coords
    assert point_from_json(book3, [1.0, 0.5, 0.1]) == Point(1, (0.5, 0.1))
    for doc in ([2.7, 0.5, 0.1], [True, 0.5, 0.1], [1, "0.5", 0.1]):
        with pytest.raises(ConfigInvalid):
            point_from_json(book3, doc)


# ---------------------------------------------------------------------------
# regions: one answer per family, against the separate methods it replaced


def _valid_regions(space, rng):
    impl = space.impl
    if space.kind == "euclidean":
        d = impl.dim
        out = []
        for _ in range(6):
            lo = tuple(rng.uniform(-2.0, 1.0, d).tolist())
            hi = tuple(l + w for l, w in zip(lo, rng.uniform(0.0, 2.0, d).tolist()))
            out.append(BoxRegion(0, lo, hi))
            center = Point(0, tuple(rng.uniform(-3.0, 3.0, d).tolist()))
            out.append(BallRegion(center, float(rng.uniform(0.01, 2.0))))
        out.append(BoxRegion(0, (0.5,) * d, (0.5,) + (1.0,) * (d - 1)))  # a flat side
        out.append(BallRegion(Point(0, (1,) * d), 1))  # integer coordinates
        return out
    if space.kind == "open_book":
        out = []
        for page in range(impl.pages):
            for _ in range(3):
                lo = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
                hi = (lo[0] + float(rng.uniform(0.0, 2.0)), lo[1] + float(rng.uniform(0.0, 2.0)))
                out.append(BoxRegion(page, lo, hi))
                r = float(rng.uniform(0.01, 1.0))
                u = r + float(rng.uniform(0.0, 1.0))
                out.append(BallRegion(Point(page, (u, float(rng.uniform(-1.0, 1.0)))), r))
            out.append(BoxRegion(page, (0.0, -1.0), (1.0, 1.0)))  # against the spine
            out.append(BallRegion(Point(page, (0.3, 0.2)), 0.3))  # tangent to the spine
        # a center within the snap tolerance of the spine normalizes onto page 0
        out.append(BallRegion(Point(2, (1e-13, 0.3)), 5e-14))
        return out
    verts = list(space.params.vertices)
    picks = [verts[int(k)] for k in rng.choice(len(verts), min(len(verts), 8), replace=False)]
    out = [TreeRegion(tuple(verts)), TreeRegion(tuple(verts[::-1])), TreeRegion((verts[0],))]
    _verts, charts, coords = impl._pack_vertices(verts)
    for c in picks:
        row = impl.distances_from(impl.vertex_point(c), charts, coords).tolist()
        for r in (0.3, 1.0, 2.5):
            # a closed vertex ball is connected
            ball = [v for v, d in zip(verts, row) if d <= r]
            out.append(TreeRegion(tuple(rng.permutation(ball).tolist()) + (ball[0],)))
    return out


def _outcome(call, *args):
    """The call's result, or its error as (type, message)."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def _is_error(outcome) -> bool:
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


REGION_SPACES = ["e2", "e3", "book3", "tripod", "comb14", "comb316", "lopsided_tree"]


@pytest.mark.parametrize("name", REGION_SPACES)
def test_region_matches_the_separate_family_methods(name, request):
    space = request.getfixturevalue(name)
    kinds = set()
    for k, region in enumerate(_valid_regions(space, substream(23, f"regions:{name}"))):
        volume, diameter, sample = space.impl.region(region)
        assert float(volume).hex() == float(region_volume_by_family(space, region)).hex()
        want = region_diameter_by_family(space, region)
        if space.kind == "open_book" and isinstance(region, BoxRegion):
            # sqrt of the sum of squares, where the book once used math.hypot
            assert abs(diameter - want) <= math.ulp(want)
        else:
            assert float(diameter).hex() == float(want).hex()
        for n in (1, 257):
            rng, ref = substream(k, f"draw:{n}"), substream(k, f"draw:{n}")
            got = _outcome(sample, n, rng)
            expected = _outcome(sample_region_by_family, space, region, n, ref)
            if _is_error(expected):
                # only a zero-length subtree samples nothing, and says so when asked
                assert got == expected == (UnsupportedRegion, "subtree region has zero length")
                assert volume == 0
                kinds.add("empty")
                continue
            charts, coords = got
            assert charts.dtype == expected[0].dtype == np.int64
            assert charts.tobytes() == expected[0].tobytes()
            assert coords.shape == expected[1].shape
            assert coords.tobytes() == expected[1].tobytes()
            # the same generator calls, so the stream continues identically
            assert rng.random(4).tobytes() == ref.random(4).tobytes()
            kinds.add(type(region).__name__)
            kinds.update(f"chart{c}" for c in set(charts.tolist()))
    if space.kind == "open_book":
        assert {"BoxRegion", "BallRegion", "chart0", "chart1", "chart2"} <= kinds
    elif space.kind == "tree":
        assert {"TreeRegion", "empty"} <= kinds


def _rejected_regions(space):
    if space.kind == "euclidean":
        d = space.impl.dim
        return [
            BoxRegion(1, (0.0,) * d, (1.0,) * d),  # wrong chart
            BoxRegion(0, (0.0,) * (d + 1), (1.0,) * d),  # wrong dimension
            BoxRegion(0, (0.0,) * d, (1.0,) * (d - 1)),
            BoxRegion(0, (0.0,) * d, (-1.0,) + (1.0,) * (d - 1)),  # hi < lo
            BallRegion(Point(1, (0.0,) * d), 1.0),  # center off the chart
            BallRegion(Point(0, (0.0,) * (d + 1)), 1.0),
            BallRegion(Point(0, (math.nan,) * d), 1.0),
            TreeRegion((0, 1)),
            EmptyRegion(),
        ]
    if space.kind == "open_book":
        return [
            BoxRegion(-1, (0.0, 0.0), (1.0, 1.0)),  # page out of range
            BoxRegion(3, (0.0, 0.0), (1.0, 1.0)),
            BoxRegion(0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),  # wrong dimension
            BoxRegion(0, (0.0, 0.0), (1.0,)),
            BoxRegion(1, (-0.1, 0.0), (1.0, 1.0)),  # across the spine
            BoxRegion(1, (0.5, 1.0), (1.0, 0.0)),  # hi < lo
            BoxRegion(1, (-0.1, 0.0), (-0.2, 1.0)),  # across the spine and hi < lo
            BallRegion(Point(1, (0.2, 0.0)), 0.3),  # off its page
            BallRegion(Point(3, (1.0, 0.0)), 0.3),  # center's page out of range
            BallRegion(Point(0, (-0.5, 0.0)), 0.3),  # center off the page
            TreeRegion((0, 1)),
            EmptyRegion(),
        ]
    verts = list(space.params.vertices)
    far_leaves = [v for v, inc in zip(verts, space.impl.incident) if len(inc) == 1][:2]
    return [
        TreeRegion(()),  # empty
        TreeRegion((verts[0], "nowhere")),  # unknown
        TreeRegion(tuple(far_leaves)),  # disconnected
        BoxRegion(0, (0.0,), (1.0,)),
        BallRegion(space.impl.vertex_point(verts[0]), 0.5),
        EmptyRegion(),
    ]


def _first_family_error(space, region):
    # the order _shell_estimate asked the separate methods in
    for call, args in (
        (region_volume_by_family, (space, region)),
        (region_diameter_by_family, (space, region)),
        (sample_region_by_family, (space, region, 4, substream(0, "reject"))),
    ):
        outcome = _outcome(call, *args)
        if _is_error(outcome):
            return outcome
    raise AssertionError(f"{region} was accepted by the family methods")


@pytest.mark.parametrize("name", ["e2", "e3", "book3", "tripod", "comb14", "lopsided_tree"])
def test_region_rejects_what_the_family_methods_rejected(name, request):
    space = request.getfixturevalue(name)
    for region in _rejected_regions(space):
        got = _outcome(space.impl.region, region)
        assert _is_error(got), region
        want = _first_family_error(space, region)
        if space.kind == "open_book" and want[1].startswith("box must sit") and region.lo[0] >= 0:
            # hi < lo now gets the message the shared flat-chart box gives
            want = (UnsupportedRegion, "box has hi < lo")
        assert got == want, region


def test_a_whole_tree_region_reads_two_rows(monkeypatch, comb316):
    calls = []
    for name in ("distance", "distances_from"):
        real = getattr(spaces.TreeImpl, name)
        monkeypatch.setattr(
            spaces.TreeImpl, name, lambda self, *args, _n=name, _f=real: calls.append(_n) or _f(self, *args)
        )
    comb316.impl.region(TreeRegion(comb316.params.vertices))
    assert calls == ["distances_from", "distances_from"]


def test_tree_region_checks_its_subtree_once(monkeypatch, lopsided_tree):
    calls = []
    check = spaces.TreeImpl._check_subtree

    def spy(self, vertex_set):
        calls.append(vertex_set)
        return check(self, vertex_set)

    monkeypatch.setattr(spaces.TreeImpl, "_check_subtree", spy)
    g = geodesic(lopsided_tree, lopsided_tree.impl.vertex_point("a"), lopsided_tree.impl.vertex_point("e"))
    for vs in (lopsided_tree.params.vertices, ("b", "d", "f"), ("d",)):
        calls.clear()
        eilenberg_estimate(lopsided_tree, g, TreeRegion(vs), 1000, seed=2)
        assert calls == [vs]


def test_zero_length_subtree_region_estimates_zero(lopsided_tree):
    # the sampler would refuse it; the estimator returns before drawing
    g = geodesic(lopsided_tree, lopsided_tree.impl.vertex_point("a"), lopsided_tree.impl.vertex_point("e"))
    assert eilenberg_estimate(lopsided_tree, g, TreeRegion(("d", "d")), 100) == (0.0, 0.0, True)


# the public methods every family's impl defines, as the geometry docstring
# lists them, and the tree's documented extras
IMPL_CONTRACT = (
    "validate_point",
    "normalize",
    "distance",
    "geodesic",
    "represent_in_chart",
    "continuation",
    "project_segment",
    "region",
    "distances_from",
    "distances_between",
    "geodesic_points",
    "direction_rows",
)
TREE_EXTRAS = ("vertex_point", "project_subtree")


def test_every_impl_defines_the_contract_and_nothing_else():
    for name in IMPL_CONTRACT + TREE_EXTRAS:
        assert f"`impl.{name}`" in geometry.__doc__, name
    impls = {n: c for n, c in vars(spaces).items() if n.endswith("Impl") and isinstance(c, type)}
    assert sorted(impls) == ["BookImpl", "EuclideanImpl", "TreeImpl"]
    for name, cls in impls.items():
        public = {k for k, v in vars(cls).items() if callable(v) and not k.startswith("_")}
        extras = set(TREE_EXTRAS) if cls is spaces.TreeImpl else set()
        assert public == set(IMPL_CONTRACT) | extras, name
