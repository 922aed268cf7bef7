from __future__ import annotations

import json
import math

import numpy as np
import pytest

from cat0ot import (
    CapExceeded,
    ConfigInvalid,
    InvalidPoint,
    ParamOutOfRange,
    Point,
    TreeRegion,
    build_comb,
    build_euclidean,
    build_open_book,
    build_star,
    build_tree,
    build_tripod,
    distance,
    geodesic,
    measure,
    normalize,
    pairwise_costs,
    point_from_json,
    point_to_json,
    space_from_json,
    space_to_json,
)
from cat0ot.harness import sample_points
from cat0ot.rng import substream

from _oracles import book_distance, comb_counts, tree_distance


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


@pytest.mark.parametrize("fixture", ["tripod", "comb14", "lopsided_tree"])
def test_tree_distance_matches_networkx(fixture, request):
    space = request.getfixturevalue(fixture)
    rng = substream(11, f"oracle:{fixture}")
    pts = sample_points(space, rng, 40)
    for k in range(0, 38, 2):
        p, q = pts[k], pts[k + 1]
        want = tree_distance(space, p, q)
        assert distance(space, p, q) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("fixture", ["tripod", "comb14", "lopsided_tree"])
def test_tree_cost_rows_match_networkx(fixture, request):
    space = request.getfixturevalue(fixture)
    impl = space.impl
    rng = substream(13, f"rows:{fixture}")
    inner = sample_points(space, rng, 8)
    # sources at every vertex and inside edges; targets inside edges, some on a
    # source's own edge, and at the vertices too
    same_edge = [Point(p.chart, (0.5 * p.coords[0],)) for p in inner[:3]]
    sources = [impl.vertex_point(v) for v in space.params.vertices] + inner[:4]
    targets = inner + same_edge + [impl.vertex_point(space.params.vertices[-1])]
    mu, nu = measure(space, sources), measure(space, targets)
    C = pairwise_costs(space, mu, nu)
    assert C.shape == (len(mu.points), len(nu.points))
    for i, x in enumerate(mu.points):
        for j, y in enumerate(nu.points):
            assert C[i, j] == pytest.approx(0.5 * tree_distance(space, x, y) ** 2, abs=1e-12)


@pytest.mark.parametrize("fixture", ["tripod", "comb14", "lopsided_tree"])
def test_tree_region_diameter_is_all_pairs_maximum(fixture, request):
    space = request.getfixturevalue(fixture)
    impl = space.impl
    verts = list(space.params.vertices)
    # closed vertex balls are connected, so each is a valid subtree region
    balls = [
        [v for v in verts if impl.vertex_distance(c, v) <= r]
        for c in verts
        for r in (0.5, 1.0, 1.6)
    ]
    for vs in [verts, verts[::-1]] + balls:
        want = max(impl.vertex_distance(u, v) for u in vs for v in vs)
        assert impl.region_diameter(TreeRegion(tuple(vs))) == want


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
