"""End-to-end acceptance gate.

Thirteen tests, one per shipped guarantee, each pinned to its stated
tolerances, sample sizes, and runtime budget. Run with -v for one verdict
line per guarantee; each test also prints a summary line under -s.
"""

from __future__ import annotations

import math
import time

import pytest

from cat0ot import (
    Ball,
    NotDeterministic,
    Point,
    Segment,
    Subtree,
    TransportMap,
    TransportPlan,
    alexandrov_angle,
    brute_force_oracle,
    check_cyclic_monotonicity,
    comparison_angle_sequence,
    convex_combination,
    direction_set,
    distance,
    eilenberg_estimate,
    extract_monge_map,
    fermat_check,
    geodesic,
    inverse_map,
    map_from_points,
    measure,
    polar_factorize,
    project_convex,
    psi_R,
    solve_kantorovich,
    twist_test,
    verify_measure_preserving,
)
from cat0ot.geometry import BallRegion, BoxRegion, TreeRegion
from cat0ot.harness import (
    _tree_same_gate_pair,
    render_report,
    run_scenario,
    sample_points,
    scenario_from_config,
)
from cat0ot.rng import substream

DESCRIPTORS = {
    "e2": {"kind": "euclidean", "dim": 2},
    "e3": {"kind": "euclidean", "dim": 3},
    "tripod": {
        "kind": "tree",
        "vertices": ["c", "a", "b", "d"],
        "edges": [["c", "a", 1.0], ["c", "b", 1.0], ["c", "d", 1.0]],
    },
    "comb14": {"kind": "comb", "depth": 1, "grid": 4},
    "book3": {"kind": "open_book", "pages": 3},
}
FIVE_SPACES = ("e2", "e3", "tripod", "comb14", "book3")


def _scenario(space_name, experiment, params, seed):
    return scenario_from_config(
        {
            "space": DESCRIPTORS[space_name],
            "experiment": experiment,
            "params": params,
            "seed": seed,
        }
    )


def _distinct_points(space, rng, n, floor=1e-3):
    """n sampled points, redrawn until pairwise separated by more than floor."""
    while True:
        pts = sample_points(space, rng, n)
        if all(
            distance(space, pts[i], pts[j]) > floor
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return pts


@pytest.fixture(scope="module")
def solver_runs(request):
    """200 equal-weight instances of size <= 7 per space, solved both ways."""
    start = time.perf_counter()
    runs = []
    worst_cost_gap = 0.0
    worst_dual_gap = 0.0
    worst_slack = 0.0
    for name in FIVE_SPACES:
        space = request.getfixturevalue(name)
        for k in range(200):
            rng = substream(k, f"acceptance-solve:{name}")
            n = int(rng.integers(2, 8))
            mu = measure(space, sample_points(space, rng, n))
            nu = measure(space, sample_points(space, rng, n))
            plan, pot, total = solve_kantorovich(space, mu, nu)
            _, oracle_cost = brute_force_oracle(space, mu, nu)
            dual = sum(w * v for w, v in zip(nu.weights, pot.phi)) - sum(
                w * v for w, v in zip(mu.weights, pot.psi)
            )
            worst_cost_gap = max(worst_cost_gap, abs(total - oracle_cost))
            worst_dual_gap = max(worst_dual_gap, abs(total - dual))
            worst_slack = max(worst_slack, pot.slack_max)
            assert pot.feasible
            runs.append((space, plan))
    elapsed = time.perf_counter() - start
    return {
        "runs": runs,
        "worst_cost_gap": worst_cost_gap,
        "worst_dual_gap": worst_dual_gap,
        "worst_slack": worst_slack,
        "elapsed": elapsed,
    }


def test_criterion_01_geometry_suite():
    worst = {}
    seconds = {}
    for name in FIVE_SPACES:
        start = time.perf_counter()
        rep = run_scenario(_scenario(name, "geometry-suite", {"samples": 10_000}, 1))
        elapsed = seconds[name] = time.perf_counter() - start
        assert elapsed < 10.0, f"{name} took {elapsed:.1f}s"
        assert rep.passed, f"{name}: {rep.metrics}"
        assert rep.metrics["min_defect"]["value"] >= -1e-9
        assert rep.metrics["max_symmetry_error"]["value"] <= 1e-12
        assert rep.metrics["max_triangle_violation"]["value"] <= 1e-9
        assert rep.metrics["max_speed_deviation"]["value"] <= 1e-9
        if name in ("e2", "e3"):
            assert abs(rep.metrics["max_defect"]["value"]) <= 1e-9
        worst[name] = rep.metrics["min_defect"]["value"]
    print(
        "criterion 01 geometry suite: PASS "
        f"(10^4 samples/space, min defect {min(worst.values()):.2e}; "
        + ", ".join(f"{name} {s:.3f}s" for name, s in seconds.items())
        + ")"
    )


def test_criterion_02_angle_suite(e2, book3, tripod, lopsided_tree, comb14):
    start = time.perf_counter()
    checked = 0
    for space, count, cosine_scale in (
        (e2, 350, False),
        (book3, 350, False),
        (tripod, 150, True),
        (lopsided_tree, 150, True),
    ):
        rng = substream(2, f"acceptance-angles:{space.kind}:{count}")
        for _ in range(count):
            x, y1, y2 = _distinct_points(space, rng, 3)
            g, h = geodesic(space, x, y1), geodesic(space, x, y2)
            sched = [min(g.length, h.length) / 4.0 * 0.5**k for k in range(10)]
            seq = comparison_angle_sequence(space, g, h, sched)
            if cosine_scale:
                vals = [math.cos(v) for v in seq]
                assert all(vals[i + 1] >= vals[i] - 1e-9 for i in range(len(vals) - 1))
            else:
                assert all(seq[i + 1] <= seq[i] + 1e-9 for i in range(len(seq) - 1))
            checked += 1
    assert checked == 1000

    center = Point(0, (0.0,))
    est = alexandrov_angle(
        tripod,
        geodesic(tripod, center, Point(0, (1.0,))),
        geodesic(tripod, center, Point(1, (1.0,))),
    )
    assert est.converged and abs(est.value - math.pi) <= 1e-7

    v = comb14.impl.vertex_point
    est0 = alexandrov_angle(
        comb14, geodesic(comb14, v(5), v(3)), geodesic(comb14, v(5), v(7))
    )
    assert est0.converged and abs(est0.value) <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.1f}s"
    print(
        f"criterion 02 angle suite: PASS ({checked} pairs monotone, "
        "tripod pi and comb 0 within 1e-7)"
    )


def test_criterion_03_projection_suite(e2, e3, tripod, book3):
    start = time.perf_counter()

    def check(space, cset, x, y_in_c):
        foot = project_convex(space, x, cset)
        dxf = distance(space, x, foot)
        dyf = distance(space, foot, y_in_c)
        dxy = distance(space, x, y_in_c)
        assert dxf * dxf + dyf * dyf <= dxy * dxy + 1e-9
        mid = convex_combination(space, x, foot, 0.5)
        again = project_convex(space, mid, cset)
        assert distance(space, foot, again) <= 1e-9

    total = 0
    for space, kinds, count in (
        (e2, ("segment", "ball"), 350),
        (e3, ("ball",), 150),
        (tripod, ("segment", "subtree"), 300),
        (book3, ("segment",), 200),
    ):
        rng = substream(3, f"acceptance-proj:{space.kind}:{count}")
        for k in range(count):
            kind = kinds[k % len(kinds)]
            x = sample_points(space, rng, 1)[0]
            if kind == "segment":
                a, b = _distinct_points(space, rng, 2, floor=1e-6)
                g = geodesic(space, a, b)
                cset = Segment(g)
                y = g.eval(float(rng.uniform(0.0, 1.0)))
            elif kind == "ball":
                c = sample_points(space, rng, 1)[0]
                r = float(rng.uniform(0.3, 1.2))
                cset = Ball(c, r)
                z = sample_points(space, rng, 1)[0]
                dz = distance(space, c, z)
                y = z if dz <= r else convex_combination(space, c, z, r / dz * 0.999)
            else:
                # center plus two leaves: induced edges are charts 0 and 1
                cset = Subtree((0, 1, 2))
                y = Point(int(rng.integers(0, 2)), (float(rng.uniform(0.0, 1.0)),))
            check(space, cset, x, y)
            total += 1
    assert total == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.1f}s"
    print(f"criterion 03 projection suite: PASS ({total} samples, tol 1e-9)")


def test_criterion_04_solver_vs_oracle(solver_runs):
    assert len(solver_runs["runs"]) == 1000
    assert solver_runs["worst_cost_gap"] <= 1e-9
    assert solver_runs["worst_dual_gap"] <= 1e-9
    assert solver_runs["worst_slack"] <= 1e-9
    assert solver_runs["elapsed"] < 60.0, f"{solver_runs['elapsed']:.1f}s"
    print(
        "criterion 04 solver vs oracle: PASS (1000 instances, cost gap "
        f"{solver_runs['worst_cost_gap']:.1e}, dual gap {solver_runs['worst_dual_gap']:.1e})"
    )


def test_criterion_05_cyclic_monotonicity(solver_runs, e1):
    start = time.perf_counter()
    for space, plan in solver_runs["runs"]:
        out = check_cyclic_monotonicity(space, plan, max_len=3)
        assert out["violations"] == 0
    mu = measure(e1, [Point(0, (0.0,)), Point(0, (1.0,))])
    nu = measure(e1, [Point(0, (2.0,)), Point(0, (3.0,))])
    swapped = TransportPlan(mu, nu, ((0, 1, 0.5), (1, 0, 0.5)))
    out = check_cyclic_monotonicity(e1, swapped, max_len=2)
    assert out["violations"] == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    print(
        "criterion 05 cyclic monotonicity: PASS "
        "(1000 optimal plans clean, swapped plan flags exactly 1)"
    )


def test_criterion_06_monge_property(e1, e2):
    start = time.perf_counter()
    deterministic = 0
    for k in range(100):
        rng = substream(k, "acceptance-monge")
        mu = measure(e2, sample_points(e2, rng, 20))
        nu = measure(e2, sample_points(e2, rng, 20))
        plan, _, _ = solve_kantorovich(e2, mu, nu)
        if isinstance(extract_monge_map(plan), TransportMap):
            deterministic += 1
    assert deterministic >= 99

    mu = measure(
        e1,
        [Point(0, (0.0,)), Point(0, (1.0,)), Point(0, (2.0,))],
        weights=[0.5, 0.25, 0.25],
    )
    nu = measure(
        e1,
        [Point(0, (3.0,)), Point(0, (4.0,)), Point(0, (5.0,))],
        weights=[0.25, 0.25, 0.5],
    )
    split = TransportPlan(
        mu, nu, ((0, 0, 0.25), (0, 1, 0.25), (1, 2, 0.25), (2, 2, 0.25))
    )
    assert isinstance(extract_monge_map(split), NotDeterministic)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    print(
        f"criterion 06 monge property: PASS ({deterministic}/100 deterministic, "
        "split atom flagged)"
    )


def test_criterion_07_twist(e2, book3, tripod, lopsided_tree):
    start = time.perf_counter()
    held = 0
    rng = substream(7, "acceptance-twist:euclidean")
    for _ in range(100):
        x, y1, y2 = _distinct_points(e2, rng, 3)
        rep = twist_test(
            e2, x, y1, y2, direction_set(e2, x, targets=[y1, y2], count=16)
        )
        assert rep.twist_holds and rep.max_gap > 1e-6
        assert rep.distinguishing_geodesic is not None
        held += 1
    rng = substream(7, "acceptance-twist:open_book")

    def page_point(page):
        return Point(
            page, (float(rng.uniform(0.1, 0.9)), float(rng.uniform(-0.4, 0.4)))
        )

    for _ in range(100):
        page = int(rng.integers(0, 3))
        x, y1, y2 = page_point(page), page_point(page), page_point(page)
        while distance(book3, y1, y2) <= 1e-3:
            y2 = page_point(page)
        rep = twist_test(
            book3, x, y1, y2, direction_set(book3, x, targets=[y1, y2], count=16)
        )
        assert rep.twist_holds and rep.max_gap > 1e-6
        assert rep.distinguishing_geodesic is not None
        held += 1
    assert held == 200

    failures = 0
    for space, count in ((tripod, 25), (lopsided_tree, 25)):
        rng = substream(7, f"acceptance-twist-tree:{space.kind}")
        for _ in range(count):
            x, y1, y2 = _tree_same_gate_pair(space, rng)
            rep = twist_test(space, x, y1, y2, direction_set(space, x))
            assert rep.max_gap < 1e-9
            assert not rep.twist_holds
            failures += 1
    assert failures == 50
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"{elapsed:.1f}s"
    print(
        f"criterion 07 twist: PASS ({held} generic pairs distinguished, "
        "50 same-gate tree pairs collapse)"
    )


def test_criterion_08_fermat(tripod):
    start = time.perf_counter()
    ratios = []
    for n in (9, 17, 33):
        rep = run_scenario(_scenario("e2", "fermat", {"n": n}, 8))
        assert rep.passed, rep.metrics
        ratios.append(rep.metrics["slope_ratio"]["value"])
    assert max(ratios) <= 10.0

    leaf = Point(0, (1.0,))
    rep = fermat_check(
        tripod, lambda p: distance(tripod, p, leaf), leaf, direction_set(tripod, leaf)
    )
    assert rep.min_directional > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    print(
        "criterion 08 fermat: PASS "
        f"(grid slope ratio <= {max(ratios):.3f}, leaf one-sided bound strict)"
    )


def test_criterion_09_transport_identity():
    start = time.perf_counter()
    rep = run_scenario(_scenario("e2", "transport-identity", {}, 9))
    assert rep.passed, rep.metrics
    assert rep.metrics["order"]["value"] >= 0.9
    assert rep.metrics["frac_quarter_pitch"]["value"] >= 0.95
    assert rep.metrics["c_fit"]["value"] <= 10.0
    assert rep.metrics["c_gap"]["value"] <= 10.0
    assert rep.metrics["exact_translation"]["value"] == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    print(
        "criterion 09 transport identity: PASS "
        f"(order {rep.metrics['order']['value']:.3f}, residual <= "
        f"{rep.metrics['c_fit']['value']:.3f} h, gradient gap <= "
        f"{rep.metrics['c_gap']['value']:.3f} h)"
    )


def _pull_into_ball(space, center, p, r, rng):
    d = distance(space, center, p)
    if d <= 1e-12:
        return p
    return convex_combination(space, center, p, min(1.0, float(rng.uniform(0.0, r)) / d))


def test_criterion_10_psi_r_lipschitz(e2, tripod, book3):
    start = time.perf_counter()
    checked = 0
    for space, count, r in ((e2, 400, 1.5), (tripod, 300, 0.8), (book3, 300, 0.6)):
        rng = substream(10, f"acceptance-lip:{space.kind}")
        mu = measure(space, sample_points(space, rng, 10))
        nu = measure(space, sample_points(space, rng, 10))
        _, pot, _ = solve_kantorovich(space, mu, nu)
        y0 = nu.points[0]
        for _ in range(count):
            a, b = sample_points(space, rng, 2)
            x1 = _pull_into_ball(space, y0, a, r, rng)
            x2 = _pull_into_ball(space, y0, b, r, rng)
            v1 = psi_R(space, pot, nu, x1, y0, r)
            v2 = psi_R(space, pot, nu, x2, y0, r)
            assert abs(v1 - v2) <= 2.0 * r * distance(space, x1, x2) + 1e-9
            checked += 1
    assert checked == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.1f}s"
    print(f"criterion 10 psi_R lipschitz: PASS ({checked} pairs, rate 2r)")


def test_criterion_11_eilenberg(e2, tripod, book3):
    start = time.perf_counter()
    square = BoxRegion(0, (0.0, 0.0), (1.0, 1.0))
    g = geodesic(e2, Point(0, (0.0, 0.0)), Point(0, (1.0, 0.0)))
    lhs, rhs, holds = eilenberg_estimate(e2, g, square, 1_000_000, seed=11)
    assert abs(lhs - math.pi / 4.0) <= 0.02
    assert holds and rhs == pytest.approx(1.0, abs=1e-12)

    region = TreeRegion((0, 1, 2, 3))
    g3 = geodesic(tripod, Point(0, (0.0,)), Point(0, (1.0,)))
    lhs3, rhs3, holds3 = eilenberg_estimate(
        tripod, g3, region, 400_000, eps=0.01, seed=11
    )
    assert rhs3 == pytest.approx(3.0, abs=1e-12)
    assert abs(lhs3 - 3.0) <= 0.02
    assert holds3

    held = 0
    for space in (e2, tripod, book3):
        rng = substream(11, f"acceptance-shell:{space.kind}")
        for _ in range(100):
            if space.kind == "euclidean":
                lo = rng.uniform(-1.0, 0.0, 2)
                hi = lo + rng.uniform(0.5, 1.5, 2)
                region_k = BoxRegion(
                    0, tuple(float(u) for u in lo), tuple(float(u) for u in hi)
                )
            elif space.kind == "tree":
                region_k = TreeRegion((0, 1, 2, 3))
            else:
                page = int(rng.integers(0, 3))
                c = Point(
                    page,
                    (float(rng.uniform(0.4, 0.7)), float(rng.uniform(-0.3, 0.3))),
                )
                region_k = BallRegion(c, float(rng.uniform(0.1, 0.3)))
            a, b = _distinct_points(space, rng, 2, floor=1e-6)
            _, _, ok = eilenberg_estimate(
                space, geodesic(space, a, b), region_k, 20_000, seed=11
            )
            assert ok
            held += 1
    assert held == 300
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    print(
        f"criterion 11 eilenberg: PASS (square lhs {lhs:.4f} vs pi/4 = {math.pi / 4.0:.4f}, "
        f"tripod lhs {lhs3:.4f} vs 3, {held} random configurations hold)"
    )


def test_criterion_12_polar_factorization(e1, e2, tripod, book3):
    start = time.perf_counter()
    for space in (e2, tripod, book3):
        for k in range(100):
            rng = substream(k, f"acceptance-polar:{space.kind}")
            n = 10
            pts = _distinct_points(space, rng, n, floor=1e-4)
            images = _distinct_points(space, rng, n, floor=1e-4)
            mu = measure(space, pts)
            perm = rng.permutation(n)
            s = map_from_points(space, mu, [images[int(j)] for j in perm])
            fact = polar_factorize(space, mu, s)
            assert fact.residual <= 1e-9
            assert verify_measure_preserving(mu, fact.u)

            nu = measure(space, images)
            T, T_star = inverse_map(space, mu, nu)
            for i, p in enumerate(mu.points):
                assert distance(space, T_star.assignment[T.targets[i]], p) <= 1e-9

            if k % 20 == 0:
                order = [int(v) for v in rng.permutation(n)]
                mu2 = measure(space, [pts[j] for j in order])
                s2 = map_from_points(space, mu2, [images[int(perm[j])] for j in order])
                fact2 = polar_factorize(space, mu2, s2)

                def key(p):
                    return (p.chart, p.coords)

                m1 = {
                    key(p): (key(fact.T.assignment[i]), key(fact.u.assignment[i]))
                    for i, p in enumerate(mu.points)
                }
                m2 = {
                    key(p): (key(fact2.T.assignment[i]), key(fact2.u.assignment[i]))
                    for i, p in enumerate(mu2.points)
                }
                assert m1 == m2

    mu_line = measure(e1, [Point(0, (0.0,)), Point(0, (1.0,))])
    s_line = map_from_points(e1, mu_line, [Point(0, (3.0,)), Point(0, (2.0,))])
    fact = polar_factorize(e1, mu_line, s_line)
    assert fact.u.assignment[0].coords == (1.0,)
    assert fact.u.assignment[1].coords == (0.0,)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    print(
        "criterion 12 polar factorization: PASS "
        "(300 instances factor exactly, line instance u = swap)"
    )


def test_criterion_13_determinism():
    start = time.perf_counter()
    cases = {
        "solve": ("e2", {"instance": "random", "n": 6}),
        "monotonicity": ("tripod", {"n": 5}),
        "twist": ("book3", {"trials": 10}),
        "fermat": ("e2", {"n": 9}),
        "eilenberg": ("tripod", {"n_samples": 50_000}),
        "transport-identity": ("e2", {"sizes": [5, 9, 17]}),
        "polar": ("e2", {"trials": 10, "n": 6}),
        "geometry-suite": ("comb14", {"samples": 1500}),
    }
    for experiment, (space_name, params) in cases.items():
        sc = _scenario(space_name, experiment, params, 13)
        first = render_report(run_scenario(sc))
        second = render_report(run_scenario(sc))
        assert first == second, f"{experiment} json report not reproducible"
        csv_first = render_report(run_scenario(sc), fmt="csv")
        csv_second = render_report(run_scenario(sc), fmt="csv")
        assert csv_first == csv_second, f"{experiment} csv report not reproducible"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    print("criterion 13 determinism: PASS (8 experiments byte-identical across reruns)")
