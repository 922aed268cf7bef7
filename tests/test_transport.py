from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.optimize

from cat0ot import _simplex, transport
from cat0ot import (
    BoundaryPoint,
    ConfigInvalid,
    DiscreteMeasure,
    EmptyBall,
    GridPotential,
    InvalidPoint,
    MapUndefined,
    NotDeterministic,
    ParamOutOfRange,
    Point,
    SupportTooLarge,
    TooManyTuples,
    TransportMap,
    TransportPlan,
    UnsupportedShape,
    WeightMismatch,
    brute_force_oracle,
    build_euclidean,
    c_subdifferential,
    c_transform,
    check_cyclic_monotonicity,
    cost,
    distance,
    extract_monge_map,
    measure,
    measure_from_json,
    measure_to_json,
    pairwise_costs,
    plan_from_json,
    plan_to_csv,
    plan_to_json,
    psi_R,
    solve_kantorovich,
    verify_transport_identity,
)
from cat0ot.harness import random_instance, sample_points, translation_instance
from cat0ot.rng import substream

from _oracles import (
    assignment_duals_by_dense_relaxation,
    cyclic_monotonicity_by_tuple,
    interior_duals_by_raw_closure,
    lp_transport_cost,
    optimal_arcs,
)


@pytest.fixture(scope="module")
def line_instance(e1):
    mu = measure(e1, [Point(0, (0.0,)), Point(0, (1.0,))])
    nu = measure(e1, [Point(0, (2.0,)), Point(0, (3.0,))])
    return mu, nu


# ---------------------------------------------------------------------------
# measures


def test_measure_normalizes_and_defaults_uniform(e1):
    m = measure(e1, [Point(0, (0.0,)), Point(0, (1.0,)), Point(0, (2.0,))])
    assert m.weights == (pytest.approx(1 / 3),) * 3
    with pytest.raises(ParamOutOfRange):
        measure(e1, [])
    with pytest.raises(WeightMismatch):
        measure(e1, [Point(0, (0.0,))], weights=[0.5, 0.5])
    with pytest.raises(WeightMismatch):
        measure(e1, [Point(0, (0.0,)), Point(0, (1.0,))], weights=[0.5, 0.4])
    with pytest.raises(ParamOutOfRange):
        measure(e1, [Point(0, (0.0,)), Point(0, (1.0,))], weights=[1.0, 0.0])


# ---------------------------------------------------------------------------
# the worked line instance, frozen end to end


def test_line_solution_frozen(e1, line_instance):
    mu, nu = line_instance
    plan, pot, total = solve_kantorovich(e1, mu, nu)
    assert plan.entries == ((0, 0, 0.5), (1, 1, 0.5))
    assert total == pytest.approx(2.0, abs=1e-12)
    assert pot.psi == pytest.approx((0.0, 2.0), abs=1e-12)
    assert pot.phi == pytest.approx((2.0, 4.0), abs=1e-12)
    assert pot.feasible
    assert pot.slack_max <= 1e-9
    # dual value matches the primal cost
    dual = sum(w * v for w, v in zip(nu.weights, pot.phi)) - sum(
        w * v for w, v in zip(mu.weights, pot.psi)
    )
    assert dual == pytest.approx(total, abs=1e-9)


def test_line_potentials_are_conjugate(e1, line_instance):
    mu, nu = line_instance
    _, pot, _ = solve_kantorovich(e1, mu, nu)
    phi = c_transform(e1, pot.psi, mu.points, nu.points)
    assert phi == pytest.approx(pot.phi, abs=1e-9)
    # transforming back reproduces psi: the potential is already c-concave
    psi_back = [-v for v in c_transform(e1, [-v for v in pot.phi], nu.points, mu.points)]
    assert psi_back == pytest.approx(pot.psi, abs=1e-9)


def test_support_entries_are_tight(e1, line_instance):
    mu, nu = line_instance
    plan, pot, _ = solve_kantorovich(e1, mu, nu)
    C = pairwise_costs(e1, mu, nu)
    for i, j, mass in plan.entries:
        assert mass > 0
        slack = C[i, j] - (pot.phi[j] - pot.psi[i])
        assert abs(slack) <= 1e-9
    # feasibility everywhere, not only on the support
    for i in range(len(mu.points)):
        for j in range(len(nu.points)):
            assert pot.phi[j] - pot.psi[i] <= C[i, j] + 1e-9


# ---------------------------------------------------------------------------
# solver against independent oracles


@pytest.mark.parametrize("kind", ["e2", "tripod", "book3"])
def test_solver_matches_permutation_minimum(kind, request):
    space = request.getfixturevalue(kind)
    for seed in range(20):
        rng = substream(seed, f"perm-oracle:{kind}")
        n = int(rng.integers(2, 8))
        pts_mu = sample_points(space, rng, n)
        pts_nu = sample_points(space, rng, n)
        mu, nu = measure(space, pts_mu), measure(space, pts_nu)
        plan, pot, total = solve_kantorovich(space, mu, nu)
        _, best = brute_force_oracle(space, mu, nu)
        assert total == pytest.approx(best, abs=1e-9)
        assert pot.feasible and pot.slack_max <= 1e-9
        assert total == pytest.approx(lp_transport_cost(space, mu, nu), abs=1e-9)


@pytest.mark.parametrize("kind", ["e2", "tripod"])
def test_solver_matches_lp_on_uneven_weights(kind, request):
    space = request.getfixturevalue(kind)
    for seed in range(10):
        rng = substream(seed, f"lp-oracle:{kind}")
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        w_mu = rng.uniform(0.2, 1.0, n)
        w_nu = rng.uniform(0.2, 1.0, m)
        mu = measure(space, sample_points(space, rng, n), w_mu / w_mu.sum())
        nu = measure(space, sample_points(space, rng, m), w_nu / w_nu.sum())
        plan, pot, total = solve_kantorovich(space, mu, nu)
        assert total == pytest.approx(lp_transport_cost(space, mu, nu), abs=1e-9)
        marg_mu = np.zeros(n)
        marg_nu = np.zeros(m)
        for i, j, mass in plan.entries:
            marg_mu[i] += mass
            marg_nu[j] += mass
        assert marg_mu == pytest.approx(mu.weights, abs=1e-9)
        assert marg_nu == pytest.approx(nu.weights, abs=1e-9)


def test_large_uniform_instance_stays_consistent(e2):
    # 64 uniform atoms on each side: the assignment path solves this
    rng = substream(7, "large-uniform")
    mu = measure(e2, sample_points(e2, rng, 64))
    nu = measure(e2, sample_points(e2, rng, 64))
    _, pot, total = solve_kantorovich(e2, mu, nu)
    assert pot.feasible and pot.slack_max <= 1e-9
    assert total == pytest.approx(lp_transport_cost(e2, mu, nu), abs=1e-9)


@pytest.fixture
def simplex_calls(monkeypatch):
    calls = []
    solve = _simplex.solve_transport

    def spy(C, a, b):
        calls.append(C.shape)
        return solve(C, a, b)

    monkeypatch.setattr(_simplex, "solve_transport", spy)
    return calls


@pytest.mark.parametrize("kind", ["e2", "tripod", "book3"])
def test_assignment_fast_path_matches_the_lp(kind, request, simplex_calls):
    space = request.getfixturevalue(kind)
    for n in (1, 2, 3, 6, 7, 8):
        rng = substream(n, f"fast-path:{kind}")
        mu = measure(space, sample_points(space, rng, n))
        nu = measure(space, sample_points(space, rng, n))
        plan, pot, total = solve_kantorovich(space, mu, nu)
        assert len(plan.entries) == n
        assert pot.feasible
        assert total == pytest.approx(lp_transport_cost(space, mu, nu), abs=1e-9)
    assert simplex_calls == []  # every certificate was accepted


def test_assignment_fast_path_falls_back_to_the_simplex(
    e1, line_instance, monkeypatch, simplex_calls
):
    mu, nu = line_instance
    lsa_calls = []

    def reversed_assignment(C):
        lsa_calls.append(C.shape)
        n = C.shape[0]
        return np.arange(n), np.arange(n)[::-1]

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", reversed_assignment)
    _, pot, total = solve_kantorovich(e1, mu, nu)
    assert lsa_calls == [(2, 2)]
    assert simplex_calls == [(2, 2)]  # the crossed matching fails its certificate
    assert pot.feasible
    assert total == pytest.approx(lp_transport_cost(e1, mu, nu), abs=1e-9)


@pytest.mark.parametrize("n", [3, 24])
def test_a_crossed_matching_stops_the_relaxation_and_falls_back(
    e1, n, monkeypatch, simplex_calls
):
    # reversed, the matching of a shifted line has negative exchange cycles;
    # at 24 atoms the first shortlist holds only 16 targets per row
    mu = measure(e1, [Point(0, (float(i),)) for i in range(n)])
    nu = measure(e1, [Point(0, (i + 0.5,)) for i in range(n)])
    monkeypatch.setattr(
        scipy.optimize, "linear_sum_assignment", lambda C: (np.arange(n), np.arange(n)[::-1])
    )
    duals = []
    relax = transport._assignment_duals

    def spy(C, perm):
        duals.append((C, perm, *relax(C, perm)))
        return duals[-1][2:]

    monkeypatch.setattr(transport, "_assignment_duals", spy)
    _, pot, total = solve_kantorovich(e1, mu, nu)
    [(C, perm, alpha, beta)] = duals
    assert np.isfinite(alpha).all()
    # the relaxation stopped on its cap: some exchange arc still prices negative
    W = C[:, perm] - C[np.arange(n), perm][None, :]
    assert ((alpha[None, :] + W) < alpha[:, None]).any()
    assert (C - alpha[:, None] - beta[None, :]).min() < -1e-9  # the certificate rejects
    assert simplex_calls == [(n, n)]
    assert pot.feasible
    assert total == pytest.approx(lp_transport_cost(e1, mu, nu), abs=1e-9)


def _uniform_pair(space, n: int, tag: str):
    rng = substream(n, tag)
    mu = measure(space, sample_points(space, rng, n))
    return mu, measure(space, sample_points(space, rng, n))


def _assignment_costs(kind: str, n: int, request) -> np.ndarray:
    """Costs of a translation grid of side n, or of n uniform random atoms."""
    if kind == "grid":
        e2 = request.getfixturevalue("e2")
        mu, nu, _, _ = translation_instance(e2, n)
        return pairwise_costs(e2, mu, nu)
    space = request.getfixturevalue(kind)
    return pairwise_costs(space, *_uniform_pair(space, n, f"sparse-duals:{kind}"))


@pytest.mark.parametrize(
    "kind, n",
    [("grid", 17), ("grid", 25), ("grid", 33)]
    + [(kind, n) for kind in ("e2", "tripod") for n in (289, 576, 1089)],
)
def test_sparse_assignment_duals_equal_the_dense_relaxation(kind, n, request):
    C = _assignment_costs(kind, n, request)
    rows, cols = scipy.optimize.linear_sum_assignment(C)
    perm = cols[np.argsort(rows)]
    want = assignment_duals_by_dense_relaxation(C, perm)
    got = transport._assignment_duals(C, perm)
    for w, g in zip(want, got):
        assert w.tobytes() == g.tobytes()


def test_the_first_shortlist_misses_arcs_the_duals_need(e2):
    # on 289 random atoms the fixpoint over each row's 16 nearest targets is
    # not the dense one, so the sparse duals above had to grow their shortlist
    C = pairwise_costs(e2, *_uniform_pair(e2, 289, "sparse-duals:e2"))
    rows, cols = scipy.optimize.linear_sum_assignment(C)
    perm = cols[np.argsort(rows)]
    nearest = np.zeros_like(C, dtype=bool)
    np.put_along_axis(nearest, np.argsort(C, axis=1)[:, :16], True, axis=1)
    shortlist = nearest[:, perm]  # arc k -> i is kept when perm[k] is near row i
    first, _ = assignment_duals_by_dense_relaxation(C, perm, shortlist)
    alpha, _ = assignment_duals_by_dense_relaxation(C, perm)
    assert not np.array_equal(first, alpha)
    assert np.array_equal(transport._assignment_duals(C, perm)[0], alpha)


LSA = scipy.optimize.linear_sum_assignment


@pytest.fixture
def lsa_inputs(monkeypatch):
    calls = []

    def spy(C):
        calls.append(C)
        return LSA(C)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
    return calls


@pytest.mark.parametrize("side", [17, 25, 33])
def test_tied_grid_costs_take_the_auction_warm_start(e2, side, lsa_inputs):
    mu, nu, _, _ = translation_instance(e2, side)
    C = pairwise_costs(e2, mu, nu)
    plan, _, _ = solve_kantorovich(e2, mu, nu)
    [warm] = lsa_inputs
    offset = warm - C  # one price per column
    assert not np.array_equal(warm, C)
    assert np.allclose(offset, offset[0], rtol=0.0, atol=1e-12)
    rows, cols = LSA(C)
    assert [(i, j) for i, j, _ in plan.entries] == list(zip(rows.tolist(), cols.tolist()))


@pytest.mark.parametrize("kind", ["e2", "tripod", "book3"])
@pytest.mark.parametrize("n", [289, 576])
def test_untied_random_costs_take_plain_lsa(kind, n, request, lsa_inputs):
    space = request.getfixturevalue(kind)
    mu, nu = _uniform_pair(space, n, f"plain-lsa:{kind}")
    solve_kantorovich(space, mu, nu)
    [C] = lsa_inputs
    assert np.array_equal(C, pairwise_costs(space, mu, nu))


def test_solver_input_validation(e2):
    mu = measure(e2, [Point(0, (0.0, 0.0))], weights=[1.0])
    nu = measure(e2, [Point(0, (1.0, 0.0)), Point(0, (0.0, 1.0))], weights=[0.25, 0.75])
    plan, pot, total = solve_kantorovich(e2, mu, nu)  # single atom splits
    assert len(plan.entries) == 2
    with pytest.raises(UnsupportedShape):
        brute_force_oracle(e2, mu, nu)


# ---------------------------------------------------------------------------
# cyclic monotonicity


@pytest.mark.parametrize("kind", ["e2", "tripod", "book3"])
def test_optimal_plans_are_cyclically_monotone(kind, request):
    space = request.getfixturevalue(kind)
    for seed in range(10):
        mu, nu = random_instance(space, seed, 6)
        plan, _, _ = solve_kantorovich(space, mu, nu)
        out = check_cyclic_monotonicity(space, plan, max_len=3)
        assert out["violations"] == 0
        assert out["worst_slack"] <= 1e-9


def test_swapped_line_plan_has_one_violation(e1, line_instance):
    mu, nu = line_instance
    bad = TransportPlan(mu, nu, ((0, 1, 0.5), (1, 0, 0.5)))
    out = check_cyclic_monotonicity(e1, bad, max_len=2)
    assert out["violations"] == 1
    assert out["worst_slack"] == pytest.approx(1.0, abs=1e-12)


def _audit_plans(space, seed):
    """An optimal plan, a plan to shuffled targets, and a three-arc plan."""
    mu, nu = random_instance(space, seed, 6)
    plan, _, _ = solve_kantorovich(space, mu, nu)
    perm = substream(seed, "crossed-plan").permutation(6)
    crossed = TransportPlan(mu, nu, tuple((i, int(perm[i]), mu.weights[i]) for i in range(6)))
    return {"optimal": plan, "crossed": crossed, "three-arc": TransportPlan(mu, nu, plan.entries[:3])}


@pytest.mark.parametrize("kind", ["e2", "tripod", "book3"])
def test_cycle_audit_matches_the_per_tuple_loop(kind, request):
    space = request.getfixturevalue(kind)
    crossed_violations = 0
    for seed in (2, 5):
        for name, plan in _audit_plans(space, seed).items():
            # exhaustive at every length (the three-arc plan has K < max_len
            # from 4 on), then sampled at two seeds
            runs = [dict(max_len=L) for L in (2, 3, 4, 5)]
            runs += [dict(max_len=4, mode="sampled", n_samples=3000, seed=s) for s in (0, 9)]
            for kw in runs:
                got = check_cyclic_monotonicity(space, plan, **kw)
                ref = cyclic_monotonicity_by_tuple(space, plan, **kw)
                assert got["violations"] == ref["violations"], (name, kw)
                assert got["worst_slack"].hex() == ref["worst_slack"].hex(), (name, kw)
                if name == "optimal":
                    assert got["violations"] == 0
                if name == "crossed":
                    crossed_violations += got["violations"]
    # the comparison reaches violating tuples, not only slack below zero
    assert crossed_violations > 0


@pytest.mark.parametrize("entries", [((0, 0, 1.0),), ()])
def test_plans_without_cycles_report_zero_slack(e1, entries):
    mu = measure(e1, [Point(0, (0.0,))])
    nu = measure(e1, [Point(0, (2.0,))])
    plan = TransportPlan(mu, nu, entries)
    for mode in ("exhaustive", "sampled"):
        out = check_cyclic_monotonicity(e1, plan, max_len=3, mode=mode, n_samples=50)
        assert out == {"violations": 0, "worst_slack": 0.0}


def test_cyclic_check_guards(e1, line_instance):
    mu, nu = line_instance
    plan, _, _ = solve_kantorovich(e1, mu, nu)
    with pytest.raises(ParamOutOfRange):
        check_cyclic_monotonicity(e1, plan, max_len=1)
    with pytest.raises(ParamOutOfRange):
        check_cyclic_monotonicity(e1, plan, mode="nonsense")
    big = measure(e1, [Point(0, (float(i),)) for i in range(40)])
    big_plan = TransportPlan(big, big, tuple((i, i, 1 / 40) for i in range(40)))
    with pytest.raises(TooManyTuples):
        check_cyclic_monotonicity(e1, big_plan, max_len=6)
    sampled = check_cyclic_monotonicity(e1, big_plan, max_len=6, mode="sampled", n_samples=500)
    assert sampled["violations"] == 0


# ---------------------------------------------------------------------------
# Monge maps


def test_extract_monge_map_from_deterministic_plan(e1, line_instance):
    mu, nu = line_instance
    plan, _, _ = solve_kantorovich(e1, mu, nu)
    T = extract_monge_map(plan)
    assert isinstance(T, TransportMap)
    assert T.assignment[0].coords == (2.0,)
    assert T.assignment[1].coords == (3.0,)


def test_split_atom_reports_not_deterministic(e1):
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
    plan = TransportPlan(mu, nu, ((0, 0, 0.25), (0, 1, 0.25), (1, 2, 0.25), (2, 2, 0.25)))
    out = extract_monge_map(plan)
    assert isinstance(out, NotDeterministic)
    assert out.split_mass == pytest.approx(0.25, abs=1e-12)


def test_map_from_points_needs_full_cover(e1, line_instance):
    mu, _ = line_instance
    from cat0ot import map_from_points

    with pytest.raises(MapUndefined):
        map_from_points(e1, mu, [Point(0, (0.0,))])


# ---------------------------------------------------------------------------
# ball-restricted potentials


def test_psi_R_matches_direct_minimum(e2):
    rng = substream(11, "psi-ball")
    mu = measure(e2, sample_points(e2, rng, 6))
    nu = measure(e2, sample_points(e2, rng, 6))
    _, pot, _ = solve_kantorovich(e2, mu, nu)
    x = sample_points(e2, rng, 1)[0]
    y0 = nu.points[0]
    R = 2.5
    got = psi_R(e2, pot, nu, x, y0, R)
    want = min(
        pot.phi[j] - cost(e2, x, y)
        for j, y in enumerate(nu.points)
        if distance(e2, y0, y) <= R
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_psi_R_guards(e2):
    rng = substream(12, "psi-ball-guards")
    mu = measure(e2, sample_points(e2, rng, 4))
    nu = measure(e2, sample_points(e2, rng, 4))
    _, pot, _ = solve_kantorovich(e2, mu, nu)
    x = mu.points[0]
    with pytest.raises(ParamOutOfRange):
        psi_R(e2, pot, nu, x, nu.points[0], 0.0)
    far = Point(0, (500.0, 500.0))
    with pytest.raises(EmptyBall):
        psi_R(e2, pot, nu, x, far, 0.1)


def test_psi_R_validates_its_points_first(tripod):
    rng = substream(14, "psi-ball-invalid")
    mu = measure(tripod, sample_points(tripod, rng, 4))
    nu = measure(tripod, sample_points(tripod, rng, 4))
    _, pot, _ = solve_kantorovich(tripod, mu, nu)
    # an invalid x is reported even when the ball holds no target
    center = Point(0, (0.0,))
    assert min(distance(tripod, center, y) for y in nu.points) > 1e-6
    with pytest.raises(InvalidPoint):
        psi_R(tripod, pot, nu, Point(0, (math.nan,)), center, 1e-6)
    for y0 in (Point(0, (math.nan,)), Point(0, (-0.5,)), Point(7, (0.5,))):
        with pytest.raises(InvalidPoint):
            psi_R(tripod, pot, nu, mu.points[0], y0, 1e6)


@pytest.mark.parametrize(
    "family, target",
    [
        ("tripod", Point(0, (5.0,))),  # past the end of a unit edge
        ("tripod", Point(7, (0.5,))),  # no such edge
        ("book3", Point(1, (-3.0, 0.0))),  # behind the spine
    ],
)
def test_c_transform_validates_its_targets(family, target, request):
    space = request.getfixturevalue(family)
    base = sample_points(space, substream(16, f"c-transform-{family}"), 2)
    with pytest.raises(InvalidPoint):
        distance(space, base[0], target)
    with pytest.raises(InvalidPoint):
        c_transform(space, [0.0, 0.0], base, [target])


@pytest.mark.parametrize("family", ["e2", "tripod", "book3"])
def test_c_transform_of_no_targets_is_empty(family, request):
    space = request.getfixturevalue(family)
    base = sample_points(space, substream(17, f"c-transform-{family}"), 2)
    assert c_transform(space, [0.0, 1.0], base, []) == []


@pytest.mark.parametrize("family", ["e2", "tripod", "book3"])
def test_ball_potential_and_subdifferential_match_the_public_api_loop(family, request):
    space = request.getfixturevalue(family)
    rng = substream(15, f"psi-ball-bits-{family}")
    mu = measure(space, sample_points(space, rng, 7))
    nu = measure(space, sample_points(space, rng, 9))
    _, pot, _ = solve_kantorovich(space, mu, nu)
    for x in sample_points(space, rng, 5):
        y0 = sample_points(space, rng, 1)[0]
        want = min(
            (pot.phi[j] - cost(space, x, y)
             for j, y in enumerate(nu.points) if distance(space, y0, y) < 1.5),
            default=None,
        )
        if want is not None:
            assert psi_R(space, pot, nu, x, y0, 1.5).hex() == want.hex()
    for i, x in enumerate(mu.points):
        want = {
            j for j, y in enumerate(nu.points)
            if abs(pot.phi[j] - pot.psi[i] - cost(space, x, y)) <= 1e-9
        }
        assert c_subdifferential(space, pot, mu, nu, i) == want


def test_psi_R_is_lipschitz_with_rate_two_r(e2):
    rng = substream(13, "psi-ball-lip")
    mu = measure(e2, sample_points(e2, rng, 8))
    nu = measure(e2, sample_points(e2, rng, 8))
    _, pot, _ = solve_kantorovich(e2, mu, nu)
    y0 = nu.points[0]
    r = 2.0
    for _ in range(200):
        # both arguments stay inside the ball of radius r around y0
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        x1 = Point(0, tuple(np.asarray(y0.coords) + r * rng.uniform(0, 1) * u / np.hypot(*u)))
        x2 = Point(0, tuple(np.asarray(y0.coords) + r * rng.uniform(0, 1) * v / np.hypot(*v)))
        lhs = abs(psi_R(e2, pot, nu, x1, y0, r) - psi_R(e2, pot, nu, x2, y0, r))
        assert lhs <= 2.0 * r * distance(e2, x1, x2) + 1e-9


# ---------------------------------------------------------------------------
# c-subdifferentials and the translation identity


def test_c_subdifferential_of_translation_is_the_match(e2):
    mu, nu, shift, h = translation_instance(e2, 5)
    plan, pot, _ = solve_kantorovich(e2, mu, nu)
    for i in range(len(mu.points)):
        assert c_subdifferential(e2, pot, mu, nu, i) == {i}


def _tight_arcs(space, mu, nu):
    _, pot, _ = solve_kantorovich(space, mu, nu)
    return {
        (i, j)
        for i in range(len(mu.points))
        for j in c_subdifferential(space, pot, mu, nu, i)
    }


def test_refined_tight_set_on_a_tie_is_the_union_of_optimal_matchings(tripod):
    # targets 0 and 1 are equally far from every source, so they can swap
    mu = measure(tripod, [Point(0, (s,)) for s in (0.1, 0.2, 0.3)])
    nu = measure(tripod, [Point(1, (0.2,)), Point(2, (0.2,)), Point(1, (0.3,))])
    C = pairwise_costs(tripod, mu, nu)
    perms = list(itertools.permutations(range(3)))
    costs = [sum(C[i, p[i]] for i in range(3)) for p in perms]
    union = {
        (i, p[i]) for p, c in zip(perms, costs) if c <= min(costs) + 1e-12 for i in range(3)
    }
    assert len(union) == 5
    assert _tight_arcs(tripod, mu, nu) == union


@pytest.mark.parametrize("shape", ["6x4", "4x6"])
def test_refined_tight_set_matches_the_arc_oracle(tripod, shape):
    sources = [Point(0, (0.1 * k,)) for k in range(1, 7)]
    targets = [Point(1, (0.2,)), Point(2, (0.2,)), Point(1, (0.5,)), Point(2, (0.5,))]
    if shape == "4x6":  # n < m builds the exchange graph on the sources
        sources, targets = targets, sources
    mu, nu = measure(tripod, sources), measure(tripod, targets)
    truth = optimal_arcs(pairwise_costs(tripod, mu, nu), mu.weights, nu.weights)
    assert len(truth) == 12
    assert _tight_arcs(tripod, mu, nu) == truth


def test_interior_duals_returns_its_input_when_it_skips(e1, line_instance):
    mu, nu = line_instance
    C = pairwise_costs(e1, mu, nu)
    psi = np.array([0.0, 2.0])
    full = [(i, j) for i in range(2) for j in range(2)]
    assert transport._interior_duals(C, full, psi) is psi
    crossed = [(0, 1), (1, 0)]  # a negative exchange cycle: not an optimal support
    assert transport._interior_duals(C, crossed, psi) is psi
    assert transport._interior_duals(C, [(0, 0), (1, 1)], psi) is not psi
    side = math.isqrt(transport.DUAL_REFINE_CAP) + 1
    big = np.zeros((side, side))
    diag = [(i, i) for i in range(side)]
    psi = np.zeros(side)
    assert transport._interior_duals(big, diag, psi) is psi


def _unrefined(space, mu, nu):
    """Cost matrix, support arcs and the solver's own source prices."""
    plan, pot, _ = solve_kantorovich(space, mu, nu, refine_duals=False)
    support = [(i, j) for i, j, _ in plan.entries]
    return pairwise_costs(space, mu, nu), support, np.asarray(pot.psi)


def _support_slack(C, support, psi):
    rows, cols = np.asarray(support).T
    phi = (psi[:, None] + C).min(axis=0)
    return float((C[rows, cols] + psi[rows] - phi[cols]).max())


@pytest.mark.parametrize("family", ["tripod", "comb14"])
@pytest.mark.parametrize("n, m", [(20, 40), (40, 20), (60, 120), (120, 60)])
def test_interior_duals_equal_the_raw_closure_on_trees(family, n, m, request):
    # uniform weights with one side twice the other leave the support
    # degenerate, so refinement moves psi; n < m builds the exchange graph on
    # the sources, n > m on the targets
    space = request.getfixturevalue(family)
    mu = measure(space, sample_points(space, substream(1, "mu"), n))
    nu = measure(space, sample_points(space, substream(1, "nu"), m))
    C, support, psi = _unrefined(space, mu, nu)
    want = interior_duals_by_raw_closure(C, support, psi)
    assert np.abs(want - (psi - psi[0])).max() > 1e-3
    assert np.abs(transport._interior_duals(C, support, psi) - want).max() <= 1e-12


@pytest.mark.parametrize("side", range(5, 22))
def test_interior_duals_equal_the_raw_closure_on_translation_grids(e2, side):
    mu, nu, _shift, _h = translation_instance(e2, side)
    C, support, psi = _unrefined(e2, mu, nu)
    want = interior_duals_by_raw_closure(C, support, psi)
    assert want is not psi
    assert np.abs(transport._interior_duals(C, support, psi) - want).max() <= 1e-12


@pytest.mark.parametrize("family, seed", [(f, s) for f in ("e2", "book3") for s in (1, 3, 5)])
def test_interior_duals_refine_float_optimal_plans(family, seed, request):
    # the raw closure amplifies rounding-level exchange cycles past its
    # tolerance and hands these optimal plans their prices back unrefined
    space = request.getfixturevalue(family)
    C, support, psi = _unrefined(space, *random_instance(space, seed, 300, 307))
    assert interior_duals_by_raw_closure(C, support, psi) is psi
    refined = transport._interior_duals(C, support, psi)
    assert refined is not psi
    assert _support_slack(C, support, refined) <= 1e-12


@pytest.mark.parametrize("n", [9, 17])
def test_identity_ladder_residual_on_the_assignment_duals(e2, n, simplex_calls):
    # 81 and 289 atoms alike take the assignment duals
    mu, nu, _shift, h = translation_instance(e2, n)
    plan, pot, _ = solve_kantorovich(e2, mu, nu, refine_duals=False)
    assert simplex_calls == []
    grid = GridPotential((0.0, 0.0), h, (n, n), pot.psi)
    T = extract_monge_map(plan)
    worst = max(
        verify_transport_identity(e2, grid, T, i).residual
        for i in range(n * n)
        if grid.is_interior(i)
    )
    assert worst / h == pytest.approx(0.125, abs=1e-12)


def test_grid_potential_basics():
    gp = GridPotential(origin=(0.0, 0.0), pitch=0.5, shape=(3, 3), values=tuple(range(9)))
    assert gp.node_index(gp.flat_index((2, 1))) == (2, 1)
    assert gp.node_point(4).coords == (0.5, 0.5)
    assert gp.is_interior(4)
    assert not gp.is_interior(0) and not gp.is_interior(8)
    lin = GridPotential(
        origin=(0.0, 0.0),
        pitch=0.5,
        shape=(3, 3),
        values=tuple(2.0 * (i * 0.5) + 3.0 * (j * 0.5) for i in range(3) for j in range(3)),
    )
    assert lin.gradient(4) == pytest.approx((2.0, 3.0), abs=1e-12)
    assert lin.interpolate(Point(0, (0.3, 0.7))) == pytest.approx(0.6 + 2.1, abs=1e-12)
    assert lin.interpolate(Point(0, (1.2, -0.1))) == pytest.approx(2.4 - 0.3, abs=1e-12)


def _translation_setup(space, n):
    mu, nu, shift, h = translation_instance(space, n)
    plan, _, _ = solve_kantorovich(space, mu, nu)
    T = extract_monge_map(plan)
    assert isinstance(T, TransportMap)
    values = tuple(
        shift[0] * p.coords[0] + shift[1] * p.coords[1] for p in mu.points
    )
    grid = GridPotential(origin=(0.0, 0.0), pitch=h, shape=(n, n), values=values)
    return grid, T, shift, h


def test_transport_identity_on_translation(e2):
    grid, T, shift, h = _translation_setup(e2, 9)
    n = 9
    for i in range(len(T.source.points)):
        if not grid.is_interior(i):
            continue
        rep = verify_transport_identity(e2, grid, T, i)
        assert rep.residual <= 0.25 * h
        assert rep.brenier_gap <= 1e-9  # the gradient of a linear potential is exact


def test_transport_identity_guards(e2, tripod):
    grid, T, _, _ = _translation_setup(e2, 5)
    with pytest.raises(BoundaryPoint):
        verify_transport_identity(e2, grid, T, 0)
    with pytest.raises(MapUndefined):
        verify_transport_identity(e2, grid, T, 999)
    with pytest.raises(ParamOutOfRange):
        verify_transport_identity(tripod, grid, T, 6)


# ---------------------------------------------------------------------------
# serialization


def test_measure_json_round_trip(tripod):
    m = measure(
        tripod,
        [Point(0, (0.4,)), Point(1, (0.7,)), Point(2, (0.1,))],
        weights=[0.5, 0.25, 0.25],
    )
    doc = measure_to_json(m)
    back = measure_from_json(tripod, doc)
    assert back == m


def test_plan_serialization_round_trip(e1, line_instance):
    mu, nu = line_instance
    plan, _, _ = solve_kantorovich(e1, mu, nu)
    doc = plan_to_json(plan)
    assert plan_from_json(doc, mu, nu) == plan
    csv_text = plan_to_csv(plan)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "i,j,mass"
    assert lines[1] == "0,0,0.5"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "entries",
    [
        [[0, 5, 0.5], [1, 1, 0.5]],  # no target 5
        [[-1, 0, 0.5], [1, 1, 0.5]],  # no source -1
        [[0.9, True, "0.5"], [1, 1, 0.5]],  # not an index, a bool, a string
        [[0, 0, -1.0]],  # negative mass
        [[0, 0, math.nan]],
        [[0, 0]],  # too short to unpack
        [[0, 0, 0.5, 1]],  # too long
        [5],  # not a list
        None,
    ],
)
def test_plan_from_json_rejects_malformed_entries(e1, line_instance, entries):
    mu, nu = line_instance
    with pytest.raises(ConfigInvalid) as err:
        plan_from_json({"entries": entries}, mu, nu)
    assert err.value.path == "entries"


@pytest.mark.parametrize("doc", [[[0, 0, 0.5], [1, 1, 0.5]], {}], ids=["bare-list", "no-entries"])
def test_plan_from_json_rejects_documents_without_entries(e1, line_instance, doc):
    mu, nu = line_instance
    with pytest.raises(ConfigInvalid) as err:
        plan_from_json(doc, mu, nu)
    assert err.value.path == "entries"


def test_plan_from_json_reads_integral_float_indices(e1, line_instance):
    mu, nu = line_instance
    plan = plan_from_json({"entries": [[0, 0.0, 0.5], [1.0, 1, 0.5]]}, mu, nu)
    assert plan.entries == ((0, 0, 0.5), (1, 1, 0.5))
    assert all(type(i) is int and type(j) is int for i, j, _ in plan.entries)


def test_support_cap(e1):
    pts = [Point(0, (float(i),)) for i in range(10_001)]
    with pytest.raises(SupportTooLarge):
        solve_kantorovich(e1, DiscreteMeasure(tuple(pts), (1.0 / 10_001,) * 10_001), measure(e1, pts[:1]))
