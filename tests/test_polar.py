from __future__ import annotations

import math

import numpy as np
import pytest

from cat0ot import (
    Cat0otError,
    InvalidPoint,
    MapUndefined,
    NotDeterministicError,
    Point,
    TransportMap,
    build_star,
    distance,
    inverse_map,
    map_from_points,
    measure,
    polar_factorize,
    verify_measure_preserving,
)
from cat0ot import _simplex, polar, transport
from cat0ot.harness import Scenario, run_scenario, sample_points
from cat0ot.rng import substream
from cat0ot.transport import _mass, _uniform, pairwise_costs

from _oracles import polar_in_turn


@pytest.fixture(scope="module")
def line_mu(e1):
    return measure(e1, [Point(0, (0.0,)), Point(0, (1.0,))])


def test_polar_line_worked_instance(e1, line_mu):
    s = map_from_points(e1, line_mu, [Point(0, (3.0,)), Point(0, (2.0,))])
    fact = polar_factorize(e1, line_mu, s)
    assert fact.residual <= 1e-12
    # T is the monotone optimal map onto {2, 3}
    assert fact.T.assignment[0].coords == (2.0,)
    assert fact.T.assignment[1].coords == (3.0,)
    # u swaps the two atoms and preserves the measure
    assert fact.u.assignment[0].coords == (1.0,)
    assert fact.u.assignment[1].coords == (0.0,)
    assert verify_measure_preserving(line_mu, fact.u)
    # T(u(x)) reproduces s atom by atom
    for i in range(2):
        k = fact.u.targets[i]
        assert distance(e1, fact.T.assignment[k], s.assignment[i]) <= 1e-12


def test_polar_of_optimal_map_gives_identity_u(e1, line_mu):
    s = map_from_points(e1, line_mu, [Point(0, (2.0,)), Point(0, (3.0,))])
    fact = polar_factorize(e1, line_mu, s)
    assert fact.residual <= 1e-12
    for i, p in enumerate(line_mu.points):
        assert fact.u.assignment[i] == p


def test_polar_of_support_permutation_gives_identity_T(e1, line_mu):
    s = map_from_points(e1, line_mu, [Point(0, (1.0,)), Point(0, (0.0,))])
    fact = polar_factorize(e1, line_mu, s)
    assert fact.residual <= 1e-12
    for i, p in enumerate(line_mu.points):
        assert fact.T.assignment[i] == p
        assert fact.u.assignment[i] == s.assignment[i]


def test_inverse_map_line(e1, line_mu):
    nu = measure(e1, [Point(0, (2.0,)), Point(0, (3.0,))])
    T, T_star = inverse_map(e1, line_mu, nu)
    assert T.assignment[0].coords == (2.0,)
    assert T_star.assignment[0].coords == (0.0,)
    for i, p in enumerate(line_mu.points):
        j = T.targets[i]
        assert distance(e1, T_star.assignment[j], p) <= 1e-12


def test_inverse_map_identity_when_measures_match(tripod):
    mu = measure(tripod, [Point(0, (0.4,)), Point(1, (0.7,)), Point(2, (0.2,))])
    T, T_star = inverse_map(tripod, mu, mu)
    for i, p in enumerate(mu.points):
        assert T.assignment[i] == p
        assert T_star.assignment[i] == p


def test_inverse_map_tripod_legs(tripod):
    mu = measure(tripod, [Point(0, (0.8,)), Point(1, (0.3,))])
    nu = measure(tripod, [Point(1, (0.9,)), Point(2, (0.5,))])
    T, T_star = inverse_map(tripod, mu, nu)
    for i in range(2):
        j = T.targets[i]
        assert distance(tripod, T_star.assignment[j], mu.points[i]) <= 1e-12


# (forward targets, backward targets) between two sample_points sets, computed
# before inverse_map stopped refining the potentials it does not read; the
# book keys recorded again when a book page was read off a random() double
INVERSE_TARGETS = {
    ("e2", 0, 6): ((0, 1, 4, 5, 3, 2), (0, 1, 5, 4, 2, 3)),
    ("e2", 1, 9): ((4, 3, 7, 0, 1, 2, 8, 6, 5), (3, 4, 5, 1, 0, 8, 7, 2, 6)),
    ("tripod", 0, 6): ((1, 5, 4, 3, 0, 2), (4, 0, 5, 3, 2, 1)),
    ("tripod", 1, 9): ((8, 0, 7, 1, 4, 6, 5, 3, 2), (1, 3, 8, 7, 4, 6, 5, 2, 0)),
    ("book3", 0, 6): ((5, 3, 1, 0, 4, 2), (3, 2, 5, 1, 4, 0)),
    ("book3", 1, 9): ((8, 3, 2, 5, 1, 7, 0, 4, 6), (6, 4, 2, 1, 7, 3, 8, 5, 0)),
}


@pytest.mark.parametrize("key", sorted(INVERSE_TARGETS))
def test_inverse_map_targets_are_pinned(key, request):
    name, seed, n = key
    space = request.getfixturevalue(name)
    rng = substream(seed, f"inverse pin:{name}")
    mu = measure(space, sample_points(space, rng, n))
    nu = measure(space, sample_points(space, rng, n))
    T, T_star = inverse_map(space, mu, nu)
    assert (T.targets, T_star.targets) == INVERSE_TARGETS[key]


STAR_LATTICE = [(leg, offset) for leg in range(4) for offset in (0.25, 0.5, 0.75)]


def _star_pair(star, mu_atoms, nu_atoms):
    return tuple(
        measure(star, [Point(leg, (offset,)) for leg, offset in atoms])
        for atoms in (mu_atoms, nu_atoms)
    )


def _check_inverse_and_polar(star, mu, nu):
    T, T_star = inverse_map(star, mu, nu)
    assert [T_star.targets[j] for j in T.targets] == list(range(len(mu.points)))
    fact = polar_factorize(star, mu, map_from_points(star, mu, list(nu.points)))
    assert fact.residual == 0.0


def test_inverse_map_inverts_on_a_tied_star():
    # four legs, lattice offsets: several optimal plans tie, so T* must be
    # read off the plan T came from; a separate nu -> mu solve can pick
    # another one (here T* o T = [2, 1, 0, 3])
    star = build_star(4)
    mu, nu = _star_pair(
        star,
        [(1, 0.75), (1, 0.25), (1, 0.5), (3, 0.5)],
        [(2, 0.75), (2, 0.25), (3, 0.25), (0, 0.25)],
    )
    _check_inverse_and_polar(star, mu, nu)


def test_inverse_map_inverts_across_tied_star_instances():
    star = build_star(4)
    for seed in range(196):
        rng = substream(seed, "polar-star-ties")
        mu, nu = _star_pair(
            star,
            *([STAR_LATTICE[k] for k in rng.choice(12, 4, replace=False)] for _ in range(2)),
        )
        _check_inverse_and_polar(star, mu, nu)


def test_verify_measure_preserving_cases(e1):
    mu = measure(e1, [Point(0, (0.0,)), Point(0, (1.0,))])
    swap = map_from_points(e1, mu, [Point(0, (1.0,)), Point(0, (0.0,))])
    assert verify_measure_preserving(mu, swap)
    collapse = map_from_points(e1, mu, [Point(0, (0.0,)), Point(0, (0.0,))])
    assert not verify_measure_preserving(mu, collapse)
    off_support = map_from_points(e1, mu, [Point(0, (0.5,)), Point(0, (0.0,))])
    assert not verify_measure_preserving(mu, off_support)
    uneven = measure(e1, [Point(0, (0.0,)), Point(0, (1.0,))], weights=[0.25, 0.75])
    swap_uneven = map_from_points(e1, uneven, [Point(0, (1.0,)), Point(0, (0.0,))])
    assert not verify_measure_preserving(uneven, swap_uneven)
    with pytest.raises(MapUndefined):
        verify_measure_preserving(mu, TransportMap(mu, (Point(0, (0.0,)),), (0,)))


def test_collapsing_s_surfaces_not_deterministic(e1, line_mu):
    s = map_from_points(e1, line_mu, [Point(0, (5.0,)), Point(0, (5.0,))])
    with pytest.raises(NotDeterministicError):
        polar_factorize(e1, line_mu, s)


def test_polar_requires_full_cover(e1, line_mu):
    with pytest.raises(MapUndefined):
        polar_factorize(e1, line_mu, TransportMap(line_mu, (Point(0, (2.0,)),), (0,)))


def test_maps_on_another_measure_are_undefined_on_mu(e1, line_mu):
    # same size as mu, so a length check alone let these through: s factored
    # with residual 0.0 and u counted as measure-preserving
    other = measure(e1, [Point(0, (10.0,)), Point(0, (11.0,))], weights=[0.25, 0.75])
    with pytest.raises(MapUndefined):
        polar_factorize(e1, line_mu, map_from_points(e1, other, [Point(0, (3.0,)), Point(0, (2.0,))]))
    with pytest.raises(MapUndefined):
        verify_measure_preserving(line_mu, map_from_points(e1, other, list(reversed(line_mu.points))))


@pytest.mark.parametrize("kind", ["e2", "tripod", "book3"])
def test_polar_random_instances(kind, request):
    space = request.getfixturevalue(kind)
    for seed in range(15):
        rng = substream(seed, f"polar:{kind}")
        n = int(rng.integers(3, 10))
        mu = measure(space, sample_points(space, rng, n))
        perm = rng.permutation(n)
        jitter = sample_points(space, rng, n)
        s_points = [jitter[int(k)] for k in perm]
        s = map_from_points(space, mu, s_points)
        fact = polar_factorize(space, mu, s)
        assert fact.residual <= 1e-9
        assert verify_measure_preserving(mu, fact.u)


def test_polar_stable_under_input_reordering(e2):
    rng = substream(3, "polar-reorder")
    n = 8
    pts = sample_points(e2, rng, n)
    images = sample_points(e2, rng, n)
    mu = measure(e2, pts)
    fact = polar_factorize(e2, mu, map_from_points(e2, mu, images))

    order = list(rng.permutation(n))
    mu2 = measure(e2, [pts[k] for k in order])
    fact2 = polar_factorize(e2, mu2, map_from_points(e2, mu2, [images[k] for k in order]))

    def graph(m, f):
        return {
            (p.chart, p.coords): (f.assignment[i].chart, f.assignment[i].coords)
            for i, p in enumerate(m.points)
        }

    assert graph(mu, fact.T) == graph(mu2, fact2.T)
    assert graph(mu, fact.u) == graph(mu2, fact2.u)


# ---------------------------------------------------------------------------
# the polar experiment's batch against the loop of public calls


def _sampled_rows(space, trials, n, seed):
    """charts [trials, 2n] and coords [trials, 2n, d]: each trial's n atoms, then n images."""
    rng = substream(seed, "polar routes")
    rows = [sample_points(space, rng, 2 * n) for _ in range(trials)]
    charts = np.array([[p.chart for p in row] for row in rows])
    return charts, np.array([[p.coords for p in row] for row in rows], dtype=float)


def _row(charts, coords):
    return [Point(c, tuple(x)) for c, x in zip(charts.tolist(), coords.tolist())]


def _outcome(run):
    try:
        return run()
    except Cat0otError as exc:
        return type(exc), str(exc)


def _batch_against_loop(space, charts, coords):
    """The batch's and the loop's per-trial T targets, u targets and points,
    residual bits and verdicts, or the error that each raises, must agree."""
    n = charts.shape[1] // 2
    rows = [_row(charts[t], coords[t]) for t in range(len(charts))]

    def loop():
        _metrics, _passed, trials = polar_in_turn(space, ((row[:n], row[n:]) for row in rows))
        return [(f.T.targets, f.u.targets, f.u.points, f.residual.hex(), kept) for _mu, f, kept in trials]

    def batch():
        t_targets, u_targets, residual, kept = polar._factor_trials(space, charts, coords)
        return [
            (tuple(t_targets[t].tolist()), tuple(u_targets[t].tolist()),
             tuple(rows[t][k] for k in u_targets[t].tolist()), float(residual[t]).hex(), bool(kept[t]))
            for t in range(len(rows))
        ]

    want = _outcome(loop)
    assert _outcome(batch) == want
    return want


@pytest.mark.parametrize("kind", ["e2", "tripod", "book3"])
def test_a_trial_with_a_duplicate_atom_raises_as_the_loop_does(kind, request):
    space = request.getfixturevalue(kind)
    charts, coords = _sampled_rows(space, 5, 4, 0)
    charts[2, 1], coords[2, 1] = charts[2, 0], coords[2, 0]
    assert sorted(polar._certified(space, charts, coords)) == [0, 1, 3, 4]
    assert _batch_against_loop(space, charts, coords)[0] is InvalidPoint


@pytest.mark.parametrize("kind", ["e2", "tripod", "book3"])
def test_a_trial_with_images_within_1e_9_raises_as_the_loop_does(kind, request):
    space = request.getfixturevalue(kind)
    charts, coords = _sampled_rows(space, 5, 4, 1)
    charts[3, 5], coords[3, 5] = charts[3, 4], coords[3, 4]
    coords[3, 5, -1] += 5e-10  # merged into one atom of s#mu, which T* must split
    assert sorted(polar._certified(space, charts, coords)) == [0, 1, 2, 4]
    assert _batch_against_loop(space, charts, coords)[0] is NotDeterministicError


def test_a_trial_with_tied_costs_is_batched_as_the_loop_factors_it(e2):
    # a shifted grid, whose 81 costs take 8 values: the batch certifies and
    # factors it as the public solve does
    charts, coords = _sampled_rows(e2, 3, 9, 2)
    grid = np.array([(x, y) for x in (-0.5, 0.0, 0.5) for y in (-0.5, 0.0, 0.5)])
    coords[1] = np.concatenate([grid, grid + (0.25, 0.0)])
    atoms, images = _row(charts[1], coords[1])[:9], _row(charts[1], coords[1])[9:]
    C = pairwise_costs(e2, measure(e2, atoms), measure(e2, images))
    assert len(np.unique(C)) * 4 < C.size
    assert sorted(polar._certified(e2, charts, coords)) == [0, 1, 2]
    trials = _batch_against_loop(e2, charts, coords)
    assert len(trials) == 3 and all(kept for *_rest, kept in trials)


def test_a_certificate_that_does_not_settle_sends_its_group_to_the_public_calls(tripod, monkeypatch):
    charts, coords = _sampled_rows(tripod, 4, 6, 3)
    for module in (polar, transport):
        monkeypatch.setattr(module, "_assignment_duals", lambda C, perm, prices=None: None)
    assert polar._certified(tripod, charts, coords) == {}
    assert len(_batch_against_loop(tripod, charts, coords)) == 4


def test_certificates_are_grouped_within_the_price_cells(e2, monkeypatch):
    shapes = []

    def spy(C, perm, prices=None):
        shapes.append(C.shape)
        return transport._assignment_duals(C, perm, prices)

    monkeypatch.setattr(polar, "_assignment_duals", spy)
    charts, coords = _sampled_rows(e2, 120, 6, 4)
    assert (720 * 720) > _simplex._PRICE_CELLS
    assert len(_batch_against_loop(e2, charts, coords)) == 120
    # 512 // 6 = 85 trials of 6 atoms per call, then the other 35
    assert shapes == [(510, 510), (210, 210)]
    assert all(rows * cols <= _simplex._PRICE_CELLS for rows, cols in shapes)


def test_trials_too_large_for_one_certificate_go_through_the_public_calls(book3, monkeypatch):
    public = []
    real = polar._factor_row
    monkeypatch.setattr(polar, "_factor_row", lambda *args: public.append(args) or real(*args))
    monkeypatch.setattr(polar, "_PRICE_CELLS", 35)  # below one trial's 6 x 6 costs
    charts, coords = _sampled_rows(book3, 3, 6, 5)
    assert len(_batch_against_loop(book3, charts, coords)) == 3
    assert len(public) == 3


def test_distinct_images_give_the_public_solve_uniform_weights():
    # the batch reads each trial as the assignment that solve_kantorovich
    # takes on uniform weights; for every n it batches (n * n <= _PRICE_CELLS),
    # polar_factorize's s#mu of n distinct images has weights that `measure`
    # accepts and `_uniform` counts as uniform
    for n in range(1, math.isqrt(_simplex._PRICE_CELLS) + 1):
        w = [1.0 / n] * n
        total = _mass(w)
        nu = [x / total for x in w]
        assert abs(_mass(nu) - 1.0) <= 1e-12 and abs(_mass(w) - _mass(nu)) <= 2e-12 and _uniform(nu)


@pytest.mark.parametrize(
    "space, params",
    [({"kind": "euclidean", "dim": 2}, {}), ({"kind": "open_book", "pages": 3}, {"n": 9})],
)
def test_a_polar_run_computes_no_entropic_prices(space, params, monkeypatch):
    # its trials are far below transport._WARM_ATOMS atoms: every LSA runs on
    # the raw costs, and no solve falls back to the simplex
    calls = []
    prices = _simplex._entropic_prices
    monkeypatch.setattr(_simplex, "_entropic_prices", lambda *args: calls.append(args) or prices(*args))
    report = run_scenario(Scenario(space, "polar", params, 5))
    assert report.passed
    assert calls == []
