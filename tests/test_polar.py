from __future__ import annotations

import numpy as np
import pytest

from cat0ot import (
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
from cat0ot.harness import sample_points
from cat0ot.rng import substream


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
