from __future__ import annotations

import numpy as np
import pytest

from cat0ot import _simplex, build_euclidean, pairwise_costs
from cat0ot.harness import translation_instance
from cat0ot.rng import substream


def _check_basis(flow, a, b):
    """The arcs of flow form a spanning tree, with nonnegative masses that meet a and b."""
    n, m = len(a), len(b)
    arcs = list(flow)
    # n + m - 1 distinct arcs that join all n + m nodes form a spanning tree
    assert len(set(arcs)) == len(arcs) == n + m - 1
    root = list(range(n + m))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for i, j in arcs:
        ri, rj = find(i), find(n + j)
        assert ri != rj, "basic arcs close a cycle"
        root[ri] = rj
    assert all(mass >= 0.0 for mass in flow.values())
    rows, cols = np.zeros(n), np.zeros(m)
    for (i, j), mass in flow.items():
        rows[i] += mass
        cols[j] += mass
    assert np.abs(rows - a).max() <= 1e-12
    assert np.abs(cols - b).max() <= 1e-12


def _check_contract(C, a, b):
    """Solve and check the basis, the prices and the marginals; return the flow."""
    n, m = C.shape
    flow, alpha, beta = _simplex.solve_transport(C, a, b)
    arcs = list(flow)
    _check_basis(flow, a, b)
    # tight on the basis: one endpoint price is derived from the other, exactly
    for i, j in arcs:
        assert C[i, j] - alpha[i] == beta[j] or C[i, j] - beta[j] == alpha[i]
    # prices re-hung subtree by subtree are the bits of one pricing from
    # scratch (one row or one column is priced without a tree)
    if n > 1 and m > 1:
        adj = [set() for _ in range(n + m)]
        for i, j in arcs:
            adj[i].add(n + j)
            adj[n + j].add(i)
        price, parent, depth = [0.0] * (n + m), [-1] * (n + m), [0] * (n + m)
        _simplex._hang(n, adj, C.tolist(), price, parent, depth, 0, -1)
        assert np.array(price[:n]).tobytes() == alpha.tobytes()
        assert np.array(price[n:]).tobytes() == beta.tobytes()
    scale = max(1.0, float(np.abs(C).max()))
    assert (C - alpha[:, None] - beta[None, :]).min() >= -1e-12 * scale
    return flow


def _weights(rng, k):
    w = rng.uniform(0.5, 1.5, k)
    return w / w.sum()


def _contract_instance(n, m):
    rng = substream(n * 100 + m, "simplex-contract")
    C = rng.uniform(0.0, 3.0, (n, m))
    return C, _weights(rng, n), _weights(rng, m)


def _grid_instance(side):
    e2 = build_euclidean(2)
    mu, nu, _shift, _h = translation_instance(e2, side)
    return pairwise_costs(e2, mu, nu), np.asarray(mu.weights), np.asarray(nu.weights)


@pytest.mark.parametrize(
    "n,m", [(2, 3), (7, 11), (23, 17), (40, 31), (120, 97), (97, 120)]
)
def test_random_nonuniform_contract(n, m):
    _check_contract(*_contract_instance(n, m))


@pytest.mark.parametrize("n,m", [(1, 6), (6, 1)])
def test_single_row_or_column_contract(n, m):
    rng = substream(n + m, "simplex-degenerate-shape")
    C = rng.uniform(0.0, 3.0, (n, m))
    _check_contract(C, _weights(rng, n), _weights(rng, m))


def test_translation_grid_engages_bland_and_stays_exact():
    # 13 x 13 is the smallest translation grid whose degenerate streak turns
    # on the Bland rule: a copy of solve_transport that recorded the switch
    # was run on every grid side from 2 to 15, and it fired at 13 and 14 only
    flow = _check_contract(*_grid_instance(13))
    # target k is source k shifted by the lattice vector
    assert {arc for arc, mass in flow.items() if mass > 0.0} == {(k, k) for k in range(169)}


@pytest.mark.parametrize("side", range(2, 16))
def test_translation_grids_start_from_the_northwest_corner(side):
    # the staircase is already the optimal shift; the least-cost start costs more
    C, a, b = _grid_instance(side)
    start = _simplex.initial_basis(C, a, b)
    assert list(start.items()) == list(_simplex.northwest_corner(a, b).items())


def test_random_nonuniform_start_is_least_cost():
    C, a, b = _contract_instance(40, 31)
    start = _simplex.initial_basis(C, a, b)
    assert list(start.items()) == list(_simplex.least_cost(C, a, b).items())
    assert set(start) != set(_simplex.northwest_corner(a, b))


@pytest.mark.parametrize("n,m", [(2, 3), (9, 5), (23, 17), (31, 40)])
def test_least_cost_basis_random_nonuniform(n, m):
    C, a, b = _contract_instance(n, m)
    _check_basis(_simplex.least_cost(C, a, b), a, b)


@pytest.mark.parametrize("n", [2, 7, 30])
def test_least_cost_basis_uniform_square(n):
    # equal row and column masses: every filled cell exhausts both lines at
    # once, so n - 1 of the 2n - 1 arcs carry zero mass
    rng = substream(n, "least-cost-uniform")
    C = rng.uniform(0.0, 3.0, (n, n))
    a = np.full(n, 1.0 / n)
    flow = _simplex.least_cost(C, a, a)
    _check_basis(flow, a, a)
    assert sum(mass == 0.0 for mass in flow.values()) == n - 1


@pytest.mark.parametrize("n,m", [(1, 4), (4, 1), (5, 8), (8, 5)])
def test_least_cost_basis_constant_costs(n, m):
    rng = substream(n * 10 + m, "least-cost-constant")
    a, b = _weights(rng, n), _weights(rng, m)
    _check_basis(_simplex.least_cost(np.full((n, m), 2.0), a, b), a, b)


# Pivots per solve with each start forced. The default start is least_cost
# on the random instance and northwest_corner on the grid.
PIVOTS = {
    ("120x97", "northwest_corner"): 861,
    ("120x97", "least_cost"): 261,
    ("grid13", "northwest_corner"): 698,
    ("grid13", "least_cost"): 1442,
}
DEFAULT_START = {"120x97": "least_cost", "grid13": "northwest_corner"}


@pytest.fixture
def count_pivots(monkeypatch):
    """Solve and return the pivots: _hang prices the initial tree, then re-hangs once per pivot."""
    calls = []
    hang = _simplex._hang

    def spy(*args):
        calls.append(None)
        return hang(*args)

    def solve(C, a, b):
        calls.clear()
        _simplex.solve_transport(C, a, b)
        return len(calls) - 1

    monkeypatch.setattr(_simplex, "_hang", spy)
    return solve


@pytest.mark.parametrize("instance,start", sorted(PIVOTS))
def test_pivot_counts_are_pinned(instance, start, count_pivots, monkeypatch):
    C, a, b = _contract_instance(120, 97) if instance == "120x97" else _grid_instance(13)
    assert count_pivots(C, a, b) == PIVOTS[instance, DEFAULT_START[instance]]
    if start == "northwest_corner":
        forced = lambda C, a, b: _simplex.northwest_corner(a, b)  # noqa: E731
    else:
        forced = _simplex.least_cost
    monkeypatch.setattr(_simplex, "initial_basis", forced)
    assert count_pivots(C, a, b) == PIVOTS[instance, start]
    _check_contract(C, a, b)
