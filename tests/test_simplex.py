from __future__ import annotations

import hashlib

import numpy as np
import pytest

from cat0ot import _simplex, brute_force_oracle, build_euclidean, measure, pairwise_costs
from cat0ot.harness import sample_points, translation_instance
from cat0ot.rng import substream

from _oracles import staircase_basis


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


def _single_line_instance(n, m):
    rng = substream(n + m, "simplex-degenerate-shape")
    return rng.uniform(0.0, 3.0, (n, m)), _weights(rng, n), _weights(rng, m)


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
    _check_contract(*_single_line_instance(n, m))


def test_translation_grid_engages_bland_and_stays_exact(monkeypatch):
    # from the least-cost start no grid of side 2 to 19 engages the Bland rule;
    # from the northwest-corner staircase, which is already the optimal shift,
    # 13 x 13 is the smallest grid whose degenerate streak turns it on (a copy
    # of solve_transport that recorded the switch fired at 13 and 14 of the
    # sides 2 to 15)
    monkeypatch.setattr(_simplex, "least_cost", staircase_basis)
    flow = _check_contract(*_grid_instance(13))
    # target k is source k shifted by the lattice vector
    assert {arc for arc, mass in flow.items() if mass > 0.0} == {(k, k) for k in range(169)}


def test_random_nonuniform_start_is_least_cost(monkeypatch):
    C, a, b = _contract_instance(40, 31)
    starts = []
    least_cost = _simplex.least_cost

    def spy(*args):
        starts.append(least_cost(*args))
        return starts[-1]

    monkeypatch.setattr(_simplex, "least_cost", spy)
    flow, _, _ = _simplex.solve_transport(C, a, b)
    [start] = starts
    assert set(start) != set(flow)  # the start is not already optimal


@pytest.mark.parametrize("kind", ["e2", "e3", "tripod", "comb14", "book3"])
def test_uniform_squares_match_the_permutation_minimum(kind, request):
    # the acceptance gate's solver instances (n = 2-7, equal weights) now take
    # the assignment path; every fifth one is solved here by the simplex, the
    # fallback when an assignment certificate rejects
    space = request.getfixturevalue(kind)
    for k in range(0, 200, 5):
        rng = substream(k, f"acceptance-solve:{kind}")
        n = int(rng.integers(2, 8))
        mu = measure(space, sample_points(space, rng, n))
        nu = measure(space, sample_points(space, rng, n))
        C, a = pairwise_costs(space, mu, nu), np.full(n, 1.0 / n)
        flow = _check_contract(C, a, a)
        _, best = brute_force_oracle(space, mu, nu)
        assert sum(C[arc] * mass for arc, mass in flow.items()) == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("kind", ["e2", "tripod", "book3", "comb14"])
def test_uniform_rectangle_contract(kind, request):
    # equal weights on each side, a row's mass twice a column's: lines run out
    # together, and these are the most degenerate inputs that still reach the
    # simplex
    space = request.getfixturevalue(kind)
    rng = substream(0, f"simplex-uniform-rectangle:{kind}")
    mu = measure(space, sample_points(space, rng, 40))
    nu = measure(space, sample_points(space, rng, 80))
    _check_contract(pairwise_costs(space, mu, nu), np.full(40, 1 / 40), np.full(80, 1 / 80))


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


# Pivots per solve from the least-cost start.
PIVOTS = {"120x97": 261, "grid13": 1442}


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


@pytest.mark.parametrize("instance", sorted(PIVOTS))
def test_pivot_counts_are_pinned(instance, count_pivots):
    C, a, b = _contract_instance(120, 97) if instance == "120x97" else _grid_instance(13)
    assert count_pivots(C, a, b) == PIVOTS[instance]
    _check_contract(C, a, b)


def _digest(flow, alpha, beta):
    items = repr([(i, j, float(mass).hex()) for (i, j), mass in sorted(flow.items())])
    return hashlib.sha256(items.encode() + alpha.tobytes() + beta.tobytes()).hexdigest()


# sha256 of the sorted flow items (masses as float.hex) plus the alpha and
# beta bytes, recorded from the solver that kept the basis in flow and slot
# dicts. They pin the leaving-arc tie rule and every price bit. The grids
# start from the northwest-corner staircase, so that grid 13 runs under Bland.
DIGESTS = {
    "120x97": "9f47f36467b36d7b93babef60b545fb37357e3b03a45849f6f4cff9f6fb63e96",
    "97x120": "df463b23b51ab0281ba253df787f9dce12d86ef0ebf044fd1db9f9b03f002ca7",
    "grid13": "8877058a8714abb061d3bb03584ce95795f7bca6dfbd22402168cf115461a5df",
    "grid17": "9af7e12a4ffa5ce559d4b8ffd7c09a7b60e9513c187a702b2d2fa8b7a15095e5",
    "1x6": "23b1e04e1981692f9992e72d2dcab539b47bb2325e1fef02a278d4e43936fbae",
    "6x1": "e1396b3dec2e487104d7bc4323a8e4cc13b64c4c03a6163f2376929f7f4a652b",
}


def _pinned_instance(name):
    if name.startswith("grid"):
        return _grid_instance(int(name[4:]))
    n, m = map(int, name.split("x"))
    return (_single_line_instance if 1 in (n, m) else _contract_instance)(n, m)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_solution_bits_are_pinned(name, monkeypatch):
    if name.startswith("grid"):
        monkeypatch.setattr(_simplex, "least_cost", staircase_basis)
    assert _digest(*_simplex.solve_transport(*_pinned_instance(name))) == DIGESTS[name]
