from __future__ import annotations

import numpy as np
import pytest

from cat0ot import _simplex, build_euclidean, pairwise_costs
from cat0ot.harness import translation_instance
from cat0ot.rng import substream


def _check_contract(C, a, b):
    """Solve and check the basis, the prices and the marginals; return the flow."""
    n, m = C.shape
    flow, alpha, beta = _simplex.solve_transport(C, a, b)
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
    # tight on the basis: one endpoint price is derived from the other, exactly
    for i, j in arcs:
        assert C[i, j] - alpha[i] == beta[j] or C[i, j] - beta[j] == alpha[i]
    scale = max(1.0, float(np.abs(C).max()))
    assert (C - alpha[:, None] - beta[None, :]).min() >= -1e-12 * scale
    assert all(mass >= 0.0 for mass in flow.values())
    rows, cols = np.zeros(n), np.zeros(m)
    for (i, j), mass in flow.items():
        rows[i] += mass
        cols[j] += mass
    assert np.abs(rows - a).max() <= 1e-12
    assert np.abs(cols - b).max() <= 1e-12
    return flow


def _weights(rng, k):
    w = rng.uniform(0.5, 1.5, k)
    return w / w.sum()


@pytest.mark.parametrize("n,m", [(2, 3), (7, 11), (23, 17), (40, 31)])
def test_random_nonuniform_contract(n, m):
    rng = substream(n * 100 + m, "simplex-contract")
    C = rng.uniform(0.0, 3.0, (n, m))
    _check_contract(C, _weights(rng, n), _weights(rng, m))


@pytest.mark.parametrize("n,m", [(1, 6), (6, 1)])
def test_single_row_or_column_contract(n, m):
    rng = substream(n + m, "simplex-degenerate-shape")
    C = rng.uniform(0.0, 3.0, (n, m))
    _check_contract(C, _weights(rng, n), _weights(rng, m))


def test_translation_grid_engages_bland_and_stays_exact():
    # 13 x 13 is the smallest translation grid whose degenerate streak turns
    # on the Bland rule: a copy of solve_transport that recorded the switch
    # was run on every grid side from 2 to 15, and it fired at 13 and 14 only
    e2 = build_euclidean(2)
    mu, nu, _shift, _h = translation_instance(e2, 13)
    C = pairwise_costs(e2, mu, nu)
    flow = _check_contract(C, np.asarray(mu.weights), np.asarray(nu.weights))
    # target k is source k shifted by the lattice vector
    assert {arc for arc, mass in flow.items() if mass > 0.0} == {(k, k) for k in range(169)}
