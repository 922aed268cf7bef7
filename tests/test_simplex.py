from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cat0ot import _simplex, brute_force_oracle, build_euclidean, measure, pairwise_costs
from cat0ot.harness import run_scenario, sample_points, translation_instance
from cat0ot.rng import substream
from cat0ot.spaces import Point

import report_digest
from _oracles import least_cost_by_scan, solve_transport_by_full_pricing, staircase_basis


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


def test_translation_grid_engages_bland_and_stays_exact(monkeypatch, count_pivots):
    # from the northwest-corner staircase, which is already the optimal shift,
    # 21 x 21 is the smallest grid whose degenerate streak turns on the Bland
    # rule (of the sides 2 to 25, a copy of solve_transport that recorded the
    # switch saw it fire at 21, 23, 24 and 25); from the solver's own start,
    # the least-cost basis of C minus the entropic prices, such a copy saw no
    # grid of side 2 to 25 engage it
    monkeypatch.setattr(_simplex, "least_cost", staircase_basis)
    C, a, b = _grid_instance(21)
    pivots = count_pivots(C, a, b)
    flow = _check_contract(C, a, b)
    # target k is source k shifted by the lattice vector
    assert {arc for arc, mass in flow.items() if mass > 0.0} == {(k, k) for k in range(441)}
    # with the switch out of reach the pivots take another path, so the
    # rule did engage
    monkeypatch.setattr(_simplex, "BLAND_STREAK", 10**9)
    assert count_pivots(C, a, b) != pivots


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


def _least_cost_cases():
    """Random, tied-integer, constant, signed-zero and thin cost matrices,
    with random and with uniform weights, as (C, a, b) params."""
    rng = substream(0, "least-cost-oracle")
    shapes = [(1, 1), (1, 6), (6, 1), (2, 9), (9, 2), (7, 7), (12, 17), (30, 23)]
    cases = []
    for n, m in shapes:
        costs = {
            "random": rng.uniform(-1.0, 2.0, (n, m)),
            "tied": rng.integers(0, 4, (n, m)).astype(float),
            "constant": np.full((n, m), 2.0),
            "signed-zero": rng.choice([0.0, -0.0, 1.0], (n, m)),
        }
        weights = {
            "random": (_weights(rng, n), _weights(rng, m)),
            "uniform": (np.full(n, 1.0 / n), np.full(m, 1.0 / m)),
        }
        for kind, C in costs.items():
            for wkind, (a, b) in weights.items():
                cases.append(pytest.param(C, a, b, id=f"{kind}-{wkind}-{n}x{m}"))
    return cases


@pytest.mark.parametrize("C,a,b", _least_cost_cases())
def test_least_cost_takes_the_cells_of_the_full_scan(C, a, b):
    # the row-head heap takes the cells the scan of every sorted cell takes,
    # with the same masses, in the same order
    assert list(_simplex.least_cost(C, a, b).items()) == list(least_cost_by_scan(C, a, b).items())


def test_constant_costs_give_zero_prices_and_the_plain_start(monkeypatch):
    rng = substream(1, "entropic-constant")
    a, b = _weights(rng, 25), _weights(rng, 20)
    C = np.full((25, 20), 2.0)
    alpha, beta = _simplex._entropic_prices(C, a, b)
    assert alpha.tolist() == [0.0] * 25 and beta.tolist() == [0.0] * 20
    starts = []
    least_cost = _simplex.least_cost
    monkeypatch.setattr(_simplex, "least_cost", lambda *args: starts.append(least_cost(*args)) or starts[-1])
    flow, _, _ = _simplex.solve_transport(C, a, b)
    [start] = starts
    assert list(start.items()) == list(least_cost(C, a, b).items())
    _check_basis(flow, a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_costs_give_zero_prices(bad):
    # the prices read the cost range; a nan or infinite cost leaves none, and
    # no step warns (the pytest configuration makes a RuntimeWarning an error)
    C, a, b = _contract_instance(23, 17)
    C[4, 5] = bad
    alpha, beta = _simplex._entropic_prices(C, a, b)
    assert not alpha.any() and not beta.any()
    assert alpha.shape == (23,) and beta.shape == (17,)


def test_a_zero_weight_gives_zero_prices():
    # its scaling is 0, whose log is not finite
    C, a, b = _contract_instance(23, 17)
    a[3] = 0.0
    alpha, beta = _simplex._entropic_prices(C, a / a.sum(), b)
    assert not alpha.any() and not beta.any()


def test_entropic_prices_cut_the_pivots(monkeypatch, count_pivots):
    C, a, b = _contract_instance(120, 97)
    alpha, beta = _simplex._entropic_prices(C, a, b)
    assert np.isfinite(alpha).all() and np.isfinite(beta).all() and alpha.any()
    entropic = count_pivots(C, a, b)
    monkeypatch.setattr(_simplex, "_entropic_prices", lambda C, a, b: (np.zeros(len(a)), np.zeros(len(b))))
    # the least-cost start on the raw costs, as before the prices
    assert count_pivots(C, a, b) == 289 > entropic == PIVOTS["120x97"]


def test_entropic_prices_read_no_blas_kernel(tmp_path):
    # a DYNAMIC_ARCH OpenBLAS picks its kernels by CPU, and they sum in
    # different orders; the scalings run in numpy's own loops, so forcing an
    # old kernel (OPENBLAS_CORETYPE, which any other BLAS ignores) leaves
    # every price bit, and with them the start's order on tied costs, as is
    instances = {"grid13": _grid_instance(13), "120x97": _contract_instance(120, 97)}
    for name, inst in instances.items():
        np.savez(tmp_path / f"{name}.npz", *inst)
    code = (
        "import sys, numpy as np\n"
        "from cat0ot import _simplex\n"
        "for path in sys.argv[1:]:\n"
        "    alpha, beta = _simplex._entropic_prices(*np.load(path).values())\n"
        "    print((alpha.tobytes() + beta.tobytes()).hex())\n"
    )
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=str(Path(_simplex.__file__).parents[1]))
    paths = [str(tmp_path / f"{name}.npz") for name in instances]
    run = subprocess.run([sys.executable, "-c", code, *paths], env=env, capture_output=True, text=True, check=True)
    want = []
    for C, a, b in instances.values():
        alpha, beta = _simplex._entropic_prices(C, a, b)
        want.append((alpha.tobytes() + beta.tobytes()).hex())
    assert run.stdout.split() == want


def _recorded_prices(monkeypatch):
    out = []
    prices = _simplex._entropic_prices
    monkeypatch.setattr(_simplex, "_entropic_prices", lambda *args: out.append(prices(*args)) or out[-1])
    return out


def _solve_from_prices(space, mu, nu, monkeypatch):
    """Solve mu -> nu from finite, nonzero entropic prices, and check the cost
    against the full-pricing solver, which starts from the raw costs."""
    recorded = _recorded_prices(monkeypatch)
    C, a, b = pairwise_costs(space, mu, nu), np.asarray(mu.weights), np.asarray(nu.weights)
    flow = _check_contract(C, a, b)
    [(alpha, beta)] = recorded
    assert np.isfinite(alpha).all() and np.isfinite(beta).all() and alpha.any()
    want, _, _ = solve_transport_by_full_pricing(C, a, b)
    cost = sum(C[arc] * mass for arc, mass in flow.items())
    assert cost == pytest.approx(sum(C[arc] * mass for arc, mass in want.items()), rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e50, 1e100, 1e150])
def test_far_euclidean_atoms_solve_without_warnings(e2, scale, monkeypatch):
    # costs up to about 1e300: the scalings run under np.errstate, the prices
    # and the shifted costs stay finite, and any RuntimeWarning fails the test
    rng = substream(int(np.log10(scale)), "entropic-far-e2")
    mu = measure(e2, [Point(0, tuple(x)) for x in scale * rng.uniform(-1.0, 1.0, (20, 2))], _weights(rng, 20))
    nu = measure(e2, [Point(0, tuple(x)) for x in scale * rng.uniform(-1.0, 1.0, (25, 2))], _weights(rng, 25))
    _solve_from_prices(e2, mu, nu, monkeypatch)


def test_deep_tree_costs_give_finite_prices(deep_tree, monkeypatch):
    # root distances of 1e20 to the last bit: costs near 5e39 that differ in
    # their low digits, and a temperature near 5e37
    rng = substream(0, "entropic-deep-tree")
    mu = measure(deep_tree, sample_points(deep_tree, rng, 20), _weights(rng, 20))
    nu = measure(deep_tree, sample_points(deep_tree, rng, 25), _weights(rng, 25))
    _solve_from_prices(deep_tree, mu, nu, monkeypatch)


# Pivots per solve from the least-cost start on C minus the entropic prices,
# under candidate-list pricing. The prices read no BLAS (see the test above),
# but numpy picks its float64 exp and log kernels by CPU: with the AVX-512
# ones disabled (NPY_DISABLE_CPU_FEATURES=X86_V4) the prices move in their
# last bits, and these pins, the digests below and the report pins all hold.
PIVOTS = {"120x97": 185, "grid13": 504}


@pytest.mark.parametrize("instance", sorted(PIVOTS))
def test_pivot_counts_are_pinned(instance, count_pivots):
    C, a, b = _contract_instance(120, 97) if instance == "120x97" else _grid_instance(13)
    assert count_pivots(C, a, b) == PIVOTS[instance]
    _check_contract(C, a, b)


def _digest(flow, alpha, beta):
    items = repr([(i, j, float(mass).hex()) for (i, j), mass in sorted(flow.items())])
    return hashlib.sha256(items.encode() + alpha.tobytes() + beta.tobytes()).hexdigest()


# sha256 of the sorted flow items (masses as float.hex) plus the alpha and
# beta bytes. They pin the leaving-arc tie rule, the candidate-list pricing
# and every price bit. The grids start from the northwest-corner staircase,
# so that grid 21 runs under Bland.
DIGESTS = {
    "120x97": "86f3968c00143bb3e9b168479b095fdff148b5cb46c1b63877d78c649f728012",
    "97x120": "ddbbf7180cd11941408c75eb01a7ffbe09f38c6fde4c555b051f4cc57cefd903",
    "grid13": "71de700e91548cf2fff28cf76bf84dc68e6fb67d8acde727d2a63cee74dc85b2",
    "grid17": "9af7e12a4ffa5ce559d4b8ffd7c09a7b60e9513c187a702b2d2fa8b7a15095e5",
    "grid21": "2b158b0b939c8e29c8ec8842eacebbad888f9a22342f10890904f9c4ffdc005e",
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


def _workload_instances(seed, monkeypatch):
    """(C, a, b) of every simplex solve the simplex-random workload's scenarios make at seed."""
    solve, out = _simplex.solve_transport, []

    def recorded(C, a, b):
        out.append((C, a, b))
        return solve(C, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(_simplex, "solve_transport", recorded)
        for scenario in report_digest.WORKLOADS["simplex-random"].scenarios(seed):
            run_scenario(scenario)
    return out


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_candidate_pricing_reaches_the_full_pricing_basis(seed, monkeypatch):
    # random non-uniform weights leave one optimal basis, so the pricing rule
    # moves only the pivot path: the basis and every price bit match the solver
    # that priced the whole matrix at each pivot, and the flows differ only in
    # their last bits
    instances = _workload_instances(seed, monkeypatch)
    assert len(instances) == 12  # the ten solve classes and two audits
    if seed == 101:
        sizes = [(2, 3), (7, 11), (23, 17), (40, 31), (120, 97), (97, 120)]
        instances += [_contract_instance(n, m) for n, m in sizes]
    lists = []
    shortlist = _simplex._shortlist
    monkeypatch.setattr(_simplex, "_shortlist", lambda *args: lists.append(None) or shortlist(*args))
    refills = 0
    for C, a, b in instances:
        lists.clear()
        flow, alpha, beta = _simplex.solve_transport(C, a, b)
        want, want_alpha, want_beta = solve_transport_by_full_pricing(C, a, b)
        assert set(flow) == set(want)
        assert alpha.tobytes() == want_alpha.tobytes() and beta.tobytes() == want_beta.tobytes()
        assert max(abs(flow[arc] - want[arc]) for arc in flow) <= 1e-15
        cost = sum(C[arc] * mass for arc, mass in flow.items())
        assert cost == pytest.approx(sum(C[arc] * mass for arc, mass in want.items()), rel=0, abs=1e-15)
        refills += len(lists) > 1
    # most solves run their list dry and price the whole matrix again
    assert refills > len(instances) // 2


@pytest.mark.parametrize("k", [1, 2, 5, 17, 40])
def test_shortlist_breaks_ties_by_smallest_index(k):
    # integer costs tie often; the list is the first k cells of a stable sort
    rng = substream(k, "simplex-shortlist")
    for _ in range(20):
        reduced = rng.integers(-3, 2, 40).astype(float)
        want = np.sort(np.argsort(reduced, kind="stable")[:k])
        assert _simplex._shortlist(reduced, k).tolist() == want.tolist()
