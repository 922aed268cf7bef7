from __future__ import annotations

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    PotentialPair,
    SupportTooLarge,
    TooManyTuples,
    TransportMap,
    TransportPlan,
    UnsupportedShape,
    WeightMismatch,
    brute_force_oracle,
    build_euclidean,
    build_open_book,
    build_tree,
    c_subdifferential,
    c_transform,
    check_cyclic_monotonicity,
    cost,
    distance,
    extract_monge_map,
    map_from_points,
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
    assignment_duals_by_moved_rows,
    cyclic_monotonicity_by_tuple,
    interior_duals_by_raw_closure,
    lp_transport_cost,
    optimal_arcs,
    transport_identity_by_node,
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


def test_measure_rejects_a_nan_weight(e1):
    with pytest.raises(ParamOutOfRange):
        measure(e1, [Point(0, (0.0,)), Point(0, (1.0,))], weights=[math.nan, 1.0])


ROW_FAMILIES = ["e2", "tripod", "book3", "comb14"]


def _hex_rows(charts, coords) -> list:
    return [(c, [x.hex() for x in row]) for c, row in zip(charts, coords)]


@pytest.mark.parametrize("family", ROW_FAMILIES)
def test_measure_rows_are_its_points_read_only_and_packed_once(family, request):
    space = request.getfixturevalue(family)
    mu = measure(space, sample_points(space, substream(5, f"rows:{family}"), 12))
    charts, coords = mu.rows
    assert _hex_rows(charts.tolist(), coords.tolist()) == _hex_rows(
        [p.chart for p in mu.points], [[float(x) for x in p.coords] for p in mu.points]
    )
    for a in mu.rows:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    again = mu.rows
    assert again is mu.rows and again[0] is charts and again[1] is coords


@pytest.mark.parametrize("family", ROW_FAMILIES)
def test_reading_rows_keeps_equality_hash_and_repr(family, request):
    space = request.getfixturevalue(family)
    points = sample_points(space, substream(6, f"rows:{family}"), 9)
    read, unread = measure(space, points), measure(space, points)
    assert len(read.rows) == 2  # packed and cached
    assert "rows" not in {f.name for f in dataclasses.fields(DiscreteMeasure)}
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)


@pytest.mark.parametrize("family", ROW_FAMILIES)
@pytest.mark.parametrize("sizes", [(8, 8), (7, 9)], ids=["assignment", "simplex"])
def test_a_measure_built_directly_solves_with_the_same_bytes(family, sizes, request):
    space = request.getfixturevalue(family)
    if sizes[0] == sizes[1]:
        rng = substream(7, f"direct:{family}")
        mu, nu = (measure(space, sample_points(space, rng, n)) for n in sizes)
    else:
        mu, nu = random_instance(space, 7, *sizes)
    direct = solve_kantorovich(space, DiscreteMeasure(mu.points, mu.weights), DiscreteMeasure(nu.points, nu.weights))
    assert repr(direct) == repr(solve_kantorovich(space, mu, nu))


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


@pytest.mark.parametrize("n", [3, 24, 40])
def test_a_crossed_matching_stops_the_relaxation_and_falls_back(
    e1, n, monkeypatch, simplex_calls
):
    # reversed, the matching of a shifted line has negative exchange cycles;
    # at 40 atoms the first shortlist holds only 24 targets per row
    mu = measure(e1, [Point(0, (float(i),)) for i in range(n)])
    nu = measure(e1, [Point(0, (i + 0.5,)) for i in range(n)])
    monkeypatch.setattr(
        scipy.optimize, "linear_sum_assignment", lambda C: (np.arange(n), np.arange(n)[::-1])
    )
    duals = []
    relax = transport._assignment_duals

    def spy(C, perm, prices=None):
        duals.append(relax(C, perm, prices))
        return duals[-1]

    monkeypatch.setattr(transport, "_assignment_duals", spy)
    _, pot, total = solve_kantorovich(e1, mu, nu)
    assert duals == [None]  # the relaxation stopped on its cap: a negative cycle
    assert simplex_calls == [(n, n)]
    assert pot.feasible
    assert total == pytest.approx(lp_transport_cost(e1, mu, nu), abs=1e-9)


@pytest.mark.parametrize("n", [6, 24, 289])
@pytest.mark.parametrize("kind", ["e2", "tripod", "book3"])
def test_a_transposed_optimal_matching_falls_back(kind, n, request, monkeypatch, simplex_calls):
    # swapping two rows of the optimal matching closes a negative 2-cycle; at
    # 289 atoms the first shortlist does not hold every arc
    space = request.getfixturevalue(kind)
    mu, nu = _uniform_pair(space, n, f"transposed:{kind}")
    C = pairwise_costs(space, mu, nu)
    rows, cols = scipy.optimize.linear_sum_assignment(C)
    perm = cols[np.argsort(rows)]
    d = C[np.arange(n), perm]
    rise = C[0, perm] + C[:, perm[0]] - d[0] - d  # rise[k]: swapping rows 0 and k
    k = int(np.argmax(rise))
    assert rise[k] > 1e-12
    swapped = perm.copy()
    swapped[[0, k]] = perm[[k, 0]]
    assert transport._assignment_duals(C, swapped) is None
    monkeypatch.setattr(
        scipy.optimize, "linear_sum_assignment", lambda _C: (np.arange(n), swapped)
    )
    _, pot, total = solve_kantorovich(space, mu, nu)
    assert simplex_calls == [(n, n)]
    assert pot.feasible
    assert total == pytest.approx(lp_transport_cost(space, mu, nu), abs=1e-9)


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


SPARSE_DUAL_CASES = [("grid", 17), ("grid", 25), ("grid", 33)] + [
    (kind, n) for kind in ("e2", "tripod") for n in (289, 576, 1089)
]


def _shortlist_prices(kind: str, C: np.ndarray):
    """Column prices that rank the first shortlist: none, or a seeded draw on
    the scale of C. The prices the solve's LSA runs on are the "entropic"
    kind."""
    if kind == "none":
        return None
    if kind == "entropic":
        return transport._assignment(C)[1]
    return substream(len(C), "shortlist-prices").uniform(0.0, float(C.max()), len(C))


@pytest.mark.parametrize(
    "kind, n, prices",
    [
        pytest.param(kind, n, prices, id=f"{kind}-{n}" + ("" if prices == "none" else f"-{prices}"))
        for prices in ("none", "entropic", "random")
        for kind, n in SPARSE_DUAL_CASES
    ],
)
def test_sparse_assignment_duals_equal_the_dense_relaxation(kind, n, prices, request):
    # the first shortlist's ranking moves the pass count, never alpha's bits
    C = _assignment_costs(kind, n, request)
    rows, cols = scipy.optimize.linear_sum_assignment(C)
    perm = cols[np.argsort(rows)]
    want = assignment_duals_by_dense_relaxation(C, perm)
    alpha = transport._assignment_duals(C, perm, _shortlist_prices(prices, C))
    assert alpha.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, n", SPARSE_DUAL_CASES)
def test_settled_duals_pass_the_dense_slack_and_gap_checks(kind, n, request):
    # the settled relaxation is the certificate; the dense slack and duality
    # gap checks it replaced, rebuilt here, accept its prices with room to spare
    C = _assignment_costs(kind, n, request)
    rows, cols = scipy.optimize.linear_sum_assignment(C)
    perm = cols[np.argsort(rows)]
    alpha = transport._assignment_duals(C, perm)
    d = C[np.arange(len(perm)), perm]
    beta = np.empty(len(perm))
    beta[perm] = d - alpha
    slack = C - alpha[:, None] - beta[None, :]
    assert slack.min() >= -1e-12 * max(1.0, float(np.abs(C).max()))
    assert abs(d.mean() - (alpha.mean() + beta.mean())) <= 1e-12


def test_the_first_shortlist_misses_arcs_the_duals_need(e2):
    # on 289 random atoms the fixpoint over each row's _SHORTLIST nearest
    # targets is not the dense one, so the sparse duals above had to grow
    # their shortlist
    C = pairwise_costs(e2, *_uniform_pair(e2, 289, "sparse-duals:e2"))
    rows, cols = scipy.optimize.linear_sum_assignment(C)
    perm = cols[np.argsort(rows)]
    first = assignment_duals_by_dense_relaxation(C, perm, _first_shortlist(C, perm, C))
    alpha = assignment_duals_by_dense_relaxation(C, perm)
    assert not np.array_equal(first, alpha)
    assert transport._assignment_duals(C, perm).tobytes() == alpha.tobytes()


def test_block_diagonal_duals_certify_each_block_as_a_call_on_it_alone(tripod):
    # +inf off the blocks forbids every arc between them; blocks of up to and
    # past the 24-target shortlist, on tree costs and on uniform draws
    rng = substream(0, "block-diagonal duals")
    blocks = [pairwise_costs(tripod, *_uniform_pair(tripod, n, "block-diagonal")) for n in (1, 2, 6, 17)]
    blocks += [rng.random((n, n)) for n in (3, 40)]
    perms = []
    for C in blocks:
        rows, cols = scipy.optimize.linear_sum_assignment(C)
        perms.append(cols[np.argsort(rows)])
    starts = np.cumsum([0] + [len(C) for C in blocks])
    B = np.full((starts[-1], starts[-1]), np.inf)
    for C, a in zip(blocks, starts):
        B[a : a + len(C), a : a + len(C)] = C
    perm = np.concatenate([p + a for p, a in zip(perms, starts)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha = transport._assignment_duals(B, perm)
        for C, p, a in zip(blocks, perms, starts):
            assert alpha[a : a + len(C)].tobytes() == transport._assignment_duals(C, p).tobytes()
        # two entries of the 6-atom block's matching swapped: that block, and
        # with it the whole matrix, is not optimal
        C, p, a = blocks[2], perms[2], starts[2]
        d = C[np.arange(6), p]
        k = int(np.argmax(C[0, p] + C[:, p[0]] - d[0] - d))
        swapped = p.copy()
        swapped[[0, k]] = p[[k, 0]]
        assert transport._assignment_duals(C, swapped) is None
        perm[a : a + 6] = swapped + a
        assert transport._assignment_duals(B, perm) is None


def _segment_round_inputs(kind: str, request):
    """(C, perm, prices) for the certificate: the matching `_assignment`
    finds and its prices, or a reversed matching on a shifted line, which has
    negative exchange cycles."""
    if kind == "crossed":
        e1 = request.getfixturevalue("e1")
        mu = measure(e1, [Point(0, (float(i),)) for i in range(40)])
        nu = measure(e1, [Point(0, (i + 0.5,)) for i in range(40)])
        return pairwise_costs(e1, mu, nu), np.arange(40)[::-1].copy(), None
    if kind == "block-diagonal":  # +inf off blocks of up to and past the shortlist
        rng = substream(1, "segment-rounds")
        blocks = [rng.random((n, n)) for n in (3, 30, 6, 41)]
        starts = np.cumsum([0] + [len(B) for B in blocks])
        C = np.full((starts[-1], starts[-1]), np.inf)
        for B, a in zip(blocks, starts):
            C[a : a + len(B), a : a + len(B)] = B
    elif kind.startswith("grid"):
        C = _assignment_costs("grid", int(kind[4:]), request)
    else:
        C = _assignment_costs(kind, 289, request)
    return (C, *transport._assignment(C))


@pytest.mark.parametrize("kind", ["e2", "tripod", "grid17", "grid33", "block-diagonal", "crossed"])
def test_segment_rounds_give_the_bits_of_the_moved_row_loop(kind, request):
    # every arc relaxed each round against only the arcs out of moved rows:
    # the same Jacobi rounds, so the same alpha bits and the same verdict,
    # from a shortlist ranked by C and by the prices the LSA ran on
    C, perm, prices = _segment_round_inputs(kind, request)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rank in (None, prices):
            want = assignment_duals_by_moved_rows(C, perm, rank)
            alpha = transport._assignment_duals(C, perm, rank)
            if kind == "crossed":
                assert alpha is None and want is None
            else:
                assert alpha.tobytes() == want.tobytes()


def _first_shortlist(C: np.ndarray, perm: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The arcs k -> i with perm[k] among row i's _SHORTLIST lowest entries of rank."""
    nearest = np.zeros_like(C, dtype=bool)
    np.put_along_axis(nearest, np.argsort(rank, axis=1, kind="stable")[:, : transport._SHORTLIST], True, axis=1)
    return nearest[:, perm]


@pytest.mark.parametrize("side", [17, 25, 33])
def test_entropic_prices_rank_a_first_shortlist_that_holds_the_fixpoint(e2, side):
    # a translation's partners are far by C; ranked by C minus the entropic
    # prices, the first shortlist already holds every arc the dense fixpoint needs
    mu, nu, _, _ = translation_instance(e2, side)
    C = pairwise_costs(e2, mu, nu)
    perm, prices = transport._assignment(C)
    alpha = assignment_duals_by_dense_relaxation(C, perm)
    by_cost = assignment_duals_by_dense_relaxation(C, perm, _first_shortlist(C, perm, C))
    by_price = assignment_duals_by_dense_relaxation(C, perm, _first_shortlist(C, perm, C - prices))
    assert not np.array_equal(by_cost, alpha)
    assert by_price.tobytes() == alpha.tobytes()


class _RowReads(np.ndarray):
    """A cost matrix that counts its reads of row chunks, C[s:e]: the
    certificate reads each chunk once for its first shortlist and once per
    pricing pass."""

    reads = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            _RowReads.reads += 1
        return super().__getitem__(key)


def _pricing_passes(C: np.ndarray, perm: np.ndarray, prices) -> int:
    _RowReads.reads = 0
    assert transport._assignment_duals(C.view(_RowReads), perm, prices) is not None
    return _RowReads.reads // len(transport._row_chunks(C)) - 1


def test_a_tied_certificate_settles_in_one_pricing_pass(e2):
    # ranked by C, grid 33's first shortlist misses the translation's far
    # partners and takes several passes; ranked by C minus the entropic
    # prices, one
    mu, nu, _, _ = translation_instance(e2, 33)
    C = pairwise_costs(e2, mu, nu)
    perm, prices = transport._assignment(C)
    assert _pricing_passes(C, perm, prices) == 1
    assert _pricing_passes(C, perm, None) > 1


def test_the_side_49_certificate_settles_within_two_pricing_passes(e2):
    # the default transport-identity ladder's top grid, which by C takes 5,
    # and 4 from the plain scalings at range / 100
    mu, nu, _, _ = translation_instance(e2, 49)
    C = pairwise_costs(e2, mu, nu)
    perm, prices = transport._assignment(C)
    assert _pricing_passes(C, perm, prices) <= 2


LSA = scipy.optimize.linear_sum_assignment


@pytest.fixture
def lsa_inputs(monkeypatch):
    calls = []

    def spy(C):
        calls.append(C)
        return LSA(C)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
    return calls


@pytest.mark.parametrize("n", [1, 2, 6, 31, 32, 33, 64])
def test_shape_checks_give_the_verdicts_of_their_first_form(n):
    # _uniform was np.allclose at atol 1e-12
    share = 1.0 / n
    for off in (0.0, 5e-13, 1e-12, -1e-12, 1.5e-12, math.nan, math.inf, -2.0 * share):
        w = [share + off] + [share] * (n - 1)
        assert transport._uniform(w) == bool(np.allclose(w, share, rtol=0.0, atol=1e-12))


def _one_price_per_column(warm: np.ndarray, C: np.ndarray) -> bool:
    offset = warm - C
    return not np.array_equal(warm, C) and np.allclose(offset, offset[0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["e2", "tripod", "book3"])
def test_lsa_takes_prices_from_the_warm_atoms_on(kind, request, lsa_inputs):
    # untied random atoms on either side of _WARM_ATOMS
    space = request.getfixturevalue(kind)
    for n in (transport._WARM_ATOMS - 1, transport._WARM_ATOMS):
        mu, nu = _uniform_pair(space, n, f"warm-atoms:{kind}")
        lsa_inputs.clear()
        plan, pot, _ = solve_kantorovich(space, mu, nu)
        [warm] = lsa_inputs
        C = pairwise_costs(space, mu, nu)
        if n < transport._WARM_ATOMS:
            assert np.array_equal(warm, C)
        else:
            assert _one_price_per_column(warm, C)
        rows, cols = LSA(C)
        assert [(i, j) for i, j, _ in plan.entries] == list(zip(rows.tolist(), cols.tolist()))
        assert pot.feasible


@pytest.mark.parametrize("kind, n", [("grid", 17), ("grid", 25), ("grid", 33), ("e2", 289), ("tripod", 576)])
def test_squares_from_the_warm_atoms_take_the_entropic_warm_start(kind, n, request, lsa_inputs):
    # translation grids, whose costs tie, and random atoms, whose costs do not
    C = _assignment_costs(kind, n, request)
    perm, prices = transport._assignment(C)
    [warm] = lsa_inputs
    assert np.array_equal(warm, C - prices)
    assert _one_price_per_column(warm, C)
    rows, cols = LSA(C)
    assert perm.tolist() == cols[np.argsort(rows)].tolist()


def test_costs_tied_at_one_value_take_zero_entropic_prices(lsa_inputs):
    # every cost is 0.5: the temperature is 0, and the LSA runs on C minus 0
    C = np.full((transport._WARM_ATOMS, transport._WARM_ATOMS), 0.5)
    perm, prices = transport._assignment(C)
    assert not prices.any() and prices.shape == (len(C),)
    [warm] = lsa_inputs
    assert np.array_equal(warm, C)
    assert perm.tolist() == LSA(C)[1].tolist()
    assert transport._assignment_duals(C, perm, prices).tolist() == [0.0] * len(C)


@pytest.mark.parametrize("warm", [True, False])
def test_the_certificate_ranks_by_the_prices_lsa_ran_on(e2, warm, monkeypatch, lsa_inputs):
    # from _WARM_ATOMS atoms the certificate gets the LSA's entropic prices;
    # below, none
    n = 17 if warm else 11
    mu, nu = translation_instance(e2, n)[:2]
    assert (n * n >= transport._WARM_ATOMS) == warm
    given = []
    relax = transport._assignment_duals

    def spy(C, perm, prices=None):
        given.append(prices)
        return relax(C, perm, prices)

    monkeypatch.setattr(transport, "_assignment_duals", spy)
    solve_kantorovich(e2, mu, nu)
    [warm_costs], [prices] = lsa_inputs, given
    C = pairwise_costs(e2, mu, nu)
    if warm:
        assert np.array_equal(warm_costs, C - prices)
    else:
        assert prices is None and np.array_equal(warm_costs, C)


@pytest.mark.parametrize("scale", [1e-290, 1e290])
def test_entropic_prices_stay_finite_on_scaled_costs(e2, scale):
    # the kernel reads C at its temperature, which scales with C, so neither
    # tiny nor huge costs leave the zero fallback
    mu, nu, _, _ = translation_instance(e2, 17)
    C = pairwise_costs(e2, mu, nu)
    scaled = C * scale
    perm, prices = transport._assignment(scaled)
    assert prices.dtype == np.float64 and np.isfinite(prices).all() and prices.any()
    assert np.isfinite(scaled - prices).all()
    assert np.array_equal(perm, transport._assignment(C)[0])
    assert np.array_equal(LSA(scaled - prices)[1], LSA(C)[1])


def test_solver_input_validation(e2):
    mu = measure(e2, [Point(0, (0.0, 0.0))], weights=[1.0])
    nu = measure(e2, [Point(0, (1.0, 0.0)), Point(0, (0.0, 1.0))], weights=[0.25, 0.75])
    plan, pot, total = solve_kantorovich(e2, mu, nu)  # single atom splits
    assert len(plan.entries) == 2
    with pytest.raises(UnsupportedShape):
        brute_force_oracle(e2, mu, nu)


def test_solver_rejects_a_nan_mass(e1, line_instance):
    # a measure built directly skips measure()'s weight checks
    mu, nu = line_instance
    with pytest.raises(WeightMismatch):
        solve_kantorovich(e1, DiscreteMeasure(mu.points, (math.nan, 0.5)), nu)


def test_the_solver_accepts_every_pair_of_measures(e1, line_instance):
    # measure() holds each total within 1e-12 of 1, so two totals may differ by 2e-12
    mu, nu = line_instance
    heavy = measure(e1, mu.points, weights=[0.5, 0.5 + 9e-13])
    light = measure(e1, nu.points, weights=[0.5, 0.5 - 9e-13])
    plan, pot, total = solve_kantorovich(e1, heavy, light)
    assert [(i, j) for i, j, _mass in plan.entries] == [(0, 0), (1, 1)]
    assert total == pytest.approx(2.0, abs=1e-9)
    assert pot.feasible
    # further apart than the two tolerances allow
    for weights in ((0.5, 0.5 + 2.5e-12), (0.5, 0.5 - 2.5e-12)):
        with pytest.raises(WeightMismatch):
            solve_kantorovich(e1, DiscreteMeasure(mu.points, weights), nu)


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


def test_the_cycle_audit_costs_the_atoms_a_hand_built_plan_leaves_out(e2):
    # the support's own costs are finite; mu's second atom is past the float range from nu
    mu = measure(e2, [Point(0, (0.0, 0.0)), Point(0, (1e200, 0.0))])
    nu = measure(e2, [Point(0, (1.0, 0.0)), Point(0, (2.0, 0.0))])
    plan = TransportPlan(mu, nu, ((0, 0, 0.5), (0, 1, 0.5)))
    with pytest.raises(ParamOutOfRange, match="float range"):
        check_cyclic_monotonicity(e2, plan)


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


def test_zero_mass_entries_are_not_support(e1, line_instance):
    mu, nu = line_instance
    plan, _, _ = solve_kantorovich(e1, mu, nu)
    assert plan.entries == ((0, 0, 0.5), (1, 1, 0.5))
    # the crossing arcs at mass 0 would violate the cycle inequality by 1.0
    doc = {"entries": [[0, 0, 0.5], [1, 1, 0.5], [0, 1, 0.0], [1, 0, 0.0]]}
    padded = plan_from_json(doc, mu, nu)
    for kw in (dict(max_len=2), dict(max_len=3), dict(max_len=3, mode="sampled", n_samples=200)):
        got = check_cyclic_monotonicity(e1, padded, **kw)
        assert got == check_cyclic_monotonicity(e1, plan, **kw)
        assert got == cyclic_monotonicity_by_tuple(e1, padded, **kw)
        assert got["violations"] == 0
    # and the exhaustive cap counts only the support
    big = measure(e1, [Point(0, (float(i),)) for i in range(40)])
    entries = ((0, 0, 0.5), (1, 1, 0.5)) + tuple((i, i, 0.0) for i in range(2, 40))
    out = check_cyclic_monotonicity(e1, TransportPlan(big, big, entries), max_len=6)
    assert out == {"violations": 0, "worst_slack": -1.0}  # the one 2-cycle, uncrossed


@pytest.mark.parametrize("K", range(13))
@pytest.mark.parametrize("L", [2, 3, 4])
def test_combinations_follow_itertools_row_for_row(K, L):
    want = np.array(list(itertools.combinations(range(K), L)), dtype=np.intp).reshape(-1, L)
    got = transport._combinations(K, L)
    assert got.dtype == np.intp and got.shape == (math.comb(K, L), L)
    assert got.tolist() == want.tolist()


def test_cyclic_check_guards(e1, line_instance, monkeypatch):
    mu, nu = line_instance
    plan, _, _ = solve_kantorovich(e1, mu, nu)
    blocks = []
    impl = type(e1.impl)
    real = impl.distances_between
    monkeypatch.setattr(impl, "distances_between", lambda *args: blocks.append(args) or real(*args))
    with pytest.raises(ParamOutOfRange):
        check_cyclic_monotonicity(e1, plan, max_len=1)
    with pytest.raises(ParamOutOfRange):
        check_cyclic_monotonicity(e1, plan, mode="nonsense")
    big = measure(e1, [Point(0, (float(i),)) for i in range(40)])
    big_plan = TransportPlan(big, big, tuple((i, i, 1 / 40) for i in range(40)))
    with pytest.raises(TooManyTuples):
        check_cyclic_monotonicity(e1, big_plan, max_len=6)
    # every argument is checked before a cost is built
    assert blocks == []
    sampled = check_cyclic_monotonicity(e1, big_plan, max_len=6, mode="sampled", n_samples=500)
    assert sampled["violations"] == 0
    # the sampled audit builds the costs of all 40 x 40 support pairs
    assert sum(len(args[1]) for args in blocks) == 40 * 40


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


@pytest.mark.parametrize("family", ["e2", "e3", "tripod", "comb316", "book3"])
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
    # the ball is open: a target at exactly distance R is left out
    y0 = sample_points(space, rng, 1)[0]
    dist = [distance(space, y0, y) for y in nu.points]
    R = min(dist)
    j = dist.index(R)
    x = mu.points[0]
    with pytest.raises(EmptyBall):
        psi_R(space, pot, nu, x, y0, R)
    want = pot.phi[j] - cost(space, x, nu.points[j])
    assert psi_R(space, pot, nu, x, y0, math.nextafter(R, math.inf)).hex() == want.hex()


def _instance_and_potentials(space, n, m):
    rng = substream(18, "subdifferential-checks")
    mu = measure(space, sample_points(space, rng, n))
    nu = measure(space, sample_points(space, rng, m))
    return mu, nu, solve_kantorovich(space, mu, nu)[1]


def test_c_subdifferential_rejects_an_index_outside_mu(e2):
    mu, nu, pot = _instance_and_potentials(e2, 4, 5)
    for i in (-1, -4, 4, 9):
        with pytest.raises(ParamOutOfRange):
            c_subdifferential(e2, pot, mu, nu, i)


RESIZED = {"short": lambda v: v[:-1], "long": lambda v: v + (0.0,)}


@pytest.mark.parametrize("size", sorted(RESIZED))
@pytest.mark.parametrize("field", ["phi", "psi"])
def test_c_subdifferential_rejects_potentials_of_the_wrong_length(e2, field, size):
    mu, nu, pot = _instance_and_potentials(e2, 4, 5)
    bad = dataclasses.replace(pot, **{field: RESIZED[size](getattr(pot, field))})
    with pytest.raises(ParamOutOfRange):
        c_subdifferential(e2, bad, mu, nu, 0)


@pytest.mark.parametrize("size", sorted(RESIZED))
def test_psi_R_rejects_potentials_of_the_wrong_length(e2, size):
    mu, nu, pot = _instance_and_potentials(e2, 4, 5)
    bad = dataclasses.replace(pot, phi=RESIZED[size](pot.phi))
    with pytest.raises(ParamOutOfRange):
        psi_R(e2, bad, nu, mu.points[0], nu.points[0], 10.0)


def test_psi_R_rejects_a_nan_radius(e2):
    mu, nu, pot = _instance_and_potentials(e2, 4, 5)
    with pytest.raises(ParamOutOfRange):
        psi_R(e2, pot, nu, mu.points[0], nu.points[0], math.nan)


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


def test_grid_potential_rejects_values_off_its_shape():
    with pytest.raises(ParamOutOfRange, match="needs 16 values, got 15"):
        GridPotential((0.0, 0.0), 0.5, (4, 4), tuple(range(15)))


def test_grid_potential_rejects_a_node_index_off_the_grid():
    gp = GridPotential((0.0, 0.0), 0.5, (4, 4), tuple(range(16)))
    assert [gp.flat_index(idx) for idx in ((0, 0), (3, 3), (1, 2))] == [0, 15, 6]
    # each of these once wrapped onto another node or past the last one
    for idx in ((0, 5), (4, 0), (0, 4), (-1, 0), (2, -1)):
        with pytest.raises(ParamOutOfRange, match="lies past the grid"):
            gp.flat_index(idx)
    for idx in ((1,), (1, 2, 0), ()):
        with pytest.raises(ParamOutOfRange, match="has 2 indices"):
            gp.flat_index(idx)
    # interpolate clips its base cell onto the grid, so a point far outside
    # still extrapolates from an edge cell: the values are 8 x + 2 y
    assert gp.interpolate(Point(0, (10.0, -10.0))) == pytest.approx(60.0, abs=1e-9)


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


def test_transport_identity_rejects_a_grid_off_the_source_atoms(e2):
    grid, T, _, h = _translation_setup(e2, 5)
    off = dataclasses.replace(grid, origin=(0.5 * h, 0.0))
    with pytest.raises(MapUndefined, match="grid nodes"):
        verify_transport_identity(e2, off, T, 6)
    # node 21 of the map lies past a 4-by-4 grid, which has no node 21
    small = GridPotential((0.0, 0.0), h, (4, 4), grid.values[:16])
    with pytest.raises(ParamOutOfRange):
        small.is_interior(21)
    with pytest.raises(MapUndefined, match="grid nodes"):
        verify_transport_identity(e2, small, T, 21)


@pytest.mark.parametrize("moves", ["solved", "jittered"])
@pytest.mark.parametrize("n", [5, 9, 17, 33, 49])
def test_identity_rows_match_the_node_walk_bit_for_bit(e2, n, moves):
    # the solved map is a translation along the first axis; jittered images
    # move along both, so that every dot product sums two nonzero terms
    mu, nu, _shift, h = translation_instance(e2, n)
    plan, pot, _ = solve_kantorovich(e2, mu, nu, refine_duals=False)
    grid = GridPotential((0.0, 0.0), h, (n, n), pot.psi)
    T = extract_monge_map(plan)
    if moves == "jittered":
        jitter = substream(n, "identity-jitter").uniform(-0.5 * h, 0.5 * h, (n * n, 2))
        T = map_from_points(e2, mu, [Point(0, tuple(np.add(p.coords, d))) for p, d in zip(T.points, jitter)])
    nodes = [i for i in range(n * n) if grid.is_interior(i)]
    want = [tuple(x.hex() for x in transport_identity_by_node(e2, grid, T, i)) for i in nodes]
    residuals, gaps = transport._identity_rows(e2, grid, T, np.array(nodes))
    assert [(r.hex(), g.hex()) for r, g in zip(residuals.tolist(), gaps.tolist())] == want
    reports = [verify_transport_identity(e2, grid, T, i) for i in nodes]
    assert [(rep.residual.hex(), rep.brenier_gap.hex()) for rep in reports] == want


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


# ---------------------------------------------------------------------------
# cost matrices, built in blocks of whole source rows

COST_SPACES = ["e2", "book3", "tripod", "comb14", "comb316", "deep_tree", "lopsided_tree", "long_tree"]


def _cost_points(space, rng, n):
    """n distinct normal points: samples, and on a tree its vertices first."""
    pts = sample_points(space, rng, n)
    if space.kind == "tree":
        verts = [space.impl.vertex_point(v) for v in space.params.vertices]
        pts = list(dict.fromkeys(verts[: n // 4] + pts))[:n]
    return pts


@pytest.mark.parametrize("name", COST_SPACES)
def test_cost_blocks_equal_the_scalar_distance_cell_by_cell(name, request, monkeypatch):
    space = request.getfixturevalue(name)
    rng = substream(31, f"cost-blocks:{name}")
    m = 256
    n = 2 * (transport._COST_PAIRS // m) + 1  # two whole blocks and one row
    xs, ys = _cost_points(space, rng, n), _cost_points(space, rng, m)
    want = np.array([[0.5 * d * d for d in (space.impl.distance(x, y) for y in ys)] for x in xs])
    # (rows, columns, pairs per block): one cell, one row, one column and three
    # blocks at the default size; blocks of two rows of 17 with a short last
    # one, and blocks of one row when a row is longer than a block
    cases = [(1, 1, None), (1, m, None), (n, 1, None), (n, m, None), (23, 17, 40), (5, m, 40)]
    for rows, cols, pairs in cases:
        if pairs is not None:
            monkeypatch.setattr(transport, "_COST_PAIRS", pairs)
        C = pairwise_costs(space, measure(space, xs[:rows]), measure(space, ys[:cols]))
        assert C.tobytes() == want[:rows, :cols].tobytes(), (rows, cols, pairs)
        monkeypatch.undo()


@pytest.mark.parametrize("family", ["e2", "book3"])
def test_an_overflow_in_a_later_cost_block_is_out_of_range(family, request, monkeypatch):
    space = request.getfixturevalue(family)
    rng = substream(37, f"late-overflow:{family}")
    xs, ys = sample_points(space, rng, 30), sample_points(space, rng, 10)
    far = Point(1, (1e200, 0.0)) if space.kind == "open_book" else Point(0, (1e200, 0.0))
    monkeypatch.setattr(transport, "_COST_PAIRS", 20)  # two rows per block
    assert np.isfinite(pairwise_costs(space, measure(space, xs), measure(space, ys))).all()
    # the far source's row is the last of sixteen blocks
    with pytest.raises(ParamOutOfRange, match="float range"):
        pairwise_costs(space, measure(space, xs + [far]), measure(space, ys))


# ---------------------------------------------------------------------------
# costs past the float range; the pytest configuration makes any RuntimeWarning,
# such as numpy's overflow warning, an error

SPREAD_FAMILIES = ["e2", "book3", "tree"]
FRACS = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)
ZERO_POTENTIALS = PotentialPair((0.0, 0.0), (0.0, 0.0), True, 0.0)


def _spread(family, s, t, f):
    """A space and uniform two-atom measures mu and nu on it. Three atoms sit
    at coordinates t * f, for distinct fractions f in (0, 1); on the tree they
    sit on its edge b - c of length t. nu's second atom sits at coordinate s;
    on the tree it sits on its edge a - b of length s, at offset f[3] * s.
    When t <= s, that atom is at least 0.1 s from the others."""
    if family == "e2":
        space = build_euclidean(2)
        pts = [(t * f[0], -t * f[1]), (-t * f[2], t * f[3]), (-t * f[4], t * f[5]), (s, -t * f[6])]
        pts = [Point(0, p) for p in pts]
    elif family == "book3":
        space = build_open_book(3)
        pts = [
            Point(0, (t * f[0], t * f[1])),
            Point(1, (t * f[2], -t * f[3])),
            Point(2, (t * f[4], t * f[5])),
            Point(1, (s, t * f[6])),
        ]
    else:
        space = build_tree(["a", "b", "c"], [("a", "b", s), ("b", "c", t)])
        pts = [Point(1, (t * f[0],)), Point(1, (t * f[1],)), Point(1, (t * f[2],))]
        pts.append(Point(0, (s * f[3],)))
    return space, measure(space, pts[:2]), measure(space, pts[2:])


def _cost_entry_points(space, mu, nu, pot):
    """Each public function that builds costs, on mu and nu, returning its numbers."""

    def solved(weights):
        _, p, total = solve_kantorovich(space, mu, DiscreteMeasure(nu.points, weights))
        return [total, *p.psi, *p.phi]

    plan = TransportPlan(mu, nu, ((0, 0, 0.5), (1, 1, 0.5)))
    return {
        "pairwise_costs": lambda: pairwise_costs(space, mu, nu).ravel(),
        "solve_kantorovich": lambda: solved(nu.weights),
        "solve_kantorovich by the simplex": lambda: solved((0.25, 0.75)),
        "brute_force_oracle": lambda: [brute_force_oracle(space, mu, nu)[1]],
        "check_cyclic_monotonicity": lambda: [check_cyclic_monotonicity(space, plan)["worst_slack"]],
        "c_transform": lambda: c_transform(space, pot.psi, mu.points, nu.points),
        "c_subdifferential": lambda: sorted(c_subdifferential(space, pot, mu, nu, 0)),
        "psi_R": lambda: [psi_R(space, pot, nu, mu.points[0], nu.points[0], 1.0)],
    }


# the band between 1e150 and 1e160, where costs are finite but near the
# float maximum, is left unasserted
@pytest.mark.parametrize("family", SPREAD_FAMILIES)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.floats(1.0, 1e150), st.floats(0.0, 1.0), st.permutations(FRACS))
def test_costs_up_to_1e150_are_finite(family, s, r, f):
    space, mu, nu = _spread(family, s, max(1.0, r * s), f)
    pot = solve_kantorovich(space, mu, nu)[1]
    for name, call in _cost_entry_points(space, mu, nu, pot).items():
        assert np.isfinite(np.asarray(call(), dtype=float)).all(), name


@pytest.mark.parametrize("family", SPREAD_FAMILIES)
@settings(max_examples=20, derandomize=True, deadline=None)
@example(1e200, 0.0, list(FRACS))
@given(st.floats(1e160, allow_infinity=False), st.floats(0.0, 1.0), st.permutations(FRACS))
def test_costs_from_1e160_are_out_of_range(family, s, r, f):
    t = max(1.0, r * s)
    assume(family != "tree" or s + t < math.inf)  # a longer tree is not built
    space, mu, nu = _spread(family, s, t, f)
    for name, call in _cost_entry_points(space, mu, nu, ZERO_POTENTIALS).items():
        with pytest.raises(ParamOutOfRange, match="float range"):
            call()
            pytest.fail(f"{name} returned")


@pytest.mark.parametrize("family", SPREAD_FAMILIES)
def test_a_ball_centre_past_the_float_range_holds_no_target(family):
    space, mu, nu = _spread(family, 1e200, 1.0, FRACS)
    near = DiscreteMeasure(nu.points[:1], (1.0,))
    with pytest.raises(EmptyBall):
        psi_R(space, PotentialPair((0.0,), (0.0,), True, 0.0), near, mu.points[0], nu.points[1], 1.0)
