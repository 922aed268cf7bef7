"""Dense transportation simplex.

Minimizes sum C[i, j] x[i, j] over nonnegative x with prescribed row sums a
and column sums b (sum a = sum b). Exact at desk scale. The basis is a
spanning tree of the bipartite node graph (rows 0..n-1, columns n..n+m-1),
stored once as slot-indexed arrays: slot k holds the arc (bi[k], bj[k]) with
mass x[k], and adj[u] maps each tree neighbour of node u to the slot of the
arc between them. Node prices and parent and depth arrays are rooted at
row 0. The entering arc's cycle is the two parent walks from its endpoints
up to where they meet, and its slots are read off that node path. The
leaving arc cuts one subtree off its walk, and the entering arc takes its
slot. Only the cut subtree moves, so only it is re-hung from the entering
arc and re-priced, by the recurrence that priced the initial tree; the
prices are the bits a full traversal would give. Pricing is most-negative
with a deterministic first-index tie break, a tie for the leaving arc goes
to the smallest (i, j), and a Bland fallback engages after a streak of
degenerate pivots so cycling cannot occur.

The start is the least-cost (matrix-minimum) basis, which on random costs
begins near the optimum. Uniform square inputs, where every basis is
degenerate, reach the solver only when the assignment certificate in
`transport.solve_kantorovich` rejects.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def least_cost(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict[tuple[int, int], float]:
    """Matrix-minimum start: flows on exactly n + m - 1 arcs of a spanning tree.

    Cells are taken in one stable ascending sort of C. Each cell whose row and
    column are both still open gets min(ra, rb), and exactly one exhausted
    line closes per cell (the row on a tie, and never the last open row or
    column), so each arc joins a closing line to the tree of open lines.
    """
    n, m = C.shape
    ra = a.astype(float).tolist()
    rb = b.astype(float).tolist()
    row_open, col_open = [True] * n, [True] * m
    rows_left, cols_left = n, m
    flow: dict[tuple[int, int], float] = {}
    for cell in np.argsort(C, axis=None, kind="stable").tolist():
        i, j = divmod(cell, m)
        if not (row_open[i] and col_open[j]):
            continue
        q = min(ra[i], rb[j])
        flow[(i, j)] = q
        ra[i] -= q
        rb[j] -= q
        if rows_left == 1 and cols_left == 1:
            break
        if cols_left == 1 or (rows_left > 1 and ra[i] <= rb[j]):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    return flow


def _hang(
    n: int,
    adj: list[Iterable[int]],
    C: list[list[float]],
    price: list[float],
    parent: list[int],
    depth: list[int],
    q: int,
    r: int,
) -> None:
    """Price the basis subtree under node q hung from node r, in place.

    Nodes 0..n-1 are rows and n..n+m-1 are columns. Each node's price is the
    cost of the arc to its parent minus the parent's price, so every basic
    arc is tight. With r = -1, q is the root and gets price 0, which anchors
    alpha[0] = 0 when q = 0. adj[u] is any iterable of u's tree neighbours
    (the solver keeps neighbour -> slot dicts); the order does not matter,
    because each node is priced along its one path from q.
    """
    if r < 0:
        price[q], parent[q], depth[q] = 0.0, -1, 0
    else:
        parent[q] = r
        depth[q] = depth[r] + 1
        price[q] = (C[q][r - n] if q < n else C[r][q - n]) - price[r]
    stack = [q]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                depth[w] = depth[u] + 1
                if w >= n:
                    price[w] = C[u][w - n] - price[u]
                else:
                    price[w] = C[w][u - n] - price[u]
                stack.append(w)


def _cycle_path(
    parent: list[int], depth: list[int], src: int, dst: int
) -> tuple[list[int], int]:
    """Node path src -> dst in the basis tree, and the index where its two parent walks meet."""
    up, down = [src], [dst]
    while depth[up[-1]] > depth[down[-1]]:
        up.append(parent[up[-1]])
    while depth[down[-1]] > depth[up[-1]]:
        down.append(parent[down[-1]])
    while up[-1] != down[-1]:
        up.append(parent[up[-1]])
        down.append(parent[down[-1]])
    return up + down[-2::-1], len(up) - 1


def solve_transport(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Optimal flows and dual prices for the dense transportation problem.

    Returns (flow dict (i, j) -> mass including degenerate basic arcs,
    alpha, beta) with alpha[i] + beta[j] <= C[i, j] everywhere and equality
    on basic arcs.
    """
    C = np.asarray(C, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = C.shape
    if n == 1 or m == 1:
        # a single row or column forces the flow; duals are direct
        if n == 1:
            flow = {(0, j): b[j] for j in range(m)}
            alpha = np.array([0.0])
            beta = C[0].copy()
        else:
            flow = {(i, 0): a[i] for i in range(n)}
            beta = np.array([C[:, 0].min()])
            alpha = C[:, 0] - beta[0]
        return flow, alpha, beta

    flow = least_cost(C, a, b)
    # slot k holds the basic arc (bi[k], bj[k]) with mass x[k]; adj[u] maps
    # each tree neighbour of node u to the slot of the arc between them
    bi = np.array([i for i, _j in flow])
    bj = np.array([j for _i, j in flow])
    x = list(flow.values())
    adj: list[dict[int, int]] = [{} for _ in range(n + m)]
    for k, (i, j) in enumerate(flow):
        adj[i][n + j] = adj[n + j][i] = k
    Cl = C.tolist()
    price = [0.0] * (n + m)
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    _hang(n, adj, Cl, price, parent, depth, 0, -1)
    enter_eps = 1e-12 * max(1.0, float(np.abs(C).max()))
    bland = False
    degenerate_streak = 0
    max_iters = 100 * (n + m) ** 2 + 10_000
    reduced = np.empty_like(C)

    for _ in range(max_iters):
        alpha, beta = np.array(price[:n]), np.array(price[n:])
        np.subtract(C, alpha[:, None], out=reduced)
        np.subtract(reduced, beta[None, :], out=reduced)
        reduced[bi, bj] = 0.0
        if bland:
            entering = reduced < -enter_eps
            flat = int(np.argmax(entering))  # the first True, row-major
            if not entering.flat[flat]:
                break
            ei, ej = divmod(flat, m)
        else:
            flat = int(np.argmin(reduced))
            ei, ej = divmod(flat, m)
            if reduced[ei, ej] >= -enter_eps:
                break
        path, meet = _cycle_path(parent, depth, ei, n + ej)
        # the arcs at even path positions lose theta, those at odd ones gain it
        slots = [adj[u][w] for u, w in zip(path, path[1:])]
        lose = slots[::2]
        theta = min(x[k] for k in lose)
        # a tie leaves by the smallest (i, j) arc; arcs are distinct, so the
        # path position only rides along
        _arc, cut = min(
            ((bi[k], bj[k]), p)
            for p, k in zip(range(0, len(slots), 2), lose)
            if x[k] <= theta + 1e-15
        )
        for k in lose:
            x[k] = max(0.0, x[k] - theta)
        for k in slots[1::2]:
            x[k] += theta
        k, u, w = slots[cut], path[cut], path[cut + 1]
        del adj[u][w], adj[w][u]
        adj[ei][n + ej] = adj[n + ej][ei] = k
        bi[k], bj[k], x[k] = ei, ej, theta
        # the leaving arc cut off the subtree below it on its own walk; only
        # that subtree's prices, parents and depths change
        if cut < meet:
            _hang(n, adj, Cl, price, parent, depth, ei, n + ej)
        else:
            _hang(n, adj, Cl, price, parent, depth, n + ej, ei)
        if theta <= 1e-15:
            degenerate_streak += 1
            if degenerate_streak > 2 * (n + m):
                bland = True
        else:
            degenerate_streak = 0
    else:
        raise RuntimeError("transportation simplex failed to terminate")

    # the loop leaves right after pricing the final basis
    return dict(zip(zip(bi.tolist(), bj.tolist()), x)), alpha, beta
