"""Dense transportation simplex.

Minimizes sum C[i, j] x[i, j] over nonnegative x with prescribed row sums a
and column sums b (sum a = sum b). Exact at desk scale. The basis is a
spanning tree of the bipartite node graph (rows 0..n-1, columns n..n+m-1),
kept as adjacency sets that each pivot updates in place, with node prices
and parent and depth arrays rooted at row 0. The entering arc's cycle is the
two parent walks from its endpoints up to where they meet. The leaving arc
cuts one subtree off its walk. Only that subtree moves, so only it is
re-hung from the entering arc and re-priced, by the recurrence that priced
the initial tree; the prices are the bits a full traversal would give.
Pricing is most-negative with a deterministic first-index tie break, and a
Bland fallback engages after a streak of degenerate pivots so cycling cannot
occur.
"""

from __future__ import annotations

import math

import numpy as np


def northwest_corner(a: np.ndarray, b: np.ndarray) -> dict[tuple[int, int], float]:
    """Initial basic feasible staircase: flows on exactly n + m - 1 arcs."""
    n, m = len(a), len(b)
    ra = a.astype(float).copy()
    rb = b.astype(float).copy()
    flow: dict[tuple[int, int], float] = {}
    i = j = 0
    for k in range(n + m - 1):
        q = min(ra[i], rb[j])
        flow[(i, j)] = q
        ra[i] -= q
        rb[j] -= q
        if k == n + m - 2:
            break
        if i == n - 1:
            j += 1
        elif j == m - 1:
            i += 1
        elif ra[i] <= 1e-15:
            i += 1
        else:
            j += 1
    return flow


def _hang(
    n: int,
    adj: list[set[int]],
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
    alpha[0] = 0 when q = 0.
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

    flow = northwest_corner(a, b)
    adj: list[set[int]] = [set() for _ in range(n + m)]
    for i, j in flow:
        adj[i].add(n + j)
        adj[n + j].add(i)
    # slot k of (bi, bj) holds one basic arc; the entering arc takes the leaving arc's slot
    slot = {arc: k for k, arc in enumerate(flow)}
    bi = np.array([i for i, _j in flow])
    bj = np.array([j for _i, j in flow])
    Cl = C.tolist()
    price = [0.0] * (n + m)
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    _hang(n, adj, Cl, price, parent, depth, 0, -1)
    enter_eps = 1e-12 * max(1.0, float(np.abs(C).max()))
    bland = False
    degenerate_streak = 0
    max_iters = 100 * (n + m) ** 2 + 10_000

    for _ in range(max_iters):
        alpha, beta = np.array(price[:n]), np.array(price[n:])
        reduced = C - alpha[:, None] - beta[None, :]
        reduced[bi, bj] = 0.0
        if bland:
            cand = np.argwhere(reduced < -enter_eps)
            if cand.size == 0:
                break
            ei, ej = int(cand[0][0]), int(cand[0][1])
        else:
            flat = int(np.argmin(reduced))
            ei, ej = divmod(flat, m)
            if reduced[ei, ej] >= -enter_eps:
                break
        path, meet = _cycle_path(parent, depth, ei, n + ej)
        cycle_arcs = []
        for p, (u, w) in enumerate(zip(path, path[1:])):
            i, j = (u, w - n) if u < n else (w, u - n)
            cycle_arcs.append(((i, j), -1.0 if p % 2 == 0 else +1.0))
        theta = math.inf
        for arc, sign in cycle_arcs:
            if sign < 0 and flow[arc] < theta:
                theta = flow[arc]
        # cycle arcs are distinct, so the position only rides along with the min arc
        leaving, cut = min(
            (arc, p)
            for p, (arc, sign) in enumerate(cycle_arcs)
            if sign < 0 and flow[arc] <= theta + 1e-15
        )
        for arc, sign in cycle_arcs:
            flow[arc] = max(0.0, flow[arc] + sign * theta)
        flow[(ei, ej)] = theta
        del flow[leaving]
        li, lj = leaving
        adj[li].remove(n + lj)
        adj[n + lj].remove(li)
        adj[ei].add(n + ej)
        adj[n + ej].add(ei)
        k = slot.pop(leaving)
        slot[(ei, ej)] = k
        bi[k], bj[k] = ei, ej
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
    return flow, alpha, beta
