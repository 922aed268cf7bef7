"""Dense transportation simplex.

Minimizes sum C[i, j] x[i, j] over nonnegative x with prescribed row sums a
and column sums b (sum a = sum b). Exact at desk scale. The basis is a
spanning tree of the bipartite node graph (rows 0..n-1, columns n..n+m-1),
kept as adjacency sets that each pivot updates in place. One traversal from
row 0 per pivot yields the node prices together with parent and depth
arrays; the entering arc's cycle is then the two parent walks from its
endpoints up to where they meet. Pricing is most-negative with a
deterministic first-index tie break, and a Bland fallback engages after a
streak of degenerate pivots so cycling cannot occur.
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


def _traverse(n: int, adj: list[set[int]], C: list[list[float]]):
    """Node prices, parents and depths of the basis tree, rooted at row 0.

    Nodes 0..n-1 are rows and n..n+m-1 are columns; prices are anchored at
    alpha[0] = 0 and make every basic arc tight.
    """
    price = [0.0] * len(adj)
    parent = [-1] * len(adj)
    depth = [0] * len(adj)
    stack = [0]
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
    return np.array(price[:n]), np.array(price[n:]), parent, depth


def _cycle_path(parent: list[int], depth: list[int], src: int, dst: int) -> list[int]:
    """Node path src -> dst in the basis tree: both parent walks up to where they meet."""
    up, down = [src], [dst]
    while depth[up[-1]] > depth[down[-1]]:
        up.append(parent[up[-1]])
    while depth[down[-1]] > depth[up[-1]]:
        down.append(parent[down[-1]])
    while up[-1] != down[-1]:
        up.append(parent[up[-1]])
        down.append(parent[down[-1]])
    return up + down[-2::-1]


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
    Cl = C.tolist()
    enter_eps = 1e-12 * max(1.0, float(np.abs(C).max()))
    bland = False
    degenerate_streak = 0
    max_iters = 100 * (n + m) ** 2 + 10_000

    for _ in range(max_iters):
        alpha, beta, parent, depth = _traverse(n, adj, Cl)
        reduced = C - alpha[:, None] - beta[None, :]
        for i, j in flow:
            reduced[i, j] = 0.0
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
        path = _cycle_path(parent, depth, ei, n + ej)
        cycle_arcs = []
        for p, (u, w) in enumerate(zip(path, path[1:])):
            i, j = (u, w - n) if u < n else (w, u - n)
            cycle_arcs.append(((i, j), -1.0 if p % 2 == 0 else +1.0))
        theta = math.inf
        for arc, sign in cycle_arcs:
            if sign < 0 and flow[arc] < theta:
                theta = flow[arc]
        leaving = min(
            arc for arc, sign in cycle_arcs if sign < 0 and flow[arc] <= theta + 1e-15
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
