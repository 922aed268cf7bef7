"""Dense transportation simplex.

Minimizes sum C[i, j] x[i, j] over nonnegative x with prescribed row sums a
and column sums b (sum a = sum b). Exact at desk scale. The basis is a
spanning tree of the bipartite node graph (rows 0..n-1, columns n..n+m-1),
stored once as slot-indexed arrays: slot k holds the arc at row-major cell
basic[k] = i * m + j with mass x[k], and adj[u] maps each tree neighbour of node u to the slot of the
arc between them. Node prices and parent and depth arrays are rooted at
row 0. The entering arc's cycle is the two parent walks from its endpoints
up to where they meet, and its slots are read off that node path. The
leaving arc cuts one subtree off its walk, and the entering arc takes its
slot. Only the cut subtree moves, so only it is re-hung from the entering
arc and re-priced, by the recurrence that priced the initial tree; the
prices are the bits a full traversal would give. The prices live in one
array of doubles that numpy reads in place.

Pricing keeps a candidate list (Bonneel et al., SIGGRAPH Asia 2011; Kovács,
Optim. Methods Softw. 2015): a full pricing of the n x m reduced costs keeps
its n + m most negative cells, and the pivots after it re-price only those,
entering the most negative with a first-index tie break. The matrix is priced
in full again when no candidate prices negative, and optimality is declared
only by a full pricing. A tie for the leaving arc goes to the smallest (i, j),
and a Bland fallback, which prices in full at every pivot, engages after a
streak of degenerate pivots so cycling cannot occur.

The start is the least-cost (matrix-minimum) basis of C minus entropic
prices: a fixed number of Sinkhorn scalings (Cuturi, NIPS 2013) at a
temperature of 1/100 of the cost range give prices under which near-optimal
cells sort first, and the least-cost pass takes its cells in that order. On
random costs this begins nearer the optimum than the least-cost basis of C
and roughly halves the pivots. The pass sorts each row once and keeps the
cheapest open cell of every open row in a heap, so it takes about n + m
heap steps rather than visiting the n x m sorted cells one at a time. Only
the start reads those prices: the basis is priced from C, and optimality is
still declared by a full pricing, so the solve stays exact.

`transport.solve_kantorovich` calls the solver on non-uniform or non-square
inputs, and on uniform squares, where every basis is degenerate, only when
the matching's exchange graph has a negative cycle.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Iterable, MutableSequence

import numpy as np

# Bland's rule engages after a streak of more than BLAND_STREAK * (n + m)
# degenerate pivots
BLAND_STREAK = 2
# the entropic start: Sinkhorn scalings, and the cost range over the temperature
SINKHORN_SCALINGS = 40
SINKHORN_SPREAD = 100.0


def least_cost(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict[tuple[int, int], float]:
    """Matrix-minimum start: flows on exactly n + m - 1 arcs of a spanning tree.

    Cells are taken in the order of one stable ascending sort of C, which
    puts ties in row-major order. Each cell whose row and column are both
    still open gets min(ra, rb), and exactly one exhausted line closes per
    cell (the row on a tie, and never the last open row or column), so each
    arc joins a closing line to the tree of open lines.

    The next such cell is the least (cost, row) among the open rows' heads:
    each row's cells come from one stable argsort of the row, and its head
    is its first cell in an open column. A heap holds one (cost, row) key
    per open row; a key whose column has closed since it was pushed is
    re-pushed at the row's new head when it comes up, so the start takes
    about n + m heap steps rather than a scan of the sorted cells.
    """
    n, m = C.shape
    ra = a.astype(float).tolist()
    rb = b.astype(float).tolist()
    order = np.argsort(C, axis=1, kind="stable").tolist()
    head = [0] * n  # each row's position in its own order
    col_open = [True] * m
    rows_left, cols_left = n, m
    heap = [(C.item(i, order[i][0]), i) for i in range(n)]  # (cost, row) sorts like row-major ties
    heapq.heapify(heap)
    flow: dict[tuple[int, int], float] = {}
    while True:
        _cost, i = heap[0]
        row, p = order[i], head[i]
        j = row[p]
        if not col_open[j]:
            while not col_open[row[p]]:
                p += 1
            head[i] = p
            heapq.heapreplace(heap, (C.item(i, row[p]), i))
            continue
        q = min(ra[i], rb[j])
        flow[(i, j)] = q
        ra[i] -= q
        rb[j] -= q
        if rows_left == 1 and cols_left == 1:
            return flow
        if cols_left == 1 or (rows_left > 1 and ra[i] <= rb[j]):
            heapq.heappop(heap)
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1


def _entropic_prices(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Approximate dual prices from entropic transport (Cuturi, NIPS 2013).

    SINKHORN_SCALINGS alternate scalings u = a / (K v), v = b / (K^T u) of the
    kernel K = exp((min C - C) / T) at T = (max C - min C) / SINKHORN_SPREAD,
    whose entries lie in [exp(-SINKHORN_SPREAD), 1], give the prices
    (T log u, T log v). C minus them ranks near-optimal cells first, which
    is all `solve_transport` reads of them. Constant or non-finite C, and
    any non-finite price (a zero weight gives one), give zero prices. The
    products run in numpy's einsum loops rather than BLAS, whose kernel, and
    so the last bits of a sum, depends on the CPU: costs that tie in C sort
    by those bits, so the start would too.
    """
    n, m = C.shape
    zero = np.zeros(n), np.zeros(m)
    with np.errstate(all="ignore"):
        lo, hi = C.min(), C.max()
        T = (hi - lo) / SINKHORN_SPREAD
        if not (np.isfinite(T) and T > 0.0):
            return zero
        K = np.exp((lo - C) / T)
        v = np.ones(m)
        for _ in range(SINKHORN_SCALINGS):
            u = a / np.einsum("ij,j->i", K, v)
            v = b / np.einsum("ij,i->j", K, u)
        alpha, beta = T * np.log(u), T * np.log(v)
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            return zero
    return alpha, beta


def _hang(
    n: int,
    adj: list[Iterable[int]],
    C: list[list[float]],
    price: MutableSequence[float],
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


def _shortlist(reduced: np.ndarray, k: int) -> np.ndarray:
    """Flat indices, ascending, of the k most negative cells of the flat
    reduced-cost array; a tie at the k-th value goes to the smallest indices,
    so the list does not depend on the order argpartition leaves ties in."""
    kth = reduced[np.argpartition(reduced, k - 1)[k - 1]]
    cells = np.flatnonzero(reduced <= kth)
    if len(cells) > k:
        ties = np.flatnonzero(reduced[cells] == kth)
        cells = np.delete(cells, ties[k - (len(cells) - len(ties)) :])
    return cells


def solve_transport(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Optimal flows and dual prices for the dense transportation problem.

    Returns (flow dict (i, j) -> mass including degenerate basic arcs,
    alpha, beta) with alpha[i] + beta[j] <= C[i, j] everywhere and equality
    on basic arcs.

    The start is `least_cost` on C minus `_entropic_prices`; everything
    after it reads C.
    Each full pricing of the n x m reduced costs keeps its n + m most
    negative cells (`_shortlist`); the pivots after it re-price only those
    and enter the most negative, the first in row-major order on a tie. When
    none prices below -enter_eps the whole matrix is priced again, and only
    a full pricing that finds no entering cell ends the solve. Under Bland's
    rule every pivot prices in full and enters the first negative cell.
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

    alpha0, beta0 = _entropic_prices(C, a, b)
    flow = least_cost(C - alpha0[:, None] - beta0[None, :], a, b)
    # slot k holds the basic arc at row-major cell basic[k] with mass x[k];
    # adj[u] maps each tree neighbour of node u to the slot of the arc
    # between them
    basic = np.array([i * m + j for i, j in flow])
    x = list(flow.values())
    adj: list[dict[int, int]] = [{} for _ in range(n + m)]
    for k, (i, j) in enumerate(flow):
        adj[i][n + j] = adj[n + j][i] = k
    Cl = C.tolist()
    # _hang writes the prices as doubles; numpy reads the same memory
    price = array("d", bytes(8 * (n + m)))
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    _hang(n, adj, Cl, price, parent, depth, 0, -1)
    prices = np.frombuffer(price)
    alpha, beta = prices[:n], prices[n:]
    enter_eps = 1e-12 * max(1.0, float(np.abs(C).max()))
    bland = False
    degenerate_streak = 0
    max_iters = 100 * (n + m) ** 2 + 10_000
    reduced = np.empty_like(C)
    flat_reduced = reduced.reshape(-1)
    # the candidate cells, with their rows, columns and costs once there are
    # any; empty until the first full pricing and under Bland
    cells = np.empty(0, dtype=np.intp)

    for _ in range(max_iters):
        flat = -1
        if len(cells):
            priced = costs - alpha[rows] - beta[cols]
            t = int(np.argmin(priced))
            if priced[t] < -enter_eps:
                flat = int(cells[t])
        if flat < 0:
            np.subtract(C, alpha[:, None], out=reduced)
            np.subtract(reduced, beta[None, :], out=reduced)
            flat_reduced[basic] = 0.0
            if bland:
                entering = flat_reduced < -enter_eps
                flat = int(np.argmax(entering))  # the first True, row-major
                if not entering[flat]:
                    break
            else:
                flat = int(np.argmin(flat_reduced))
                if flat_reduced[flat] >= -enter_eps:
                    break
                cells = _shortlist(flat_reduced, n + m)
                rows, cols = np.divmod(cells, m)
                costs = C.reshape(-1)[cells]
        ei, ej = divmod(flat, m)
        path, meet = _cycle_path(parent, depth, ei, n + ej)
        # the arcs at even path positions lose theta, those at odd ones gain it
        slots = [adj[u][w] for u, w in zip(path, path[1:])]
        lose = slots[::2]
        theta = min(x[k] for k in lose)
        # a tie leaves by the smallest (i, j) arc, the smallest row-major
        # cell; cells are distinct, so the path position only rides along
        _cell, cut = min(
            (basic[k], p)
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
        basic[k], x[k] = flat, theta
        # the leaving arc cut off the subtree below it on its own walk; only
        # that subtree's prices, parents and depths change
        if cut < meet:
            _hang(n, adj, Cl, price, parent, depth, ei, n + ej)
        else:
            _hang(n, adj, Cl, price, parent, depth, n + ej, ei)
        if theta <= 1e-15:
            degenerate_streak += 1
            if degenerate_streak > BLAND_STREAK * (n + m):
                bland = True
                cells = cells[:0]
        else:
            degenerate_streak = 0
    else:
        raise RuntimeError("transportation simplex failed to terminate")

    # the loop leaves right after a full pricing of the final basis
    arcs = [divmod(cell, m) for cell in basic.tolist()]
    return dict(zip(arcs, x)), alpha.copy(), beta.copy()
