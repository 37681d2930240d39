"""Distances between distributions: earth mover's distance, total variation,
squared Euclidean error.

EMD is exact optimal transport.  On the line it reduces to the integral of
the absolute CDF difference.  On planar grids the mass both distributions
share, min(p, q) cell by cell, is cancelled first, and only the disjoint
remainders are solved as a transportation problem by the transportation
simplex.  The cancellation is exact because the Euclidean cost is a metric:
by the triangle inequality some optimal plan leaves the shared mass in place.
``min_cost_transport`` itself cancels nothing, since it also takes costs that
are not metrics.

The simplex starts from Russell's basis and prices reduced costs one block
of rows at a time.  The start sets only how many pivots the solve takes:
the simplex reaches an optimal basis from any feasible one.  A pivot walks
parent links from the entering cell's two ends up to their apex, runs the
ratio test and the flow update over that cycle's cells in Python, and
re-hangs one subtree, shifting only its duals; its Python work grows with
the cycle, not with the tree.  The result is certified by checking dual
feasibility and complementary slackness of duals rebuilt from the final
basis; for a planar EMD that certifies the reduced problem.
"""

from __future__ import annotations

import numpy as np

from .core import Distribution, LinearAlphabet, PlanarAlphabet
from .errors import AlphabetMismatchError, LengthMismatchError, SolverNonConvergenceError

# Complementary-slackness residual accepted as an optimality certificate.
CERT_TOL = 1e-7


def tv(p: Distribution, q: Distribution) -> float:
    """Total variation distance, half the L1 difference."""
    if p.alphabet != q.alphabet:
        raise AlphabetMismatchError("distributions are over different alphabets")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def l2sq(v, theta) -> float:
    """Squared Euclidean error between a vector (possibly not a distribution)
    and a reference distribution or vector."""
    a = v.probs if isinstance(v, Distribution) else np.asarray(v, dtype=float)
    b = theta.probs if isinstance(theta, Distribution) else np.asarray(theta, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatchError("vectors differ in length")
    return float(((a - b) ** 2).sum())


def emd_1d(p: Distribution, q: Distribution) -> float:
    """Exact optimal transport on the line: sum over adjacent value pairs of
    |CDF_p - CDF_q| times the gap between them."""
    if p.alphabet != q.alphabet:
        raise AlphabetMismatchError("distributions are over different alphabets")
    if not isinstance(p.alphabet, LinearAlphabet):
        raise AlphabetMismatchError("emd_1d requires a linear alphabet")
    vals = np.asarray(p.alphabet.values, dtype=float)
    gaps = np.diff(vals)
    cdf_diff = np.cumsum(p.probs - q.probs)[:-1]
    return float(np.abs(cdf_diff) @ gaps)


def emd_planar(p: Distribution, q: Distribution) -> float:
    """Exact optimal transport between grid distributions with Euclidean
    ground distance between cell centers.

    Both distributions are normalised, their shared mass min(p, q) is
    subtracted cell by cell, and only the disjoint remainders are handed to
    ``min_cost_transport``; with nothing left the distance is 0.0 and no
    solve runs.  Euclidean cost is a metric, so the triangle inequality makes
    the cancellation exact: EMD(p, q) = EMD(p - m, q - m).  The solver's dual
    certificate is for that reduced problem."""
    if p.alphabet != q.alphabet:
        raise AlphabetMismatchError("distributions are over different alphabets")
    if not isinstance(p.alphabet, PlanarAlphabet):
        raise AlphabetMismatchError("emd_planar requires a planar alphabet")
    a = p.probs / p.probs.sum()
    b = q.probs / q.probs.sum()
    shared = np.minimum(a, b)
    a -= shared
    b -= shared
    si = np.flatnonzero(a > 0)
    di = np.flatnonzero(b > 0)
    if si.size == 0 or di.size == 0:
        return 0.0
    centers = p.alphabet.centers_array()
    diff = centers[si][:, None, :] - centers[di][None, :, :]
    cost = np.sqrt((diff ** 2).sum(axis=2))
    _, total = min_cost_transport(cost, a[si], b[di])
    return total


def emd(p: Distribution, q: Distribution) -> float:
    """Dispatch EMD on the alphabet type."""
    if isinstance(p.alphabet, PlanarAlphabet):
        return emd_planar(p, q)
    return emd_1d(p, q)


METRICS = {"emd": emd, "tv": tv, "l2sq": l2sq}


# ---------------------------------------------------------------------------
# Transportation solver
# ---------------------------------------------------------------------------

# Cells of c - u - v priced per block, rounded to whole rows (at least one).
PRICING_BLOCK = 4096


def min_cost_transport(cost, supply, demand):
    """Solve the balanced transportation problem exactly.

    Transportation simplex: network simplex on the complete bipartite graph.
    The start basis is Russell's, from ``_start_tree``; the optimum does not
    depend on it.  Pricing computes ``c_ij - u_i - v_j`` for one block
    of about ``PRICING_BLOCK`` cells at a time, from the current duals,
    starting at the block that gave the last entering cell, and enters the
    most negative reduced cost of the first block that has one below
    ``-opt_tol``; a full round of blocks without one ends the solve.  The
    cycle the entering cell closes is found by walking parent links up from
    its two ends, always from the end with the smaller subtree, until they
    meet at the apex.  One pass over the cycle's losing cells finds the
    leaving one: among cells that tie, the last one met going round the
    cycle from its apex leaves, which keeps the basis strongly feasible
    (Cunningham's rule), so degenerate pivots do not cycle.  A second pass
    moves the flow by ±theta.  Tree cells keep their flows as Python floats
    on the nodes, and the flow matrix is built once at the end.  After a
    pivot only the re-hung subtree changes: its preorder range moves and its
    duals shift by the entering reduced cost.

    Returns ``(flow, total_cost)``; raises SolverNonConvergenceError when the
    pivot limit of 100 (ns + nd) is reached or the dual certificate fails.
    """
    cost = np.asarray(cost, dtype=float)
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    ns, nd = cost.shape
    if supply.shape != (ns,) or demand.shape != (nd,):
        raise LengthMismatchError("supply/demand lengths must match the cost matrix")
    if ns == 0 or nd == 0:
        raise ValueError("supply and demand need at least one entry each")
    if not np.isfinite(cost).all():
        raise ValueError("transport costs must be finite")
    for name, mass in (("supply", supply), ("demand", demand)):
        if not np.isfinite(mass).all() or (mass < 0).any():
            raise ValueError(f"{name} must be finite and non-negative")
    total_supply = supply.sum()
    if abs(total_supply - demand.sum()) > 1e-9 * max(1.0, total_supply):
        raise ValueError("supply and demand must balance")
    if total_supply == 0:
        # The zero flow is the only feasible one.
        return np.zeros((ns, nd)), 0.0
    demand = demand * (total_supply / demand.sum())

    # The basis is a spanning tree over rows 0..ns-1 and columns
    # ns..ns+nd-1, kept in preorder: order[t] is the node at position t, and
    # the subtree of node a fills positions pos[a] .. pos[a] + size[a] - 1.
    # x[a] is the flow on the cell joining a to parent[a].  The pivot walks
    # read parent, size and x one entry at a time, so those are lists.  pot
    # holds u then -v, with the root at 0, so a cell's reduced cost is
    # c_ij - pot[i] + pot[ns + j] and a subtree's duals shift together.
    tree_flow, order, parent = _start_tree(cost, supply, demand)
    n = ns + nd
    size = [1] * n
    for a in reversed(order[1:]):
        size[parent[a]] += size[a]
    order = np.array(order)
    pos = np.empty(n, dtype=np.intp)
    pos[order] = at = np.arange(n)
    x = np.zeros(n)
    x[order[1:]] = tree_flow[_tree_cells(order, parent, ns)]
    x = x.tolist()
    pot = _tree_duals(cost, order, parent)
    pot[ns:] *= -1.0

    # Reduced costs above -opt_tol are rounding in the duals; stopping there
    # moves the total by at most opt_tol per unit of mass.  Random
    # full-support 30x30 grids take about 2.5n pivots; the cap is a guard.
    opt_tol = 1e-12 * max(1.0, float(np.abs(cost).max(initial=0.0)))
    rows_per_block = max(1, PRICING_BLOCK // nd)
    blocks = -(-ns // rows_per_block)
    u, minus_v = pot[:ns], pot[ns:]
    block = 0
    for _ in range(100 * n):
        # Price from the block that gave the last entering cell; a full round
        # of blocks with no candidate means the basis is optimal.
        for _ in range(blocks):
            r0 = block * rows_per_block
            reduced = cost[r0:r0 + rows_per_block] - u[r0:r0 + rows_per_block, None]
            reduced += minus_v
            k = int(reduced.argmin())
            delta = float(reduced.flat[k])
            if delta < -opt_tol:
                break
            block = (block + 1) % blocks
        else:
            break
        p, q = r0 + k // nd, ns + k % nd

        # The tree paths from p and from q up to the apex (their deepest
        # common ancestor) close the cycle with (p, q).  Of two distinct
        # nodes, the one with the smaller subtree is not an ancestor of the
        # other, so it is below the apex and the walk goes up from it.
        side_p, side_q = [], []
        a, b = p, q
        while a != b:
            if size[a] < size[b]:
                side_p.append(a)
                a = parent[a]
            else:
                side_q.append(b)
                b = parent[b]
        # Oriented along (p, q), the cells of the rows on p's side and of
        # the columns on q's side lose mass: every other node, from p and
        # from q.  Going round the cycle from the apex, p's side comes top
        # down and then q's side bottom up; the last cell of least mass on
        # that round is the one the strongly feasible rule drops.
        theta = np.inf
        for t in range(0, len(side_p), 2):
            if x[side_p[t]] < theta:
                theta, side, out = x[side_p[t]], side_p, t
        for t in range(0, len(side_q), 2):
            if x[side_q[t]] <= theta:
                theta, side, out = x[side_q[t]], side_q, t
        if theta > 0:
            for path in side_p, side_q:
                for a in path[::2]:
                    x[a] -= theta
                for a in path[1::2]:
                    x[a] += theta

        # Dropping the cell of node low = side[out] cuts off its subtree,
        # which holds e, p or q.  The subtree is re-rooted at e and hung from
        # the other end f of (p, q): the chain e .. low reverses its parent
        # links, each of its cells passes to the node nearer low, and e
        # takes (p, q).
        e, f, other = (p, q, side_q) if side is side_p else (q, p, side_p)
        chain = side[:out + 1]
        starts, sizes = pos[chain].tolist(), [size[c] for c in chain]
        a, s = starts[-1], sizes[-1]
        # In preorder the re-rooted subtree is e's old subtree, then for each
        # later node of the chain its old subtree less the one before it.
        ranges = [order[starts[0]:starts[0] + sizes[0]]]
        for t in range(1, len(chain)):
            ranges += [order[starts[t]:starts[t - 1]],
                       order[starts[t - 1] + sizes[t - 1]:starts[t] + sizes[t]]]
        # It moves to just after f, and the positions between shift by s.
        pf = int(pos[f])
        if pf < a:
            lo, hi = pf + 1, a + s
            order[lo:hi] = np.concatenate(ranges + [order[lo:a]])
            moved = order[lo:lo + s]
        else:
            lo, hi = a, pf + 1
            order[lo:hi] = np.concatenate([order[a + s:hi]] + ranges)
            moved = order[hi - s:hi]
        pos[order[lo:hi]] = at[lo:hi]
        for c in side[out + 1:]:
            size[c] -= s
        for c in other:
            size[c] += s
        for t in range(len(chain) - 1, 0, -1):
            size[chain[t]] = s - sizes[t - 1]
            parent[chain[t]] = chain[t - 1]
            x[chain[t]] = x[chain[t - 1]]
        size[e], parent[e], x[e] = s, f, theta
        # Keep u_i + v_j = c_ij on the new cell: shift the moved subtree.
        pot[moved] += delta if e < ns else -delta
    else:
        raise SolverNonConvergenceError("pivot limit exceeded")

    # Only tree cells carry flow.
    flow = np.zeros((ns, nd))
    flow[_tree_cells(order, parent, ns)] = np.array(x)[order[1:]]
    # Certificate: dual feasibility and complementary slackness of duals
    # rebuilt from the final tree.
    pot = _tree_duals(cost, order, parent)
    reduced = cost - pot[:ns, None] - pot[ns:]
    if reduced.min() < -CERT_TOL:
        raise SolverNonConvergenceError(
            f"dual infeasibility {reduced.min():.3e} exceeds the certificate tolerance"
        )
    slack = np.abs(flow * reduced).max()
    if slack > CERT_TOL:
        raise SolverNonConvergenceError(
            f"complementary slackness residual {slack:.3e} exceeds the certificate tolerance"
        )
    return flow, float((flow * cost).sum())


def _start_tree(cost, supply, demand):
    """Russell's start basis as ``(flow, order, parent)``.

    Allocates min(s_i, d_j) to the open cell of least priority
    c_ij - max_j' c_ij' - max_i' c_i'j, with the maxima over the columns and
    rows that hold mass (E. J. Russell, Operations Research 17, 1969), and
    closes the row or column it exhausts, or both on a tie.  A cell ranks
    by its cost against the dearest of its row and column, so the start
    lies nearer the optimum than the matrix-minimum one: a median 1.11
    against 1.21 times the optimal cost on planar-20x20's solves, which then
    take about 40% fewer pivots.  Each row
    keeps a pointer to its best open column, so a step only rescans the
    rows whose column just closed.  The cells form a forest of positive
    flows.  Every other tree is joined to the root's by a zero-flow cell,
    the cheapest by cost from one of its rows to a column of the root's
    tree, and a column that got no mass by its cheapest cell to a row of
    the root's tree.  So every zero-flow cell but the last kind hangs a row
    below a column, and the tree is strongly feasible whenever each column
    receives mass.  (Closing only the row on a tie, as the
    textbook rule does, leaves zero-flow cells that may point either way.)
    """
    ns, nd = cost.shape
    n = ns + nd
    flow = np.zeros((ns, nd))
    open_rows, open_cols = supply > 0, demand > 0
    priority = (cost - cost[:, open_cols].max(axis=1)[:, None]
                - cost[open_rows].max(axis=0))
    priority[~open_rows] = np.inf
    priority[:, ~open_cols] = np.inf
    supply, demand = supply.tolist(), demand.tolist()
    best_col = priority.argmin(axis=1)
    best = priority[np.arange(ns), best_col]
    adj = [[] for _ in range(n)]
    while True:
        i = int(best.argmin())
        if best[i] == np.inf:
            break
        j = int(best_col[i])
        x = min(supply[i], demand[j])
        flow[i, j] = x
        adj[i].append(ns + j)
        adj[ns + j].append(i)
        supply[i] -= x
        demand[j] -= x
        if supply[i] <= 0:
            priority[i] = np.inf
            best[i] = np.inf
        if demand[j] <= 0:
            priority[:, j] = np.inf
            stale = np.flatnonzero(best_col == j)
            best_col[stale] = priority[stale].argmin(axis=1)
            best[stale] = priority[stale, best_col[stale]]

    # Label each tree of the forest by its first node, the root's first.
    root = int(np.flatnonzero(flow.any(axis=1))[0])
    tree = [-1] * n
    for a in [root] + list(range(n)):
        if tree[a] < 0:
            tree[a], stack = a, [a]
            while stack:
                for b in adj[stack.pop()]:
                    if tree[b] < 0:
                        tree[b] = a
                        stack.append(b)
    tree = np.array(tree)
    main = tree == root
    rows, cols = np.flatnonzero(~main[:ns]), np.flatnonzero(main[ns:])
    if rows.size:
        # The cheapest cell from each row to the root's tree, then per tree
        # the cheapest of its rows.
        sub = cost[np.ix_(rows, cols)]
        near = sub.argmin(axis=1)
        by_tree = np.lexsort((sub[np.arange(rows.size), near], tree[rows]))
        _, first = np.unique(tree[rows][by_tree], return_index=True)
        for k in by_tree[first].tolist():
            i, j = int(rows[k]), ns + int(cols[near[k]])
            adj[i].append(j)
            adj[j].append(i)
    lone = np.flatnonzero(~np.isin(tree[ns:], tree[:ns]))
    if lone.size:
        main_rows = np.flatnonzero(main[:ns])
        near = cost[np.ix_(main_rows, lone)].argmin(axis=0)
        for i, j in zip(main_rows[near].tolist(), (ns + lone).tolist()):
            adj[i].append(j)
            adj[j].append(i)
    order, parent = _preorder(adj, root)
    return flow, order, parent


def _preorder(adj, root):
    """Depth-first preorder of the tree and each node's parent (-1 at the
    root)."""
    parent = [-1] * len(adj)
    order, stack = [], [root]
    while stack:
        a = stack.pop()
        order.append(a)
        for b in adj[a]:
            if b != parent[a]:
                parent[b] = a
                stack.append(b)
    return order, parent


def _tree_cells(order, parent, ns):
    """Row and column indices of the cells joining order[1:] to their parents."""
    nodes = order[1:]
    up = np.asarray(parent)[nodes]
    return np.minimum(nodes, up), np.maximum(nodes, up) - ns


def _tree_duals(cost, order, parent):
    """Duals u then v with u_i + v_j = c_ij on every tree cell, 0 at the root."""
    edge = cost[_tree_cells(order, parent, cost.shape[0])].tolist()
    pot = [0.0] * len(parent)
    for a, c in zip(order[1:].tolist(), edge):
        pot[a] = c - pot[parent[a]]
    return np.array(pot)
