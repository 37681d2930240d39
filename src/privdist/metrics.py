"""Distances between distributions: earth mover's distance, total variation,
squared Euclidean error.

EMD is exact optimal transport.  On the line it reduces to the integral of
the absolute CDF difference; on planar grids it is solved as a transportation
problem by the transportation simplex, and the result is certified by
checking dual feasibility and complementary slackness of the final duals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Distribution, LinearAlphabet, PlanarAlphabet
from .errors import AlphabetMismatchError, LengthMismatchError, SolverNonConvergenceError

# Complementary-slackness residual accepted as an optimality certificate.
CERT_TOL = 1e-7


@dataclass(frozen=True)
class MetricValue:
    """A named metric outcome; units follow the alphabet (years, km) for EMD
    and are dimensionless otherwise."""

    name: str
    value: float
    units: str = ""


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
    ground distance between cell centers."""
    if p.alphabet != q.alphabet:
        raise AlphabetMismatchError("distributions are over different alphabets")
    if not isinstance(p.alphabet, PlanarAlphabet):
        raise AlphabetMismatchError("emd_planar requires a planar alphabet")
    centers = p.alphabet.centers_array()
    si = np.flatnonzero(p.probs > 0)
    di = np.flatnonzero(q.probs > 0)
    supply = p.probs[si] / p.probs[si].sum()
    demand = q.probs[di] / q.probs[di].sum()
    diff = centers[si][:, None, :] - centers[di][None, :, :]
    cost = np.sqrt((diff ** 2).sum(axis=2))
    _, total = min_cost_transport(cost, supply, demand)
    return total


def emd(p: Distribution, q: Distribution) -> float:
    """Dispatch EMD on the alphabet type."""
    if isinstance(p.alphabet, PlanarAlphabet):
        return emd_planar(p, q)
    return emd_1d(p, q)


def metric_value(name: str, estimate: Distribution, truth: Distribution) -> MetricValue:
    if name == "emd":
        units = "km" if isinstance(truth.alphabet, PlanarAlphabet) else "alphabet units"
        return MetricValue("emd", emd(estimate, truth), units)
    if name == "tv":
        return MetricValue("tv", tv(estimate, truth))
    if name == "l2sq":
        return MetricValue("l2sq", l2sq(estimate, truth))
    raise ValueError(f"unknown metric {name!r}")


# ---------------------------------------------------------------------------
# Transportation solver
# ---------------------------------------------------------------------------

def min_cost_transport(cost, supply, demand, cert_tol: float = CERT_TOL):
    """Solve the balanced transportation problem exactly.

    Transportation simplex: network simplex on the complete bipartite graph,
    started from the north-west-corner basis, entering the most negative
    reduced cost ``c_ij - u_i - v_j`` on each pivot.  Returns ``(flow,
    total_cost)``; raises SolverNonConvergenceError when the pivot limit is
    reached or the dual certificate fails.
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
    if total_supply > 0:
        demand = demand * (total_supply / demand.sum())

    # North-west corner: walk the cumulative supply and demand breakpoints in
    # order, stepping down at the end of a row and right at the end of a
    # column.  A tie steps down first and enters the next cell with zero
    # mass, so the basis stays a spanning tree.
    ends = np.concatenate([np.cumsum(supply)[:-1], np.cumsum(demand)[:-1]])
    order = np.argsort(ends, kind="stable")
    down = order < ns - 1
    rows = np.concatenate([[0], np.cumsum(down)])
    cols = np.concatenate([[0], np.cumsum(~down)])
    flow = np.zeros((ns, nd))
    flow[rows, cols] = np.diff(np.concatenate([[0.0], ends[order], [total_supply]]))

    # Tree nodes are rows 0..ns-1 and columns ns..ns+nd-1; pot holds their
    # duals, u then v, with the root, row 0, at 0.
    n = ns + nd
    adj = [set() for _ in range(n)]
    for i, j in zip(rows.tolist(), (cols + ns).tolist()):
        adj[i].add(j)
        adj[j].add(i)
    c = cost.tolist()
    pot, parent, depth = [0.0] * n, [-1] * n, [0] * n

    def hang(root):
        """Set the parents, depths and duals of the subtree below ``root``."""
        stack = [root]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if b != parent[a]:
                    parent[b], depth[b] = a, depth[a] + 1
                    pot[b] = (c[a][b - ns] if a < ns else c[b][a - ns]) - pot[a]
                    stack.append(b)

    hang(0)
    # Reduced costs above -opt_tol are rounding in the duals; stopping there
    # moves the total by at most opt_tol per unit of mass.  Grids up to 30x30
    # take under 6n pivots; the cap stops a degenerate basis from cycling.
    opt_tol = 1e-12 * max(1.0, float(np.abs(cost).max(initial=0.0)))
    reduced = np.empty_like(cost)
    for _ in range(100 * n):
        duals = np.array(pot)
        np.subtract(cost, duals[:ns, None], out=reduced)
        reduced -= duals[ns:]
        k = int(reduced.argmin())
        if reduced.flat[k] >= -opt_tol:
            break
        p, q = divmod(k, nd)

        # The tree path from column q to row p closes the cycle with (p, q);
        # its cells alternate losing and gaining mass, starting with a loss.
        a, b, up_p, up_q = p, ns + q, [], []
        while a != b:
            if depth[a] >= depth[b]:
                up_p.append(a)
                a = parent[a]
            else:
                up_q.append(b)
                b = parent[b]
        path = up_q + [a] + up_p[::-1]
        cells = [(min(x, y), max(x, y) - ns) for x, y in zip(path, path[1:])]
        theta, li, lj = min((flow[i, j], i, j) for i, j in cells[0::2])
        for i, j in cells[0::2]:
            flow[i, j] -= theta
        for i, j in cells[1::2]:
            flow[i, j] += theta
        flow[p, q] = theta

        # Swap (li, lj) out of the tree for (p, q).  Dropping it cuts off the
        # subtree below its lower end, which holds p or q: hang that subtree
        # from the other end of (p, q).
        low = li if parent[li] == ns + lj else ns + lj
        adj[li].remove(ns + lj)
        adj[ns + lj].remove(li)
        adj[p].add(ns + q)
        adj[ns + q].add(p)
        e, f = (p, ns + q) if low in up_p else (ns + q, p)
        parent[e], depth[e] = f, depth[f] + 1
        pot[e] = c[p][q] - pot[f]
        hang(e)
    else:
        raise SolverNonConvergenceError("pivot limit exceeded")

    # Certificate: dual feasibility and complementary slackness of the duals
    # of the final basis.
    if reduced.min() < -cert_tol:
        raise SolverNonConvergenceError(
            f"dual infeasibility {reduced.min():.3e} exceeds the certificate tolerance"
        )
    slack = np.abs(flow * reduced).max()
    if slack > cert_tol:
        raise SolverNonConvergenceError(
            f"complementary slackness residual {slack:.3e} exceeds the certificate tolerance"
        )
    return flow, float((flow * cost).sum())
