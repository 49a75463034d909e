"""Exact min-cost transportation machinery shared by the distance solvers.

Three primitives live here:

* dense transportation LPs (equality and inequality marginals) solved with
  HiGHS through ``scipy.optimize.linprog``, with the KKT optimality
  certificate re-verified from the returned duals;
* a sparse path-graph LP for the 1-d, p=1 case, where the cost |x - y|
  decomposes along the line and the problem shrinks from n*m arc variables
  to O(n + m) flux variables;
* a successive-shortest-path solver that traces the exact piecewise-linear
  value of partial transport as a function of the transported mass, used by
  the p > 1 solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

CERT_TOL = 1e-7


class OptimalityCertificateError(RuntimeError):
    """The LP solution returned by the backend failed KKT re-verification."""


def _check_certificate(c, a_mat, rhs, senses, x, y, bounds_upper=None, scale=1.0):
    """Re-verify LP optimality from primal/dual pair (x, y).

    ``senses`` holds '=' or '<' per row of ``a_mat``.  Conditions checked:
    primal feasibility, dual sign for inequality rows (y <= 0 for a
    minimization with A x <= b), complementary slackness on rows, and
    reduced-cost conditions against the variable bounds.  Raises
    :class:`OptimalityCertificateError` on violation.
    """
    tol = CERT_TOL * max(1.0, scale)
    ax = a_mat @ x
    senses = np.asarray(senses)
    eq = senses == "="
    if eq.any() and np.max(np.abs(ax[eq] - rhs[eq])) > tol:
        raise OptimalityCertificateError("equality row violated")
    ineq = ~eq
    if ineq.any():
        slack = rhs[ineq] - ax[ineq]
        if np.min(slack) < -tol:
            raise OptimalityCertificateError("inequality row violated")
        if np.max(y[ineq]) > tol:
            raise OptimalityCertificateError("dual sign violated on inequality row")
        rhs_scale = np.maximum(1.0, np.abs(rhs[ineq]))
        if np.max(np.abs(y[ineq]) * np.maximum(slack, 0.0) / rhs_scale) > tol:
            raise OptimalityCertificateError("complementary slackness violated")
    reduced = c - a_mat.T @ y
    if bounds_upper is None:
        bounds_upper = np.full(x.shape, np.inf)
    at_lower = x <= tol
    at_upper = np.isfinite(bounds_upper) & (x >= bounds_upper - tol)
    if np.any(~at_upper & (reduced < -tol)):
        raise OptimalityCertificateError("negative reduced cost at a non-upper-bound variable")
    if np.any(~at_lower & (reduced > tol)):
        raise OptimalityCertificateError("positive reduced cost at an interior variable")


def _marginal_matrix(n, m):
    """Sparse (n+m) x (n*m) incidence matrix of the transportation polytope."""
    idx = np.arange(n * m)
    rows_src = idx // m
    rows_tgt = n + idx % m
    data = np.ones(2 * n * m)
    rows = np.concatenate([rows_src, rows_tgt])
    cols = np.concatenate([idx, idx])
    return sp.csr_matrix((data, (rows, cols)), shape=(n + m, n * m))


def solve_transportation(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Exact balanced transportation solve: min <cost, G>, G 1 = supply, G^T 1 = demand.

    Returns ``(flows, value)`` where flows is the optimal (n, m) matrix.
    Optimality is certified from the duals before returning.
    """
    n, m = cost.shape
    a_mat = _marginal_matrix(n, m)
    rhs = np.concatenate([supply, demand])
    c = cost.ravel()
    res = linprog(c, A_eq=a_mat, b_eq=rhs, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transportation solve failed: {res.message}")
    _check_certificate(c, a_mat, rhs, ["="] * (n + m), res.x, res.eqlin.marginals,
                       scale=float(np.max(np.abs(c), initial=1.0)) * float(np.sum(supply)))
    return res.x.reshape(n, m), float(res.fun)


def solve_partial_transportation(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray,
                                 arc_mask: np.ndarray):
    """Partial transport with inequality marginals over a restricted arc set.

    Solves min sum(cost_ij * g_ij) over g >= 0 with row sums <= supply and
    column sums <= demand, where only arcs with ``arc_mask`` True carry
    variables (the rest are fixed to zero).  Costs may be negative; the
    optimum then trades off transport profit against the marginal caps.

    Returns ``(flows, value)`` with flows dense (n, m).
    """
    n, m = cost.shape
    arc_idx = np.flatnonzero(arc_mask.ravel())
    flows = np.zeros((n, m))
    if arc_idx.size == 0:
        return flows, 0.0
    full = _marginal_matrix(n, m).tocsc()
    a_mat = full[:, arc_idx].tocsr()
    rhs = np.concatenate([supply, demand])
    c = cost.ravel()[arc_idx]
    res = linprog(c, A_ub=a_mat, b_ub=rhs, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"partial transport solve failed: {res.message}")
    _check_certificate(c, a_mat, rhs, ["<"] * (n + m), res.x, res.ineqlin.marginals,
                       scale=float(np.max(np.abs(c), initial=1.0)) * float(np.sum(supply) + np.sum(demand)))
    flows.ravel()[arc_idx] = res.x
    return flows, float(res.fun)


def solve_line_partial_w1(src_pos: np.ndarray, src_w: np.ndarray,
                          tgt_pos: np.ndarray, tgt_w: np.ndarray,
                          a: float, b: float):
    """1-d, p=1 joint keep/transport solve on the path graph of atom positions.

    Minimizes  a*(unkept source) + a*(unkept target) + b * W_1(kept, kept)
    using variables: kept mass per atom and signed flux across each gap
    between consecutive positions.  For cost |x - y| the transport term of
    any coupling equals the integral of |flux| along the line, so this LP is
    an exact reformulation with O(n + m) variables instead of n*m arcs.

    Returns ``(kept_src, kept_tgt, value)``.
    """
    n, m = src_w.size, tgt_w.size
    nodes = np.unique(np.concatenate([src_pos, tgt_pos]))
    node_of_src = np.searchsorted(nodes, src_pos)
    node_of_tgt = np.searchsorted(nodes, tgt_pos)
    n_nodes = nodes.size
    n_gaps = n_nodes - 1
    gap_len = np.diff(nodes)

    # variable layout: [k (n), l (m), f+ (gaps), f- (gaps)]
    n_var = n + m + 2 * n_gaps
    gaps = np.arange(n_gaps)
    rows = np.concatenate([node_of_src, node_of_tgt,
                           gaps, gaps + 1, gaps, gaps + 1])
    cols = np.concatenate([np.arange(n), n + np.arange(m),
                           n + m + gaps, n + m + gaps,
                           n + m + n_gaps + gaps, n + m + n_gaps + gaps])
    data = np.concatenate([np.ones(n), -np.ones(m),
                           -np.ones(n_gaps), np.ones(n_gaps),      # f+ leaves g, enters g+1
                           np.ones(n_gaps), -np.ones(n_gaps)])     # f- reversed
    a_mat = sp.csr_matrix((data, (rows, cols)), shape=(n_nodes, n_var))
    rhs = np.zeros(n_nodes)

    c = np.concatenate([
        np.full(n, -a), np.full(m, -a),
        b * gap_len, b * gap_len,
    ])
    upper = np.concatenate([src_w, tgt_w, np.full(2 * n_gaps, np.inf)])
    bounds = np.column_stack([np.zeros(n_var), upper])
    res = linprog(c, A_eq=a_mat, b_eq=rhs, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"line transport solve failed: {res.message}")
    mass_scale = float(np.sum(src_w) + np.sum(tgt_w))
    _check_certificate(c, a_mat, rhs, ["="] * n_nodes, res.x, res.eqlin.marginals,
                       bounds_upper=upper, scale=max(a, b) * max(mass_scale, 1.0))
    kept_src = np.clip(res.x[:n], 0.0, src_w)
    kept_tgt = np.clip(res.x[n:n + m], 0.0, tgt_w)
    value = a * (np.sum(src_w) + np.sum(tgt_w)) + float(res.fun)
    return kept_src, kept_tgt, value


def monotone_coupling(src_pos: np.ndarray, src_w: np.ndarray,
                      tgt_pos: np.ndarray, tgt_w: np.ndarray):
    """Quantile coupling of two equal-mass 1-d measures with sorted supports.

    The monotone plan is optimal for every convex cost |x - y|^p, p >= 1.
    Returns a list of (source index, target index, flow) triples.
    """
    order_s = np.argsort(src_pos, kind="stable")
    order_t = np.argsort(tgt_pos, kind="stable")
    entries = []
    i = j = 0
    rem_s = src_w[order_s].astype(float).copy()
    rem_t = tgt_w[order_t].astype(float).copy()
    while i < rem_s.size and j < rem_t.size:
        if rem_s[i] <= 0:
            i += 1
            continue
        if rem_t[j] <= 0:
            j += 1
            continue
        f = min(rem_s[i], rem_t[j])
        entries.append((int(order_s[i]), int(order_t[j]), float(f)))
        rem_s[i] -= f
        rem_t[j] -= f
        if rem_s[i] <= 1e-15 * (1.0 + f):
            rem_s[i] = 0.0
        if rem_t[j] <= 1e-15 * (1.0 + f):
            rem_t[j] = 0.0
    return entries


@dataclass(frozen=True)
class ParametricSegment:
    """One linear piece of the partial-transport value function T(m).

    On ``m in [m_lo, m_hi]`` the minimal transport cost is
    ``t_lo + slope * (m - m_lo)``; ``flows_hi`` is the optimal flow matrix
    at ``m_hi``.
    """

    m_lo: float
    m_hi: float
    t_lo: float
    slope: float
    flows_hi: np.ndarray


def parametric_partial_transport(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Trace T(m) = min {<cost, G> : G >= 0, G1 <= supply, G^T 1 <= demand, sum G = m}.

    Successive shortest augmenting paths on the bipartite flow network give
    the exact convex piecewise-linear T over m in [0, min(|supply|,|demand|)]:
    every augmentation transports mass at the current cheapest marginal cost
    (the path cost), and path costs are nondecreasing.  Each augmentation
    ends one segment, so every breakpoint of T is a segment end; consecutive
    segments may share a slope.

    The network lives on one dense residual-capacity matrix over the nodes
    (sources, targets, super source, sink); the flow on arc (i, j) is the
    residual capacity of its reverse arc (j, i).

    Returns the list of :class:`ParametricSegment`.  Intended for the small
    instances of the p > 1 solver.
    """
    n, m = cost.shape
    n_nodes = n + m + 2
    src, snk = n + m, n + m + 1
    tgt = slice(n, n + m)
    arc_cost = np.zeros((n_nodes, n_nodes))
    arc_cost[:n, tgt] = cost
    arc_cost[tgt, :n] = -cost.T
    cap = np.zeros((n_nodes, n_nodes))
    cap[src, :n] = supply
    cap[:n, tgt] = np.inf
    cap[tgt, snk] = demand
    pot = np.zeros(n_nodes)                 # node potentials for reduced costs
    segments = []
    m_done = 0.0
    t_done = 0.0
    total = min(float(np.sum(supply)), float(np.sum(demand)))
    while m_done < total - 1e-15 * max(total, 1.0):
        reduced = np.where(cap > 1e-15, np.maximum(0.0, arc_cost + pot[:, None] - pot), np.inf)
        dist, parent = _dijkstra_dense(reduced.tolist(), src, snk)
        if not np.isfinite(dist[snk]):
            break
        # clamp unfinalized labels at dist[snk]; keeps reduced costs valid
        pot_new = pot + np.minimum(dist, dist[snk])
        # true per-unit cost of this augmentation in original costs
        slope = pot_new[snk] - pot_new[src]
        path = [snk]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path = np.array(path)
        heads, tails = path[:-1], path[1:]
        bottleneck = min(min(cap[tails, heads].tolist()), total - m_done)
        if bottleneck <= 1e-15 * max(total, 1.0):
            break  # degenerate residual: no measurable progress possible
        cap[tails, heads] -= bottleneck
        cap[heads, tails] += bottleneck
        pot = pot_new
        segments.append(ParametricSegment(
            m_lo=m_done, m_hi=m_done + bottleneck, t_lo=t_done,
            slope=float(slope), flows_hi=cap[tgt, :n].T.copy(),
        ))
        m_done += bottleneck
        t_done += float(slope) * bottleneck
    return segments


def _dijkstra_dense(reduced, src, snk):
    """Dense O(V^2) Dijkstra on a nonnegative weight matrix (lists, inf = no arc).

    Stops once ``snk`` is settled; ties settle the lowest node index first.
    Returns the distance array and the parent list of the search tree.
    """
    n_nodes = len(reduced)
    dist = [np.inf] * n_nodes
    parent = [-1] * n_nodes
    dist[src] = 0.0
    todo = list(range(n_nodes))
    u = src
    while u != snk:
        todo.remove(u)
        du = dist[u]
        row = reduced[u]
        for v in todo:
            nd = du + row[v]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
        u = min(todo, key=dist.__getitem__)
        if dist[u] == np.inf:
            break
    return np.array(dist), parent
