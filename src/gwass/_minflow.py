"""Exact min-cost transportation machinery shared by the distance solvers.

Four primitives live here:

* transportation LPs with equality or inequality marginals, certified by
  one KKT check from either backend: the SSP below, whose node potentials
  are the duals, up to SSP_MAX_ATOMS atoms per side, and HiGHS above that,
  with the SSP as its fallback.  HiGHS runs through scipy's bundled
  bindings (``scipy.optimize._highspy._core``), on one model per instance
  built by :func:`_highs` from the arc index arrays, with one fixed set-up
  for every LP.  Each LP reads and returns its arcs as (rows, cols, flows)
  arrays, and the check reads the node-arc incidence from those index
  arrays, so scipy is imported only inside :func:`_highs`, on the first
  solve that runs HiGHS; the line solver, the SSP and everything that uses
  only them run on numpy alone;
* an exact solver for the 1-d, p=1 case: a chain DP over the flat-norm
  dual on the sorted atoms, whose optimal dual potential yields the kept
  masses by complementary slackness and certifies them; when a witness
  plan is asked for, the kept masses are coupled by the monotone
  (quantile) coupling, which returns its arcs as (rows, cols, flows) arrays;
* a successive-shortest-path (SSP) solver that traces the exact
  piecewise-linear value of partial transport as a function of the
  transported mass (:func:`trace_partial_transport`) and, stopped at a
  given path cost, solves the LPs;
* the vertices of that curve that the p > 1 solver scans
  (:func:`parametric_partial_transport`), as the ``(m, t, flows)`` triples
  of :func:`trace_partial_transport`: the whole SSP trace up to
  SSP_MAX_ATOMS atoms per side; above it, the max-mass vertex alone when
  two Lagrangian probes on one HiGHS model certify it optimal, and the
  trace when they do not.
"""

from __future__ import annotations

from collections import deque

import numpy as np

# Tolerance policy: every tolerance of gw_distance, wasserstein and their
# solvers is one of these constants times a scale of the instance, with no
# unit floor such as max(1, .); docs/derivations.md section 9 tabulates them.

#: Residue rule: a plan flow, SSP residual capacity or coupling remainder is
#: zero when it is at most this fraction of the smallest weight of its atoms.
FLOW_EPS = 1e-13
#: Ties: b*d against 2a relative to 2a; gw values relative to a(|mu| + |nu|).
TIE_EPS = 1e-12
#: Witness recomposition against the solver optimum, relative to a(|mu| + |nu|).
RECOMPOSE_TOL = 1e-9
#: Certificates: primal rows relative to the total mass, duals and reduced
#: costs to the largest |cost|, the line dual value to a(|mu| + |nu|).
CERT_TOL = 1e-7
#: Line solver ties: dual potentials relative to a, fluxes to the total mass.
LINE_TOL = 1e-9
#: Line solver slopes below this fraction of sum |w_i - u_i| are zero, so the
#: rounding residues of cancelled slopes leave no breakpoints.
SLOPE_TOL = 1e-14
#: HiGHS's feasibility tolerances are absolute: _highs scales the costs to a
#: largest |cost| of 1 and the masses to a total of 1 per side (on average).
HIGHS_TOL = 1e-10
#: W_p's allowed mass imbalance, relative to the larger mass.
MASS_TOL = 1e-9
#: Backend choice of the transportation LPs: instances of at most this many
#: atoms per side go to the SSP, larger ones to HiGHS (crossover measured in
#: docs/derivations.md section 9).
SSP_MAX_ATOMS = 12


class OptimalityCertificateError(RuntimeError):
    """The LP solution returned by the backend failed KKT re-verification."""


def _check_certificate(c, rows, cols, supply, demand, partial, x, y):
    """Re-verify LP optimality from primal/dual pair (x, y).

    Arc k carries ``x[k]`` from supply row ``rows[k]`` to demand row
    ``n + cols[k]``, so ``A x`` is two ``bincount``s and ``Aᵀ y`` the gather
    ``y[rows] + y[n + cols]``.  The rows are inequalities A x <= b if
    ``partial``, else equalities, with b the supplies and then the demands.
    Conditions checked: primal feasibility, of the rows and of the bounds
    x >= 0 (HiGHS's feasibility tolerance admits slightly negative
    flows), dual sign for inequality rows (y <= 0 for a minimization with
    A x <= b), complementary slackness on rows, and nonnegative reduced
    costs, zero on arcs that carry flow.
    Primal values are tested to CERT_TOL times the total mass of the LP
    (the supplies, plus the demands if ``partial``), duals to CERT_TOL
    times the largest |c| (1 if all are 0).
    Raises OptimalityCertificateError.
    """
    n, m = supply.size, demand.size
    mass = float(np.sum(supply) + (np.sum(demand) if partial else 0.0))
    tol_m = CERT_TOL * mass
    tol_c = CERT_TOL * (float(np.max(np.abs(c))) or 1.0)
    ax = np.concatenate([np.bincount(rows, weights=x, minlength=n),
                         np.bincount(cols, weights=x, minlength=m)])
    rhs = np.concatenate([supply, demand])
    if np.min(x) < -tol_m:
        raise OptimalityCertificateError("negative flow")
    if not partial:
        if np.max(np.abs(ax - rhs)) > tol_m:
            raise OptimalityCertificateError("equality row violated")
    else:
        slack = rhs - ax
        if np.min(slack) < -tol_m:
            raise OptimalityCertificateError("inequality row violated")
        if np.max(y) > tol_c:
            raise OptimalityCertificateError("dual sign violated on inequality row")
        if np.max(np.abs(y) * np.maximum(slack, 0.0)) > tol_c * mass:
            raise OptimalityCertificateError("complementary slackness violated")
    reduced = c - (y[rows] + y[n + cols])
    at_lower = x <= tol_m
    if np.any(reduced < -tol_c):
        raise OptimalityCertificateError("negative reduced cost at a non-upper-bound variable")
    if np.any(~at_lower & (reduced > tol_c)):
        raise OptimalityCertificateError("positive reduced cost at an interior variable")


def _highs(rows, cols, supply, demand, partial):
    """One HiGHS model of the transportation LP on the arcs ``(rows, cols)``,
    driven through scipy's bundled bindings: column k is arc k, with unit
    entries in supply row ``rows[k]`` and demand row ``n + cols[k]``.

    Every LP gets the same set-up: one flat ``passModel`` call on int32
    index arrays, presolve off and the primal simplex
    (``simplex_strategy`` 4).  HiGHS's feasibility tolerances are
    absolute, so the model sees the row bounds divided by half their
    total (a mass of 1 per side when balanced) and, in each solve, the
    costs divided by their largest |cost|.  A set-up call that does not
    return ``kOk`` raises RuntimeError.

    Returns ``solve(c)``: it sets the scaled costs and runs HiGHS, from
    the last basis if an earlier call left one, and returns ``(flows, row
    duals)`` in the units of ``supply``, ``demand`` and ``c``, or None if
    HiGHS ends in a status other than optimal or its answer fails the KKT
    check on the caller's masses.
    """
    # imported here: scipy.optimize takes most of the package's import time,
    # and no solve at or below SSP_MAX_ATOMS uses it
    from scipy.optimize._highspy import _core

    def checked(status, call):
        if status != _core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS set-up failed: {call} returned {status.name}")

    n, k = supply.size, rows.size
    rhs = np.concatenate([supply, demand])
    # the row duals do not depend on the mass unit, the flows scale with it
    m_scale = float(np.sum(rhs)) / 2.0 or 1.0
    upper = rhs / m_scale
    highs = _core._Highs()
    for option, value in (("output_flag", False), ("presolve", "off"), ("simplex_strategy", 4),
                          ("primal_feasibility_tolerance", HIGHS_TOL),
                          ("dual_feasibility_tolerance", HIGHS_TOL)):
        checked(highs.setOptionValue(option, value), f"setOptionValue({option!r})")
    # an empty integrality vector is an error; zeros mark every column continuous
    checked(highs.passModel(
        k, rhs.size, 2 * k, _core.MatrixFormat.kColwise, _core.ObjSense.kMinimize, 0.0,
        np.zeros(k), np.zeros(k), np.full(k, _core.kHighsInf),
        np.full(rhs.size, -_core.kHighsInf) if partial else upper, upper,
        np.arange(0, 2 * k + 1, 2, dtype=np.int32),
        np.column_stack([rows, n + cols]).astype(np.int32).ravel(),
        np.ones(2 * k), np.zeros(k, dtype=np.int32)), "passModel")
    columns = np.arange(k, dtype=np.int32)

    def solve(c):
        c_scale = float(np.max(np.abs(c))) or 1.0
        checked(highs.changeColsCost(k, columns, c / c_scale), "changeColsCost")
        highs.run()
        if highs.getModelStatus() != _core.HighsModelStatus.kOptimal:
            return None
        solution = highs.getSolution()
        x, duals = np.array(solution.col_value) * m_scale, np.array(solution.row_dual)
        try:
            _check_certificate(c / c_scale, rows, cols, supply, demand, partial, x, duals)
        except OptimalityCertificateError:
            return None
        return x, duals * c_scale
    return solve


def _solve_lp(cost, supply, demand, arc_mask, partial):
    """Transportation LP over the arcs of ``arc_mask``, with inequality
    marginals if ``partial``, else equality marginals.  At most
    SSP_MAX_ATOMS atoms per side go to the SSP, larger instances to HiGHS
    and, if it fails, to the SSP; either answer is certified.

    Returns ``(rows, cols, flows, value)``: arc k of ``arc_mask``, in
    row-major order, moves ``flows[k]`` from source ``rows[k]`` to target
    ``cols[k]``.
    """
    n, m = cost.shape
    rows, cols = np.nonzero(arc_mask)
    if rows.size == 0:
        return rows, cols, np.zeros(0), 0.0
    c = cost[rows, cols]
    solved = _highs(rows, cols, supply, demand, partial)(c) if max(n, m) > SSP_MAX_ATOMS else None
    if solved is not None:
        x = solved[0]
    else:
        # Dijkstra needs costs >= 0; a source-to-sink path has one forward
        # arc more than backward arcs, so its cost shifts by exactly ``shift``
        shift = min(float(np.min(c)), 0.0)
        ssp_flows, pot = _ssp(cost - shift, supply, demand, arc_mask, -shift if partial else np.inf)
        x = ssp_flows[rows, cols]
        if partial:
            duals = np.minimum(0.0, np.concatenate([-pot[:n], pot[n:n + m] - pot[-1]]))
        else:
            duals = np.concatenate([-pot[:n], pot[n:n + m] + shift])
        _check_certificate(c, rows, cols, supply, demand, partial, x, duals)
    return rows, cols, x, float(np.dot(c, x))


def solve_transportation(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Exact balanced transportation solve: min <cost, G>, G 1 = supply, G^T 1 = demand.

    Returns ``(rows, cols, flows, value)``: arc k moves ``flows[k]`` from
    source ``rows[k]`` to target ``cols[k]``, one arc per cell in row-major
    order.  Optimality is certified from the duals before returning.
    """
    return _solve_lp(cost, supply, demand, np.ones(cost.shape, dtype=bool), partial=False)


def solve_partial_transportation(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray,
                                 arc_mask: np.ndarray):
    """Partial transport with inequality marginals over a restricted arc set.

    Solves min sum(cost_ij * g_ij) over g >= 0 with row sums <= supply and
    column sums <= demand, where only arcs with ``arc_mask`` True carry
    variables (the rest are fixed to zero).  Costs may be negative; the
    optimum then trades off transport profit against the marginal caps.

    Returns ``(rows, cols, flows, value)`` on the arcs of ``arc_mask``, in
    row-major order, as :func:`solve_transportation` does.
    """
    return _solve_lp(cost, supply, demand, arc_mask, partial=True)


def solve_line_partial_w1(src_pos: np.ndarray, src_w: np.ndarray,
                          tgt_pos: np.ndarray, tgt_w: np.ndarray,
                          a: float, b: float):
    """Exact 1-d, p=1 generalized distance from the flat-norm dual chain DP.

    The primal minimizes  a*(unkept source) + a*(unkept target)
    + b * W_1(kept, kept); its dual is  max sum_i c_i f_i  over the merged,
    sorted atom positions with net mass c_i = w_i - u_i, subject to
    |f_i| <= a and |f_{i+1} - f_i| <= b * gap_i.  The dual is solved by a
    chain DP over concave piecewise-linear value functions
    (:func:`_dual_chain_dp`); the kept masses are rebuilt from the optimal
    dual by complementary slackness (:func:`_slack_witness`).  The dual f
    certifies the result: it is checked feasible and its value must match
    the DP maximum.  The kept totals must agree to LINE_TOL times the total
    mass, and the primal value of the kept masses, the removals plus
    sum_i min(b*gap_i, 2a)*|F_i| with F the cumulative kept imbalance, must
    match the DP maximum to RECOMPOSE_TOL * a(|mu| + |nu|); no coupling is
    needed.
    A failed check raises :class:`OptimalityCertificateError`.

    Returns ``(kept_src, kept_tgt, value)``, ``value`` the primal value.
    """
    n = src_w.size
    nodes, node_of = np.unique(np.concatenate([src_pos, tgt_pos]), return_inverse=True)
    w_node = np.bincount(node_of[:n], weights=src_w, minlength=nodes.size)
    u_node = np.bincount(node_of[n:], weights=tgt_w, minlength=nodes.size)
    net = w_node - u_node
    step = b * np.diff(nodes)
    mass = float(np.sum(w_node) + np.sum(u_node))
    value, argmax = _dual_chain_dp(net.tolist(), step.tolist(), a,
                                   SLOPE_TOL * float(np.sum(np.abs(net))))
    f = _backtrack(argmax, step.tolist())

    tol_f = LINE_TOL * a
    if (np.max(np.abs(f)) > a + tol_f
            or np.any(np.abs(np.diff(f)) > step + tol_f)):
        raise OptimalityCertificateError("dual potential of the line solve is infeasible")
    dual = float(np.dot(net, f))
    if abs(dual - value) > CERT_TOL * a * mass:
        raise OptimalityCertificateError(
            f"dual potential value {dual} disagrees with the chain DP maximum {value}")

    removed_w, removed_u = _slack_witness(net, w_node, u_node, step, argmax, f, a,
                                          tol_f, LINE_TOL * mass)
    keep_w = np.divide(w_node - removed_w, w_node, out=np.zeros_like(w_node), where=w_node > 0)
    keep_u = np.divide(u_node - removed_u, u_node, out=np.zeros_like(u_node), where=u_node > 0)
    kept_src = np.clip(src_w * keep_w[node_of[:n]], 0.0, src_w)
    kept_tgt = np.clip(tgt_w * keep_u[node_of[n:]], 0.0, tgt_w)

    # primal value of the kept masses: removals plus the flux F across each
    # gap.  F is zero on a gap with b*gap >= 2a, where the dual's step bound
    # is slack, but for rounding residue of the kept masses; that residue is
    # priced as removal at both ends, as the witness reprices arcs that long
    kept_w_node = np.bincount(node_of[:n], weights=kept_src, minlength=nodes.size)
    kept_u_node = np.bincount(node_of[n:], weights=kept_tgt, minlength=nodes.size)
    kept_w_mass, kept_u_mass = float(np.sum(kept_w_node)), float(np.sum(kept_u_node))
    if abs(kept_w_mass - kept_u_mass) > LINE_TOL * mass:
        raise OptimalityCertificateError(
            f"kept masses of the line solve differ: {kept_w_mass} against {kept_u_mass}")
    flux = np.cumsum(kept_w_node - kept_u_node)[:-1]
    primal = (a * (mass - kept_w_mass - kept_u_mass)
              + float(np.dot(np.minimum(step, 2.0 * a), np.abs(flux))))
    if abs(primal - value) > RECOMPOSE_TOL * a * mass:
        raise OptimalityCertificateError(
            f"flux recomposition {primal} disagrees with solver optimum {value}")
    return kept_src, kept_tgt, primal


def _dual_chain_dp(net, step, a, tol_c):
    """Maximize sum_i net_i f_i over |f_i| <= a, |f_{i+1} - f_i| <= step_i.

    V_0(f) = net_0 f and V_i(f) = net_i f + max_{|g - f| <= step_{i-1}} V_{i-1}(g)
    on [-a, a] are concave and piecewise linear.  Each is held as the slope
    ``mid`` of the segment that contains the tracked argmax ``m`` plus two
    deques of breakpoints (stored position, slope drop), ``left`` below the
    segment and ``right`` above it, each sorted ascending with a lazy
    position offset.  Invariant after each step: mid > 0 puts m at the
    segment's upper end, mid < 0 at its lower end, mid == 0 anywhere on it.

    Returns ``(max V_N, [argmax of V_i for each i])``.
    """
    left, right = deque(), deque()
    off_l = off_r = 0.0
    mid = m = val = 0.0
    argmax = []
    for i, c in enumerate(net):
        if i:
            # dilation: split at m, lower part moves down and upper part up
            # by the step, leaving a flat segment of slope 0 around m
            s = step[i - 1]
            if mid > 0:
                left.append((m - off_l, mid))
                if right:
                    rest = right[0][1] - mid
                    if rest > tol_c:
                        right[0] = (right[0][0], rest)
                    else:
                        right.popleft()
            elif mid < 0:
                right.appendleft((m - off_r, -mid))
                if left:
                    rest = left[-1][1] + mid
                    if rest > tol_c:
                        left[-1] = (left[-1][0], rest)
                    else:
                        left.pop()
            mid = 0.0
            off_l -= s
            off_r += s
            # clip to [-a, a]: breakpoints that left the domain go
            while left and left[0][0] + off_l <= -a:
                left.popleft()
            while right and right[-1][0] + off_r >= a:
                right.pop()
            # a breakpoint leaves the domain once its offset has moved 2a,
            # so each is rebased at most once; offsets, and with them the
            # rounding of stored positions, stay of order a
            if off_l < -4 * a:
                left = deque((pos + off_l, drop) for pos, drop in left)
                off_l = 0.0
            if off_r > 4 * a:
                right = deque((pos + off_r, drop) for pos, drop in right)
                off_r = 0.0
        # add net_i f, then walk m to the new argmax
        val += c * m
        mid += c
        if mid > tol_c:
            shift = off_r - off_l
            while right:
                pos, drop = right[0]
                hi = pos + off_r
                val += mid * (hi - m)
                m = hi
                if drop >= mid - tol_c:
                    break
                right.popleft()
                left.append((pos + shift, drop))
                mid -= drop
            else:
                val += mid * (a - m)
                m = a
        elif mid < -tol_c:
            shift = off_l - off_r
            while left:
                pos, drop = left[-1]
                lo = pos + off_l
                val += mid * (lo - m)
                m = lo
                if drop >= -mid - tol_c:
                    break
                left.pop()
                right.appendleft((pos + shift, drop))
                mid += drop
            else:
                val += mid * (-a - m)
                m = -a
        else:
            mid = 0.0
        argmax.append(m)
    return val, argmax


def _backtrack(argmax, step):
    """Optimal dual potential: f_N = argmax V_N, then clip each earlier argmax
    into the window the next potential allows."""
    f = argmax[:]
    nxt = f[-1]
    for i in range(len(f) - 2, -1, -1):
        g, s = argmax[i], step[i]
        if g < nxt - s:
            g = nxt - s
        elif g > nxt + s:
            g = nxt + s
        f[i] = nxt = g
    return np.array(f)


def _slack_witness(net, w_node, u_node, step, argmax, f, a, tol_f, tol_m):
    """Primal kept masses complementary to the optimal dual potential ``f``.

    Source mass may be removed only where f = a, target mass only where
    f = -a, and the flux F_g across gap g may be positive only where f
    descends by the full step to the right, negative only where it rises by
    it, and zero elsewhere.  A forward max-plus sweep gives, per gap, the
    interval of fluxes that the nodes to its left can feed under these
    rules; a backward pass picks a flux in each interval, keeping mass where
    it can.  Returns ``(removed source, removed target)`` per node.
    """
    can_w = np.where(f >= a - tol_f, w_node, 0.0)
    can_u = np.where(f <= -a + tol_f, u_node, 0.0)
    # a gap is tight where the backtrack clipped the argmax onto a window edge
    prev = np.array(argmax[:-1])
    flux_lo = np.where(prev <= f[1:] - step + tol_f, -np.inf, 0.0)
    flux_hi = np.where(prev >= f[1:] + step - tol_f, np.inf, 0.0)
    flux_lo = np.append(flux_lo, 0.0)       # nothing crosses past the last node
    flux_hi = np.append(flux_hi, 0.0)
    # F_i in (F_{i-1} + [net_i - can_w_i, net_i + can_u_i]) cap [flux_lo_i, flux_hi_i]
    s_lo = np.cumsum(net - can_w)
    s_hi = np.cumsum(net + can_u)
    lo = s_lo + np.maximum.accumulate(np.maximum(flux_lo - s_lo, 0.0))
    hi = s_hi + np.minimum.accumulate(np.minimum(flux_hi - s_hi, 0.0))
    if np.max(lo - hi) > tol_m:
        raise OptimalityCertificateError(
            "no primal witness satisfies complementary slackness with the line dual")
    lo, hi, net_l, floor = lo.tolist(), hi.tolist(), net.tolist(), flux_lo.tolist()
    flux = [0.0] * len(net_l)
    g = 0.0
    for i in range(len(net_l) - 1, 0, -1):
        # clip F_i - net_i into [lo, hi], then onto the allowed side: where
        # rounding left the interval empty, the last test still keeps the
        # flux on its side, and the node balance absorbs the rest
        g -= net_l[i]
        if g < lo[i - 1]:
            g = lo[i - 1]
        if g > hi[i - 1]:
            g = hi[i - 1]
        if g < floor[i - 1]:
            g = floor[i - 1]
        flux[i - 1] = g
    flux = np.array(flux)
    excess = net - np.diff(flux, prepend=0.0)     # removed source minus removed target
    return np.clip(excess, 0.0, can_w), np.clip(-excess, 0.0, can_u)


def monotone_coupling(src_pos: np.ndarray, src_w: np.ndarray,
                      tgt_pos: np.ndarray, tgt_w: np.ndarray):
    """Quantile coupling of two equal-mass 1-d measures.

    The monotone plan is optimal for every convex cost |x - y|^p, p >= 1.
    Both sides are walked in position order, subtracting each matched flow
    from the two remainders, so every flow is exact to the rounding of its
    own atoms; a remainder is spent once the residue rule of FLOW_EPS calls
    it zero.  Returns ``(rows, cols, flows)`` arrays: arc k moves
    ``flows[k]`` from source atom ``rows[k]`` to target atom ``cols[k]``.
    """
    order_s = np.argsort(src_pos, kind="stable").tolist()
    order_t = np.argsort(tgt_pos, kind="stable").tolist()
    rem_s = np.asarray(src_w, dtype=float)[order_s].tolist()
    rem_t = np.asarray(tgt_w, dtype=float)[order_t].tolist()
    zero_s, zero_t = [FLOW_EPS * w for w in rem_s], [FLOW_EPS * w for w in rem_t]
    rows, cols, flows = [], [], []
    i = j = 0
    while i < len(rem_s) and j < len(rem_t):
        if rem_s[i] <= zero_s[i]:
            i += 1
            continue
        if rem_t[j] <= zero_t[j]:
            j += 1
            continue
        f = min(rem_s[i], rem_t[j])
        rows.append(order_s[i])
        cols.append(order_t[j])
        flows.append(f)
        rem_s[i] -= f
        rem_t[j] -= f
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(flows, dtype=float))


def parametric_partial_transport(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray,
                                 a: float, b: float, p: float):
    """The vertices of T(m) that the p > 1 scan of ``gw`` has to visit.

    ``gw`` minimizes f(m) = a(|supply| + |demand| - 2m) + b T(m)^(1/p) over
    the transported mass m, with T as in :func:`trace_partial_transport`.
    At most SSP_MAX_ATOMS atoms per side, or when the probes of
    :func:`_top_vertex` do not certify the max-mass vertex, this is the whole
    trace.  Otherwise it is that one vertex.  ``cost`` must be nonnegative.

    Returns a list of ``(m, t, flows)`` vertices, as
    :func:`trace_partial_transport` does.
    """
    if max(cost.shape) > SSP_MAX_ATOMS:
        top = _top_vertex(cost, supply, demand, a, b, p)
        if top is not None:
            return [top]
    return trace_partial_transport(cost, supply, demand)


def _top_vertex(cost, supply, demand, a, b, p):
    """The max-mass vertex of T, if two Lagrangian probes on one HiGHS model
    certify it as the minimum of f to TIE_EPS * a(|supply| + |demand|).

    Probe 1 prices every arc at ``cost - lam_top``, with ``lam_top`` above
    the cost of any augmenting path, so its optimum moves all the mass it
    can at least cost: the vertex (m_top, t_top).  Probe 2 re-solves from
    that basis at ``cost - lam`` with lam = 2a t_top^(1 - 1/p) / b, the
    slope whose line through the vertex meets T = 0 where f equals
    f(m_top).  Its duals, clipped to dual feasibility, bound
    min_m T(m) - lam m from below, and so the Lagrangian gap of probe 1's
    flow; then f(m) >= f(m_top) - loss on [0, min(|supply|, |demand|)], with
    loss = 2a gap / lam plus 2a times any mass probe 1 fell short of the
    maximum (docs/derivations.md section 5).  With t_top = 0, f(m_top) is
    least already and probe 2 is skipped.

    Returns the vertex ``(m_top, t_top, flows)`` as
    :func:`trace_partial_transport` lists vertices, or None if a probe fails
    or the loss is too large.
    """
    n, m = cost.shape
    c = cost.ravel()
    solve = _highs(np.repeat(np.arange(n), m), np.tile(np.arange(m), n), supply, demand, True)
    # an augmenting path has at most min(n, m) forward arcs, each costing
    # at most max(c), and backward arcs of cost <= 0
    lam_top = (min(n, m) + 1) * (float(np.max(c)) or 1.0)
    solved = solve(c - lam_top)
    if solved is None:
        return None
    flows = solved[0]
    m_top, t_top = float(np.sum(flows)), float(np.dot(c, flows))
    loss = 2.0 * a * max(0.0, min(float(np.sum(supply)), float(np.sum(demand))) - m_top)
    if t_top > 0:
        lam = 2.0 * a * t_top ** (1.0 - 1.0 / p) / b
        solved = solve(c - lam)
        if solved is None:
            return None
        # clipped to y <= 0, z <= 0 and y_i + z_j <= cost_ij - lam, the
        # duals are feasible, so their value is a lower bound
        z = np.minimum(solved[1][n:], 0.0)
        y = np.minimum(np.minimum(solved[1][:n], 0.0), np.min(cost - lam - z, axis=1))
        lower = float(np.dot(supply, y) + np.dot(demand, z))
        loss += 2.0 * a * max(0.0, t_top - lam * m_top - lower) / lam
    if loss > TIE_EPS * a * float(np.sum(supply) + np.sum(demand)):
        return None
    return m_top, t_top, flows


def trace_partial_transport(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Trace T(m) = min {<cost, G> : G >= 0, G1 <= supply, G^T 1 <= demand, sum G = m}.

    Successive shortest augmenting paths on the bipartite flow network give
    the exact convex piecewise-linear T over m in [0, min(|supply|,|demand|)]:
    every augmentation transports mass at the current cheapest marginal cost
    (the path cost), and path costs are nondecreasing.  Each augmentation
    ends at one vertex, so every breakpoint of T is a vertex; three
    consecutive vertices may be collinear.  ``cost`` must be nonnegative.

    Returns the vertices after each augmentation, in order of increasing m,
    as triples ``(m, t, flows)``: t = T(m), and ``flows`` is an optimal plan
    at m on all n*m arcs in row-major order, arc k going from source
    ``k // m`` to target ``k % m``.  The origin (0, 0) is not listed.
    """
    vertices = []
    _ssp(cost, supply, demand, np.ones(cost.shape, dtype=bool), np.inf, vertices)
    return vertices


def _ssp(cost, supply, demand, arc_mask, stop, vertices=None):
    """Successive shortest paths on the arcs of ``arc_mask`` (cost >= 0).

    The network is one dense residual-capacity matrix over the nodes
    (sources, targets, super source, sink); the flow on arc (i, j) is the
    residual capacity of its reverse arc (j, i).  Augmentation stops before
    the first path whose cost would reach ``stop``, or when none is left;
    a finite ``stop`` clamps the last Dijkstra at the source-sink gap, so
    the final potentials have gap ``stop`` and residual reduced costs >= 0.
    Appends the vertex ``(m, t, flows)`` of :func:`trace_partial_transport`
    reached by each augmentation to ``vertices`` if given.  Returns the flow
    matrix and the node potentials.
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
    cap[:n, tgt] = np.where(arc_mask, np.inf, 0.0)
    cap[tgt, snk] = demand
    # residue rule: a residual capacity is zero when at most FLOW_EPS times
    # the smaller weight of the two nodes of its arc (terminals weigh inf)
    node_w = np.concatenate([supply, demand, [np.inf, np.inf]])
    zero = FLOW_EPS * np.minimum.outer(node_w, node_w)
    pot = np.zeros(n_nodes)                 # node potentials; pot[src] stays 0
    m_done = 0.0
    t_done = 0.0
    while True:
        reduced = np.where(cap > zero, np.maximum(0.0, arc_cost + pot[:, None] - pot), np.inf)
        dist, parent = _dijkstra_dense(reduced.tolist(), src, snk)
        if not dist[snk] < stop - pot[snk]:
            if stop < np.inf:
                pot += np.minimum(dist, stop - pot[snk])
            break
        # clamp unfinalized labels at dist[snk]; keeps reduced costs valid
        pot += np.minimum(dist, dist[snk])
        # true per-unit cost of this augmentation in original costs
        slope = pot[snk] - pot[src]
        path = [snk]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path = np.array(path)
        heads, tails = path[:-1], path[1:]
        bottleneck = min(cap[tails, heads].tolist())
        cap[tails, heads] -= bottleneck
        cap[heads, tails] += bottleneck
        m_done += bottleneck
        t_done += float(slope) * bottleneck
        if vertices is not None:
            # flatten copies; ravel would return a view of cap when a side has one atom
            vertices.append((m_done, t_done, cap[tgt, :n].T.flatten()))
    return cap[tgt, :n].T.copy(), pot


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
