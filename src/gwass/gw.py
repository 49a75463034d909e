"""Generalized Wasserstein distance between measures of arbitrary mass.

For parameters a, b > 0 and p >= 1 the distance between mu and nu is the
minimum over equal-mass sub-measures mu~ <= mu, nu~ <= nu of

    a*|mu - mu~| + a*|nu - nu~| + b*W_p(mu~, nu~),

i.e. mass may either be removed at unit cost a (on both sides) or
transported at cost b per unit of W_p.  Restricting to sub-measures loses
nothing: adding mass is never optimal.

Three exact solver paths, plus removal of everything when a side is empty:

* p = 1 in one dimension: the flat-norm dual, max sum f d(mu - nu) over
  |f| <= a and Lip f <= b, solved by a chain DP on the sorted atoms; the
  kept masses follow from the optimal f by complementary slackness, and f
  certifies them.  Used by the particle-dynamics experiments, where atom
  counts grow into the thousands.
* p = 1 in two or more dimensions: one partial-transport LP.  Writing m
  for the transported mass, the objective is a(|mu|+|nu|) +
  sum (b*d_ij - 2a) g_ij over couplings with inequality marginals, and only
  arcs with b*d < 2a can carry flow.  :mod:`gwass._minflow` solves it on
  the SSP below a measured crossover size and on HiGHS above it.
* p > 1: the transported-mass parametrization.  T(m), the minimal coupling
  cost at transported mass m, is convex piecewise linear; the objective
  f(m) = a(|mu|+|nu|-2m) + b*T(m)^(1/p) is concave on each linear piece of
  T (its second derivative has the sign of 1/p - 1), so the global minimum
  is attained at a vertex of T, and scanning the vertices, the
  (m, T(m), flows) triples of :func:`_minflow.trace_partial_transport`,
  is exact.  Up to :data:`_minflow.SSP_MAX_ATOMS` atoms per side,
  successive shortest paths trace every vertex.  Above it, two Lagrangian
  probes on one HiGHS model find the max-mass vertex and a supporting line
  of T through it; when the line bounds f below by the vertex's value,
  that vertex is the only one scanned, and otherwise the trace runs.

Ties between transporting and removing are broken toward removal, so the
witness decomposition is deterministic; the value is unaffected.

Every path hands its value and plan arcs, as (rows, cols, flows) arrays,
to one witness route, ``_assemble``: it drops rounding residues by the rule
of :data:`_minflow.FLOW_EPS`, recomposes the value from the kept arcs and
checks it against the solver's optimum when the solve returns, and builds
the kept sub-measures and the plan only when a witness field is first read;
the particle scheme reads only the value.  The 1-d p=1 path certifies its
value from the removals and gap fluxes of its kept masses, and builds its
arcs, the monotone coupling, on that first read.  Tolerances are the
constants of :mod:`gwass._minflow`; each test on a value is relative to
a(|mu| + |nu|).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import _minflow
from .measures import (DEFAULT_QUANTUM, DiscreteMeasure, canonicalize,
                       measure_to_json, total_mass)
from ._minflow import RECOMPOSE_TOL, TIE_EPS
from .transport import TransportPlan, _arc_cost, _carried_arcs, cost_matrix


@dataclass(frozen=True)
class GwParams:
    """Parameters of the generalized distance: removal cost a, transport
    multiplier b, cost exponent p."""

    a: float
    b: float
    p: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and np.isfinite(self.a)):
            raise ValueError(f"a must be a positive real, got {self.a}")
        if not (self.b > 0 and np.isfinite(self.b)):
            raise ValueError(f"b must be a positive real, got {self.b}")
        if not (self.p >= 1 and np.isfinite(self.p)):
            raise ValueError(f"p must be >= 1, got {self.p}")

    @property
    def truncation_radius(self) -> float:
        """Distance 2a/b beyond which transport can never beat removal."""
        return 2.0 * self.a / self.b


@dataclass(frozen=True)
class _Witness:
    """Kept sub-measures, the plan that couples them and the removed masses."""

    kept_source: DiscreteMeasure
    kept_target: DiscreteMeasure
    plan: TransportPlan
    removed_source_mass: float
    removed_target_mass: float


def _recompose(params, removed_w, removed_u, transport_cost):
    """a*removed_w + a*removed_u + b*W_p, with W_p^p the transport cost."""
    w_term = transport_cost ** (1.0 / params.p) if transport_cost > 0 else 0.0
    return params.a * removed_w + params.a * removed_u + params.b * w_term


@dataclass(frozen=True, eq=False)
class GwResult:
    """Optimal value together with its witness decomposition.

    ``kept_source``/``kept_target`` are the transported sub-measures (on the
    canonicalized atoms of the inputs), ``plan`` couples them, and the
    removed masses account for the rest.  The value always recomposes as
    a*removed_source + a*removed_target + b*W_p(kept, kept).

    The value is checked when the solve returns.  The witness fields come
    from ``_build`` on first read and are cached.
    """

    value: float
    _build: Callable[[], _Witness] = field(repr=False)

    @cached_property
    def _witness(self) -> _Witness:
        return self._build()

    kept_source = property(lambda self: self._witness.kept_source)
    kept_target = property(lambda self: self._witness.kept_target)
    plan = property(lambda self: self._witness.plan)
    removed_source_mass = property(lambda self: self._witness.removed_source_mass)
    removed_target_mass = property(lambda self: self._witness.removed_target_mass)

    def value_from_parts(self, params: GwParams) -> float:
        return _recompose(params, self.removed_source_mass, self.removed_target_mass,
                          self.plan.cost(params.p))

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "removed_source_mass": self.removed_source_mass,
            "removed_target_mass": self.removed_target_mass,
            "kept_source": measure_to_json(self.kept_source),
            "kept_target": measure_to_json(self.kept_target),
            "plan": self.plan.as_triples(),
        }


def _assemble(mu, nu, params, rows, cols, flows, solver_value):
    """GwResult of a solve from its plan arcs on the canonical atoms.

    Every solver path ends here.  Arc k moves ``flows[k]`` from atom
    ``rows[k]`` of ``mu`` to atom ``cols[k]`` of ``nu``; arcs that fail the
    residue rule of :data:`_minflow.FLOW_EPS` are dropped.  The kept masses
    are the arcs' marginals and the rest counts as removed.  The value is
    recomposed from these arrays at once and must agree with the solver's
    own optimum to RECOMPOSE_TOL * a(|mu| + |nu|), or RuntimeError is
    raised; the kept sub-measures and the plan are built on first read.
    """
    rows, cols, flows = _carried_arcs(rows, cols, flows, mu, nu)
    kept_w = np.bincount(rows, flows, minlength=mu.n_atoms)
    kept_u = np.bincount(cols, flows, minlength=nu.n_atoms)
    src_idx = np.flatnonzero(kept_w)
    tgt_idx = np.flatnonzero(kept_u)
    removed_w = total_mass(mu) - float(np.sum(kept_w[src_idx]))
    removed_u = total_mass(nu) - float(np.sum(kept_u[tgt_idx]))
    value = _recompose(params, removed_w, removed_u,
                       _arc_cost(mu.positions[rows], nu.positions[cols], flows, params.p))
    if abs(value - solver_value) > RECOMPOSE_TOL * params.a * (total_mass(mu) + total_mass(nu)):
        raise RuntimeError(
            f"witness recomposition {value} disagrees with solver optimum {solver_value}")

    def witness():
        kept_source = DiscreteMeasure(mu.dim, mu.positions[src_idx], kept_w[src_idx])
        kept_target = DiscreteMeasure(nu.dim, nu.positions[tgt_idx], kept_u[tgt_idx])
        plan = TransportPlan(np.searchsorted(src_idx, rows), np.searchsorted(tgt_idx, cols),
                             flows, kept_source, kept_target)
        return _Witness(kept_source, kept_target, plan, removed_w, removed_u)
    return GwResult(value, witness)


def _gw_dense_p1(mu, nu, params):
    dist = cost_matrix(mu, nu, 1.0)
    arc_mask = params.b * dist < 2.0 * params.a * (1.0 - TIE_EPS)
    removal = params.a * (total_mass(mu) + total_mass(nu))
    modified = params.b * dist - 2.0 * params.a
    rows, cols, flows, lp_obj = _minflow.solve_partial_transportation(
        modified, mu.weights, nu.weights, arc_mask)
    return _assemble(mu, nu, params, rows, cols, flows, removal + lp_obj)


def _gw_line_p1(mu, nu, params):
    """1-d p=1 solve.  The line solver certifies the value from the removals
    and the gap fluxes of the kept masses; the monotone coupling and
    ``_assemble``'s check of it run when a witness field is first read."""
    x = mu.positions[:, 0]
    y = nu.positions[:, 0]
    kept_w, kept_u, value = _minflow.solve_line_partial_w1(
        x, mu.weights, y, nu.weights, params.a, params.b)

    def witness():
        rows, cols, flows = _minflow.monotone_coupling(x, kept_w, y, kept_u)
        # arcs at the exact tie b*d == 2a are repriced as removals
        inside = params.b * np.abs(x[rows] - y[cols]) < 2.0 * params.a * (1.0 - TIE_EPS)
        return _assemble(mu, nu, params, rows[inside], cols[inside], flows[inside], value)._build()
    return GwResult(value, witness)


def _gw_parametric(mu, nu, params):
    """p > 1 solve by scanning the vertices of the transported-mass curve."""
    cost = cost_matrix(mu, nu, params.p)
    vertices = _minflow.parametric_partial_transport(cost, mu.weights, nu.weights,
                                                     params.a, params.b, params.p)
    return _scan(mu, nu, params, vertices)


def _scan(mu, nu, params, vertices):
    """The least f(m) over the origin and the vertices (m, t, flows) of T,
    ties toward less mass."""
    w_mass, u_mass = total_mass(mu), total_mass(nu)
    best_val = params.a * (w_mass + u_mass)   # m = 0, pure removal
    best_flows = []
    for m, t, flows in vertices:
        w_term = t ** (1.0 / params.p) if t > 0 else 0.0
        val = params.a * (w_mass + u_mass - 2.0 * m) + params.b * w_term
        if val < best_val - TIE_EPS * params.a * (w_mass + u_mass):
            best_val = val
            best_flows = flows
    rows, cols = np.divmod(np.arange(len(best_flows)), nu.n_atoms)
    return _assemble(mu, nu, params, rows, cols, best_flows, best_val)


def gw_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, params: GwParams,
                quantum: float = DEFAULT_QUANTUM) -> GwResult:
    """Globally optimal generalized Wasserstein distance with witness.

    Inputs may have different masses and either may be the zero measure.
    Atoms are canonicalized (merged on the ``quantum`` lattice) before the
    solve, so the result is invariant under atom permutation and duplicate
    atoms; the witness measures live on the canonical atoms.  The value is
    checked before it is returned: recomposed from the witness arcs (on the
    1-d p=1 path, from the removals and gap fluxes), it must agree with the
    solver's optimum to RECOMPOSE_TOL * a(|mu| + |nu|), or
    :class:`RuntimeError` is raised.  The witness is built on first read.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    mu_c = canonicalize(mu, quantum)
    nu_c = canonicalize(nu, quantum)
    if mu_c.n_atoms == 0 or nu_c.n_atoms == 0:
        return _assemble(mu_c, nu_c, params, [], [], [],
                         params.a * (total_mass(mu_c) + total_mass(nu_c)))
    if params.p != 1.0:
        return _gw_parametric(mu_c, nu_c, params)
    if mu_c.dim == 1:
        return _gw_line_p1(mu_c, nu_c, params)
    return _gw_dense_p1(mu_c, nu_c, params)


#: Cap on the number of lattice plans the brute-force oracle enumerates.
_BRUTE_FORCE_MAX_POINTS = 20_000_000


def gw_brute_force(mu: DiscreteMeasure, nu: DiscreteMeasure, params: GwParams,
                   grid_steps: int) -> float:
    """Exhaustive grid oracle for the generalized distance on tiny instances.

    Enumerates every coupling whose entries are multiples of
    delta = min(|mu|, |nu|) / grid_steps and satisfy the marginal caps, and
    evaluates a(|mu| - m) + a(|nu| - m) + b (sum g d^p)^(1/p) on each.  The
    result upper-bounds the true distance and converges as the grid is
    refined: rounding the optimal coupling down to the grid loses less than
    one delta of mass per arc, each repriced as removal, so

        oracle - true <= 2 * a * (number of arcs) * delta.

    Limits: at most 6 atoms in total and at most 50 grid steps; the lattice
    is also capped at _BRUTE_FORCE_MAX_POINTS plans.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    mu_c = canonicalize(mu)
    nu_c = canonicalize(nu)
    n, m = mu_c.n_atoms, nu_c.n_atoms
    if n + m > 6:
        raise ValueError(f"instance too large for the brute-force oracle: {n}+{m} atoms")
    if not (1 <= grid_steps <= 50):
        raise ValueError(f"grid_steps must be in 1..50, got {grid_steps}")
    w_mass, u_mass = total_mass(mu_c), total_mass(nu_c)
    if n == 0 or m == 0:
        return params.a * (w_mass + u_mass)

    delta = min(w_mass, u_mass) / grid_steps
    w_cap = np.floor(mu_c.weights / delta * (1 + 1e-12)).astype(np.int64)
    u_cap = np.floor(nu_c.weights / delta * (1 + 1e-12)).astype(np.int64)
    dist_p = cost_matrix(mu_c, nu_c, params.p).ravel()

    # grow the lattice one arc at a time, pruning by marginal and total caps
    plans = np.zeros((1, 0), dtype=np.int64)
    row_used = np.zeros((1, n), dtype=np.int64)
    col_used = np.zeros((1, m), dtype=np.int64)
    tot_used = np.zeros(1, dtype=np.int64)
    for arc in range(n * m):
        i, j = divmod(arc, m)
        room = np.minimum(w_cap[i] - row_used[:, i], u_cap[j] - col_used[:, j])
        room = np.minimum(room, grid_steps - tot_used)
        counts = room + 1
        if int(np.sum(counts)) > _BRUTE_FORCE_MAX_POINTS:
            raise ValueError("instance too large: brute-force lattice exceeds the point budget")
        rep = np.repeat(np.arange(plans.shape[0]), counts)
        offsets = np.arange(rep.size) - np.repeat(np.cumsum(counts) - counts, counts)
        plans = np.concatenate([plans[rep], offsets[:, None]], axis=1)
        row_used = row_used[rep]
        col_used = col_used[rep]
        row_used[:, i] += offsets
        col_used[:, j] += offsets
        tot_used = tot_used[rep] + offsets

    transported = tot_used * delta
    cost_p = (plans * delta) @ dist_p
    w_term = np.where(cost_p > 0, cost_p, 0.0) ** (1.0 / params.p)
    values = params.a * (w_mass + u_mass - 2.0 * transported) + params.b * w_term
    return float(np.min(values))


def levy_prokhorov_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Levy-Prokhorov distance between two atomic probability measures on R.

    d(mu, nu) is the infimum of alpha > 0 such that, for every closed A,
    mu(A) <= nu(A^alpha) + alpha, where A^alpha is the union of closed balls
    of radius alpha around A; the two one-sided conditions are symmetrized
    by taking their maximum.  For finite atomic measures the condition is
    tightest on unions of atoms of the left measure (shrinking A onto the
    support only shrinks the enlarged set), so the exact value is found by
    enumerating support subsets and scanning the plateaus of
    alpha -> nu(A^alpha).

    Requires 1-d probability measures (mass 1 within 1e-9) with at most 12
    atoms each.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("the Levy-Prokhorov comparator handles 1-d measures only")
    mu_c = canonicalize(mu)
    nu_c = canonicalize(nu)
    for name, meas in (("first", mu_c), ("second", nu_c)):
        if abs(total_mass(meas) - 1.0) > 1e-9:
            raise ValueError(f"{name} measure is not a probability measure")
        if meas.n_atoms > 12:
            raise ValueError(f"{name} measure has more than 12 atoms")

    def one_sided(pa, wa, pb, wb):
        # sup over subsets S of supp_a of inf{alpha : a(S) <= b(S^alpha) + alpha}
        n = pa.size
        dmat = np.abs(pb[None, :] - pa[:, None])   # (n_a, n_b)
        worst = 0.0
        for mask in range(1, 1 << n):
            sel = [(mask >> k) & 1 for k in range(n)]
            idx = np.flatnonzero(sel)
            mass_a = float(np.sum(wa[idx]))
            d_j = np.min(dmat[idx], axis=0)
            order = np.argsort(d_j, kind="stable")
            thresholds = d_j[order]
            cum = np.cumsum(wb[order])
            # plateau boundaries of alpha -> b(S^alpha), starting at alpha = 0
            bounds = [0.0]
            vals = [0.0]
            for t, v in zip(thresholds, cum):
                if t > bounds[-1]:
                    bounds.append(float(t))
                    vals.append(float(v))
                else:
                    vals[-1] = float(v)
            alpha_s = None
            for k in range(len(bounds)):
                cand = max(bounds[k], mass_a - vals[k])
                nxt = bounds[k + 1] if k + 1 < len(bounds) else np.inf
                if cand < nxt or k + 1 == len(bounds):
                    alpha_s = cand
                    break
            worst = max(worst, alpha_s)
        return worst

    return max(
        one_sided(mu_c.positions[:, 0], mu_c.weights, nu_c.positions[:, 0], nu_c.weights),
        one_sided(nu_c.positions[:, 0], nu_c.weights, mu_c.positions[:, 0], mu_c.weights),
    )
