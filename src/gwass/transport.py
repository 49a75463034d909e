"""Exact Wasserstein distance W_p between equal-mass discrete measures.

The distance is computed in unnormalized form

    W_p(mu, nu)^p = min { sum_ij g_ij * |x_i - y_j|^p }

over nonnegative couplings g whose row sums equal the source weights and
whose column sums equal the target weights.  The solve is an exact
transportation LP (SSP or HiGHS, by size) whose optimality is re-certified
from the duals; no entropic or other regularization is used anywhere.

A :class:`TransportPlan` holds its arcs as three read-only arrays (source
index, target index, flow).  W_p plans and the witness plans of the
generalized distance drop rounding residues by one rule: an arc whose flow
is at most :data:`_minflow.FLOW_EPS` times the smaller of its two atoms' weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _minflow
from .measures import DiscreteMeasure, total_mass


def _carried_arcs(rows, cols, flows, source: DiscreteMeasure, target: DiscreteMeasure):
    """The arcs ``(rows, cols, flows)`` between the atoms of ``source`` and
    ``target`` that survive the residue rule of ``_minflow.FLOW_EPS``."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    flows = np.asarray(flows, dtype=float)
    keep = flows > _minflow.FLOW_EPS * np.minimum(source.weights[rows], target.weights[cols])
    return rows[keep], cols[keep], flows[keep]


def _arc_cost(src_pos: np.ndarray, tgt_pos: np.ndarray, flows: np.ndarray, p: float) -> float:
    """sum of flows[k] * |src_pos[k] - tgt_pos[k]|^p."""
    return float(np.sum(flows * np.linalg.norm(src_pos - tgt_pos, axis=1) ** p))


class MassMismatchError(ValueError):
    """Raised when W_p is requested between measures of different mass."""


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse coupling between the atoms of two measures.

    Arc k carries ``flows[k] > 0`` from source atom ``rows[k]`` to target
    atom ``cols[k]``; the three arrays are read-only.  Row sums must
    reproduce the source weights and column sums the target weights
    (checked by :meth:`check_marginals`).
    """

    rows: np.ndarray
    cols: np.ndarray
    flows: np.ndarray
    source_ref: DiscreteMeasure
    target_ref: DiscreteMeasure

    def __post_init__(self):
        for name, dtype in (("rows", np.intp), ("cols", np.intp), ("flows", float)):
            arr = np.array(getattr(self, name), dtype=dtype).reshape(-1)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        row = np.bincount(self.rows, self.flows, minlength=self.source_ref.n_atoms)
        col = np.bincount(self.cols, self.flows, minlength=self.target_ref.n_atoms)
        return row, col

    def check_marginals(self, rel_tol: float = 1e-9) -> None:
        row, col = self.marginals()
        scale = max(total_mass(self.source_ref), total_mass(self.target_ref))
        if np.max(np.abs(row - self.source_ref.weights), initial=0.0) > rel_tol * scale:
            raise ValueError("plan row sums do not match source weights")
        if np.max(np.abs(col - self.target_ref.weights), initial=0.0) > rel_tol * scale:
            raise ValueError("plan column sums do not match target weights")

    def _arc_ends(self) -> tuple[np.ndarray, np.ndarray]:
        return self.source_ref.positions[self.rows], self.target_ref.positions[self.cols]

    def cost(self, p: float) -> float:
        """sum of flow * |x_i - y_j|^p over the plan arcs."""
        return _arc_cost(*self._arc_ends(), self.flows, p)

    def max_arc_length(self) -> float:
        src_pos, tgt_pos = self._arc_ends()
        return float(np.max(np.linalg.norm(src_pos - tgt_pos, axis=1), initial=0.0))

    def as_triples(self) -> list[list]:
        """Arcs as ``[source index, target index, flow]`` lists of Python
        ints and floats, in arc order."""
        return [list(arc) for arc in zip(self.rows.tolist(), self.cols.tolist(),
                                         self.flows.tolist())]


@dataclass(frozen=True)
class WpResult:
    """Value and witness plan of a W_p solve."""

    value: float
    plan: TransportPlan
    p: float


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> np.ndarray:
    """Pairwise Euclidean distances to the p-th power.

    Raises ValueError when a pair at positive distance d has d**p equal
    to inf or 0 in floating point: a solver given that matrix would price
    the pair as infinitely dear or free, and return a wrong value.
    """
    diff = mu.positions[:, None, :] - nu.positions[None, :, :]
    d = np.linalg.norm(diff, axis=2)
    with np.errstate(over="ignore", under="ignore"):
        cost = d ** p
    lost = np.flatnonzero((d > 0) & ((cost == 0) | np.isinf(cost)))
    if lost.size:
        k = lost[0]
        raise ValueError(f"distance {float(d.flat[k])!r} to the power p = {p!r} is "
                         f"{float(cost.flat[k])!r} in floating point; no cost matrix at this p")
    return cost


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> WpResult:
    """Exact Wasserstein distance of order p between equal-mass measures.

    Parameters
    ----------
    mu, nu : DiscreteMeasure
        Measures of equal (positive) total mass; a mass imbalance beyond
        :data:`_minflow.MASS_TOL` times the larger mass raises
        :class:`MassMismatchError`, since W_p is undefined between measures
        of different mass.
    p : float
        Cost exponent, finite and >= 1.

    Returns
    -------
    WpResult
        ``value`` with ``value**p`` equal to the optimal coupling cost, and
        the optimal plan.  Single-atom inputs short-circuit to the closed
        form; everything else goes through the certified LP.
    """
    if not (p >= 1 and np.isfinite(p)):
        raise ValueError(f"p must be >= 1, got {p}")
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    w_mass, u_mass = total_mass(mu), total_mass(nu)
    if abs(w_mass - u_mass) > _minflow.MASS_TOL * max(w_mass, u_mass):
        raise MassMismatchError(
            f"masses differ ({w_mass} vs {u_mass}); W_p needs equal masses")
    if w_mass <= 0 or u_mass <= 0:
        raise MassMismatchError("W_p requires measures of positive mass")

    cost = cost_matrix(mu, nu, p)
    # a single atom on either side forces the plan up to rescaling
    if mu.n_atoms == 1 or nu.n_atoms == 1:
        rows, cols = np.divmod(np.arange(mu.n_atoms * nu.n_atoms), nu.n_atoms)
        flows = mu.weights[rows] * nu.weights[cols] / u_mass
        value = float(np.sum(flows * cost.ravel())) ** (1.0 / p)
    else:
        # each side scaled to a total of 1, which also makes the LP feasible
        rows, cols, flows, raw = _minflow.solve_transportation(
            cost, mu.weights / w_mass, nu.weights / u_mass)
        flows = flows * w_mass
        value = (w_mass * max(raw, 0.0)) ** (1.0 / p)
    return WpResult(value, TransportPlan(*_carried_arcs(rows, cols, flows, mu, nu), mu, nu), p)

