"""Finite discrete measures on R^d and their elementary operations.

A measure is a finite cloud of weighted atoms.  Everything downstream
(transport plans, the generalized distance, particle flows) consumes the
:class:`DiscreteMeasure` type defined here.  Positions are compared only
after snapping to a quantization lattice, because equality of floating
point coordinates is meaningless after arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

#: Default coordinate quantization step used when merging coincident atoms.
DEFAULT_QUANTUM = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative measure supported on finitely many points of R^d.

    Parameters
    ----------
    dim : int
        Ambient dimension d >= 1.
    positions : (n, dim) ndarray
        Atom locations.
    weights : (n,) ndarray
        Nonnegative atom masses.  Zero weights are legal on input; they are
        dropped by :func:`canonicalize`.

    Instances are immutable: arrays are copied on construction and marked
    read-only, so values can be shared freely across threads.
    """

    dim: int
    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.dim < 1 or int(self.dim) != self.dim:
            raise ValueError(f"dimension must be a positive integer, got {self.dim}")
        pos = np.array(self.positions, dtype=float).reshape(-1, self.dim)
        w = np.array(self.weights, dtype=float).reshape(-1)
        if pos.shape[0] != w.shape[0]:
            raise ValueError(f"{pos.shape[0]} positions but {w.shape[0]} weights")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        pos.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_atoms(cls, dim: int, atoms: Iterable[tuple[Sequence[float], float]]) -> "DiscreteMeasure":
        atoms = list(atoms)
        if not atoms:
            return cls.zero(dim)
        pos = np.array([a[0] for a in atoms], dtype=float).reshape(len(atoms), dim)
        w = np.array([a[1] for a in atoms], dtype=float)
        return cls(dim, pos, w)

    @classmethod
    def dirac(cls, x: Sequence[float] | float, weight: float = 1.0) -> "DiscreteMeasure":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(x.size, x.reshape(1, -1), np.array([weight]))

    @classmethod
    def zero(cls, dim: int) -> "DiscreteMeasure":
        return cls(dim, np.empty((0, dim)), np.empty(0))

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]


def _lattice_keys(positions: np.ndarray, quantum: float) -> np.ndarray:
    keys = np.rint(positions / quantum)
    if np.any(np.abs(keys) >= 2.0 ** 63):
        raise ValueError(
            f"coordinate {np.max(np.abs(positions)):g} is off the int64 lattice of "
            f"quantum {quantum:g}; rescale the positions or raise the quantum")
    return keys.astype(np.int64)


def _merge_sites(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the (n, d) int64 ``keys`` and the sum of ``weights`` on each.

    Rows come out in lexicographic order.  The sort is stable, so each
    site's weights are added in input order, starting from 0.0.
    """
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    first = np.empty(sorted_keys.shape[0], dtype=bool)
    first[0] = True
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=first[1:])
    sums = np.bincount(np.cumsum(first) - 1, weights=weights[order])
    return sorted_keys[first], sums


def canonicalize(mu: DiscreteMeasure, quantum: float = DEFAULT_QUANTUM) -> DiscreteMeasure:
    """Snap atoms to the quantization lattice and merge coincident ones.

    Output atoms are sorted lexicographically by lattice key, which makes
    every downstream computation independent of input ordering.  The sort is
    stable and each merged weight is summed in input order, so the output is
    a deterministic function of the input sequence.  Atoms whose merged
    weight is exactly zero are dropped.
    Raises ``ValueError`` when a lattice index |x| / quantum does not fit in
    int64, rather than letting distant atoms wrap around and merge.
    """
    if not (quantum > 0 and np.isfinite(quantum)):
        raise ValueError(f"quantum must be a positive finite number, got {quantum}")
    if mu.n_atoms == 0:
        return mu
    sites, w = _merge_sites(_lattice_keys(mu.positions, quantum), mu.weights)
    keep = w > 0
    return DiscreteMeasure(mu.dim, sites[keep] * quantum, w[keep])


def total_mass(mu: DiscreteMeasure) -> float:
    """Total mass |mu|, the sum of all atom weights."""
    return float(np.sum(mu.weights))


def tv_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Total-variation distance |mu - nu| between discrete measures.

    Both measures are canonicalized; the distance is the sum over lattice
    sites of |w_mu - w_nu|, so atoms of one measure unmatched by the other
    contribute their full weight.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    cm = canonicalize(mu)
    cn = canonicalize(nu)
    if cm.n_atoms == 0 and cn.n_atoms == 0:
        return 0.0
    keys = np.concatenate([_lattice_keys(cm.positions, DEFAULT_QUANTUM),
                           _lattice_keys(cn.positions, DEFAULT_QUANTUM)], axis=0)
    signed = np.concatenate([cm.weights, -cn.weights])
    return float(np.sum(np.abs(_merge_sites(keys, signed)[1])))


def push_forward(mu: DiscreteMeasure, gamma: Callable[[np.ndarray], np.ndarray]) -> DiscreteMeasure:
    """Image measure of ``mu`` under the point map ``gamma``.

    ``gamma`` receives the full (n, dim) position array and must return an
    array of the same shape.  Weights are untouched, so the total mass is
    preserved exactly.
    """
    if mu.n_atoms == 0:
        return mu
    new_pos = np.asarray(gamma(mu.positions), dtype=float).reshape(mu.n_atoms, mu.dim)
    return DiscreteMeasure(mu.dim, new_pos, mu.weights)


def scale(mu: DiscreteMeasure, k: float) -> DiscreteMeasure:
    """The measure k * mu for k >= 0."""
    if k < 0:
        raise ValueError(f"scale factor must be nonnegative, got {k}")
    return DiscreteMeasure(mu.dim, mu.positions, mu.weights * k)


def add(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """The sum measure mu + nu (atom lists concatenated)."""
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    return DiscreteMeasure(
        mu.dim,
        np.concatenate([mu.positions, nu.positions], axis=0),
        np.concatenate([mu.weights, nu.weights]),
    )


def support_radius(mu: DiscreteMeasure) -> float:
    """Radius of the smallest origin-centered ball containing the support."""
    if mu.n_atoms == 0:
        return 0.0
    return float(np.max(np.linalg.norm(mu.positions, axis=1)))


# --- JSON interchange -------------------------------------------------------
#
# {"dim": d, "atoms": [{"x": [..d floats..], "w": float}, ...]}
#
# This is the on-disk format for every CLI subcommand.  Floats are written
# with full repr precision, so a measure round-trips bit for bit.

def measure_to_json(mu: DiscreteMeasure) -> dict:
    return {
        "dim": mu.dim,
        "atoms": [{"x": [float(c) for c in p], "w": float(w)}
                  for p, w in zip(mu.positions, mu.weights)],
    }


def measure_from_json(obj: dict) -> DiscreteMeasure:
    try:
        dim = int(obj["dim"])
        atoms = obj["atoms"]
        pos = np.array([a["x"] for a in atoms], dtype=float).reshape(len(atoms), dim)
        w = np.array([a["w"] for a in atoms], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a valid measure object: {exc}") from exc
    return DiscreteMeasure(dim, pos, w)


def save_measure(mu: DiscreteMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure_to_json(mu), fh)
        fh.write("\n")


def load_measure(path) -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return measure_from_json(json.load(fh))
