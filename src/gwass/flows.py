"""Flow maps of Lipschitz velocity fields acting on discrete measures.

A :class:`VectorFieldModel` evaluates a measure-dependent velocity

    v[mu](x) = base(x) + sum_i w_i * K(x - y_i)

from a bounded base field and a compactly supported interaction kernel K.
Every model stores certified constants: L (spatial Lipschitz bound), M
(sup-norm bound) and N (Lipschitz bound of mu -> v[mu] in sup norm with
respect to the generalized distance).  Constants are supplied or derived in
closed form from the field family, never inferred from samples; the
derivations live in docs/derivations.md.

Measures are pushed forward by integrating each atom along the field frozen
at a reference measure, with a classical fixed-step RK4 integrator (no
adaptive stepping, so runs are deterministic and the error is O(step^4)).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .gw import GwParams
from .measures import DiscreteMeasure

#: max |d/du (1-u^2)^2| on [0,1], attained at u = 1/sqrt(3)
_BUMP_SLOPE = 8.0 / (3.0 * math.sqrt(3.0))


# --- base fields -------------------------------------------------------------

class ConstantBase:
    """Spatially constant velocity c.

    A call returns the read-only vector c itself, which broadcasts against
    the (n, d) points it is added to; an in-place update of it raises.
    """

    def __init__(self, c):
        self.c = np.array(c, dtype=float, ndmin=1)
        self.c.flags.writeable = False
        self.sup = float(np.linalg.norm(self.c))
        self.lip = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.c


class ZeroBase(ConstantBase):
    def __init__(self, dim: int):
        super().__init__(np.zeros(dim))


class SineBase:
    """Componentwise sinusoid v_i(x) = amp_i * sin(freq_i * x_i + phase_i).

    Bounded with exact constants: sup = ||amp||_2, Lipschitz = max |amp*freq|.
    """

    def __init__(self, amplitude, frequency, phase=None):
        self.amplitude = np.atleast_1d(np.asarray(amplitude, dtype=float))
        self.frequency = np.atleast_1d(np.asarray(frequency, dtype=float))
        self.phase = (np.zeros_like(self.amplitude) if phase is None
                      else np.atleast_1d(np.asarray(phase, dtype=float)))
        self.sup = float(np.linalg.norm(self.amplitude))
        self.lip = float(np.max(np.abs(self.amplitude * self.frequency), initial=0.0))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(self.frequency * x + self.phase)


class LinearBase:
    """Linear field v(x) = A x; bounded only on the declared ball.

    The stored sup bound is valid for |x| <= sup_radius, which is all the
    frozen-field experiments need.
    """

    def __init__(self, matrix, sup_radius: float):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.sup_radius = float(sup_radius)
        self.lip = float(np.linalg.norm(self.matrix, 2))
        self.sup = self.lip * self.sup_radius

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.matrix.T


# --- interaction kernels ------------------------------------------------------

class ZeroKernel:
    sup = 0.0
    lip = 0.0

    def make_conv(self, src_pos, src_w):
        def conv(x):
            return np.zeros_like(x)
        return conv


class _ConvWorkspace(threading.local):
    """Grow-only work arrays of the 1-d bump convolution, one set per thread.

    A call on n points uses the first n rows.  Capacity at least doubles
    when it grows, so a run whose atom count grows a little every step
    reallocates O(log n) times.  Fresh arrays of this size on every scheme
    step cost more than the arithmetic on them: glibc trims the freed top
    of the heap after each step, and the next step faults the same memory
    in again (docs/derivations.md section 11).
    """

    def __init__(self):
        self.capacity = 0
        self.n = -1

    def arrays(self, n: int):
        """Views of n rows: two (n, 5) row gathers and three (n,) columns.

        The views of the last n are kept, since a run calls with the same n
        many times in a row."""
        if n != self.n:
            if n > self.capacity:
                self.capacity = max(n, 2 * self.capacity)
                self.rows = np.empty((2, self.capacity, 5))
                self.columns = np.empty((3, self.capacity))
            rows, columns = self.rows[:, :n], self.columns[:, :n]
            self.n = n
            self.views = rows[0], rows[1], columns[0], columns[1], columns[2]
        return self.views


class BumpKernel:
    """C^1 bump of compact support: K(z) = h * (1 - (|z|/r)^2)^2 * u for |z| < r.

    ``u`` is a fixed unit direction (first axis by default; in one dimension
    the kernel is just the scalar bump).  Exact constants:
    sup |K| = h and Lip(K) = 8 h / (3 sqrt(3) r).
    """

    def __init__(self, radius: float, height: float, direction=None, dim: int = 1):
        if radius <= 0:
            raise ValueError("bump radius must be positive")
        self.radius = float(radius)
        self.height = float(height)
        if direction is None:
            direction = np.zeros(dim)
            direction[0] = 1.0
        self.direction = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(self.direction)
        if norm == 0:
            raise ValueError("bump direction must be nonzero")
        self.direction = self.direction / norm
        self.sup = abs(self.height)
        self.lip = abs(self.height) * _BUMP_SLOPE / self.radius
        self._workspace = _ConvWorkspace()

    def profile(self, sq_dist_over_r2: np.ndarray) -> np.ndarray:
        return self.height * np.clip(1.0 - sq_dist_over_r2, 0.0, None) ** 2

    def make_conv(self, src_pos, src_w):
        """Closure evaluating sum_i w_i K(x - y_i) on batches of points.

        In one dimension the bump is a quartic polynomial of x on the window
        |x - y| < r, so the convolution is that quartic with windowed sums of
        its five coefficients.  The coefficients are taken in the centered,
        scaled coordinate t = (x - c) / r, with c the midpoint of the source
        span, and stored as one (n + 1, 5) prefix-sum table; each point costs
        two binary searches, one row gather per window edge and a Horner
        evaluation (docs/derivations.md section 11).  Sources that are already
        sorted, as a canonical measure is, skip the sort.  The gathers, the
        window edges, t and the Horner accumulator are written into the
        kernel's per-thread workspace (:class:`_ConvWorkspace`), reused from
        call to call; each call still returns a fresh array.  Higher
        dimensions fall back to chunked pairwise evaluation.
        """
        if src_pos.shape[0] == 0:
            return ZeroKernel().make_conv(src_pos, src_w)
        if src_pos.shape[1] == 1:
            ys, ws = src_pos[:, 0], src_w
            if np.any(ys[1:] < ys[:-1]):
                order = np.argsort(ys, kind="stable")
                ys, ws = ys[order], ws[order]
            r = self.radius
            c = 0.5 * (ys[0] + ys[-1])
            s = (ys - c) / r
            s2 = s * s
            # rows rounded up to a power of two: consecutive scheme steps,
            # whose atom counts differ by a few, then ask for the same size,
            # and each step reuses the memory the last one freed
            coef = np.empty((1 << ys.shape[0].bit_length(), 5))[:ys.shape[0] + 1]
            coef[0] = 0.0
            coef[1:, 0] = (1.0 - s2) ** 2
            coef[1:, 1] = 4.0 * s * (1.0 - s2)
            coef[1:, 2] = 6.0 * s2 - 2.0
            coef[1:, 3] = -4.0 * s
            coef[1:, 4] = 1.0
            coef[1:] *= (self.height * ws)[:, None]
            # cumulated and differenced in place: extra (n, 5) temporaries per
            # step fragment the heap that a trajectory's snapshots keep alive
            prefix = np.cumsum(coef, axis=0, out=coef)
            direction = self.direction
            workspace = self._workspace

            def conv(x):
                xv = x[:, 0]
                m, m_lo, edge, t, vals = workspace.arrays(xv.shape[0])
                lo = np.searchsorted(ys, np.subtract(xv, r, out=edge), side="left")
                hi = np.searchsorted(ys, np.add(xv, r, out=edge), side="right")
                # searchsorted on the n source points returns 0..n, all rows
                # of the (n + 1)-row prefix table, so "clip" never clips; it
                # lets take write straight into ``out``, which "raise" buffers
                np.take(prefix, hi, axis=0, out=m, mode="clip")
                np.take(prefix, lo, axis=0, out=m_lo, mode="clip")
                m -= m_lo
                np.subtract(xv, c, out=t)
                t /= r
                np.multiply(m[:, 4], t, out=vals)
                for q in (3, 2, 1):
                    vals += m[:, q]
                    vals *= t
                vals += m[:, 0]
                return vals[:, None] * direction

            return conv

        r2 = self.radius ** 2
        direction = self.direction

        def conv(x):
            out = np.zeros(x.shape[0])
            chunk = max(1, 2_000_000 // max(src_pos.shape[0], 1))
            for start in range(0, x.shape[0], chunk):
                xs = x[start:start + chunk]
                diff = xs[:, None, :] - src_pos[None, :, :]
                q = np.sum(diff * diff, axis=2) / r2
                out[start:start + chunk] = self.profile(q) @ src_w
            return out[:, None] * direction

        return conv


# --- models -------------------------------------------------------------------

@dataclass(frozen=True)
class FieldConstants:
    """Certified bounds of a velocity model.

    L : spatial Lipschitz bound of v[mu], uniform over admissible measures.
    M : sup-norm bound of v[mu], uniform over admissible measures.
    N : Lipschitz bound of mu -> v[mu] in sup norm w.r.t. the generalized
        distance; the closed form used here is valid for p = 1.
    """

    L: float
    M: float
    N: float


@dataclass(frozen=True)
class FlowConfig:
    """Inner ODE step of the flow integrator (classical fixed-step RK4)."""

    ode_step: float = 1.0 / 1024.0

    def __post_init__(self):
        if self.ode_step <= 0:
            raise ValueError("ode_step must be positive")


@dataclass(frozen=True)
class VectorFieldModel:
    """Measure-dependent velocity v[mu](x) = base(x) + (K * mu)(x).

    ``mass_cap`` declares the largest measure mass for which the stored
    constants are valid; the particle scheme keeps trajectory masses below
    it by construction.
    """

    base: object
    kernel: object
    constants: FieldConstants
    mass_cap: float

    def make_evaluator(self, frozen: DiscreteMeasure):
        """Field frozen at ``frozen``: a closure mapping (n, d) points to
        velocities, with the kernel convolution state precomputed."""
        conv = self.kernel.make_conv(frozen.positions, frozen.weights)
        base = self.base

        def field(x):
            # conv returns a fresh array, so the sum can go into it
            v = conv(x)
            v += base(x)
            return v

        return field


def derive_constants(base, kernel, mass_cap: float, params: GwParams) -> FieldConstants:
    """Closed-form constants for base + convolution models.

    For |mu| <= mass_cap:
        |v[mu](x) - v[mu](x')| <= (Lip(base) + mass_cap * Lip(K)) |x - x'|
        |v[mu](x)| <= sup|base| + mass_cap * sup|K|
    and, splitting an optimal decomposition of the generalized distance into
    removed and transported parts (p = 1),
        ||v[mu] - v[nu]||_C0 <= max(sup|K| / a, Lip(K) / b) * gw(mu, nu).
    """
    return FieldConstants(
        L=base.lip + mass_cap * kernel.lip,
        M=base.sup + mass_cap * kernel.sup,
        N=max(kernel.sup / params.a, kernel.lip / params.b),
    )


_BASE_KINDS = {"constant", "zero", "sine", "linear"}
_KERNEL_KINDS = {"bump", "zero"}


def build_velocity_model(config: dict, params: GwParams, mass_cap: float,
                         dim: int = 1) -> VectorFieldModel:
    """Build a model from its JSON description.

    Schema: {"base": {"kind": "constant", "c": [..]} | {"kind": "zero"} |
    {"kind": "sine", "amplitude": [..], "frequency": [..], "phase": [..]} |
    {"kind": "linear", "matrix": [[..]], "sup_radius": r},
    "kernel": {"kind": "bump", "radius": r, "height": h, "direction": [..]}
    | {"kind": "zero"}}.
    """
    base_cfg = dict(config.get("base", {"kind": "zero"}))
    kern_cfg = dict(config.get("kernel", {"kind": "zero"}))
    kind = base_cfg.pop("kind", None)
    if kind not in _BASE_KINDS:
        raise ValueError(f"unknown base field kind: {kind!r}")
    if kind == "constant":
        base = ConstantBase(base_cfg["c"])
    elif kind == "zero":
        base = ZeroBase(dim)
    elif kind == "sine":
        base = SineBase(base_cfg["amplitude"], base_cfg["frequency"],
                        base_cfg.get("phase"))
    else:
        base = LinearBase(base_cfg["matrix"], base_cfg["sup_radius"])
    kind = kern_cfg.pop("kind", None)
    if kind not in _KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind: {kind!r}")
    if kind == "bump":
        kernel = BumpKernel(kern_cfg["radius"], kern_cfg["height"],
                            kern_cfg.get("direction"), dim=dim)
    else:
        kernel = ZeroKernel()
    constants = derive_constants(base, kernel, mass_cap, params)
    return VectorFieldModel(base, kernel, constants, mass_cap)


def flow_pushforward(model: VectorFieldModel, carrier: DiscreteMeasure,
                     frozen: DiscreteMeasure, t: float,
                     cfg: FlowConfig = FlowConfig()) -> DiscreteMeasure:
    """Push ``carrier`` along the flow of the field frozen at ``frozen``.

    Every atom is integrated for time t with fixed-step RK4 (at most
    ``cfg.ode_step`` per step); weights are untouched, so the mass is
    preserved exactly.
    """
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    if t == 0 or carrier.n_atoms == 0:
        return carrier
    field = model.make_evaluator(frozen)
    steps = max(1, int(math.ceil(t / cfg.ode_step - 1e-12)))
    h = t / steps
    x = carrier.positions.copy()
    # the textbook stage points and increment, same operations in the same
    # order, written into two buffers instead of fresh arrays
    stage = np.empty_like(x)
    incr = np.empty_like(x)
    for _ in range(steps):
        k1 = field(x)
        k2 = field(np.add(x, np.multiply(0.5 * h, k1, out=stage), out=stage))
        k3 = field(np.add(x, np.multiply(0.5 * h, k2, out=stage), out=stage))
        k4 = field(np.add(x, np.multiply(h, k3, out=stage), out=stage))
        np.multiply(2.0, k2, out=incr)
        np.add(k1, incr, out=incr)
        incr += np.multiply(2.0, k3, out=stage)
        incr += k4
        x += np.multiply(h / 6.0, incr, out=incr)
    return DiscreteMeasure(carrier.dim, x, carrier.weights)

