"""Sample-and-hold Lagrangian scheme for transport dynamics with source.

Level k discretizes [0, T] into 2^k steps of length dt.  One step freezes
the velocity and the source at the current measure, pushes every atom
forward for dt along the frozen field, then deposits dt times the frozen
source:

    mu_{n+1} = Phi_dt # mu_n + dt * h[mu_n].

Intermediate times interpolate the same way with the partial time tau.
Deposited mass lands on the fixed quadrature sites of the source and is
advected by all later steps, so the atom count grows by one site cloud per
step (it stays constant only when the velocity vanishes and deposits merge
in place).

Diagnostics: :func:`cauchy_table` measures the level-to-level distance
D_k = sup_t gw(mu^k_t, mu^{k+1}_t) over shared grid times and compares it
with the a priori bound 2 C2 T^2 / 2^k built from the certified model
constants; :func:`continuous_dependence_check` compares two runs from
different initial data against the exponential stability bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .flows import FlowConfig, VectorFieldModel, build_velocity_model, flow_pushforward
from .gw import GwParams, gw_distance
from .measures import (DiscreteMeasure, add, canonicalize, scale, support_radius,
                       total_mass)


# --- source models -----------------------------------------------------------

class ConstantModulation:
    """Mass-independent source intensity."""

    def __init__(self, value: float = 1.0):
        if value < 0:
            raise ValueError("modulation value must be nonnegative")
        self.value = float(value)
        self.sup = self.value
        self.lip = 0.0

    def __call__(self, mass: float) -> float:
        return self.value


class SaturatingModulation:
    """Intensity max(0, 1 - mass / max_mass): the source shuts off as the
    total mass approaches max_mass."""

    def __init__(self, max_mass: float):
        if max_mass <= 0:
            raise ValueError("max_mass must be positive")
        self.max_mass = float(max_mass)
        self.sup = 1.0
        self.lip = 1.0 / self.max_mass

    def __call__(self, mass: float) -> float:
        return max(0.0, 1.0 - mass / self.max_mass)


@dataclass(frozen=True)
class SourceModel:
    """Measure-dependent source h[mu] = modulation(|mu|) * quadrature_cloud.

    Certified constants: P bounds the source mass (|h[mu]| <= P for all mu),
    R bounds the support radius (supp h[mu] inside the closed ball B_R(0)),
    and Q is the Lipschitz bound gw(h[mu], h[nu]) <= Q gw(mu, nu).  For the
    scalar-modulated cloud these are P = |cloud| * sup(mod),
    Q = |cloud| * Lip(mod); see docs/derivations.md for Q.
    """

    quadrature_cloud: DiscreteMeasure
    modulation: object
    P: float
    R: float
    Q: float

    def __post_init__(self):
        if support_radius(self.quadrature_cloud) > self.R + 1e-12:
            raise ValueError("quadrature cloud exceeds the declared support radius")

    def evaluate(self, mu: DiscreteMeasure) -> DiscreteMeasure:
        return scale(self.quadrature_cloud, self.modulation(total_mass(mu)))


def bump_quadrature_source(radius: float, sites: int, mass: float,
                           modulation=None, center: float = 0.0) -> SourceModel:
    """1-d source: ``sites`` midpoint quadrature atoms of a C^1 bump density
    on [center - radius, center + radius], normalized to total ``mass``."""
    if sites < 1:
        raise ValueError("need at least one quadrature site")
    modulation = modulation or ConstantModulation(1.0)
    xs = center - radius + (np.arange(sites) + 0.5) * (2.0 * radius / sites)
    density = (1.0 - ((xs - center) / radius) ** 2) ** 2
    weights = density / np.sum(density) * mass
    cloud = DiscreteMeasure(1, xs.reshape(-1, 1), weights)
    support = float(np.max(np.abs(xs))) if sites else 0.0
    return SourceModel(cloud, modulation, P=mass * modulation.sup,
                       R=max(support, abs(center) + radius), Q=mass * modulation.lip)


def build_source_model(config: dict) -> SourceModel:
    """Build a source from its JSON description.

    Schema: {"kind": "bump_quadrature", "radius": r, "sites": n, "mass": m,
    "center": c, "modulation": {"kind": "constant", "value": v} |
    {"kind": "saturating", "max_mass": M}} or {"kind": "zero", "dim": d}.
    """
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind == "zero":
        cloud = DiscreteMeasure.zero(int(cfg.get("dim", 1)))
        return SourceModel(cloud, ConstantModulation(0.0), P=0.0, R=0.0, Q=0.0)
    if kind != "bump_quadrature":
        raise ValueError(f"unknown source kind: {kind!r}")
    mod_cfg = dict(cfg.pop("modulation", {"kind": "constant", "value": 1.0}))
    mod_kind = mod_cfg.pop("kind", "constant")
    if mod_kind == "constant":
        modulation = ConstantModulation(mod_cfg.get("value", 1.0))
    elif mod_kind == "saturating":
        modulation = SaturatingModulation(mod_cfg["max_mass"])
    else:
        raise ValueError(f"unknown modulation kind: {mod_kind!r}")
    return bump_quadrature_source(cfg["radius"], int(cfg["sites"]), cfg["mass"],
                                  modulation, cfg.get("center", 0.0))


# --- trajectories --------------------------------------------------------------

def _step(velocity: VectorFieldModel, source: SourceModel, current: DiscreteMeasure,
          tau: float, cfg: FlowConfig) -> DiscreteMeasure:
    """One scheme step of length tau: push ``current`` along the field frozen
    at it, then deposit tau times the source frozen at it."""
    moved = flow_pushforward(velocity, current, current, tau, cfg)
    deposit = scale(source.evaluate(current), tau)
    return canonicalize(add(moved, deposit))


@dataclass(frozen=True)
class Trajectory:
    """Dyadic-grid run of the scheme at one refinement level.

    ``snapshots[n]`` is (n * dt, measure) for n = 0..2^k; intermediate times
    are reconstructed by :meth:`at` with the frozen-field interpolation the
    scheme itself uses.
    """

    level: int
    T: float
    snapshots: tuple[tuple[float, DiscreteMeasure], ...]
    velocity: VectorFieldModel
    source: SourceModel
    cfg: FlowConfig

    @property
    def dt(self) -> float:
        return self.T / (1 << self.level)

    def at(self, t: float) -> DiscreteMeasure:
        """Measure at an arbitrary time in [0, T]."""
        if not 0.0 <= t <= self.T + 1e-12:
            raise ValueError(f"time {t} outside [0, {self.T}]")
        dt = self.dt
        n = min(int(math.floor(t / dt + 1e-12)), len(self.snapshots) - 1)
        tau = t - n * dt
        base = self.snapshots[n][1]
        if tau <= 1e-14:
            return base
        return _step(self.velocity, self.source, base, tau, self.cfg)

    def masses(self) -> np.ndarray:
        return np.array([total_mass(m) for _, m in self.snapshots])

    def constants(self, p: float = 1.0) -> dict:
        """Certified constants of the run, including m = (|mu_0| + P)^(1/p)
        and the scheme constants C1 = 5L + 4mN + Q, C2 = mN(Mm + P) + MP/4."""
        c = self.velocity.constants
        mass0 = total_mass(self.snapshots[0][1])
        m = (mass0 + self.source.P) ** (1.0 / p)
        c1 = 5.0 * c.L + 4.0 * m * c.N + self.source.Q
        c2 = m * c.N * (c.M * m + self.source.P) + c.M * self.source.P / 4.0
        return {"L": c.L, "M": c.M, "N": c.N, "P": self.source.P,
                "R": self.source.R, "Q": self.source.Q, "m": m,
                "C1": c1, "C2": c2}


def sample_and_hold(mu0: DiscreteMeasure, velocity: VectorFieldModel,
                    source: SourceModel, T: float, level: int,
                    cfg: FlowConfig = FlowConfig(), max_level: int = 10) -> Trajectory:
    """Run the scheme at dyadic level ``level`` (dt = T / 2^level).

    Each snapshot is canonicalized, so deposits landing on occupied sites
    merge; ``max_level`` caps the memory footprint since atom counts grow
    linearly with the step count whenever the velocity moves old deposits
    off the quadrature sites.

    A base field whose sup bound holds only on a ball (``sup_radius``, as
    for the linear field) is checked on every snapshot: an atom outside
    the ball raises ValueError, since the model constants no longer hold.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if level < 0 or int(level) != level:
        raise ValueError("level must be a nonnegative integer")
    if level > max_level:
        raise ValueError(
            f"level {level} exceeds the memory cap {max_level}; raise max_level explicitly")
    if total_mass(mu0) + source.P > velocity.mass_cap + 1e-9:
        raise ValueError(
            "velocity constants certified up to mass "
            f"{velocity.mass_cap}, but the run can reach {total_mass(mu0) + source.P}")
    steps = 1 << level
    dt = T / steps
    current = canonicalize(mu0)
    snaps = [(0.0, current)]
    for n in range(steps):
        current = _step(velocity, source, current, dt, cfg)
        snaps.append(((n + 1) * dt, current))
    radius = getattr(velocity.base, "sup_radius", None)
    if radius is not None:
        for t, snap in snaps:
            if support_radius(snap) > radius:
                raise ValueError(
                    f"at t = {t} an atom lies at |x| = {support_radius(snap)}, outside the "
                    f"radius {radius} on which the base field's sup bound holds")
    return Trajectory(level, T, tuple(snaps), velocity, source, cfg)


def _warn_if_not_p1(params: GwParams):
    if params.p != 1.0:
        warnings.warn(
            "the certified measure-sensitivity constant N is derived for p = 1; "
            f"bounds computed at p = {params.p} use it outside its certificate",
            stacklevel=3)


# --- diagnostics ----------------------------------------------------------------

@dataclass(frozen=True)
class CauchyRow:
    level: int
    d_k: float
    bound: float


@dataclass(frozen=True)
class CauchyTable:
    rows: tuple[CauchyRow, ...]
    slope: float | None
    constants: dict


def cauchy_table(mu0: DiscreteMeasure, velocity: VectorFieldModel,
                 source: SourceModel, T: float, k_min: int, k_max: int,
                 params: GwParams, cfg: FlowConfig = FlowConfig(),
                 max_level: int = 10) -> CauchyTable:
    """Level-to-level sup distances D_k and the certified decay bound.

    D_k = max over the level-k grid times of gw(mu^k_t, mu^{k+1}_t); the
    recursion constant gives D_k <= 2 C2 T^2 / 2^k.  The fitted slope of
    log2 D_k against k (levels with D_k > 0) should approach -1.
    """
    if k_max < k_min:
        raise ValueError("k_max must be >= k_min")
    _warn_if_not_p1(params)
    trajectories = {k: sample_and_hold(mu0, velocity, source, T, k, cfg, max_level)
                    for k in range(k_min, k_max + 2)}
    rows = []
    for k in range(k_min, k_max + 1):
        coarse = trajectories[k]
        fine = trajectories[k + 1]
        d_k = 0.0
        for n, (_, snap) in enumerate(coarse.snapshots):
            d = gw_distance(snap, fine.snapshots[2 * n][1], params).value
            d_k = max(d_k, d)
        rows.append((k, d_k))
    constants = trajectories[k_min].constants(params.p)
    c2 = constants["C2"]
    table = tuple(CauchyRow(k, d, 2.0 * c2 * T * T / (1 << k)) for k, d in rows)
    positive = [(k, d) for k, d in rows if d > 0]
    slope = None
    if len(positive) >= 2:
        ks = np.array([k for k, _ in positive], dtype=float)
        logs = np.log2([d for _, d in positive])
        slope = float(np.polyfit(ks, logs, 1)[0])
    return CauchyTable(table, slope, constants)


@dataclass(frozen=True)
class DependenceRow:
    t: float
    distance: float
    bound: float


def continuous_dependence_check(mu0: DiscreteMeasure, nu0: DiscreteMeasure,
                                velocity: VectorFieldModel, source: SourceModel,
                                T: float, level: int, params: GwParams,
                                cfg: FlowConfig = FlowConfig(),
                                max_level: int = 10) -> list[DependenceRow]:
    """Distance between two runs against the exponential stability bound.

    Both initial data evolve under the same models at the same level; at
    every grid time the distance is compared with
    exp(t * (((p+1)/p) L + 2 m N + Q + 1)) * gw(mu_0, nu_0).
    """
    _warn_if_not_p1(params)
    traj_mu = sample_and_hold(mu0, velocity, source, T, level, cfg, max_level)
    traj_nu = sample_and_hold(nu0, velocity, source, T, level, cfg, max_level)
    c = velocity.constants
    p = params.p
    m = (max(total_mass(mu0), total_mass(nu0)) + source.P) ** (1.0 / p)
    rate = (p + 1.0) / p * c.L + 2.0 * m * c.N + source.Q + 1.0
    # the t = 0 snapshots are the canonical initial data, so the first
    # distance is gw(mu_0, nu_0), the base of every bound
    dists = [gw_distance(snap_mu, snap_nu, params).value
             for (_, snap_mu), (_, snap_nu) in zip(traj_mu.snapshots, traj_nu.snapshots)]
    return [DependenceRow(t, dist, math.exp(rate * t) * dists[0])
            for (t, _), dist in zip(traj_mu.snapshots, dists)]


def reference_problem():
    """The 1-d nonlocal test problem used by the convergence experiments.

    40 equal atoms spread over [-1, 0] with unit total mass; drift 0.5 plus
    a bump-kernel interaction of radius 0.5 and height 0.3; a 10-site bump
    quadrature source of mass 0.2 on [-0.25, 0.25] with constant intensity.
    Small enough that every generalized-distance solve along a trajectory is
    instant, rich enough that both the velocity and the source depend on the
    measure.  Returns (mu0, velocity, source, params).
    """
    n = 40
    xs = -1.0 + (np.arange(n) + 0.5) / n
    mu0 = DiscreteMeasure(1, xs.reshape(-1, 1), np.full(n, 1.0 / n))
    params = GwParams(a=1.0, b=1.0, p=1.0)
    source = build_source_model({
        "kind": "bump_quadrature", "radius": 0.25, "sites": 10, "mass": 0.2,
        "modulation": {"kind": "constant", "value": 1.0},
    })
    velocity = build_velocity_model(
        {"base": {"kind": "constant", "c": [0.5]},
         "kernel": {"kind": "bump", "radius": 0.5, "height": 0.3}},
        params, mass_cap=total_mass(mu0) + source.P)
    return mu0, velocity, source, params
