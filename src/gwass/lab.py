"""Verification suites and machine-readable reports.

Each suite re-derives a family of exact identities or inequalities from the
library primitives and reports one row per check: the quantity computed,
the bound or expected value it is held against, the tolerance, and a pass
flag.  A check evaluated on many instances reports its worst one.  The
seeded suites, ``metric``, ``flows`` and ``scheme``, draw from a generator
seeded by ``seed`` (``GWASS_SEED`` overrides the default), so reports are
reproducible byte for byte; the other three draw nothing and report no seed.
:data:`SUITES` names the options each suite reads.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (cauchy_table, continuous_dependence_check,
                       reference_problem, sample_and_hold)
from .flows import (ConstantBase, FlowConfig, VectorFieldModel, build_velocity_model,
                    flow_pushforward)
from .gw import GwParams, gw_distance, levy_prokhorov_1d
from .measures import DiscreteMeasure, add, scale, total_mass
from .transport import wasserstein

DEFAULT_SEED = 20121


def resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return int(seed)
    env = os.environ.get("GWASS_SEED")
    return int(env) if env else DEFAULT_SEED


@dataclass(frozen=True)
class CheckResult:
    """One verified statement: lhs against rhs at the given tolerance."""

    check_id: str
    statement: str
    lhs: float
    rhs: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.lhs <= self.rhs + self.tolerance)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]
    seed: int | None = None
    constants: dict = field(default_factory=dict)
    wall_time_s: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        # wall time is excluded so identical inputs give identical reports
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "constants": {k: float(v) for k, v in sorted(self.constants.items())},
            "checks": [
                {"id": c.check_id, "statement": c.statement, "lhs": c.lhs,
                 "rhs": c.rhs, "tolerance": c.tolerance, "passed": c.passed}
                for c in self.checks
            ],
        }

    def format_table(self) -> str:
        lines = [f"suite: {self.suite}" + (f"  (seed {self.seed})" if self.seed is not None else "")]
        if self.constants:
            lines.append("constants: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(self.constants.items())))
        width = max((len(c.check_id) for c in self.checks), default=10)
        for c in self.checks:
            flag = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{flag}] {c.check_id:<{width}}  lhs={c.lhs:.6g}  rhs={c.rhs:.6g}"
                         f"  tol={c.tolerance:.1g}  :: {c.statement}")
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.wall_time_s:.2f}s)" if self.wall_time_s is not None else ""
        lines.append(f"overall: {status}{extra}")
        return "\n".join(lines)


def random_measure(rng: np.random.Generator, max_atoms: int = 8, dim: int = 1,
                   box: float = 2.0,
                   weight_range: tuple[float, float] = (0.05, 2.0)) -> DiscreteMeasure:
    n = int(rng.integers(1, max_atoms + 1))
    pos = rng.uniform(-box, box, (n, dim))
    w = rng.uniform(*weight_range, n)
    return DiscreteMeasure(dim, pos, w)


def _worst(checks: Iterable[CheckResult]) -> tuple[CheckResult, ...]:
    """Per check id, in first-seen order, the check of largest lhs - rhs
    (the first one on ties)."""
    worst = {}
    for check in checks:
        kept = worst.get(check.check_id)
        if kept is None or check.lhs - check.rhs > kept.lhs - kept.rhs:
            worst[check.check_id] = check
    return tuple(worst.values())


# --- metric suite ---------------------------------------------------------------

def run_metric_suite(trials: int = 1000, seed: int | None = None) -> SuiteReport:
    """Metric axioms and structural bounds on random instances.

    Per trial: three random measures (<= 8 atoms, dim <= 3), random
    a, b in [0.1, 10] and p in {1, 2}.  Aggregates the worst margin of each
    property over all trials.
    """
    t0 = time.time()
    rng = np.random.default_rng(resolve_seed(seed))
    checks = []
    for _ in range(trials):
        dim = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        params = GwParams(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0), p)
        mu = random_measure(rng, dim=dim)
        nu = random_measure(rng, dim=dim)
        eta = random_measure(rng, dim=dim)
        g_mn = gw_distance(mu, nu, params).value
        g_nm = gw_distance(nu, mu, params).value
        g_ne = gw_distance(nu, eta, params).value
        g_me = gw_distance(mu, eta, params).value
        scale_ref = max(1.0, g_mn, g_me)
        wm, wn = total_mass(mu), total_mass(nu)
        g_sum = gw_distance(add(mu, nu), add(nu, eta), params).value
        k = float(rng.uniform(0.0, 3.0))
        g_k = gw_distance(scale(mu, k), scale(nu, k), params).value
        checks += [
            CheckResult("symmetry", "gw(mu,nu) = gw(nu,mu)",
                        abs(g_mn - g_nm) / scale_ref, 0.0, 1e-9),
            CheckResult("triangle", "gw(mu,eta) <= gw(mu,nu) + gw(nu,eta)",
                        (g_me - g_mn - g_ne) / scale_ref, 0.0, 1e-9),
            CheckResult("lower_bound", "a*| |mu|-|nu| | <= gw(mu,nu)",
                        params.a * abs(wm - wn) - g_mn, 0.0, 1e-9),
            CheckResult("upper_bound", "gw(mu,nu) <= a*(|mu|+|nu|)",
                        g_mn - params.a * (wm + wn), 0.0, 1e-9),
            CheckResult("subadditivity", "gw(mu1+mu2,nu1+nu2) <= gw(mu1,nu1)+gw(mu2,nu2)",
                        (g_sum - g_mn - g_ne) / max(1.0, g_sum), 0.0, 1e-9),
            CheckResult("scaling", "gw(k*mu,k*nu) <= max(k^(1/p),k)*gw(mu,nu)",
                        (g_k - max(k ** (1.0 / p), k) * g_mn) / max(1.0, g_k), 0.0, 1e-9),
            CheckResult("identity", "gw(mu,mu) = 0",
                        gw_distance(mu, mu, params).value, 0.0, 1e-9),
        ]
    return SuiteReport("metric", _worst(checks), seed=resolve_seed(seed),
                       constants={"trials": trials},
                       wall_time_s=time.time() - t0)


# --- closed-form examples suite ---------------------------------------------------

#: Atoms of each unit box in the two-box family.
BOX_ATOMS = 200


def box_measure(offset: float) -> DiscreteMeasure:
    """Midpoint discretization, on BOX_ATOMS atoms, of the uniform unit-mass
    density on [offset, offset + 1]."""
    xs = offset + (np.arange(BOX_ATOMS) + 0.5) / BOX_ATOMS
    return DiscreteMeasure(1, xs.reshape(-1, 1), np.full(BOX_ATOMS, 1.0 / BOX_ATOMS))


def box_closed_form(offset: float) -> float:
    """Exact distance between unit boxes at gap ``offset`` for a = b = p = 1.

    Keeping mass y from the facing ends of each box costs
    2(1 - y) + y*offset + y^2, minimized at y = (2 - offset)/2 clipped to
    [0, 1]."""
    y = min(max((2.0 - offset) / 2.0, 0.0), 1.0)
    return 2.0 - 2.0 * y + offset * y + y * y


def run_examples_suite() -> SuiteReport:
    """Closed-form reproductions: point masses, the two-box family, the
    mass-splitting two-atom instance, and the comparator cases."""
    t0 = time.time()
    checks = []

    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            for x in np.arange(0.1, 5.0 + 1e-12, 0.1):
                got = gw_distance(DiscreteMeasure.dirac(0.0),
                                  DiscreteMeasure.dirac(float(x)),
                                  GwParams(a, b, 1.0)).value
                checks.append(CheckResult("dirac_formula", "gw(delta_0, delta_x) = min{2a, b*x}",
                                          abs(got - min(2.0 * a, b * x)), 0.0, 1e-9))

    mu = DiscreteMeasure.from_atoms(1, [([1.0], 2.0)])
    nu = DiscreteMeasure.from_atoms(1, [([0.0], 1.0), ([2.0], 1.0)])
    got = gw_distance(mu, nu, GwParams(1.0, 1.0, 1.0)).value
    checks.append(CheckResult("two_atom", "gw(2delta_1, delta_0+delta_2; 1,1,1) = 2",
                              abs(got - 2.0), 0.0, 1e-9))
    plan = wasserstein(mu, nu, 1.0).plan
    checks.append(CheckResult("monge_split",
                              "no map moves 2delta_1 to delta_0+delta_2: the plan must split",
                              2.0, float(plan.flows.size), 0.0))

    for x in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        got = gw_distance(box_measure(-1.0), box_measure(x),
                          GwParams(1.0, 1.0, 1.0)).value
        checks.append(CheckResult(f"box_x={x}",
                                  "unit boxes: gw = min_y 2-2y+xy+y^2, y*=(2-x)/2 on [0,2]",
                                  abs(got - box_closed_form(x)), 0.0, 0.02))

    mu = DiscreteMeasure.dirac(0.0)
    close = DiscreteMeasure.from_atoms(1, [([-0.2], 0.5), ([0.4], 0.5)])
    mixed = DiscreteMeasure.from_atoms(1, [([-0.3], 0.5), ([1.5], 0.5)])
    checks.append(CheckResult("lp_very_close", "d_LP(delta_0, mix at -0.2/0.4) = d_2 = 0.4",
                              abs(levy_prokhorov_1d(mu, close) - 0.4), 0.0, 1e-9))
    checks.append(CheckResult("lp_mixed", "d_LP(delta_0, mix at -0.3/1.5) = sup{1/2, d_1} = 0.5",
                              abs(levy_prokhorov_1d(mu, mixed) - 0.5), 0.0, 1e-9))

    return SuiteReport("examples", _worst(checks), constants={"box_atoms": BOX_ATOMS},
                       wall_time_s=time.time() - t0)


# --- flow estimates suite -----------------------------------------------------------

#: Slack of the three flow bounds: both sides come from RK4 pushforwards.
FLOW_TOL = 1e-6


def frozen_gap_bound(model: VectorFieldModel, mu: DiscreteMeasure,
                     model2: VectorFieldModel, nu: DiscreteMeasure) -> float:
    """Certified upper bound on sup_x |v[mu](x) - w[nu](x)|.

    Exact for two constant bases; otherwise the base parts are bounded by
    the triangle inequality.  Kernel parts are bounded by sup|K| * mass.
    """
    if isinstance(model.base, ConstantBase) and isinstance(model2.base, ConstantBase):
        base_gap = float(np.linalg.norm(model.base.c - model2.base.c))
    else:
        base_gap = model.base.sup + model2.base.sup
    return (base_gap + model.kernel.sup * total_mass(mu)
            + model2.kernel.sup * total_mass(nu))


def flow_estimate_report(model: VectorFieldModel, model2: VectorFieldModel,
                         mu: DiscreteMeasure, nu: DiscreteMeasure, t: float,
                         params: GwParams,
                         cfg: FlowConfig = FlowConfig()) -> tuple[CheckResult, ...]:
    """The three flow stability bounds at time t, as checks at FLOW_TOL.

    v is the field of ``model`` frozen at mu, w the field of ``model2``
    frozen at nu, L their largest certified Lipschitz constant, M the sup
    bound of v and p = ``params.p``; each check states its bound.  The
    displacement and mixed-field bounds carry the transport multiplier b:
    they are proved by splitting an optimal decomposition and paying b per
    unit of the inner W_p cost.  At b = 1 they reduce to the classical
    unscaled statements, which fail for b > 1: already for a point mass
    under a constant field, gw(delta_0, delta_ct) = b t |c| whenever
    b t |c| < 2a (docs/derivations.md section 4).
    """
    p = params.p
    base_dist = gw_distance(mu, nu, params).value
    push_mu_v = flow_pushforward(model, mu, mu, t, cfg)
    push_nu_v = flow_pushforward(model, nu, mu, t, cfg)
    push_nu_w = flow_pushforward(model2, nu, nu, t, cfg)
    lip = max(model.constants.L, model2.constants.L)
    growth = math.exp((p + 1.0) / p * lip * t)
    mass_root = total_mass(mu) ** (1.0 / p)
    if lip > 1e-12:
        mix = math.exp(lip * t / p) * (math.exp(lip * t) - 1.0) / lip
    else:
        mix = t
    return (
        CheckResult("same-field_contraction",
                    "gw(Phi_t#mu, Phi_t#nu) <= exp(((p+1)/p) L t) gw(mu,nu)",
                    gw_distance(push_mu_v, push_nu_v, params).value,
                    growth * base_dist, FLOW_TOL),
        CheckResult("displacement", "gw(mu, Phi_t#mu) <= b t ||v||_C0 |mu|^(1/p)",
                    gw_distance(mu, push_mu_v, params).value,
                    params.b * t * model.constants.M * mass_root, FLOW_TOL),
        CheckResult("mixed-field",
                    "gw(Phi^v_t#mu, Phi^w_t#nu) <= exp(((p+1)/p) L t) gw(mu,nu)"
                    " + b |mu|^(1/p) exp(Lt/p)(exp(Lt)-1)/L ||v-w||_C0",
                    gw_distance(push_mu_v, push_nu_w, params).value,
                    growth * base_dist
                    + params.b * mass_root * mix * frozen_gap_bound(model, mu, model2, nu),
                    FLOW_TOL),
    )


def _random_model(rng, params, dim, mass_cap):
    kind = rng.choice(["constant", "sine"])
    if kind == "constant":
        base = {"kind": "constant", "c": rng.uniform(-1.0, 1.0, dim).tolist()}
    else:
        base = {"kind": "sine",
                "amplitude": rng.uniform(-0.8, 0.8, dim).tolist(),
                "frequency": rng.uniform(0.3, 2.0, dim).tolist(),
                "phase": rng.uniform(0.0, 6.28, dim).tolist()}
    kernel = {"kind": "bump", "radius": float(rng.uniform(0.3, 1.0)),
              "height": float(rng.uniform(-0.5, 0.5))}
    return build_velocity_model({"base": base, "kernel": kernel}, params, mass_cap, dim=dim)


def run_flows_suite(trials: int = 100, seed: int | None = None) -> SuiteReport:
    """The three flow stability inequalities on randomized fields/measures;
    each check reports its worst trial."""
    t0 = time.time()
    rng = np.random.default_rng(resolve_seed(seed))
    checks = []
    cfg = FlowConfig(1.0 / 256.0)
    for _ in range(trials):
        dim = int(rng.integers(1, 3))
        p = float(rng.choice([1.0, 2.0]))
        params = GwParams(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), p)
        mu = random_measure(rng, max_atoms=6, dim=dim, box=1.5, weight_range=(0.05, 1.0))
        nu = random_measure(rng, max_atoms=6, dim=dim, box=1.5, weight_range=(0.05, 1.0))
        mass_cap = max(total_mass(mu), total_mass(nu)) + 0.1
        model = _random_model(rng, params, dim, mass_cap)
        model2 = _random_model(rng, params, dim, mass_cap)
        t = float(rng.uniform(0.0, 0.5))
        checks += flow_estimate_report(model, model2, mu, nu, t, params, cfg)
    return SuiteReport("flows", _worst(checks), seed=resolve_seed(seed),
                       constants={"trials": trials},
                       wall_time_s=time.time() - t0)


# --- scheme suite ----------------------------------------------------------------

def run_scheme_suite(seed: int | None = None) -> SuiteReport:
    """Reduced convergence and stability diagnostics on the reference problem.

    Checks the dyadic decay bound D_k <= 2 C2 / 2^k at levels 3..5, the
    fitted decay slope, the per-step displacement bound and the mass bound
    on the level-4 trajectory, and the continuous dependence bound for a
    shifted initial condition, all with an ODE step of 1/64.
    """
    t0 = time.time()
    mu0, velocity, source, params = reference_problem()
    cfg = FlowConfig(1.0 / 64.0)
    table = cauchy_table(mu0, velocity, source, 1.0, 3, 5, params, cfg)
    checks = []
    for row in table.rows:
        checks.append(CheckResult(
            f"cauchy_k={row.level}", "D_k <= 2*C2/2^k with C2 = m*N*(M*m+P) + M*P/4",
            row.d_k, row.bound, 1e-12))
    if table.slope is not None:
        checks.append(CheckResult("cauchy_slope", "fitted slope of log2 D_k vs k <= -0.8",
                                  table.slope, -0.8, 0.0))

    traj = sample_and_hold(mu0, velocity, source, 1.0, 4, cfg)
    consts = table.constants
    m_const = consts["m"]
    speed = consts["M"] * m_const + consts["P"]
    snaps = traj.snapshots
    rng = np.random.default_rng(resolve_seed(seed))
    idx = rng.integers(0, len(snaps), size=(24, 2))
    for i, j in idx:
        ti, mi = snaps[i]
        tj, mj = snaps[j]
        checks.append(CheckResult("step_difference", "gw(mu_t, mu_s) <= |t-s|*(M*m+P)",
                                  gw_distance(mi, mj, params).value,
                                  abs(ti - tj) * speed, 1e-6))
    mass_lhs = float(np.max(traj.masses()) ** (1.0 / params.p))
    checks.append(CheckResult("mass_bound", "|mu_t|^(1/p) <= m = (|mu_0|+P)^(1/p)",
                              mass_lhs, m_const, 1e-12))
    deposit = source.evaluate(mu0)
    dep_radius = float(np.max(np.abs(deposit.positions))) if deposit.n_atoms else 0.0
    checks.append(CheckResult("source_support", "deposited atoms lie in B_R(0)",
                              dep_radius, source.R, 0.0))

    shifted = DiscreteMeasure(1, mu0.positions + 0.05, mu0.weights)
    for row in continuous_dependence_check(mu0, shifted, velocity, source, 1.0, 4,
                                           params, cfg):
        checks.append(CheckResult(
            "continuous_dependence",
            "gw(mu_t,nu_t) <= exp(t*(2L+2mN+Q+1))*gw(mu_0,nu_0) at p=1",
            row.distance, row.bound, 1e-9))

    return SuiteReport("scheme", _worst(checks), seed=resolve_seed(seed),
                       constants=consts, wall_time_s=time.time() - t0)


# --- comparator suite --------------------------------------------------------------

def _three_atom_pair(d1: float, d2: float):
    mu = DiscreteMeasure.dirac(0.0)
    nu = DiscreteMeasure.from_atoms(1, [([-d1], 0.5), ([d2], 0.5)])
    return mu, nu


def run_prokhorov_suite() -> SuiteReport:
    """Four-regime comparison of the comparator metric with gw at a=1/2, b=1.

    For mu = delta_0 and nu = (delta_{-d1} + delta_{d2})/2 with d1 <= d2:
    both far (d1 >= 1), one close (d1 <= 1 <= d2), both close but not very
    (1/2 <= d2 <= 1), both very close (d2 <= 1/2).
    """
    t0 = time.time()
    a, b = 0.5, 1.0
    cases = [
        ("far", 1.5, 2.0, lambda d1, d2, p: 1.0, lambda d1, d2: 1.0),
        ("one_close", 0.3, 1.5,
         lambda d1, d2, p: 0.5 + 2.0 ** (-1.0 / p) * d1,
         lambda d1, d2: max(0.5, d1)),
        ("close_not_very", 0.4, 0.8,
         lambda d1, d2, p: ((d1 ** p + d2 ** p) / 2.0) ** (1.0 / p),
         lambda d1, d2: max(0.5, d1)),
        ("very_close", 0.2, 0.4,
         lambda d1, d2, p: ((d1 ** p + d2 ** p) / 2.0) ** (1.0 / p),
         lambda d1, d2: d2),
    ]
    checks = []
    for name, d1, d2, gw_formula, lp_formula in cases:
        mu, nu = _three_atom_pair(d1, d2)
        got_lp = levy_prokhorov_1d(mu, nu)
        checks.append(CheckResult(
            f"lp_{name}", f"d_LP regime '{name}' (d1={d1}, d2={d2})",
            abs(got_lp - lp_formula(d1, d2)), 0.0, 1e-9))
        for p in (1.0, 2.0):
            got = gw_distance(mu, nu, GwParams(a, b, p)).value
            checks.append(CheckResult(
                f"gw_{name}_p={p}", f"gw regime '{name}' at a=1/2, b=1 (d1={d1}, d2={d2})",
                abs(got - gw_formula(d1, d2, p)), 0.0, 1e-9))
    return SuiteReport("prokhorov", tuple(checks), wall_time_s=time.time() - t0)


# --- metrization suite ---------------------------------------------------------------

def run_metrization_suite() -> SuiteReport:
    """The escaping-atom sequence mu_k = (1 - 1/k) delta_0 + (1/k) delta_k.

    It converges weakly to delta_0 and indeed gw(mu_k, delta_0) <= 2/k -> 0
    (remove the escaping atom from mu_k and the same mass from delta_0, at
    a = 1, p = 1), while W_1(mu_k, delta_0) = (1/k) * k = 1 for every k:
    equal-mass transport must carry the far atom home.
    """
    t0 = time.time()
    k_max = 50
    params = GwParams(1.0, 1.0, 1.0)
    target = DiscreteMeasure.dirac(0.0)
    gws, checks, w1_checks = [], [], []
    for k in range(2, k_max + 1):
        mu_k = DiscreteMeasure.from_atoms(
            1, [([0.0], 1.0 - 1.0 / k), ([float(k)], 1.0 / k)])
        g = gw_distance(mu_k, target, params).value
        gws.append(g)
        checks.append(CheckResult("gw_bound", "gw(mu_k, delta_0) <= 2a/k",
                                  g, 2.0 / k, 1e-12))
        w1 = wasserstein(mu_k, target, 1.0).value
        w1_checks.append(CheckResult("w1_constant", "W_1(mu_k, delta_0) = 1 for all k",
                                     abs(w1 - 1.0), 0.0, 1e-9))
    checks += [
        CheckResult("gw_monotone", "gw(mu_k, delta_0) decreases to 0",
                    float(np.max(np.diff(gws))), 0.0, 1e-12),
        CheckResult("gw_limit", "gw(mu_k, delta_0) -> 0",
                    gws[-1], 2.0 / k_max, 1e-12),
    ]
    return SuiteReport("metrization", _worst(checks + w1_checks), constants={"k_max": k_max},
                       wall_time_s=time.time() - t0)


# --- dispatcher --------------------------------------------------------------------

#: Each suite's runner and the options it reads; ``run_suite`` rejects the rest.
SUITES = {
    "metric": (run_metric_suite, ("seed", "trials")),
    "examples": (run_examples_suite, ()),
    "flows": (run_flows_suite, ("seed", "trials")),
    "scheme": (run_scheme_suite, ("seed",)),
    "prokhorov": (run_prokhorov_suite, ()),
    "metrization": (run_metrization_suite, ()),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int | None = None, trials: int | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    runner, reads = SUITES[name]
    given = {key: value for key, value in (("seed", seed), ("trials", trials))
             if value is not None}
    unread = [key for key in given if key not in reads]
    if unread:
        raise ValueError(f"suite {name!r} does not read {' or '.join(unread)}; it reads "
                         + (" and ".join(reads) if reads else "no option"))
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return runner(**given)
