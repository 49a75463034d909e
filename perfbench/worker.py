"""One benchmark process: set up one workload, then measure it.

``run.py`` starts this file in a fresh, single-threaded process.  The
process imports gwass from the checkout's ``src``, generates the workload's
inputs from the seed, builds the models and makes one warm-up call (that
is the set-up time), then runs the workload's fixed batch of library calls
again and again until ``--seconds`` are used.  It checks every output and
prints one JSON object as its last line of output.

``--mode setup`` stops after the set-up.  ``--trace 1`` alternates plain
batches with batches run under :class:`spans.Tracer`, so that the same
process reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
DEFAULT_SEED = 0
#: Relative tolerance, with a unit floor, of the default-seed reference check.
REF_TOL = 1e-9
#: Slack of the inequality checks, relative to the larger side (unit floor).
CHECK_TOL = 1e-9


def _pin_one_cpu():
    """Run on one CPU so that neither BLAS nor HiGHS runs threads in parallel."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[-1]


PINNED_CPU = _pin_one_cpu()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gwass  # noqa: E402
from gwass import dynamics  # noqa: E402
from gwass.flows import FlowConfig  # noqa: E402
from gwass.gw import GwParams  # noqa: E402
from gwass.measures import DiscreteMeasure, add, scale, total_mass  # noqa: E402

import spans  # noqa: E402


def _close(lhs, rhs, tol=CHECK_TOL):
    return lhs <= rhs + tol * max(1.0, abs(lhs), abs(rhs))


class Op:
    """One timed library call.  ``p`` marks gw_distance calls for the latency
    metrics; ``call`` returns the output values as a tuple of floats."""

    __slots__ = ("p", "call")

    def __init__(self, p, call):
        self.p = p
        self.call = call


def _gw(mu, nu, params):
    # looked up at call time, so that the tracer's wrapper is used when installed
    return Op(params.p, lambda: (gwass.gw_distance(mu, nu, params).value,))


def _stratified(rng, count, lo, hi):
    """``count`` draws from U[lo, hi), one in each of ``count`` equal strata, in
    random order.  Keeps the spread of a batch's cost across seeds small."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count


def _sizes(i, count=1):
    """Atom counts 1..8 of instance ``i``, cycled so every seed has the same mix."""
    return [1 + (i * (2 * j + 1) + 3 * j) % 8 for j in range(count)]


def _random_measure(rng, dim, n, box=2.0):
    return DiscreteMeasure(dim, rng.uniform(-box, box, (n, dim)), rng.uniform(0.05, 2.0, n))


def _gw_bounds_ok(value, mu, nu, params):
    """a*| |mu|-|nu| | <= gw(mu, nu) <= a*(|mu|+|nu|)."""
    wm, wn = total_mass(mu), total_mass(nu)
    return _close(params.a * abs(wm - wn), value) and _close(value, params.a * (wm + wn))


# --- workloads -------------------------------------------------------------------
#
# Each workload builds its inputs from the seed in ``__init__`` and exposes
# ``ops`` (the fixed batch), ``warmup_ops()`` (built from the default seed, so
# that every run checks one call against the reference values) and
# ``check(values)``, which returns one pass flag per op.  Inputs are built
# before timing; the program receives only them.


class _SchemeWorkload:
    """The reference problem of the convergence experiments, with the initial
    atoms jittered by the seed (positions by up to a quarter of their spacing,
    weights by up to 10%, total mass kept)."""

    def __init__(self, seed):
        self.problem = self._problem(seed)
        self.ops = [Op(None, lambda: self.run(self.problem, self.LEVEL))]
        self.probe, self.probe_inputs = self._probe(np.random.default_rng([seed, 1]))

    @staticmethod
    def _problem(seed):
        mu0, velocity, source, params = dynamics.reference_problem()
        rng = np.random.default_rng(seed)
        n = mu0.n_atoms
        pos = mu0.positions + rng.uniform(-0.25, 0.25, mu0.positions.shape) / n
        w = mu0.weights * rng.uniform(0.9, 1.1, n)
        w *= total_mass(mu0) / np.sum(w)
        return DiscreteMeasure(1, pos, w), velocity, source, params

    def warmup_ops(self):
        problem = self._problem(DEFAULT_SEED)
        return [Op(None, lambda: self.run(problem, self.WARMUP_LEVEL))]

    def _probe(self, rng, pairs=120):
        """Solve-latency probe: tiny 1-d gw_distance calls at p = 1 and p = 2
        between measures on the scheme's own sites (initial atoms and source
        sites).  Run twice per round, outside ``wall_s``."""
        mu0, _, source, _ = self.problem
        sites = np.concatenate([mu0.positions[:, 0], source.quadrature_cloud.positions[:, 0]])
        ops, inputs = [], []
        a_draws, b_draws = (_stratified(rng, pairs, 0.1, 10.0) for _ in range(2))
        for i, a, b in zip(range(pairs), a_draws, b_draws):
            mu, nu = (DiscreteMeasure(1, rng.choice(sites, k, replace=False), rng.uniform(0.05, 2.0, k))
                      for k in _sizes(i, 2))
            for p in (1.0, 2.0):
                inputs.append((mu, nu, GwParams(a, b, p)))
                ops.append(_gw(mu, nu, GwParams(a, b, p)))
        return ops, inputs

    def check_probe(self, values):
        return [v is not None and _gw_bounds_ok(v[0], mu, nu, prm)
                for v, (mu, nu, prm) in zip(values, self.probe_inputs)]


class SchemeCauchy(_SchemeWorkload):
    """cauchy_table on the reference problem, levels 3..6, ODE step 1/512.

    ``run`` returns D_3..D_k and, past one level, the fitted slope."""

    K_MIN, LEVEL, WARMUP_LEVEL, ODE_STEP = 3, 6, 3, 1.0 / 512
    #: solves per table: snapshots 0..2^k of every compared level k
    SOLVES = sum((1 << k) + 1 for k in range(K_MIN, LEVEL + 1))

    def run(self, problem, k_max):
        mu0, velocity, source, params = problem
        table = dynamics.cauchy_table(mu0, velocity, source, 1.0, self.K_MIN, k_max, params,
                                      FlowConfig(self.ODE_STEP))
        self._bounds = [r.bound for r in table.rows]
        slope = () if table.slope is None else (table.slope,)
        return tuple(r.d_k for r in table.rows) + slope

    def check(self, values):
        """0 < D_k <= 2 C2 T^2 / 2^k."""
        return [v is not None and all(0.0 < d and _close(d, bound)
                                      for d, bound in zip(v, self._bounds))
                for v in values]


class SchemeTrajectory(_SchemeWorkload):
    """sample_and_hold on the reference problem at level 10, ODE step 1/1024.

    ``run`` returns the snapshot count, and the atom count, mass, first and
    second moment of the final snapshot."""

    LEVEL, WARMUP_LEVEL, ODE_STEP = 10, 4, 1.0 / 1024

    def run(self, problem, level):
        mu0, velocity, source, _ = problem
        self._traj = None
        traj = dynamics.sample_and_hold(mu0, velocity, source, 1.0, level,
                                        FlowConfig(self.ODE_STEP), max_level=self.LEVEL)
        self._traj = traj
        last = traj.snapshots[-1][1]
        x = last.positions[:, 0]
        return (float(len(traj.snapshots)), float(last.n_atoms), total_mass(last),
                float(np.dot(last.weights, x)), float(np.dot(last.weights, x * x)))

    def check(self, values):
        """Exact mass accounting, and no atom faster than the certified speed M
        (checked on the last trajectory made; repeats must equal it)."""
        traj = self._traj
        mu0, _, source, _ = self.problem
        reach = (max(float(np.max(np.abs(mu0.positions))), source.R)
                 + traj.velocity.constants.M * traj.T)
        mass0 = total_mass(mu0)
        rate = total_mass(source.evaluate(mu0))   # constant modulation
        ok = len(traj.snapshots) == (1 << traj.level) + 1
        for t, snap in traj.snapshots:
            ok = ok and abs(total_mass(snap) - (mass0 + t * rate)) <= CHECK_TOL * (mass0 + rate)
        ok = ok and _close(float(np.max(np.abs(traj.snapshots[-1][1].positions))), reach)
        return [v is not None and ok for v in values]


class DistSmall:
    """Triples of tiny random measures shaped like the metric suite; each
    triple gets the suite's seven gw_distance calls and one equal-mass
    wasserstein call.  Dimension, p and atom counts cycle over the triples,
    so every seed has the same mix of solver paths and sizes."""

    TRIPLES = 150

    def __init__(self, seed, triples=TRIPLES):
        rng = np.random.default_rng(seed)
        self.ops = []
        self.triples = []
        a_draws, b_draws = (_stratified(rng, triples, 0.1, 10.0) for _ in range(2))
        k_draws = _stratified(rng, triples, 0.0, 3.0)
        for i, a, b, k in zip(range(triples), a_draws, b_draws, k_draws):
            dim = 1 + i % 3
            params = GwParams(a, b, 1.0 + (i // 3) % 2)
            mu, nu, eta = (_random_measure(rng, dim, n) for n in _sizes(i, 3))
            nu_eq = scale(nu, total_mass(mu) / total_mass(nu))
            pairs = [(mu, nu), (nu, mu), (nu, eta), (mu, eta),
                     (add(mu, nu), add(nu, eta)), (scale(mu, k), scale(nu, k)), (mu, mu)]
            self.triples.append((params, pairs, mu, nu_eq))
            self.ops.extend(_gw(x, y, params) for x, y in pairs)
            self.ops.append(Op(None, lambda mu=mu, nu_eq=nu_eq, p=params.p:
                               (gwass.wasserstein(mu, nu_eq, p).value,)))

    def warmup_ops(self):
        return DistSmall(DEFAULT_SEED, triples=1).ops

    def check(self, values):
        ok = []
        for t, (params, pairs, mu, nu_eq) in enumerate(self.triples):
            vals = values[8 * t:8 * t + 8]
            flags = [v is not None for v in vals]
            for j, (x, y) in enumerate(pairs):
                flags[j] = flags[j] and _gw_bounds_ok(vals[j][0], x, y, params)
            if all(flags[:4]):
                g_mn, g_nm, g_ne, g_me = (v[0] for v in vals[:4])
                flags[1] = flags[1] and abs(g_mn - g_nm) <= CHECK_TOL * max(1.0, g_mn)
                flags[3] = flags[3] and _close(g_me, g_mn + g_ne)
            flags[6] = flags[6] and vals[6][0] <= CHECK_TOL
            if flags[7]:
                diam = float(np.max(np.linalg.norm(
                    mu.positions[:, None, :] - nu_eq.positions[None, :, :], axis=2)))
                flags[7] = 0.0 <= vals[7][0] and _close(vals[7][0],
                                                        diam * total_mass(mu) ** (1.0 / params.p))
            ok.extend(flags)
        return ok


class DistMedium:
    """Seeded 2-d pairs with 32..40 atoms per side in the unit square, solved at
    p = 1 and p = 2.  b is set so that 2a/b lies in [0.6, 0.9], which puts most
    arcs inside the truncation radius.  Sizes cycle over the pairs, so every
    seed has the same mix of sizes."""

    PAIRS = 100

    def __init__(self, seed, pairs=PAIRS):
        rng = np.random.default_rng(seed)
        self.ops = []
        self.pairs = []
        a_draws = _stratified(rng, pairs, 0.5, 2.0)
        radius_draws = _stratified(rng, pairs, 0.6, 0.9)
        for i, a, radius in zip(range(pairs), a_draws, radius_draws):
            n, m = 32 + (7 * i) % 9, 32 + (5 * i + 4) % 9
            mu = DiscreteMeasure(2, rng.uniform(0.0, 1.0, (n, 2)), rng.uniform(0.05, 2.0, n))
            nu = DiscreteMeasure(2, rng.uniform(0.0, 1.0, (m, 2)), rng.uniform(0.05, 2.0, m))
            b = 2.0 * a / radius
            for p in (1.0, 2.0):
                self.pairs.append((mu, nu, GwParams(a, b, p)))
                self.ops.append(_gw(mu, nu, GwParams(a, b, p)))

    def warmup_ops(self):
        return DistMedium(DEFAULT_SEED, pairs=1).ops

    def check(self, values):
        return [v is not None and _gw_bounds_ok(v[0], mu, nu, prm)
                for v, (mu, nu, prm) in zip(values, self.pairs)]


WORKLOADS = {
    "scheme_cauchy": SchemeCauchy,
    "scheme_trajectory": SchemeTrajectory,
    "dist_small": DistSmall,
    "dist_medium": DistMedium,
}


# --- measurement -------------------------------------------------------------------

def run_ops(ops, times=None):
    """Run ops in order; return (wall seconds, values), None for a raised op.
    With ``times``, append each op's duration to ``times[i]``."""
    clock = time.perf_counter
    values = []
    start = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            values.append(op.call())
        except Exception:
            traceback.print_exc(limit=3, file=sys.stderr)
            values.append(None)
        if times is not None:
            times[i].append(clock() - t0)
    return clock() - start, values


def latencies(ops, times):
    """Per-call latencies of the gw_distance ops by p: each call's median over
    its repeats in the run, so a stall during one repeat does not count."""
    out = {1.0: [], 2.0: []}
    for op, samples in zip(ops, times):
        if op.p is not None and samples:
            out[op.p].append(statistics.median(samples))
    return out


def reference_ok(values, expected):
    """Per-op flags: values equal the recorded ones to REF_TOL (unit floor)."""
    if len(values) != len(expected):
        return [False] * len(values)
    return [v is not None and len(v) == len(e)
            and all(abs(a - b) <= REF_TOL * max(1.0, abs(b)) for a, b in zip(v, e))
            for v, e in zip(values, expected)]


def load_reference(name):
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            return json.load(fh)["workloads"].get(name)
    except FileNotFoundError:
        return None


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "gwass")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "pinned_cpu": PINNED_CPU,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "src_sha256": digest.hexdigest(), "seed": seed,
        "thread_caps": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        | {"highs": "1 cpu by affinity"},
    }


def _percentile_ms(samples, q):
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def self_check(workload, name, layer):
    """The traced path counts must match the library's dispatch."""
    paths = {p: layer[f"gw.path.{p}"] for p in spans.PATHS}
    if sum(paths.values()) != layer["gw.gw_distance.calls"] - layer["gw.gw_distance.errors"]:
        raise spans.SelfCheckError(f"path counts {paths} do not add up to the solves")
    if name == "scheme_cauchy" and not (paths["line_p1"] == layer["gw.gw_distance.calls"]
                                        == workload.SOLVES):
        raise spans.SelfCheckError(f"expected {workload.SOLVES} line_p1 solves, got {paths}")
    if name == "dist_medium" and not (paths["dense_p1"] == paths["parametric"]
                                      == workload.PAIRS):
        raise spans.SelfCheckError(f"expected {workload.PAIRS} dense_p1 and parametric, got {paths}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--spans-out", help="file to write the traced spans to")
    args = ap.parse_args(argv)

    if not os.path.realpath(gwass.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"gwass imported from {gwass.__file__}, not from this checkout")
    reference = load_reference(args.workload)
    if reference is None:
        raise SystemExit(f"no reference values for {args.workload} in {REFERENCE_FILE}")

    workload = WORKLOADS[args.workload](args.seed)
    warmup = workload.warmup_ops()
    _, warm_values = run_ops(warmup)
    setup_s = time.perf_counter() - SETUP_START
    passed = reference_ok(warm_values, reference["warmup"])
    if not all(passed):
        print(f"{args.workload}: the warm-up call differs from the reference", file=sys.stderr)
    result = {"setup_s": setup_s, "attempted": len(passed), "failed": passed.count(False)}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    # the scheme workloads make no solves of their own to time, so their
    # latencies come from the probe, run twice per round
    probe = getattr(workload, "probe", None) if not args.trace else None
    timed = probe or workload.ops
    times = [[] for _ in timed]
    tracer = spans.Tracer()
    plain, traced, rounds = [], [], []
    batch_values = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        tracer.assert_clean()
        wall, values = run_ops(workload.ops, None if args.trace or probe else times)
        plain.append(wall)
        batch_values.append(values)
        if args.trace:
            tracer.install()
            try:
                wall, values = run_ops(workload.ops)
            finally:
                tracer.uninstall()
            traced.append(wall)
            batch_values.append(values)
        for _ in range(2 if probe else 0):
            _, probe_values = run_ops(probe, times)
            passed += workload.check_probe(probe_values)
        rounds.append(time.perf_counter() - round_start)
        # start another round only if at least half of it fits in the time
        if time.perf_counter() - start + statistics.median(rounds) / 2 > args.seconds:
            break
    tracer.assert_clean()

    for values in batch_values:
        # every batch repeats the same inputs, so it must repeat the same values
        flags = [f and v == v0 for f, v, v0 in
                 zip(workload.check(values), values, batch_values[0])]
        if args.seed == DEFAULT_SEED:
            flags = [f and r for f, r in zip(flags, reference_ok(values, reference["batch"]))]
        passed += flags
        if not all(flags):
            print(f"{args.workload}: {flags.count(False)} ops failed the output checks",
                  file=sys.stderr)

    result.update(attempted=len(passed), failed=passed.count(False), batches=len(plain),
                  wall_s=statistics.median(plain), env=environment(args.seed),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.trace:
        layer = tracer.metrics(len(traced))
        self_check(workload, args.workload, layer)
        layer["trace.untraced_wall_s"] = statistics.median(plain)
        layer["trace.traced_wall_s"] = statistics.median(traced)
        layer["trace.overhead_s"] = layer["trace.traced_wall_s"] - layer["trace.untraced_wall_s"]
        result["layer"] = layer
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        latency = latencies(timed, times)
        result["latency_samples"] = {f"p{int(p)}": len(s) for p, s in latency.items()}
        for p, samples in latency.items():
            if len(samples) < 100:
                raise SystemExit(f"only {len(samples)} p={p:g} samples; the p90 needs 100")
            result[f"p{int(p)}_solve_ms_p50"] = _percentile_ms(samples, 50)
            result[f"p{int(p)}_solve_ms_p90"] = _percentile_ms(samples, 90)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
