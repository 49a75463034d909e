#!/usr/bin/env python3
"""Time one sample-and-hold run or Cauchy table on the reference problem.

    python3 tools/scheme_probe.py --level K
    python3 tools/scheme_probe.py --cauchy K

Run from anywhere; the probe imports ``gwass`` from the ``src`` directory
of the checkout it lives in.

With ``--level K`` it runs ``dynamics.sample_and_hold`` on
``dynamics.reference_problem()`` once at level 4 as a warm-up (imports,
first allocations), then once at level K, and prints one JSON line:

- ``wall_s``: wall time of the level-K run;
- ``minflt``: minor page faults of the process during that run
  (``ru_minflt`` delta of ``resource.getrusage``);
- ``peak_rss_mb``: peak resident set size of the process;
- ``final_atoms``: atom count of the last snapshot;
- ``snapshots_sha256``: sha256 over every snapshot's time, positions and
  weights, so two revisions can be checked for bit-identical trajectories.

Page faults depend on the allocator: glibc returns freed memory at the top
of the heap to the system, and memory allocated again there is faulted in
again.  Quote fault counts together with timings.

With ``--cauchy K`` it runs ``dynamics.cauchy_table`` on the reference
problem with ODE step 1/512, once at levels 3..3 as a warm-up, then at
levels 3..K, and prints one JSON line:

- ``wall_s``: wall time of the levels 3..K table;
- ``chain_dp_calls``: line solves of that table that ran the chain DP
  (``_minflow._dual_chain_dp``) rather than the W_1 potential;
- ``d_k``: D_3..D_K;
- ``d_k_sha256``: sha256 over the float64 bytes of D_3..D_K.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from gwass import _minflow  # noqa: E402
from gwass.dynamics import cauchy_table, reference_problem, sample_and_hold  # noqa: E402
from gwass.flows import FlowConfig  # noqa: E402

WARMUP_LEVEL = 4
CAUCHY_K_MIN, CAUCHY_ODE_STEP = 3, 1.0 / 512


def snapshots_sha256(trajectory) -> str:
    digest = hashlib.sha256()
    for t, snap in trajectory.snapshots:
        digest.update(repr(t).encode())
        digest.update(snap.positions.tobytes())
        digest.update(snap.weights.tobytes())
    return digest.hexdigest()


def probe(level: int) -> dict:
    mu0, velocity, source, _ = reference_problem()
    sample_and_hold(mu0, velocity, source, 1.0, WARMUP_LEVEL)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    trajectory = sample_and_hold(mu0, velocity, source, 1.0, level)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "level": level,
        "wall_s": round(wall, 4),
        "minflt": usage.ru_minflt - faults,
        # ru_maxrss is in kilobytes on Linux
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "final_atoms": trajectory.snapshots[-1][1].n_atoms,
        "snapshots_sha256": snapshots_sha256(trajectory),
    }


def cauchy_probe(k_max: int) -> dict:
    mu0, velocity, source, params = reference_problem()
    cfg = FlowConfig(CAUCHY_ODE_STEP)
    cauchy_table(mu0, velocity, source, 1.0, CAUCHY_K_MIN, CAUCHY_K_MIN, params, cfg)
    calls = 0
    chain_dp = _minflow._dual_chain_dp

    def counted(*args):
        nonlocal calls
        calls += 1
        return chain_dp(*args)

    _minflow._dual_chain_dp = counted
    try:
        start = time.perf_counter()
        table = cauchy_table(mu0, velocity, source, 1.0, CAUCHY_K_MIN, k_max, params, cfg)
        wall = time.perf_counter() - start
    finally:
        _minflow._dual_chain_dp = chain_dp
    d_k = [row.d_k for row in table.rows]
    return {
        "cauchy": k_max,
        "wall_s": round(wall, 4),
        "chain_dp_calls": calls,
        "d_k": d_k,
        "d_k_sha256": hashlib.sha256(np.array(d_k, dtype=np.float64).tobytes()).hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--level", type=int,
                      help="dyadic level of the timed sample-and-hold run, 0..10")
    mode.add_argument("--cauchy", type=int, metavar="K",
                      help=f"highest level of the timed Cauchy table, from {CAUCHY_K_MIN}")
    args = parser.parse_args(argv)
    print(json.dumps(probe(args.level) if args.cauchy is None else cauchy_probe(args.cauchy)))


if __name__ == "__main__":
    main()
