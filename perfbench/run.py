#!/usr/bin/env python3
"""The gwass benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh processes
(``worker.py``) with BLAS capped at one thread by the environment and the
whole process, HiGHS included, held on one CPU.  The library is imported
from ``src/`` and driven through its public functions.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over SETUP_RUNS fresh processes of import, input generation, model
construction and one warm-up call; the other metrics come from one process
that measures the workload's fixed batch for ``--seconds``.  The
``p*_solve_ms_*`` percentiles run over distinct gw_distance calls, each
timed as its median over its repeats in the run; the summary line states
the sample counts.
``--trace 1`` reports the per-layer metrics from a process that alternates
plain and traced batches, and writes the spans to ``perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation fails
when it raises or its output fails a check; ``fail_ratio`` is printed on the
summary line above it.  The exit code is not 0, and no result is printed,
when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench_out")
WORKLOADS = ("scheme_cauchy", "scheme_trajectory", "dist_small", "dist_medium")
#: fresh processes whose set-up time is measured, the measuring one included
SETUP_RUNS = 3
#: every run ends within this many seconds, or fails
DEADLINE_S = 170.0
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("p1_solve_ms_p50", "ms"), ("p1_solve_ms_p90", "ms"),
    ("p2_solve_ms_p50", "ms"), ("p2_solve_ms_p90", "ms"),
)


def _unit(name):
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("_s"):
        return "s"
    return {"arc_ratio": "ratio", "ns_per_atom_step": "ns"}.get(stat, "count")


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout; see src_sha256)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _child(args, extra, deadline):
    """Run worker.py to completion and return its JSON result."""
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_CAPS, "1"))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a benchmark process")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="gwass benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "gwass", "__init__.py")):
        print(f"no gwass sources under {ROOT}/src", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setups = []
        if not args.trace:
            setups = [_child(args, ["--mode", "setup"], deadline) for _ in range(SETUP_RUNS - 1)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans-out", os.path.join(OUT_DIR, f"{tag}-spans.jsonl")]
        main_run = _child(args, extra, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = main_run["attempted"] + sum(s["attempted"] for s in setups)
    failed = main_run["failed"] + sum(s["failed"] for s in setups)
    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(main_run["layer"].items())}
    else:
        main_run["setup_s"] = statistics.median([s["setup_s"] for s in setups]
                                                + [main_run["setup_s"]])
        metrics = {name: {"value": main_run[name], "unit": unit} for name, unit in END_TO_END}
    env = dict(main_run["env"], commit=_commit(), workload=args.workload,
               seconds=args.seconds, trace=args.trace)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env, batches=main_run["batches"],
                       latency_samples=main_run.get("latency_samples")), fh, indent=1)
    print("env: " + json.dumps(env))
    print(f"{args.workload}: {main_run['batches']} batches, fail_ratio {failed / attempted:g} "
          f"({failed}/{attempted}), samples {main_run.get('latency_samples')}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
