#!/usr/bin/env python3
"""Record the reference output values that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every workload's warm-up call and one batch at the default seed and
writes their output values to ``perfbench/reference.json``.  Values only:
an optimal witness need not be unique.  Run it on the commit whose values
are the reference, never to make a failing check pass.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import worker  # noqa: E402


def main():
    workloads = {}
    for name, cls in worker.WORKLOADS.items():
        workload = cls(worker.DEFAULT_SEED)
        _, warmup = worker.run_ops(workload.warmup_ops())
        _, batch = worker.run_ops(workload.ops)
        if any(v is None for v in warmup + batch) or not all(workload.check(batch)):
            raise SystemExit(f"{name}: the outputs fail their checks; nothing recorded")
        workloads[name] = {"warmup": warmup, "batch": batch}
        print(f"{name}: {len(warmup)} warm-up and {len(batch)} batch values")
    with open(worker.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"seed": worker.DEFAULT_SEED, "workloads": workloads}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
