#!/usr/bin/env python3
"""Time one sample-and-hold run and count the page faults it takes.

    python3 tools/scheme_probe.py --level K

Run from anywhere; the probe imports ``gwass`` from the ``src`` directory
of the checkout it lives in.  It runs ``dynamics.sample_and_hold`` on
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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from gwass.dynamics import reference_problem, sample_and_hold  # noqa: E402

WARMUP_LEVEL = 4


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--level", type=int, required=True,
                        help="dyadic level of the timed run, 0..10")
    args = parser.parse_args(argv)
    print(json.dumps(probe(args.level)))


if __name__ == "__main__":
    main()
