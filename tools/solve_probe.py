#!/usr/bin/env python3
"""Time a fresh process's first HiGHS solves, and report what they load.

    python3 tools/solve_probe.py

Run from anywhere; the probe imports ``gwass`` from the ``src`` directory
of the checkout it lives in.  It draws one seeded 2-d pair of ATOMS atoms
per side in the unit square (weights in [0.05, 2], a = 1, 2a/b = 0.75, so
most arcs are inside the truncation radius), solves ``gw_distance`` on it
at p = 1 (the dense LP) and p = 2 (the probes), both through HiGHS, and
prints one JSON line:

- ``wall_s``: wall time of ``import gwass`` (numpy included) plus the two
  solves, so it holds the one-off cost of loading HiGHS;
- ``peak_rss_mb``: peak resident set size of the process;
- ``loaded``: which of ``scipy.optimize``, ``scipy.sparse`` and
  ``scipy.linalg`` the process has imported by then;
- ``values_sha256``: sha256 over the two values (``float.hex``), so two
  revisions can be checked for bit-identical values.

Only the first solves of a process pay the import, so run the probe
several times, in fresh processes, and quote the spread.
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

ATOMS = 36
SEED = 0
HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.linalg")


def solve_values() -> list:
    """``gw_distance`` of the seeded pair at p = 1 and p = 2."""
    import numpy as np

    from gwass import DiscreteMeasure, GwParams, gw_distance

    rng = np.random.default_rng(SEED)
    mu, nu = (DiscreteMeasure(2, rng.uniform(0.0, 1.0, (ATOMS, 2)),
                              rng.uniform(0.05, 2.0, ATOMS)) for _ in range(2))
    return [gw_distance(mu, nu, GwParams(1.0, 2.0 / 0.75, p)).value for p in (1.0, 2.0)]


def values_sha256(values) -> str:
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


def probe() -> dict:
    start = time.perf_counter()
    import gwass  # noqa: F401  (the import is part of what is timed)

    values = solve_values()
    wall = time.perf_counter() - start
    return {
        "atoms": ATOMS,
        "wall_s": round(wall, 4),
        # ru_maxrss is in kilobytes on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "loaded": [name for name in HEAVY if name in sys.modules],
        "values_sha256": values_sha256(values),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    print(json.dumps(probe()))


if __name__ == "__main__":
    main()
