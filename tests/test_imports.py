"""Import hygiene: scipy's LP stack is loaded only by a solve that runs HiGHS."""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The steps run in order in one fresh interpreter; after each, the script
# records which of the heavy modules are loaded.
SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy as np

    HEAVY = ("scipy.optimize", "scipy.sparse")
    loaded = {}

    def step(label):
        loaded[label] = [name for name in HEAVY if name in sys.modules]

    import gwass
    step("import gwass")
    import gwass.cli
    step("import gwass.cli")

    from gwass import DiscreteMeasure, GwParams, gw_distance, wasserstein
    from gwass._minflow import SSP_MAX_ATOMS

    rng = np.random.default_rng(0)

    def measure(dim, n):
        # inside the unit box, so every arc has b*d < 2a at a = b = 1
        return DiscreteMeasure(dim, rng.uniform(0, 1, (n, dim)), rng.uniform(0.5, 2, n))

    gw_distance(measure(1, 8), measure(1, 6), GwParams(1.0, 1.0, 1.0)).value
    step("1-d p=1 solve")
    gw_distance(measure(1, 8), measure(1, 6), GwParams(1.0, 1.0, 2.0)).value
    step("1-d p=2 solve")
    n = SSP_MAX_ATOMS
    gw_distance(measure(2, n), measure(2, n), GwParams(1.0, 1.0, 1.0)).value
    step("2-d p=1 solve at SSP_MAX_ATOMS atoms per side")
    mu = measure(2, 5)
    nu = DiscreteMeasure(2, rng.uniform(0, 1, (4, 2)), np.full(4, mu.weights.sum() / 4))
    wasserstein(mu, nu, 2.0)
    step("small wasserstein")
    gw_distance(measure(2, n + 1), measure(2, n + 1), GwParams(1.0, 1.0, 1.0)).value
    step("2-d p=1 solve above SSP_MAX_ATOMS")
    print(json.dumps(loaded))
""")


def test_scipy_lp_stack_loads_only_for_a_highs_solve():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout.splitlines()[-1])
    *light, (last, heavy) = loaded.items()
    assert last == "2-d p=1 solve above SSP_MAX_ATOMS"
    assert len(light) == 6
    for label, modules in light:
        assert modules == [], f"{label} loaded {modules}"
    assert heavy == ["scipy.optimize", "scipy.sparse"]
