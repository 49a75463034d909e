"""Import hygiene: a solve that runs HiGHS loads scipy's HiGHS bindings alone,
without scipy's LP stack, and the bindings are loaded once per process."""

import json
import os
import subprocess
import sys
import textwrap

from gwass._minflow import HIGHS_CORE, _highs_core

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Shared head of the scripts below: seeded measures and a HiGHS solve above
# SSP_MAX_ATOMS whose p=1 and p=2 values it prints as float.hex.
PRELUDE = textwrap.dedent("""
    import json, sys
    import numpy as np

    from gwass import DiscreteMeasure, GwParams, gw_distance, wasserstein
    from gwass._minflow import HIGHS_CORE, SSP_MAX_ATOMS, _highs_core

    rng = np.random.default_rng(0)

    def measure(dim, n):
        # inside the unit box, so every arc has b*d < 2a at a = b = 1
        return DiscreteMeasure(dim, rng.uniform(0, 1, (n, dim)), rng.uniform(0.5, 2, n))

    def highs_values(mu, nu):
        return [gw_distance(mu, nu, GwParams(1.0, 1.0, p)).value.hex() for p in (1.0, 2.0)]
""")

# The steps run in order in one fresh interpreter; after each, the script
# records which of the watched modules are loaded.
SCRIPT = textwrap.dedent("""
    import json, sys

    HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.linalg")
    WATCHED = ("scipy",) + HEAVY + ("scipy.optimize._highspy._core",)
    loaded = {}

    def step(label):
        loaded[label] = [name for name in WATCHED if name in sys.modules]

    import gwass
    step("import gwass")
    import gwass.cli
    step("import gwass.cli")
""") + PRELUDE + textwrap.dedent("""
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

# A HiGHS solve, then scipy.optimize: the bindings the solve loaded are the
# ones scipy.optimize uses, linprog still solves, and the solve repeats.
ONCE = PRELUDE + textwrap.dedent("""
    mu, nu = measure(2, SSP_MAX_ATOMS + 1), measure(2, SSP_MAX_ATOMS + 1)
    first = highs_values(mu, nu)
    core = _highs_core()
    assert sys.modules[HIGHS_CORE] is core
    assert "scipy.optimize" not in sys.modules
    import scipy.optimize
    import scipy.optimize._highspy._core as bound
    from scipy.optimize._highspy import _core
    from scipy.optimize import _linprog_highs
    assert bound is _core is core is sys.modules[HIGHS_CORE] is _highs_core()
    assert _linprog_highs.ObjSense is core.ObjSense
    assert _linprog_highs.HighsModelStatus is core.HighsModelStatus
    # min x + 2y subject to x + y >= 1, x, y >= 0
    res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
    assert res.status == 0 and res.fun == 1.0, res
    print(json.dumps({"first": first, "again": highs_values(mu, nu)}))
""")

# The same solve, with or without an extension file to load: the script
# reports which module _highs_core returned and what scipy.optimize holds.
FALLBACK = textwrap.dedent("""
    import importlib.machinery, sys
    if sys.argv[1] == "fallback":
        importlib.machinery.EXTENSION_SUFFIXES = []
""") + PRELUDE + textwrap.dedent("""
    values = highs_values(measure(2, SSP_MAX_ATOMS + 1), measure(2, SSP_MAX_ATOMS + 1))
    core = _highs_core()
    optimize_loaded = "scipy.optimize" in sys.modules
    from scipy.optimize._highspy import _core
    print(json.dumps({"values": values, "optimize_loaded": optimize_loaded,
                      "same_module": core is _core is sys.modules[HIGHS_CORE]}))
""")

# Six threads make the first call at once, with a short switch interval;
# they must all get the one module registered in sys.modules.
THREADS = textwrap.dedent("""
    import json, sys, threading
    from gwass._minflow import HIGHS_CORE, _highs_core

    barrier = threading.Barrier(6)
    cores = []

    def first_call():
        barrier.wait()
        cores.append(_highs_core())

    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=first_call) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    print(json.dumps({"alive": sum(thread.is_alive() for thread in threads),
                      "calls": len(cores),
                      "one_module": all(core is sys.modules[HIGHS_CORE] for core in cores)}))
""")


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_only_a_highs_solve_loads_the_bindings_and_none_loads_scipy_lp_stack():
    loaded = run_script(SCRIPT)
    *light, (last, modules) = loaded.items()
    assert last == "2-d p=1 solve above SSP_MAX_ATOMS"
    assert len(light) == 6
    for label, names in light:
        assert names == [], f"{label} loaded {names}"
    assert modules == ["scipy", HIGHS_CORE]


def test_scipy_optimize_after_a_highs_solve_reuses_the_loaded_bindings():
    out = run_script(ONCE)
    assert out["again"] == out["first"]


def test_bindings_without_an_extension_file_come_from_the_plain_import():
    direct = run_script(FALLBACK, "direct")
    fallback = run_script(FALLBACK, "fallback")
    assert not direct["optimize_loaded"] and direct["same_module"]
    assert fallback["optimize_loaded"] and fallback["same_module"]
    assert fallback["values"] == direct["values"]


def test_bindings_already_in_sys_modules_are_returned_as_they_are(monkeypatch):
    bindings = object()
    monkeypatch.setitem(sys.modules, HIGHS_CORE, bindings)
    assert _highs_core() is bindings


def test_concurrent_first_calls_share_one_module():
    assert run_script(THREADS) == {"alive": 0, "calls": 6, "one_module": True}
