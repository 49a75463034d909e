"""Smoke test of tools/solve_probe.py."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from gwass._minflow import SSP_MAX_ATOMS

PROBE = Path(__file__).resolve().parents[1] / "tools" / "solve_probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("solve_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_probe_prints_one_json_line():
    proc = subprocess.run([sys.executable, str(PROBE)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert set(out) == {"atoms", "wall_s", "peak_rss_mb", "loaded", "values_sha256"}
    module = load_probe()
    # both solves run HiGHS
    assert out["atoms"] == module.ATOMS > SSP_MAX_ATOMS
    assert out["wall_s"] > 0 and out["peak_rss_mb"] > 0
    # HiGHS's bindings load without scipy's LP stack
    assert out["loaded"] == []
    # the same values hash the same in another process
    assert out["values_sha256"] == module.values_sha256(module.solve_values())
