"""Smoke test of tools/scheme_probe.py at a small level."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from gwass.dynamics import reference_problem, sample_and_hold

PROBE = Path(__file__).resolve().parents[1] / "tools" / "scheme_probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("scheme_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scheme_probe_prints_one_json_line():
    proc = subprocess.run([sys.executable, str(PROBE), "--level", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert set(out) == {"level", "wall_s", "minflt", "peak_rss_mb", "final_atoms",
                        "snapshots_sha256"}
    assert out["level"] == 3 and out["wall_s"] > 0 and out["minflt"] >= 0
    assert out["peak_rss_mb"] > 0
    mu0, velocity, source, _ = reference_problem()
    trajectory = sample_and_hold(mu0, velocity, source, 1.0, 3)
    assert out["final_atoms"] == trajectory.snapshots[-1][1].n_atoms
    # the same snapshots hash the same in another process
    assert out["snapshots_sha256"] == load_probe().snapshots_sha256(trajectory)

