"""Smoke tests of tools/scheme_probe.py at small levels."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from gwass.dynamics import cauchy_table, reference_problem, sample_and_hold
from gwass.flows import FlowConfig

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



def test_scheme_probe_cauchy_mode_prints_the_table_and_its_chain_dp_calls():
    proc = subprocess.run([sys.executable, str(PROBE), "--cauchy", "4"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert set(out) == {"cauchy", "wall_s", "chain_dp_calls", "d_k", "d_k_sha256"}
    assert out["cauchy"] == 4 and out["wall_s"] > 0
    # every level pair of the reference problem takes the W1 potential
    assert out["chain_dp_calls"] == 0
    mu0, velocity, source, params = reference_problem()
    table = cauchy_table(mu0, velocity, source, 1.0, 3, 4, params, FlowConfig(1.0 / 512))
    d_k = [row.d_k for row in table.rows]
    assert out["d_k"] == d_k
    assert out["d_k_sha256"] == hashlib.sha256(np.array(d_k).tobytes()).hexdigest()


def test_scheme_probe_takes_exactly_one_mode():
    for args in ([], ["--level", "3", "--cauchy", "4"]):
        proc = subprocess.run([sys.executable, str(PROBE), *args],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and not proc.stdout
