import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gwass
from gwass import lab
from gwass.cli import main
from gwass.lab import CheckResult, SuiteReport, run_suite
from gwass.measures import DiscreteMeasure, load_measure, save_measure


def write_measure(tmp_path, name, atoms, dim=1):
    path = tmp_path / name
    save_measure(DiscreteMeasure.from_atoms(dim, atoms), path)
    return str(path)


@pytest.fixture
def dirac_files(tmp_path):
    mu = write_measure(tmp_path, "mu.json", [([0.0], 1.0)])
    nu = write_measure(tmp_path, "nu.json", [([3.0], 1.0)])
    return mu, nu


def test_cli_dist_value(dirac_files, capsys):
    mu, nu = dirac_files
    assert main(["dist", mu, nu, "--a", "1", "--b", "1", "--p", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(2.0)
    assert out["removed_source_mass"] == pytest.approx(1.0)


def test_cli_dist_identical_files(dirac_files, capsys):
    mu, _ = dirac_files
    assert main(["dist", mu, mu, "--a", "1", "--b", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.0


def test_cli_dist_empty_measure(tmp_path, capsys):
    empty = write_measure(tmp_path, "empty.json", [])
    nu = write_measure(tmp_path, "nu.json", [([0.0], 1.0)])
    assert main(["dist", empty, nu, "--a", "2", "--b", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(2.0)


def test_cli_error_exit_codes(tmp_path, capsys, dirac_files):
    mu, nu = dirac_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dist", str(bad), mu, "--a", "1", "--b", "1"]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["dist", missing, mu, "--a", "1", "--b", "1"]) == 2
    mismatched = write_measure(tmp_path, "d2.json", [([0.0, 0.0], 1.0)], dim=2)
    assert main(["dist", mu, mismatched, "--a", "1", "--b", "1"]) == 2
    capsys.readouterr()
    # a library ValueError on valid files is one error line, not a traceback
    heavy = write_measure(tmp_path, "heavy.json", [([1.0], 2.0)])
    out_dir = tmp_path / "out"
    for argv in (["dist", mu, nu, "--a", "0", "--b", "1"],
                 ["oracle", mu, nu, "--a", "1", "--b", "1", "--grid-steps", "0"],
                 ["prokhorov", heavy, nu],
                 ["wasserstein", mu, nu, "--p", "nan"],
                 ["wasserstein", mu, nu, "--p", "inf"],
                 ["dist", mu, nu, "--a", "1", "--b", "1", "--quantum", "nan"],
                 ["simulate", str(tmp_path / "no_config.json"), "--output-dir", str(out_dir)]):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    assert not out_dir.exists()


def test_cli_powers_out_of_float_range_exit_2(tmp_path, capsys):
    # 5**1000 overflows and 0.5**1e4 underflows: one error line, exit 2
    for mu_x, nu_x, p in (((0.0, 3.0), (1.0, 5.0), "1000"), ((0.0, 0.2), (0.5, 0.6), "1e4")):
        mu = write_measure(tmp_path, "mu.json", [([x], 1.0) for x in mu_x])
        nu = write_measure(tmp_path, "nu.json", [([x], 1.0) for x in nu_x])
        for argv in (["dist", mu, nu, "--a", "1", "--b", "1", "--p", p],
                     ["wasserstein", mu, nu, "--p", p]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            err = captured.err.strip().splitlines()
            assert captured.out == "" and len(err) == 1 and "to the power p" in err[0]


def test_cli_unreadable_input_files_exit_2(tmp_path, capsys, dirac_files):
    # a path that cannot be read as text (a directory, bytes that are not
    # UTF-8) is bad input like a missing file, not a traceback
    mu, _ = dirac_files
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"level": "\xff"}')
    out_dir = tmp_path / "out"
    for argv in (["dist", str(tmp_path), mu, "--a", "1", "--b", "1"],
                 ["simulate", str(not_utf8), "--output-dir", str(out_dir)],
                 ["simulate", str(tmp_path), "--output-dir", str(out_dir)]):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    assert not out_dir.exists()


def test_cli_wasserstein_and_mass_mismatch(tmp_path, capsys, dirac_files):
    mu, nu = dirac_files
    assert main(["wasserstein", mu, nu, "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(3.0)
    heavy = write_measure(tmp_path, "heavy.json", [([1.0], 2.0)])
    assert main(["wasserstein", mu, heavy, "--p", "2"]) == 2


def test_cli_plan_csv_export(tmp_path, capsys, dirac_files):
    mu, _ = dirac_files
    nu = write_measure(tmp_path, "near.json", [([0.5], 1.0)])
    out = tmp_path / "plan.csv"
    assert main(["dist", mu, nu, "--a", "1", "--b", "1", "--plan-csv", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "i,j,flow"
    assert lines[1] == "0,0,1.0"
    # 2 delta_1 against delta_0 + delta_2: the plan splits the source atom;
    # JSON and CSV carry plain ints and floats in arc order
    mu = write_measure(tmp_path, "two.json", [([1.0], 2.0)])
    nu = write_measure(tmp_path, "split.json", [([0.0], 1.0), ([2.0], 1.0)])
    for command in (["dist", mu, nu, "--a", "1", "--b", "1"], ["wasserstein", mu, nu, "--p", "1"]):
        assert main(command + ["--plan-csv", str(out)]) == 0
        assert '"plan": [[0, 0, 1.0], [0, 1, 1.0]]' in capsys.readouterr().out
        assert out.read_text().splitlines() == ["i,j,flow", "0,0,1.0", "0,1,1.0"]


def test_cli_oracle_and_prokhorov(tmp_path, capsys, dirac_files):
    mu, nu = dirac_files
    assert main(["oracle", mu, nu, "--a", "1", "--b", "1", "--grid-steps", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(2.0)
    split = write_measure(tmp_path, "split.json", [([-0.2], 0.5), ([0.4], 0.5)])
    assert main(["prokhorov", mu, split]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.4)


def test_cli_verify_pass_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "prokhorov", "--json", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["passed"] is True
    assert all(c["statement"] for c in blob["checks"])
    capsys.readouterr()


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    failing = SuiteReport("stub", (CheckResult("x", "forced failure", 1.0, 0.0, 0.0),))
    monkeypatch.setattr(lab, "run_suite", lambda *a, **k: failing)
    assert main(["verify", "prokhorov"]) == 1
    capsys.readouterr()


def test_cli_verify_rejects_trials_below_one(capsys):
    # a count below 1 is a usage error, not the default count or an empty pass
    for trials in ("0", "-3"):
        assert main(["verify", "metric", "--trials", trials]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def test_cli_verify_rejects_options_a_suite_does_not_read(tmp_path, capsys):
    # only metric and flows read --trials and only they and scheme read --seed;
    # an option the suite would ignore is a usage error, not a silent no-op
    for argv in (["prokhorov", "--trials", "7"], ["metrization", "--trials", "3"],
                 ["scheme", "--trials", "2"], ["examples", "--seed", "4"]):
        assert main(["verify", *argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    out = tmp_path / "report.json"
    assert main(["verify", "prokhorov", "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["seed"] is None


def test_cli_verify_scheme_report_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "scheme1.json", tmp_path / "scheme2.json"]
    for path in paths:
        assert main(["verify", "scheme", "--json", str(path)]) == 0
    capsys.readouterr()
    checks = json.loads(paths[0].read_text())["checks"]
    assert [c["id"] for c in checks] == [
        "cauchy_k=3", "cauchy_k=4", "cauchy_k=5", "cauchy_slope", "step_difference",
        "mass_bound", "source_support", "continuous_dependence"]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_closed_stdout_exits_quietly(dirac_files):
    # a reader that closes the pipe early (``gwass ... | head -1``) must not
    # turn a finished command into a traceback or a different exit code
    mu, nu = dirac_files
    env = {**os.environ, "PYTHONPATH": str(Path(gwass.__file__).parents[1])}
    for argv in (["verify", "prokhorov"], ["dist", mu, nu, "--a", "1", "--b", "1"]):
        proc = subprocess.Popen([sys.executable, "-m", "gwass.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""


def test_cli_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


def test_report_json_deterministic(capsys):
    r1 = run_suite("metrization")
    r2 = run_suite("metrization")
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)
    r3 = run_suite("metric", seed=3, trials=20)
    r4 = run_suite("metric", seed=3, trials=20)
    assert json.dumps(r3.to_json(), sort_keys=True) == json.dumps(r4.to_json(), sort_keys=True)


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("GWASS_SEED", "99")
    assert lab.resolve_seed(None) == 99
    assert lab.resolve_seed(5) == 5
    monkeypatch.delenv("GWASS_SEED")
    assert lab.resolve_seed(None) == lab.DEFAULT_SEED


def test_every_check_carries_statement():
    for name in ("examples", "prokhorov", "metrization"):
        report = run_suite(name)
        assert report.checks
        assert all(c.statement.strip() for c in report.checks)
        assert report.passed == all(c.passed for c in report.checks)


def test_cli_simulate_translation(tmp_path, capsys):
    mu0 = write_measure(tmp_path, "init.json",
                        [([x], 0.125) for x in np.linspace(-1, -0.1, 8)])
    config = {
        "initial_measure": mu0,
        "velocity": {"base": {"kind": "constant", "c": [0.5]},
                     "kernel": {"kind": "zero"}},
        "source": {"kind": "zero"},
        "T": 1.0,
        "level": 5,
        "params": {"a": 1.0, "b": 1.0, "p": 1.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    capsys.readouterr()
    snaps = sorted(out_dir.glob("snapshot_*.json"))
    assert len(snaps) == 33
    first = load_measure(snaps[0])
    last = load_measure(snaps[-1])
    assert np.allclose(last.positions, first.positions + 0.5, atol=1e-12)
    masses = (out_dir / "masses.csv").read_text().strip().splitlines()
    assert masses[0] == "t,mass"
    assert len(masses) == 34
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["level"] == 5
    counts = summary["atom_counts"]
    assert len(counts) == 33 and counts[0] == 8
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_cli_simulate_with_tables(tmp_path, capsys):
    mu0 = write_measure(tmp_path, "init.json",
                        [([x], 0.25) for x in np.linspace(-1, -0.25, 4)])
    config = {
        "initial_measure": mu0,
        "velocity": {"base": {"kind": "constant", "c": [0.4]},
                     "kernel": {"kind": "bump", "radius": 0.5, "height": 0.2}},
        "source": {"kind": "bump_quadrature", "radius": 0.25, "sites": 5,
                   "mass": 0.1, "modulation": {"kind": "constant", "value": 1.0}},
        "T": 1.0,
        "level": 3,
        "k_range": [3, 5],
        "dependence": {"shift": 0.05, "level": 3},
        "params": {"a": 1.0, "b": 1.0, "p": 1.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    capsys.readouterr()
    cauchy = (out_dir / "cauchy.csv").read_text().strip().splitlines()
    assert cauchy[0] == "k,D_k,bound"
    assert len(cauchy) == 4  # rows for k = 3, 4, 5
    ds = [float(line.split(",")[1]) for line in cauchy[1:]]
    assert ds == sorted(ds, reverse=True)
    dep = (out_dir / "dependence.csv").read_text().strip().splitlines()
    assert dep[0] == "t,value,bound"
    assert len(dep) == 10
    masses = [float(line.split(",")[1])
              for line in (out_dir / "masses.csv").read_text().strip().splitlines()[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
    assert masses[-1] <= masses[0] + 0.1 + 1e-9


def test_cli_simulate_config_must_be_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("[]")
    assert main(["simulate", str(cfg_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_cli_simulate_invalid_config_lists_fields(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"level": -1, "T": 0, "k_range": [5, 3]}))
    assert main(["simulate", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    for fieldname in ("initial_measure", "velocity", "source", "level", "T", "k_range"):
        assert fieldname in err


@pytest.mark.parametrize("change", [{"level": 11}, {"level": 5, "max_level": 4},
                                    {"params": {"a": 0}}, {"params": {"a": "x"}},
                                    {"initial_measure": {"dim": 1, "atoms": [{"x": [0.0]}]}},
                                    {"max_level": "ten"},
                                    {"initial_measure": {"dim": 1, "atoms": [{"x": [0.9], "w": 1.0}]},
                                     "velocity": {"base": {"kind": "linear", "matrix": [[1.0]],
                                                           "sup_radius": 1.0},
                                                  "kernel": {"kind": "zero"}}},
                                    {"ode_step": -1}, {"ode_step": 0}, {"ode_step": "abc"},
                                    {"mass_cap": "x"}, {"dependence": {"shift": "x"}},
                                    {"dependence": {"shift": 0.1, "level": "abc"}},
                                    {"dependence": {"shift": 1e12}},
                                    {"level": True}, {"level": 1, "max_level": True},
                                    {"k_range": [False, True]}, {"params": {"a": True}},
                                    {"velocity": {"base": {"kind": "spiral"}, "kernel": {"kind": "zero"}}},
                                    {"velocity": {"base": {"kind": "constant"}, "kernel": {"kind": "zero"}}}])
def test_cli_simulate_out_of_range_config_exits_2(tmp_path, capsys, change):
    mu0 = write_measure(tmp_path, "init.json", [([0.0], 1.0)])
    config = {
        "initial_measure": mu0,
        "velocity": {"base": {"kind": "constant", "c": [0.5]}, "kernel": {"kind": "zero"}},
        "source": {"kind": "zero"},
        "level": 2,
        **change,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), "--output-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out_dir.exists()
