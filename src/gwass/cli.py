"""Command-line interface.

Subcommands: ``dist`` (generalized distance between two measure files),
``wasserstein`` (equal-mass W_p), ``oracle`` (brute-force grid bound),
``prokhorov`` (1-d comparator), ``verify`` (verification suites), and
``simulate`` (sample-and-hold runs with CSV/JSON outputs).

Each ``cmd_*`` handler returns its stdout text and exit status, and
:func:`main` prints the text.  A library ``ValueError`` on the user's input
becomes one ``error:`` line on stderr.  When the reader closes stdout early
(``gwass verify metric | head -1``), the command still ends quietly with its
usual exit code.

Exit codes: 0 success / all checks passed, 1 check failure, 2 usage or
input error.  ``GWASS_SEED`` overrides the default seed of random suites.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import lab
from .dynamics import (build_source_model, cauchy_table,
                       continuous_dependence_check, sample_and_hold)
from .flows import FlowConfig, build_velocity_model
from .gw import GwParams, gw_brute_force, gw_distance, levy_prokhorov_1d
from .measures import (DEFAULT_QUANTUM, DiscreteMeasure, load_measure,
                       measure_from_json, save_measure, total_mass)
from .transport import wasserstein

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class InputError(Exception):
    """Bad file, bad JSON, or inconsistent inputs: exit code 2."""


def _load(path: str) -> DiscreteMeasure:
    try:
        return load_measure(path)
    except OSError as exc:
        raise InputError(f"cannot read measure file {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"cannot parse measure file {path}: {exc}") from exc


@contextmanager
def _input_errors(prefix: str = "", errors=ValueError):
    """Turn an ``errors`` exception raised in the block into an InputError
    whose message is ``prefix`` followed by the exception's."""
    try:
        yield
    except errors as exc:
        raise InputError(f"{prefix}{exc}") from exc


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, blob) -> None:
    Path(path).write_text(json.dumps(blob, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def cmd_dist(args) -> tuple[str, int]:
    mu = _load(args.mu)
    nu = _load(args.nu)
    with _input_errors():
        result = gw_distance(mu, nu, GwParams(args.a, args.b, args.p), quantum=args.quantum)
    if args.plan_csv:
        _write_csv(args.plan_csv, ["i", "j", "flow"], result.plan.as_triples())
    return json.dumps(result.to_json(), sort_keys=True), EXIT_OK


def cmd_wasserstein(args) -> tuple[str, int]:
    mu = _load(args.mu)
    nu = _load(args.nu)
    with _input_errors():
        result = wasserstein(mu, nu, args.p)
    if args.plan_csv:
        _write_csv(args.plan_csv, ["i", "j", "flow"], result.plan.as_triples())
    return json.dumps({"value": result.value, "p": result.p, "plan": result.plan.as_triples()},
                      sort_keys=True), EXIT_OK


def cmd_oracle(args) -> tuple[str, int]:
    mu = _load(args.mu)
    nu = _load(args.nu)
    with _input_errors():
        value = gw_brute_force(mu, nu, GwParams(args.a, args.b, args.p), args.grid_steps)
    return json.dumps({"value": value, "grid_steps": args.grid_steps}, sort_keys=True), EXIT_OK


def cmd_prokhorov(args) -> tuple[str, int]:
    mu = _load(args.mu)
    nu = _load(args.nu)
    with _input_errors():
        value = levy_prokhorov_1d(mu, nu)
    return json.dumps({"value": value}, sort_keys=True), EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    with _input_errors():
        report = lab.run_suite(args.suite, seed=args.seed, trials=args.trials)
    if args.json:
        _write_json(args.json, report.to_json())
    return report.format_table(), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _is_int(value) -> bool:
    """JSON integer: an int that is not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """JSON number: an int or a float that is not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Every simulate config field and its default.  None marks a required field,
#: an optional table, or a default that depends on the run (ode_step, mass_cap).
_SIMULATE_DEFAULTS = {
    "initial_measure": None, "velocity": None, "source": None, "level": None,
    "max_level": 10, "T": 1.0, "ode_step": None, "mass_cap": None, "params": {},
    "k_range": None, "dependence": None,
}


def _validate_simulate_config(cfg: dict) -> dict:
    """The config's fields, checked and with their defaults filled.

    ``ode_step`` and ``mass_cap`` stay None when absent: their defaults
    depend on the run.  Raises InputError naming every bad field.
    """
    if not isinstance(cfg, dict):
        raise InputError("invalid config: must be a JSON object")
    problems = []
    if "initial_measure" not in cfg:
        problems.append("initial_measure: missing (path or inline measure object)")
    if "velocity" not in cfg:
        problems.append("velocity: missing (base/kernel model description)")
    if "source" not in cfg:
        problems.append("source: missing (source model description)")
    settings = {key: cfg.get(key, default) for key, default in _SIMULATE_DEFAULTS.items()}
    for field in ("level", "max_level"):
        value = settings[field]
        if not _is_int(value) or value < 0:
            problems.append(f"{field}: must be a nonnegative integer")
    for field in ("T", "ode_step", "mass_cap"):
        value = settings[field]
        if field in cfg and (not _is_number(value) or not (value > 0 and math.isfinite(value))):
            problems.append(f"{field}: must be a positive number")
    params = settings["params"]
    if not isinstance(params, dict):
        problems.append("params: must be an object with a, b, p")
    else:
        problems.extend(f"params.{key}: must be a number"
                        for key in ("a", "b", "p") if key in params and not _is_number(params[key]))
        settings["params"] = {key: params.get(key, 1.0) for key in ("a", "b", "p")}
    k_range = settings["k_range"]
    if k_range is not None and (
            not isinstance(k_range, list) or len(k_range) != 2
            or not all(_is_int(k) for k in k_range) or k_range[0] > k_range[1]):
        problems.append("k_range: must be [k_min, k_max] with k_min <= k_max")
    dep = settings["dependence"]
    if dep is not None:
        shift = dep.get("shift") if isinstance(dep, dict) else None
        if not _is_number(shift) or not math.isfinite(shift):
            problems.append("dependence: must be an object with a finite number 'shift'")
        elif "level" in dep and (not _is_int(dep["level"]) or dep["level"] < 0):
            problems.append("dependence.level: must be a nonnegative integer")
        else:
            settings["dependence"] = {"shift": shift, "level": dep.get("level", settings["level"])}
    if problems:
        raise InputError("invalid config fields: " + "; ".join(problems))
    return settings


def cmd_simulate(args) -> tuple[str, int]:
    with _input_errors(f"cannot read config {args.config}: ", (OSError, ValueError)):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    settings = _validate_simulate_config(cfg)

    init = settings["initial_measure"]
    if isinstance(init, str):
        mu0 = _load(init)
    else:
        with _input_errors("invalid initial_measure: "):
            mu0 = measure_from_json(init)
    with _input_errors("invalid params: "):
        params = GwParams(**settings["params"])
    level, max_level = settings["level"], settings["max_level"]
    k_range, dep = settings["k_range"], settings["dependence"]
    levels = [level]
    if k_range is not None:
        levels.append(k_range[1] + 1)
    if dep is not None:
        levels.append(dep["level"])
    top_level = max(levels)
    if top_level > max_level:
        raise InputError(f"level {top_level} exceeds max_level {max_level}; "
                         "raise max_level in the config explicitly")
    with _input_errors("invalid model config: ", (KeyError, ValueError)):
        source = build_source_model(settings["source"])
        mass_cap = settings["mass_cap"]
        if mass_cap is None:
            mass_cap = total_mass(mu0) + source.P
        velocity = build_velocity_model(settings["velocity"], params, mass_cap, dim=mu0.dim)
    t_final = float(settings["T"])
    ode_step = settings["ode_step"]
    if ode_step is None:
        ode_step = t_final / (1 << top_level)
    flow_cfg = FlowConfig(float(ode_step))

    # every computation runs before the first file is written, so a run that
    # fails on its input leaves no partial output behind
    table = rows = None
    with _input_errors("invalid run: "):
        traj = sample_and_hold(mu0, velocity, source, t_final, level,
                               flow_cfg, max_level)
        if k_range is not None:
            k_min, k_max = k_range
            table = cauchy_table(mu0, velocity, source, t_final, k_min, k_max,
                                 params, flow_cfg, max_level)
        if dep is not None:
            shifted = DiscreteMeasure(mu0.dim, mu0.positions + dep["shift"], mu0.weights)
            rows = continuous_dependence_check(
                mu0, shifted, velocity, source, t_final,
                dep["level"], params, flow_cfg, max_level)

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    snapshot_files = []
    for n, (t, snap) in enumerate(traj.snapshots):
        name = f"snapshot_{n:04d}.json"
        save_measure(snap, out / name)
        snapshot_files.append(name)
    _write_csv(out / "masses.csv", ["t", "mass"],
               [[t, total_mass(snap)] for t, snap in traj.snapshots])

    summary = {
        "snapshots": snapshot_files,
        "level": level,
        "T": t_final,
        "constants": {k: float(v) for k, v in sorted(traj.constants(params.p).items())},
        "atom_counts": [snap.n_atoms for _, snap in traj.snapshots],
    }
    if table is not None:
        _write_csv(out / "cauchy.csv", ["k", "D_k", "bound"],
                   [[row.level, row.d_k, row.bound] for row in table.rows])
        summary["cauchy_slope"] = table.slope
        summary["cauchy_rows"] = len(table.rows)
    if rows is not None:
        _write_csv(out / "dependence.csv", ["t", "value", "bound"],
                   [[row.t, row.distance, row.bound] for row in rows])
        summary["dependence_rows"] = len(rows)
    _write_json(out / "summary.json", summary)
    return f"wrote {len(snapshot_files)} snapshots and summary.json to {out}", EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwass",
        description="Mass-aware generalized Wasserstein distances and "
                    "sample-and-hold transport simulations.")
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("mu"); pair.add_argument("nu")
    gw_params = argparse.ArgumentParser(add_help=False)
    gw_params.add_argument("--a", type=float, required=True, help="removal unit cost")
    gw_params.add_argument("--b", type=float, required=True, help="transport cost multiplier")
    gw_params.add_argument("--p", type=float, default=1.0, help="cost exponent (>= 1)")
    plan_csv = argparse.ArgumentParser(add_help=False)
    plan_csv.add_argument("--plan-csv", type=str, default=None,
                          help="also write the plan as (i, j, flow) CSV")

    p = sub.add_parser("dist", parents=[pair, gw_params, plan_csv],
                       help="generalized distance between two measure files")
    p.add_argument("--quantum", type=float, default=DEFAULT_QUANTUM)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("wasserstein", parents=[pair, plan_csv],
                       help="equal-mass W_p between two measure files")
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(func=cmd_wasserstein)

    p = sub.add_parser("oracle", parents=[pair, gw_params],
                       help="brute-force grid upper bound on tiny instances")
    p.add_argument("--grid-steps", type=int, default=50)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("prokhorov", parents=[pair],
                       help="1-d comparator metric between probability measures")
    p.set_defaults(func=cmd_prokhorov)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=lab.SUITE_NAMES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--json", type=str, default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run the sample-and-hold scheme from a JSON config")
    p.add_argument("config")
    p.add_argument("--output-dir", type=str, default="gwass_out")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, status = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early: the command is done, so send what
        # is left of stdout, and the flush at exit, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
