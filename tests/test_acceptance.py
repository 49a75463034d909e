"""End-to-end acceptance suite.

Each criterion is one test that prints a single pass line with its wall
time; tolerances and runtime budgets are fixed here, not configurable.
Criterion 5 audits the plan of every solve made by criteria 1-4, which the
earlier tests accumulate in PLAN_AUDIT (tests run in definition order).
"""

import time

import numpy as np
import pytest

from gwass import lab
from gwass.dynamics import cauchy_table, continuous_dependence_check, reference_problem
from gwass.flows import FlowConfig
from gwass.gw import GwParams, gw_brute_force, gw_distance
from gwass.lab import (box_closed_form, box_measure, run_flows_suite,
                       run_metric_suite, run_metrization_suite,
                       run_prokhorov_suite)
from gwass.measures import DiscreteMeasure, canonicalize, total_mass

PLAN_AUDIT: list[tuple[GwParams, object]] = []


def _audit(params, result):
    PLAN_AUDIT.append((params, result))


class criterion:
    """Times a criterion body and prints its pass line."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{status}] ({elapsed:6.2f}s / budget {self.budget_s}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s > {self.budget_s}s")
        return False


def test_criterion_01_dirac_formula():
    with criterion(1, "gw(delta_0, delta_x) = min{2a, bx} on the (a, b, x) grid", 1.0):
        for a in (0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 2.0):
                params = GwParams(a, b, 1.0)
                for x in np.arange(0.1, 5.0 + 1e-9, 0.1):
                    r = gw_distance(DiscreteMeasure.dirac(0.0),
                                    DiscreteMeasure.dirac(float(x)), params)
                    _audit(params, r)
                    assert abs(r.value - min(2 * a, b * x)) <= 1e-9


def test_criterion_02_box_example():
    with criterion(2, "two-box family matches min_y 2-2y+xy+y^2 within 0.02 at n=200", 10.0):
        params = GwParams(1.0, 1.0, 1.0)
        left = box_measure(-1.0)
        for x in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            r = gw_distance(left, box_measure(x), params)
            _audit(params, r)
            assert abs(r.value - box_closed_form(x)) <= 0.02


def test_criterion_03_metric_axioms(monkeypatch):
    def recorded(mu, nu, params):
        result = gw_distance(mu, nu, params)
        _audit(params, result)
        return result

    monkeypatch.setattr(lab, "gw_distance", recorded)
    with criterion(3, "metric axioms + structural bounds on 1000 random instances", 60.0):
        report = run_metric_suite(trials=1000, seed=None)
        for check in report.checks:
            assert check.passed, f"{check.check_id}: {check.lhs} vs {check.rhs}"


def test_criterion_04_oracle_equivalence():
    with criterion(4, "solver vs 50-step brute-force grid on 200 tiny instances", 30.0):
        rng = np.random.default_rng(404)
        for _ in range(200):
            dim = int(rng.integers(1, 3))
            p = float(rng.choice([1.0, 2.0]))
            params = GwParams(rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0), p)
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            mu = DiscreteMeasure(dim, rng.uniform(-2, 2, (n, dim)), rng.uniform(0.05, 2.0, n))
            nu = DiscreteMeasure(dim, rng.uniform(-2, 2, (m, dim)), rng.uniform(0.05, 2.0, m))
            r = gw_distance(mu, nu, params)
            _audit(params, r)
            oracle = gw_brute_force(mu, nu, params, 50)
            assert r.value <= oracle + 1e-9
            arcs = canonicalize(mu).n_atoms * canonicalize(nu).n_atoms
            delta = min(total_mass(mu), total_mass(nu)) / 50
            # grid refinement bound: rounding the optimal coupling down to the
            # lattice loses < delta per arc, repriced as removal at 2a each
            assert oracle - r.value <= 2 * params.a * arcs * delta + 1e-12


def test_criterion_05_truncation_radius():
    with criterion(5, "plan arcs never exceed 2a/b (p=1 hard; p>1 reported)", 30.0):
        if not PLAN_AUDIT:  # tests were run out of order: repopulate cheaply
            test_criterion_01_dirac_formula()
        p1_plans = 0
        violations = []
        for params, result in PLAN_AUDIT:
            longest = result.plan.max_arc_length()
            if params.p == 1.0:
                p1_plans += 1
                assert longest <= params.truncation_radius + 1e-9, (
                    f"p=1 arc of length {longest} exceeds 2a/b = {params.truncation_radius}")
            elif longest > params.truncation_radius + 1e-9:
                violations.append((params.p, longest - params.truncation_radius))
        assert p1_plans > 400
        if violations:
            worst = max(v for _, v in violations)
            print(f"  note: {len(violations)} p>1 plans exceed 2a/b (worst excess "
                  f"{worst:.3e}); reported against the open question on the "
                  f"per-arc bound for p>1, not a failure")


def test_criterion_06_comparator_case_table():
    with criterion(6, "four-regime comparator table at a=1/2, b=1", 1.0):
        report = run_prokhorov_suite()
        for check in report.checks:
            assert check.passed, f"{check.check_id}: {check.lhs} vs {check.rhs}"
            assert check.tolerance <= 1e-9


def test_criterion_07_flow_estimates():
    with criterion(7, "three flow stability bounds on 100 randomized trials", 60.0):
        report = run_flows_suite(trials=100)
        for check in report.checks:
            assert check.passed, f"{check.check_id}: {check.lhs} vs {check.rhs}"
            assert check.tolerance <= 1e-6


def test_criterion_08_scheme_convergence():
    with criterion(8, "reference problem: D_k <= 2 C2 / 2^k for k=3..8, slope <= -0.8", 180.0):
        mu0, velocity, source, params = reference_problem()
        table = cauchy_table(mu0, velocity, source, 1.0, 3, 8, params,
                             FlowConfig(1.0 / 512.0), max_level=10)
        expected_c2 = (table.constants["m"] * table.constants["N"]
                       * (table.constants["M"] * table.constants["m"] + table.constants["P"])
                       + table.constants["M"] * table.constants["P"] / 4.0)
        assert table.constants["C2"] == pytest.approx(expected_c2, rel=1e-12)
        for row in table.rows:
            assert row.bound == pytest.approx(2.0 * expected_c2 / 2 ** row.level, rel=1e-12)
            assert row.d_k <= row.bound, f"D_{row.level} = {row.d_k} > {row.bound}"
        assert table.slope is not None and table.slope <= -0.8
        print(f"  D_k = {[f'{r.d_k:.2e}' for r in table.rows]}, slope = {table.slope:.3f}")


def test_criterion_09_continuous_dependence():
    with criterion(9, "gw(mu_t, nu_t) <= exp(t (2L+2mN+Q+1)) gw(mu_0, nu_0) at k=6", 60.0):
        mu0, velocity, source, params = reference_problem()
        shifted = DiscreteMeasure(1, mu0.positions + 0.05, mu0.weights)
        rows = continuous_dependence_check(mu0, shifted, velocity, source, 1.0, 6,
                                           params, FlowConfig(1.0 / 64.0))
        assert len(rows) == 65
        for row in rows:
            assert row.distance <= row.bound + 1e-12, (
                f"t={row.t}: {row.distance} > {row.bound}")


def test_criterion_10_metrization_demo():
    with criterion(10, "escaping-atom sequence: gw -> 0 while W_1 stays 1", 5.0):
        report = run_metrization_suite()
        for check in report.checks:
            assert check.passed, f"{check.check_id}: {check.lhs} vs {check.rhs}"
