import numpy as np
import pytest

from gwass import _minflow
from gwass.dynamics import (ConstantModulation, SaturatingModulation,
                            SourceModel, build_source_model, cauchy_table,
                            continuous_dependence_check, reference_problem,
                            sample_and_hold)
from gwass.flows import FlowConfig, build_velocity_model
from gwass.gw import GwParams, gw_distance
from gwass.measures import (DiscreteMeasure, add, canonicalize, scale,
                            total_mass, tv_distance)

PARAMS = GwParams(1.0, 1.0, 1.0)


def uniform_cloud(n=8, lo=-1.0, hi=0.0, mass=1.0):
    xs = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    return DiscreteMeasure(1, xs.reshape(-1, 1), np.full(n, mass / n))


def constant_velocity(c, mass_cap=2.0):
    return build_velocity_model({"base": {"kind": "constant", "c": [c]},
                                 "kernel": {"kind": "zero"}}, PARAMS, mass_cap)


def zero_source():
    return build_source_model({"kind": "zero"})


def fixed_source():
    return build_source_model({"kind": "bump_quadrature", "radius": 0.25,
                               "sites": 10, "mass": 0.2,
                               "modulation": {"kind": "constant", "value": 1.0}})


def test_translation_without_source_is_exact_at_every_level():
    mu0 = uniform_cloud()
    vel = constant_velocity(0.5)
    for level in (1, 3, 5):
        traj = sample_and_hold(mu0, vel, zero_source(), 1.0, level, FlowConfig(1 / 32))
        for t, snap in traj.snapshots:
            expected = DiscreteMeasure(1, mu0.positions + 0.5 * t, mu0.weights)
            assert tv_distance(snap, expected) <= 1e-12


def test_pure_source_accumulates_exactly():
    mu0 = uniform_cloud()
    vel = constant_velocity(0.0)
    src = fixed_source()
    traj = sample_and_hold(mu0, vel, src, 1.0, 4, FlowConfig(1 / 16))
    for t, snap in traj.snapshots:
        expected = canonicalize(add(mu0, scale(src.quadrature_cloud, t)))
        assert tv_distance(snap, expected) <= 1e-12
    # deposits merge on the fixed sites: atom count stays bounded
    assert traj.snapshots[-1][1].n_atoms == mu0.n_atoms + 10


def test_mass_audit_and_bound():
    mu0, vel, src, params = reference_problem()
    traj = sample_and_hold(mu0, vel, src, 1.0, 5, FlowConfig(1 / 32))
    masses = traj.masses()
    assert np.all(np.diff(masses) >= -1e-12)
    assert masses[-1] <= total_mass(mu0) + src.P + 1e-12
    consts = traj.constants(1.0)
    assert np.max(masses) <= consts["m"] ** 1.0 + 1e-12


def test_deposited_atoms_inside_support_ball():
    src = fixed_source()
    cloud = src.quadrature_cloud
    assert np.max(np.abs(cloud.positions)) <= src.R
    assert total_mass(cloud) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        SourceModel(DiscreteMeasure.dirac(5.0), ConstantModulation(1.0),
                    P=1.0, R=0.25, Q=0.0)


def test_levels_agree_at_time_zero():
    mu0, vel, src, params = reference_problem()
    t4 = sample_and_hold(mu0, vel, src, 1.0, 4, FlowConfig(1 / 16))
    t5 = sample_and_hold(mu0, vel, src, 1.0, 5, FlowConfig(1 / 32))
    assert tv_distance(t4.snapshots[0][1], t5.snapshots[0][1]) == 0.0


def test_intermediate_time_interpolation():
    mu0 = uniform_cloud()
    vel = constant_velocity(1.0)
    src = fixed_source()
    traj = sample_and_hold(mu0, vel, src, 1.0, 3, FlowConfig(1 / 8))
    dt = traj.dt
    t = 1.5 * dt  # halfway through the second step
    snap = traj.at(t)
    base = traj.snapshots[1][1]
    expected = canonicalize(add(
        DiscreteMeasure(1, base.positions + 0.5 * dt, base.weights),
        scale(src.evaluate(base), 0.5 * dt)))
    assert tv_distance(snap, expected) <= 1e-12
    assert traj.at(float(dt)).n_atoms == traj.snapshots[1][1].n_atoms
    with pytest.raises(ValueError):
        traj.at(1.5)


def test_step_difference_bound():
    mu0, vel, src, params = reference_problem()
    traj = sample_and_hold(mu0, vel, src, 1.0, 4, FlowConfig(1 / 16))
    consts = traj.constants(1.0)
    speed = consts["M"] * consts["m"] + consts["P"]
    snaps = traj.snapshots
    for i in range(0, len(snaps), 3):
        for j in range(i, len(snaps), 4):
            d = gw_distance(snaps[i][1], snaps[j][1], params).value
            assert d <= abs(snaps[i][0] - snaps[j][0]) * speed + 1e-6


def test_memory_cap():
    mu0 = uniform_cloud()
    with pytest.raises(ValueError):
        sample_and_hold(mu0, constant_velocity(0.5), zero_source(), 1.0, 11)
    with pytest.raises(ValueError):
        # mass can reach 1 + 0.2 but the cap certifies only 1.05
        sample_and_hold(mu0, constant_velocity(0.5, mass_cap=1.05), fixed_source(), 1.0, 2)


def test_linear_field_run_leaving_its_ball_raises():
    # v(x) = x carries delta_0.9 to 0.9 e > 1 by T = 1, outside the ball of
    # radius 1 on which the field's sup bound holds
    velocity = build_velocity_model({"base": {"kind": "linear", "matrix": [[1.0]],
                                              "sup_radius": 1.0},
                                     "kernel": {"kind": "zero"}}, PARAMS, 2.0)
    with pytest.raises(ValueError, match="outside the radius"):
        sample_and_hold(DiscreteMeasure.dirac(0.9), velocity, zero_source(), 1.0, 3)
    # inside the ball the run goes through
    sample_and_hold(DiscreteMeasure.dirac(0.3), velocity, zero_source(), 1.0, 3)


def test_cauchy_table_zero_for_exact_scheme():
    mu0 = uniform_cloud()
    tab = cauchy_table(mu0, constant_velocity(0.7), zero_source(), 1.0, 3, 6,
                       PARAMS, FlowConfig(1 / 64))
    for row in tab.rows:
        assert row.d_k <= 1e-12
    assert tab.slope is None


def test_cauchy_table_reference_problem_small():
    mu0, vel, src, params = reference_problem()
    tab = cauchy_table(mu0, vel, src, 1.0, 3, 5, params, FlowConfig(1 / 64))
    ds = np.array([row.d_k for row in tab.rows])
    assert all(row.d_k <= row.bound for row in tab.rows)
    assert np.all(np.diff(ds) < 0)
    assert tab.slope is not None and tab.slope <= -0.8
    assert tab.constants["C2"] == pytest.approx(
        tab.constants["m"] * tab.constants["N"]
        * (tab.constants["M"] * tab.constants["m"] + tab.constants["P"])
        + tab.constants["M"] * tab.constants["P"] / 4.0)


def test_cauchy_table_solves_take_the_w1_potential(monkeypatch):
    # every level pair carries the same mass and its W1 potential fits in
    # [-a, a], so no solve runs the chain DP; forcing the DP gives the same
    # D_k.  ODE step 1/512, as in the scheme_cauchy benchmark workload
    mu0, vel, src, params = reference_problem()
    calls = []
    dp = _minflow._dual_chain_dp
    monkeypatch.setattr(_minflow, "_dual_chain_dp", lambda *args: calls.append(1) or dp(*args))
    d_w1 = [row.d_k for row in cauchy_table(mu0, vel, src, 1.0, 3, 5, params,
                                            FlowConfig(1 / 512)).rows]
    assert not calls
    monkeypatch.setattr(_minflow, "_w1_potential", lambda *args: None)
    d_dp = [row.d_k for row in cauchy_table(mu0, vel, src, 1.0, 3, 5, params,
                                            FlowConfig(1 / 512)).rows]
    assert len(calls) == sum((1 << k) + 1 for k in range(3, 6))
    assert d_w1 == pytest.approx(d_dp, rel=_minflow.RECOMPOSE_TOL)


def test_continuous_dependence_trivial_and_translation():
    mu0 = uniform_cloud()
    vel = constant_velocity(0.5)
    rows = continuous_dependence_check(mu0, mu0, vel, zero_source(), 1.0, 3, PARAMS)
    assert all(r.distance <= 1e-12 for r in rows)
    shifted = DiscreteMeasure(1, mu0.positions + 0.05, mu0.weights)
    rows = continuous_dependence_check(mu0, shifted, vel, zero_source(), 1.0, 3, PARAMS)
    base = rows[0].distance
    for r in rows:
        # rigid joint translation: the distance never changes
        assert r.distance == pytest.approx(base, abs=1e-9)
        assert r.distance <= r.bound + 1e-12


def test_continuous_dependence_reference_problem():
    mu0, vel, src, params = reference_problem()
    shifted = DiscreteMeasure(1, mu0.positions + 0.05, mu0.weights)
    rows = continuous_dependence_check(mu0, shifted, vel, src, 1.0, 4, params,
                                       FlowConfig(1 / 16))
    for r in rows:
        assert r.distance <= r.bound + 1e-9


def test_p_not_one_warns():
    mu0 = uniform_cloud()
    with pytest.warns(UserWarning, match="p = 1"):
        cauchy_table(mu0, constant_velocity(0.1), zero_source(), 1.0, 3, 6,
                     GwParams(1.0, 1.0, 2.0), FlowConfig(1 / 64))


def test_source_builders_and_modulation():
    sat = build_source_model({"kind": "bump_quadrature", "radius": 0.3, "sites": 6,
                              "mass": 0.4, "modulation": {"kind": "saturating",
                                                          "max_mass": 2.0}})
    assert sat.P == pytest.approx(0.4)
    assert sat.Q == pytest.approx(0.4 / 2.0)
    light = sat.evaluate(DiscreteMeasure.dirac(0.0, 1.0))
    heavy = sat.evaluate(DiscreteMeasure.dirac(0.0, 3.0))
    assert total_mass(light) == pytest.approx(0.4 * 0.5)
    assert total_mass(heavy) == 0.0
    with pytest.raises(ValueError):
        build_source_model({"kind": "rain"})
    with pytest.raises(ValueError):
        SaturatingModulation(0.0)
    # Lipschitz property of the source in the generalized distance
    rng = np.random.default_rng(6)
    for _ in range(20):
        mu = DiscreteMeasure(1, rng.uniform(-1, 1, (4, 1)), rng.uniform(0.1, 1, 4))
        nu = DiscreteMeasure(1, rng.uniform(-1, 1, (3, 1)), rng.uniform(0.1, 1, 3))
        lhs = gw_distance(sat.evaluate(mu), sat.evaluate(nu), PARAMS).value
        rhs = sat.Q * gw_distance(mu, nu, PARAMS).value
        assert lhs <= rhs + 1e-9
