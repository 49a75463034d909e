import json

import numpy as np
import pytest
from exact_oracle import exact_p1_gw
from hypothesis import given, settings
from hypothesis import strategies as st

from gwass import _minflow, gw
from gwass.gw import GwParams, _gw_dense_p1, gw_brute_force, gw_distance
from gwass.lab import box_closed_form
from gwass.measures import (DiscreteMeasure, add, canonicalize, scale,
                            total_mass, tv_distance)
from gwass.transport import cost_matrix


def random_instance(rng, dim=1, max_atoms=6):
    n = int(rng.integers(1, max_atoms + 1))
    return DiscreteMeasure(dim, rng.uniform(-2, 2, (n, dim)), rng.uniform(0.05, 2, n))


def traced_gw(mu, nu, params):
    """gw of canonical measures by the p > 1 scan over the whole SSP trace of
    T(m): an oracle that runs no HiGHS solve at any size and any p."""
    vertices = _minflow.trace_partial_transport(cost_matrix(mu, nu, params.p),
                                                mu.weights, nu.weights)
    return gw._scan(mu, nu, params, vertices).value


def test_params_validation():
    with pytest.raises(ValueError):
        GwParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        GwParams(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        GwParams(1.0, 1.0, 0.9)
    assert GwParams(1.0, 4.0).truncation_radius == 0.5


def test_dirac_tie_prefers_removal():
    r = gw_distance(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(2.0),
                    GwParams(1.0, 1.0, 1.0))
    assert r.value == pytest.approx(2.0, abs=1e-12)
    assert r.removed_source_mass == pytest.approx(1.0)
    assert r.removed_target_mass == pytest.approx(1.0)
    assert r.plan.flows.size == 0


def test_identical_measures_distance_zero():
    rng = np.random.default_rng(2)
    mu = random_instance(rng, dim=2)
    for p in (1.0, 2.0):
        r = gw_distance(mu, mu, GwParams(0.7, 1.3, p))
        assert r.value <= 1e-12
        assert r.removed_source_mass <= 1e-12


def test_zero_measure_gives_removal_cost():
    nu = DiscreteMeasure.from_atoms(1, [([0.0], 1.0), ([5.0], 2.0)])
    for p in (1.0, 2.0):
        r = gw_distance(DiscreteMeasure.zero(1), nu, GwParams(1.5, 1.0, p))
        assert r.value == pytest.approx(1.5 * 3.0, abs=1e-12)
    assert gw_distance(DiscreteMeasure.zero(1), DiscreteMeasure.zero(1),
                       GwParams(1.0, 1.0, 1.0)).value == 0.0


def test_two_atom_mixed_strategy_example():
    mu = DiscreteMeasure.from_atoms(1, [([1.0], 2.0)])
    nu = DiscreteMeasure.from_atoms(1, [([0.0], 1.0), ([2.0], 1.0)])
    r = gw_distance(mu, nu, GwParams(1.0, 1.0, 1.0))
    # transport both: 2b; remove all: 4a; mixed: b + 2a -> min is 2
    assert r.value == pytest.approx(2.0, abs=1e-12)


def test_box_closed_form_against_scalar_minimization():
    from scipy.optimize import minimize_scalar
    for x in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        res = minimize_scalar(lambda y: 2 - 2 * y + x * y + y * y,
                              bounds=(0.0, 1.0), method="bounded",
                              options={"xatol": 1e-12})
        assert box_closed_form(x) == pytest.approx(res.fun, abs=1e-8)
    assert box_closed_form(0.0) == pytest.approx(1.0)
    assert box_closed_form(1.0) == pytest.approx(1.75)
    assert box_closed_form(2.0) == pytest.approx(2.0)
    assert box_closed_form(3.0) == pytest.approx(2.0)


def test_solver_paths_agree(monkeypatch):
    # at p=1: the line DP (1-d), the dense LP on each backend, and the
    # parametric scan over the SSP trace; sizes reach both sides of the
    # SSP/HiGHS crossover
    rng = np.random.default_rng(17)
    for dim, max_atoms, count in ((1, 6, 120), (2, 8, 60), (2, 20, 12), (3, 20, 12)):
        for _ in range(count):
            mu = canonicalize(random_instance(rng, dim, max_atoms))
            nu = canonicalize(random_instance(rng, dim, max_atoms))
            params = GwParams(rng.uniform(0.1, 10), rng.uniform(0.1, 10), 1.0)
            scan = traced_gw(mu, nu, params)
            for ssp_max in (0, 1000):
                with monkeypatch.context() as patch:
                    patch.setattr(_minflow, "SSP_MAX_ATOMS", ssp_max)
                    dense = _gw_dense_p1(mu, nu, params).value
                assert dense == pytest.approx(scan, abs=1e-9, rel=1e-9)
            assert gw_distance(mu, nu, params).value == pytest.approx(scan, abs=1e-9, rel=1e-9)


def test_dense_p1_matches_network_simplex(monkeypatch):
    # an oracle independent of both LP backends: the exact min-cost flow of
    # exact_p1_gw, in rational arithmetic on the float distances
    rng = np.random.default_rng(41)
    sizes = []

    def lattice_measure():
        n = int(rng.integers(1, 17))
        return canonicalize(DiscreteMeasure(2, rng.integers(0, 6, (n, 2)).astype(float),
                                            rng.integers(1, 6, n).astype(float)))

    for _ in range(60):
        mu, nu = lattice_measure(), lattice_measure()
        params = GwParams(rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0), 1.0)
        sizes.append(max(mu.n_atoms, nu.n_atoms))
        exact = exact_p1_gw(mu, nu, params.a, params.b)
        bound = _minflow.RECOMPOSE_TOL * params.a * (total_mass(mu) + total_mass(nu))
        for ssp_max in (_minflow.SSP_MAX_ATOMS, 0):
            with monkeypatch.context() as patch:
                patch.setattr(_minflow, "SSP_MAX_ATOMS", ssp_max)
                assert abs(_gw_dense_p1(mu, nu, params).value - float(exact)) <= bound
    # the default crossover sends some instances to each backend
    assert min(sizes) <= _minflow.SSP_MAX_ATOMS < max(sizes)


def test_oracle_bounds_solver():
    rng = np.random.default_rng(29)
    for _ in range(40):
        mu = random_instance(rng, max_atoms=2)
        nu = random_instance(rng, max_atoms=2)
        p = float(rng.choice([1.0, 2.0]))
        params = GwParams(rng.uniform(0.1, 5), rng.uniform(0.1, 5), p)
        sol = gw_distance(mu, nu, params).value
        oracle = gw_brute_force(mu, nu, params, 50)
        assert sol <= oracle + 1e-9
        n_arcs = canonicalize(mu).n_atoms * canonicalize(nu).n_atoms
        delta = min(total_mass(mu), total_mass(nu)) / 50
        assert oracle - sol <= 2 * params.a * n_arcs * delta + 1e-12


def test_oracle_examples_and_guards():
    params = GwParams(1.0, 1.0, 1.0)
    assert gw_brute_force(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(3.0),
                          params, 50) == pytest.approx(2.0, abs=1e-12)
    mu = DiscreteMeasure.from_atoms(1, [([0.0], 1.0), ([1.0], 1.0)])
    assert gw_brute_force(mu, mu, params, 20) == pytest.approx(0.0, abs=1e-12)
    big = DiscreteMeasure(1, np.zeros((4, 1)) + np.arange(4)[:, None], np.ones(4))
    with pytest.raises(ValueError):
        gw_brute_force(big, big, params, 10)  # 8 atoms in total
    with pytest.raises(ValueError):
        gw_brute_force(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0), params, 51)


def test_metric_axioms_random():
    rng = np.random.default_rng(41)
    for _ in range(120):
        dim = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        params = GwParams(rng.uniform(0.1, 10), rng.uniform(0.1, 10), p)
        mu, nu, eta = (random_instance(rng, dim) for _ in range(3))
        g_mn = gw_distance(mu, nu, params).value
        g_nm = gw_distance(nu, mu, params).value
        g_ne = gw_distance(nu, eta, params).value
        g_me = gw_distance(mu, eta, params).value
        scale_ref = max(1.0, g_me)
        assert abs(g_mn - g_nm) <= 1e-9 * max(1.0, g_mn)
        assert g_me <= g_mn + g_ne + 1e-9 * scale_ref
        wm, wn = total_mass(mu), total_mass(nu)
        assert params.a * abs(wm - wn) <= g_mn + 1e-9
        assert g_mn <= params.a * (wm + wn) + 1e-9
        g_sum = gw_distance(add(mu, nu), add(nu, eta), params).value
        assert g_sum <= g_mn + g_ne + 1e-9 * max(1.0, g_sum)
        k = float(rng.uniform(0, 3))
        g_k = gw_distance(scale(mu, k), scale(nu, k), params).value
        assert g_k <= max(k ** (1 / p), k) * g_mn + 1e-9 * max(1.0, g_k)


@st.composite
def scale_extreme_case(draw):
    """Pair in dimension 1 or 2 at p = 1 or 2, so every solver path is
    reached, with weights in 1e-9..1e9, coordinates up to 1e9 and b/a in
    1e-6..1e6."""
    dim = draw(st.sampled_from([1, 2]))
    p = draw(st.sampled_from([1.0, 2.0]))

    def measure():
        n = draw(st.integers(1, 8))
        xs = draw(st.lists(st.floats(-1e9, 1e9), min_size=n * dim, max_size=n * dim))
        logs = draw(st.lists(st.floats(-9, 9), min_size=n, max_size=n))
        return DiscreteMeasure(dim, np.reshape(xs, (n, dim)), 10.0 ** np.array(logs))
    a = 10.0 ** draw(st.floats(-3, 3))
    return measure(), measure(), GwParams(a, a * 10.0 ** draw(st.floats(-6, 6)), p)


@given(scale_extreme_case())
@settings(max_examples=500, deadline=None)
def test_line_p1_at_scale_extremes_is_bounded_and_symmetric(case):
    # no raise is allowed: a certificate or recomposition raise on these
    # valid instances would be a false alarm
    mu, nu, params = case
    forward = gw_distance(mu, nu, params).value
    backward = gw_distance(nu, mu, params).value
    assert_bounded_and_symmetric(mu, nu, params, forward, backward)


def test_scale_extremes_from_seeded_draws_solve_bounded_and_symmetric():
    # scale_extreme_case's distribution drawn by numpy: draws are not shrunk
    # toward edge cases, and none may raise, so a false certificate raise on
    # a correct solve or a witness read fails here; every p=1 value must
    # match the exact oracle
    rng = np.random.default_rng(20261019)
    for _ in range(800):
        dim = int(rng.choice([1, 2]))
        p = float(rng.choice([1.0, 2.0]))

        def measure():
            n = int(rng.integers(1, 9))
            return DiscreteMeasure(dim, rng.uniform(-1e9, 1e9, (n, dim)),
                                   10.0 ** rng.uniform(-9, 9, n))
        mu, nu = measure(), measure()
        a = 10.0 ** rng.uniform(-3, 3)
        params = GwParams(a, a * 10.0 ** rng.uniform(-6, 6), p)
        forward, backward = gw_distance(mu, nu, params), gw_distance(nu, mu, params)
        assert_bounded_and_symmetric(mu, nu, params, forward.value, backward.value)
        # reading the witness runs _assemble on every path, the line path included
        tol = _minflow.RECOMPOSE_TOL * params.a * (total_mass(mu) + total_mass(nu))
        for r in (forward, backward):
            assert abs(r.value - r.value_from_parts(params)) <= tol
        if p == 1.0:
            exact = exact_p1_gw(canonicalize(mu), canonicalize(nu), params.a, params.b)
            assert abs(forward.value - float(exact)) <= tol


def assert_bounded_and_symmetric(mu, nu, params, forward, backward):
    a, wm, wn = params.a, total_mass(mu), total_mass(nu)
    slack = 1e-9 * a * (wm + wn)
    assert a * abs(wm - wn) - slack <= forward <= a * (wm + wn) + slack
    assert abs(forward - backward) <= slack


@pytest.mark.parametrize("dim, p, shift", [(1, 1.0, 0.0), (2, 1.0, 0.0), (2, 2.0, 0.0),
                                           (2, 2.0, 0.01)])
def test_small_kept_atom_beside_a_huge_one(dim, p, shift):
    # weights across 14 decades: the 7.6e-8 atom is transported, not removed,
    # so the witness recomposes to the solver's optimum
    pos = np.repeat(np.arange(3.0)[:, None], dim, axis=1)
    weights = [7.6e-8, 5.4e6, 1.0]
    mu = DiscreteMeasure(dim, pos, weights)
    r = gw_distance(mu, DiscreteMeasure(dim, pos + shift, weights), GwParams(1.0, 1.0, p))
    assert r.kept_source.n_atoms == r.kept_target.n_atoms == 3
    assert r.plan.flows.tolist() == pytest.approx(weights, rel=1e-9)
    if shift == 0.0:
        assert r.value == 0.0


@pytest.mark.parametrize("mu, p", [
    (DiscreteMeasure(2, [[0.0, 0.0], [1.0, 1.0]], [1e-8, 1e8]), 2.0),
    (DiscreteMeasure(2, [[0.0, 0.0], [1.0, 1.0]], [1e-8, 1e8]), 1.0),
    (DiscreteMeasure.dirac(0.0, 1e-13), 1.0),
])
def test_identical_measures_at_extreme_masses_are_at_distance_zero(mu, p):
    # neither a tiny atom beside a huge one nor a tiny total mass may turn
    # transport at zero cost into a removal
    r = gw_distance(mu, mu, GwParams(1.0, 1.0, p))
    assert r.value == pytest.approx(0.0, abs=1e-12 * 2 * total_mass(mu))


def test_identical_pairs_across_sixteen_decades_recompose_to_zero():
    # 8 atoms with weights 10^U(-8, 8.5): the witness recomposes to 0 within
    # 1e-9 a(|mu| + |nu|), whichever path and parameters solve it
    rng = np.random.default_rng(160)
    for k in range(160):
        a, b = [(15.2, 24.0), (0.1, 1e-6), (40.0, 1e-4), (0.04, 450.0)][k % 4]
        p = 1.0 + (k // 4) % 2
        mu = DiscreteMeasure(2, rng.uniform(-3000, 3000, (8, 2)), 10.0 ** rng.uniform(-8, 8.5, 8))
        value = gw_distance(mu, mu, GwParams(a, b, p)).value
        assert value <= 1e-9 * a * 2 * total_mass(mu)


def test_value_is_homogeneous_in_the_mass():
    # gw_{a,b}(k mu, k nu) = k gw_{a, b k^(1/p - 1)}(mu, nu) on every solver
    # path, with dense p=1 sizes on both sides of the SSP/HiGHS crossover
    rng = np.random.default_rng(2014)
    sizes = [(1, 1), (1, 4), (3, 2), (5, 6), (6, 6), (16, 14)]
    for dim in (1, 2):
        for p in (1.0, 2.0):
            for n, m in sizes:
                mu = DiscreteMeasure(dim, rng.uniform(-2, 2, (n, dim)), rng.uniform(0.05, 2, n))
                nu = DiscreteMeasure(dim, rng.uniform(-2, 2, (m, dim)), rng.uniform(0.05, 2, m))
                a, b = rng.uniform(0.2, 3), rng.uniform(0.2, 3)
                slack = 1e-9 * a * (total_mass(mu) + total_mass(nu))
                for k in (1e-15, 1e-12, 1e-9, 1e9, 1e12, 1e15):
                    unit = gw_distance(mu, nu, GwParams(a, b * k ** (1 / p - 1), p)).value
                    scaled = gw_distance(scale(mu, k), scale(nu, k), GwParams(a, b, p)).value
                    assert abs(scaled / k - unit) <= slack, (dim, p, n, m, k)


def record_highs_solves(monkeypatch):
    """Patch ``_minflow._highs`` so that each solve on each model it builds
    appends whether HiGHS's answer passed (status and KKT check)."""
    passed = []
    highs_model = _minflow._highs

    def highs(*args):
        solve = highs_model(*args)

        def recorded(c):
            solved = solve(c)
            passed.append(solved is not None)
            return solved
        return recorded

    monkeypatch.setattr(_minflow, "_highs", highs)
    return passed


@pytest.mark.parametrize("lo, hi, count", [(5, 8, 12), (20, 24, 3)])
def test_dense_p1_with_huge_masses_and_tiny_b(lo, hi, count, monkeypatch):
    # weights 10^U(7, 9) with b/a = 10^U(-6, -3): unscaled, HiGHS reported
    # such bounded LPs "unbounded"; the SSP solves them below the crossover,
    # and above it HiGHS, seeing unit masses, must solve every one itself
    solves = record_highs_solves(monkeypatch)
    rng = np.random.default_rng(79 + lo)
    for _ in range(count):
        n, m = (int(v) for v in rng.integers(lo, hi + 1, 2))
        mu = DiscreteMeasure(2, rng.uniform(-3, 3, (n, 2)), 10.0 ** rng.uniform(7, 9, n))
        nu = DiscreteMeasure(2, rng.uniform(-3, 3, (m, 2)), 10.0 ** rng.uniform(7, 9, m))
        a = rng.uniform(0.1, 2)
        params = GwParams(a, a * 10.0 ** rng.uniform(-6, -3))
        value = gw_distance(mu, nu, params).value
        scan = traced_gw(canonicalize(mu), canonicalize(nu), params)
        assert abs(value - scan) <= 1e-9 * a * (total_mass(mu) + total_mass(nu))
    assert solves == [True] * (count if lo > _minflow.SSP_MAX_ATOMS else 0)


def extreme_mass_draws(rng, count):
    """``count`` canonical pairs above the crossover, 13 to 29 atoms per
    side, dimension 1 to 3 (2 or 3 at p = 1, where 1-d runs the line
    solver), p in {1, 1.5, 2}, positions scaled by 10^U(-6, 6), weights
    10^U(-12, 12) times 10^U(-3, 3) per atom and 2a/b from a tenth to three
    times the spread of the positions; then one pair whose 1e-14 share of
    its measure's mass sits beside atoms of 1e6."""
    for _ in range(count):
        p = float(rng.choice([1.0, 1.5, 2.0]))
        dim = int(rng.integers(1 if p > 1 else 2, 4))
        spread, mass = 10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(-12, 12)
        mu, nu = (canonicalize(DiscreteMeasure(dim, spread * rng.uniform(-1, 1, (n, dim)),
                                               mass * 10.0 ** rng.uniform(-3, 3, n)))
                  for n in rng.integers(13, 30, 2))
        a = 10.0 ** rng.uniform(-3, 3)
        yield mu, nu, GwParams(a, 2 * a / (spread * 10.0 ** rng.uniform(-1, 0.5)), p)
    weights = np.full(14, 1e6)
    weights[0] = 1e-14 * weights[1:].sum()
    pos = rng.uniform(0, 1, (14, 2))
    for p in (1.0, 2.0):
        yield (canonicalize(DiscreteMeasure(2, pos, weights)),
               canonicalize(DiscreteMeasure(2, pos + 0.01, weights)), GwParams(1.0, 1.0, p))


def test_extreme_masses_above_the_crossover_need_no_fallback(monkeypatch):
    # HiGHS's feasibility tolerances are absolute, so it must see the masses
    # scaled: every solve above the crossover passes its own certificate,
    # and every value is the oracle's, the exact one at p = 1 and the SSP
    # trace at p > 1
    solves = record_highs_solves(monkeypatch)
    for mu, nu, params in extreme_mass_draws(np.random.default_rng(2025), 120):
        value = gw_distance(mu, nu, params).value
        if params.p == 1.0:
            oracle = float(exact_p1_gw(mu, nu, params.a, params.b))
        else:
            oracle = traced_gw(mu, nu, params)
        tol = _minflow.RECOMPOSE_TOL * params.a * (total_mass(mu) + total_mass(nu))
        assert abs(value - oracle) <= tol, (params, mu.n_atoms, nu.n_atoms)
    assert len(solves) >= 120 and all(solves), solves.count(False)


@pytest.mark.parametrize("ssp_max", [_minflow.SSP_MAX_ATOMS, 0], ids=["ssp", "highs"])
def test_dense_p1_moves_mass_on_arcs_just_inside_the_cutoff(ssp_max, monkeypatch):
    # three pairs 10 apart at b*d = 0.995, 0.992 and 0.998 times 2a: each
    # saves (2a - b*d) per unit moved, so the optimum moves mass on all
    # three; an arc mask cut at 0.99 * 2a would drop them and return removal
    monkeypatch.setattr(_minflow, "SSP_MAX_ATOMS", ssp_max)
    a, b = 1.5, 0.75
    radius = 2 * a / b
    mu = canonicalize(DiscreteMeasure(2, [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]], [1.0, 2.0, 0.5]))
    nu = canonicalize(DiscreteMeasure(2, [[0.0, 0.995 * radius], [10.0, 0.992 * radius],
                                          [20.0, 0.998 * radius]], [1.5, 1.0, 0.5]))
    r = gw_distance(mu, nu, GwParams(a, b, 1.0))
    exact = exact_p1_gw(mu, nu, a, b)
    assert abs(r.value - float(exact)) <= _minflow.RECOMPOSE_TOL * a * 6.5
    assert float(exact) < a * 6.5 - 0.01
    assert r.plan.flows.size == 3


def probe_pairs(seed, count, radius):
    """``count`` 2-d canonical pairs with 13 to 18 atoms per side in the unit
    square, above the crossover, each with a in [0.5, 2] and 2a/b in
    ``radius``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mu, nu = (canonicalize(DiscreteMeasure(2, rng.uniform(0, 1, (n, 2)),
                                               rng.uniform(0.05, 2, n)))
                  for n in rng.integers(13, 19, 2))
        a = rng.uniform(0.5, 2.0)
        yield mu, nu, a, 2 * a / rng.uniform(*radius)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_probes_above_the_crossover_agree_with_the_trace(p, monkeypatch):
    # every arc inside 2a/b: the optimum moves all the mass, and the two
    # probes certify it with no trace
    traces = count_calls(monkeypatch, _minflow, "trace_partial_transport")
    solves = record_highs_solves(monkeypatch)
    for mu, nu, a, b in probe_pairs(int(10 * p), 8, (1.5, 2.0)):
        params = GwParams(a, b, p)
        r = gw_distance(mu, nu, params)
        assert traces == [] and solves == [True, True]
        tol = _minflow.RECOMPOSE_TOL * a * (total_mass(mu) + total_mass(nu))
        assert abs(r.value - traced_gw(mu, nu, params)) <= tol
        assert abs(r.value - r.value_from_parts(params)) <= tol
        assert total_mass(r.kept_source) == pytest.approx(
            min(total_mass(mu), total_mass(nu)), rel=1e-12)
        traces.clear()
        solves.clear()


def test_interior_optimum_above_the_crossover_falls_back_to_the_trace(monkeypatch):
    # 2a/b in [0.05, 0.1] of the unit square: the optimum moves less than
    # all the mass it could, so probe 2 leaves a gap and the trace decides;
    # its answer is the oracle's
    traces = count_calls(monkeypatch, _minflow, "trace_partial_transport")
    for mu, nu, a, b in probe_pairs(5, 6, (0.05, 0.1)):
        params = GwParams(a, b, 2.0)
        r = gw_distance(mu, nu, params)
        assert len(traces) == 1
        assert r.value == traced_gw(mu, nu, params)
        assert total_mass(r.kept_source) < 0.99 * min(total_mass(mu), total_mass(nu))
        traces.clear()


def test_zero_cost_top_vertex_needs_one_probe(monkeypatch):
    # 14 shared sites with 1.5 times more mass on nu: all of mu moves at
    # zero cost, so T* = 0, f(m_max) is least, and probe 2 is skipped
    traces = count_calls(monkeypatch, _minflow, "trace_partial_transport")
    solves = record_highs_solves(monkeypatch)
    rng = np.random.default_rng(14)
    pos, w = rng.uniform(0, 1, (14, 2)), rng.uniform(0.05, 2, 14)
    mu, nu = DiscreteMeasure(2, pos, w), DiscreteMeasure(2, pos, 1.5 * w)
    r = gw_distance(mu, nu, GwParams(0.7, 1.3, 2.0))
    assert traces == [] and solves == [True]
    assert r.value == pytest.approx(0.7 * 0.5 * w.sum(), rel=1e-12)
    assert r.plan.cost(2.0) == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_probe_two_rejects_a_top_vertex_worse_than_removal(p, monkeypatch):
    # 12 shared sites 10 apart, and a 13th pair at distance d = 2.5a/b, all
    # of weight 1: T is 0 up to m = 12, then rises with slope d^p.  Moving
    # the 13th pair costs b*d = 2.5a > 2a, so the optimum removes it and
    # gw = 2a.  Probe 2's slope 2a d^(p-1)/b is below d^p, which leaves the
    # gap that rejects the top vertex; 1.5 times that slope would reach d^p
    # and accept it.
    traces = count_calls(monkeypatch, _minflow, "trace_partial_transport")
    a, b = 1.0, 1.0
    x = np.column_stack([10.0 * np.arange(13), np.zeros(13)])
    y = x.copy()
    y[-1, 1] = 2.5 * a / b
    mu, nu = DiscreteMeasure(2, x, np.ones(13)), DiscreteMeasure(2, y, np.ones(13))
    r = gw_distance(mu, nu, GwParams(a, b, p))
    assert len(traces) == 1
    assert r.value == pytest.approx(2 * a, abs=_minflow.RECOMPOSE_TOL * a * 26)


@pytest.mark.parametrize("case, failing_run", [("parametric_p2", 1), ("parametric_p2", 2),
                                               ("dense_p1", 1)],
                         ids=["probe_1", "probe_2", "dense_p1"])
def test_a_non_optimal_highs_status_falls_back_to_the_ssp(case, failing_run, monkeypatch):
    # HiGHS's own status is forced to "unbounded" on one run: the p > 1
    # solve returns the trace's answer, the dense p = 1 solve the SSP's
    from scipy.optimize._highspy import _core

    runs = []

    class FailingHighs(_core._Highs):
        def run(self):
            runs.append(1)
            return super().run()

        def getModelStatus(self):
            if len(runs) == failing_run:
                return _core.HighsModelStatus.kUnbounded
            return super().getModelStatus()

    monkeypatch.setattr(_core, "_Highs", FailingHighs)
    traces = count_calls(monkeypatch, _minflow, "trace_partial_transport")
    mu, nu = (canonicalize(m) for m in unit_cube_pair(2, 14, 9))
    if case == "dense_p1":
        value = gw_distance(mu, nu, GwParams(1.0, 1.0, 1.0)).value
        assert runs == [1] and traces == []
        assert abs(value - float(exact_p1_gw(mu, nu, 1.0, 1.0))) <= (
            _minflow.RECOMPOSE_TOL * (total_mass(mu) + total_mass(nu)))
    else:
        params = GwParams(1.0, 1.0, 2.0)
        value = gw_distance(mu, nu, params).value
        assert len(runs) == failing_run and len(traces) == 1
        assert value == traced_gw(mu, nu, params)


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(43)
    for _ in range(60):
        mu = random_instance(rng)
        nu = random_instance(rng)
        g = gw_distance(mu, nu, GwParams(1.0, 1.0, 1.0)).value
        if g <= 1e-12:
            assert tv_distance(mu, nu) <= 1e-9
        if tv_distance(mu, nu) == 0.0:
            assert g <= 1e-12


def test_truncation_radius_p1():
    rng = np.random.default_rng(47)
    for _ in range(80):
        dim = int(rng.integers(1, 3))
        mu = random_instance(rng, dim)
        nu = random_instance(rng, dim)
        params = GwParams(rng.uniform(0.1, 3), rng.uniform(0.5, 5), 1.0)
        r = gw_distance(mu, nu, params)
        assert r.plan.max_arc_length() <= params.truncation_radius + 1e-9


def test_truncation_radius_p2_logged_not_assumed():
    # for p > 1 the per-arc bound 2a/b is not assumed: arcs longer than it
    # are allowed (open question on large atom masses); every witness must
    # still recompose to its value
    rng = np.random.default_rng(53)
    for _ in range(80):
        mu = random_instance(rng)
        nu = random_instance(rng)
        params = GwParams(rng.uniform(0.1, 3), rng.uniform(0.5, 5), 2.0)
        r = gw_distance(mu, nu, params)
        tol = _minflow.RECOMPOSE_TOL * params.a * (total_mass(mu) + total_mass(nu))
        assert abs(r.value - r.value_from_parts(params)) <= tol


def test_witness_consistency_and_domination():
    rng = np.random.default_rng(59)
    for p in (1.0, 2.0):
        for _ in range(40):
            mu = random_instance(rng, dim=2)
            nu = random_instance(rng, dim=2)
            params = GwParams(rng.uniform(0.2, 4), rng.uniform(0.2, 4), p)
            r = gw_distance(mu, nu, params)
            assert r.value == pytest.approx(r.value_from_parts(params),
                                            abs=1e-9, rel=1e-9)
            assert total_mass(r.kept_source) == pytest.approx(
                total_mass(r.kept_target), abs=1e-9)
            # kept measures are atomwise dominated by the canonical inputs
            mu_c = canonicalize(mu)
            for pos, w in zip(r.kept_source.positions, r.kept_source.weights):
                match = np.flatnonzero(np.all(mu_c.positions == pos, axis=1))
                assert match.size == 1 and w <= mu_c.weights[match[0]] + 1e-9
            r.plan.check_marginals(1e-7)
            assert r.removed_source_mass >= -1e-12
            assert r.removed_target_mass >= -1e-12


def test_value_invariant_under_permutation_and_duplicates():
    rng = np.random.default_rng(61)
    mu = random_instance(rng, max_atoms=5)
    nu = random_instance(rng, max_atoms=5)
    params = GwParams(1.0, 2.0, 1.0)
    base = gw_distance(mu, nu, params).value
    perm = rng.permutation(mu.n_atoms)
    shuffled = DiscreteMeasure(1, mu.positions[perm], mu.weights[perm])
    assert gw_distance(shuffled, nu, params).value == pytest.approx(base, abs=1e-12)
    split = DiscreteMeasure(
        1, np.concatenate([mu.positions, mu.positions]),
        np.concatenate([mu.weights / 2, mu.weights / 2]))
    assert gw_distance(split, nu, params).value == pytest.approx(base, abs=1e-9)


def test_result_serializes_to_json():
    r = gw_distance(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(0.5),
                    GwParams(1.0, 1.0, 1.0))
    blob = json.loads(json.dumps(r.to_json()))
    assert blob["value"] == pytest.approx(0.5)
    assert blob["kept_source"]["atoms"][0]["w"] == pytest.approx(1.0)
    assert blob["plan"] == [[0, 0, 1.0]]


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        gw_distance(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac([0.0, 1.0]),
                    GwParams(1.0, 1.0, 1.0))


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def unit_cube_pair(dim, n, seed):
    """n atoms per side in the unit cube, every arc inside 2a/b at a = b = 1."""
    rng = np.random.default_rng(seed)
    return tuple(DiscreteMeasure(dim, rng.uniform(0, 1, (n, dim)), rng.uniform(0.5, 1.5, n))
                 for _ in range(2))


WITNESS_CASES = {   # mu, nu, p, HiGHS solves, monotone couplings on first read,
                    # and the known (value, kept mass, plan arcs) where pinned
    "line_p1": (DiscreteMeasure(1, [[0.0], [1.0], [4.0]], [1.0, 2.0, 0.5]),
                DiscreteMeasure(1, [[0.5], [1.5]], [1.5, 1.0]), 1.0, 0, 1, (2.25, 2.5, 3)),
    "dense_p1_ssp": (*unit_cube_pair(2, 12, 1), 1.0, 0, 0, None),
    "dense_p1_highs": (*unit_cube_pair(2, 13, 2), 1.0, 1, 0, None),
    "parametric_p2": (*unit_cube_pair(2, 6, 3), 2.0, 0, 0, None),
    "parametric_p2_probes": (*unit_cube_pair(2, 13, 10), 2.0, 1, 0, None),
    "empty_side": (DiscreteMeasure.zero(2), unit_cube_pair(2, 3, 4)[0], 1.0, 0, 0, None),
}


@pytest.mark.parametrize("mu, nu, p, highs_solves, couplings, known", WITNESS_CASES.values(),
                         ids=WITNESS_CASES.keys())
def test_witness_is_built_once_on_first_read(mu, nu, p, highs_solves, couplings, known,
                                             monkeypatch):
    # every path checks its value at solve time and builds no kept measure,
    # plan or 1-d coupling until a witness field is read
    params = GwParams(1.0, 1.0, p)
    highs = count_calls(monkeypatch, _minflow, "_highs")
    built = [count_calls(monkeypatch, *target) for target in (
        (gw, "DiscreteMeasure"), (gw, "TransportPlan"), (_minflow, "monotone_coupling"))]
    r = gw_distance(mu, nu, params)
    assert len(highs) == highs_solves
    assert [len(calls) for calls in built] == [0, 0, 0]
    plan = r.plan
    assert [len(calls) for calls in built] == [2, 1, couplings]
    if known is not None:
        value, kept_mass, arcs = known
        assert r.value == pytest.approx(value)
        assert total_mass(r.kept_source) == pytest.approx(kept_mass)
        assert plan.flows.size == arcs
    blob = r.to_json()
    assert r.plan is plan and [len(calls) for calls in built] == [2, 1, couplings]
    assert blob["value"] == r.value == pytest.approx(r.value_from_parts(params), abs=1e-12)


def off_optimum(function, off):
    """``function`` with the optimum it reports moved by ``off`` times
    a(|mu| + |nu|) at a = 1: the dense LP's objective, or every T(m) of the
    parametric trace."""
    def shifted(cost, supply, demand, *args):
        result = function(cost, supply, demand, *args)
        shift = off * (np.sum(supply) + np.sum(demand))
        if isinstance(result, list):
            return [(m, t + shift, flows) for m, t, flows in result]
        return (*result[:-1], result[-1] + shift)
    return shifted


@pytest.mark.parametrize("name, pair, p", [
    ("solve_partial_transportation", unit_cube_pair(2, 5, 5), 1.0),
    ("solve_partial_transportation", unit_cube_pair(2, 13, 6), 1.0),
    ("parametric_partial_transport", unit_cube_pair(2, 5, 7), 2.0),
    ("parametric_partial_transport", unit_cube_pair(2, 13, 8), 2.0),
], ids=["dense_p1_ssp", "dense_p1_highs", "parametric_p2", "parametric_p2_probes"])
def test_a_wrong_solver_optimum_raises_at_solve_time(name, pair, p, monkeypatch):
    params = GwParams(1.0, 1.0, p)
    gw_distance(*pair, params)
    off = 1e3 * _minflow.RECOMPOSE_TOL
    monkeypatch.setattr(_minflow, name, off_optimum(getattr(_minflow, name), off))
    with pytest.raises(RuntimeError, match="witness recomposition"):
        gw_distance(*pair, params)


def off_removals(source, target):
    """A _slack_witness whose removals at the first node are off by the given
    fractions of the total mass."""
    slack_witness = _minflow._slack_witness

    def corrupted(net, w_node, u_node, *args):
        removed_w, removed_u = slack_witness(net, w_node, u_node, *args)
        mass = float(np.sum(w_node) + np.sum(u_node))
        removed_w[0] += source * mass
        removed_u[0] += target * mass
        return removed_w, removed_u
    return corrupted


@pytest.mark.parametrize("source, target, message", [
    (1e-6, 0.0, "kept masses of the line solve differ"),
    (1e-6, 1e-6, "flux recomposition"),
], ids=["source_side", "both_sides"])
def test_line_p1_rejects_off_removals_before_any_witness_read(source, target, message,
                                                             monkeypatch):
    # node 0 holds one unit on each side, kept and transported at zero cost
    mu = DiscreteMeasure(1, [[0.0], [1.0]], [1.0, 1.0])
    nu = DiscreteMeasure(1, [[0.0], [1.5]], [1.0, 1.0])
    params = GwParams(1.0, 1.0, 1.0)
    assert gw_distance(mu, nu, params).value == pytest.approx(0.5)
    calls = count_calls(monkeypatch, _minflow, "monotone_coupling")
    monkeypatch.setattr(_minflow, "_slack_witness", off_removals(source, target))
    with pytest.raises(RuntimeError, match=message):
        gw_distance(mu, nu, params)
    assert len(calls) == 0


@pytest.mark.parametrize("x, w, y, u", [
    ([0.5], [1547224.4], [0.7], [6000365.1]),
    ([0.5, 0.6], [4618760.7, 3855500.6], [1.0], [1008278.1]),
    ([0.5, 0.7], [5448717.1, 1454053.7], [0.3, 0.5], [5769669.9, 1386933.1]),
])
def test_line_p1_flux_residue_across_a_long_gap_is_priced_as_removal(x, w, y, u):
    # an atom far beyond 2a/b is removed, so it adds a times its mass; the
    # kept masses of the near atoms cancel only to rounding, ~1e-9 here,
    # and that residue across the gap of 1e9 is not transport
    params = GwParams(1.0, 1.0, 1.0)
    mu = DiscreteMeasure(1, np.array(x)[:, None], w)
    near = gw_distance(mu, DiscreteMeasure(1, np.array(y)[:, None], u), params).value
    r = gw_distance(mu, DiscreteMeasure(1, np.array(y + [1e9])[:, None], u + [1.0]), params)
    tol = _minflow.RECOMPOSE_TOL * params.a * (sum(w) + sum(u) + 1.0)
    assert abs(r.value - (near + params.a)) <= tol
    assert abs(r.value_from_parts(params) - r.value) <= tol
