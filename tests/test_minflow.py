import numpy as np
import pytest
from exact_oracle import exact_p1_gw

from gwass import _minflow
from gwass._minflow import (CERT_TOL, RECOMPOSE_TOL, SLOPE_TOL, OptimalityCertificateError,
                            _check_certificate, monotone_coupling, solve_line_partial_w1,
                            solve_partial_transportation, solve_transportation,
                            trace_partial_transport)
from gwass.gw import GwParams, _assemble, gw_distance
from gwass.measures import DiscreteMeasure


def random_line_instance(rng):
    """Seeded 1-d instance mixing lattice positions, shared sites and b*d = 2a ties."""
    n, m = (int(k) for k in rng.integers(1, 13, 2))
    a = float(rng.choice([0.5, 1.0, 2.0]))
    b = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
    x = rng.uniform(-3, 3, n)
    y = rng.uniform(-3, 3, m)
    kind = int(rng.integers(4))
    if kind >= 1:           # lattice of pitch a/(2b): distances 2a/b occur exactly
        pitch = a / (2 * b)
        x = np.round(x / pitch) * pitch
        y = np.round(y / pitch) * pitch
    if kind >= 2:           # some source and target atoms share a position
        share = rng.random(m) < 0.5
        y[share] = rng.choice(x, int(share.sum()))
    if kind == 3:           # exact ties: targets 2a/b to the right of sources
        k = min(n, m)
        y[:k] = x[:k] + 2 * a / b
    w = rng.uniform(0.05, 2, n)
    u = rng.uniform(0.05, 2, m)
    if rng.random() < 0.3:
        w = np.round(w * 4) / 4 + 0.25
        u = np.round(u * 4) / 4 + 0.25
    return x, w, y, u, a, b


def test_line_solver_matches_exact_min_cost_flow():
    rng = np.random.default_rng(2016)
    for _ in range(600):
        x, w, y, u, a, b = random_line_instance(rng)
        kept_w, kept_u, value = solve_line_partial_w1(x, w, y, u, a, b)
        exact = exact_p1_gw(DiscreteMeasure(1, x[:, None], w), DiscreteMeasure(1, y[:, None], u),
                            a, b)
        assert value == pytest.approx(float(exact), rel=1e-9, abs=1e-12)
        assert np.all(kept_w >= 0) and np.all(kept_w <= w)
        assert np.all(kept_u >= 0) and np.all(kept_u <= u)
        # the kept parts are a witness: removal plus monotone transport recomposes
        assert kept_w.sum() == pytest.approx(kept_u.sum(), rel=1e-12, abs=1e-12)
        rows, cols, flows = monotone_coupling(x, kept_w, y, kept_u)
        transport = np.sum(flows * np.abs(x[rows] - y[cols]))
        recomposed = a * (w.sum() - kept_w.sum()) + a * (u.sum() - kept_u.sum()) + b * transport
        assert recomposed == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_line_flux_value_agrees_with_the_built_witness():
    # the 1-d p=1 value is recomposed from the removals and the gap fluxes;
    # the witness built later from the monotone coupling recomposes to it
    rng = np.random.default_rng(2016)
    for _ in range(600):
        x, w, y, u, a, b = random_line_instance(rng)
        params = GwParams(a, b, 1.0)
        r = gw_distance(DiscreteMeasure(1, x[:, None], w), DiscreteMeasure(1, y[:, None], u),
                        params)
        assert abs(r.value - r.value_from_parts(params)) <= RECOMPOSE_TOL * a * (w.sum() + u.sum())


def random_network(rng, equal_mass):
    n, m = (int(k) for k in rng.integers(1, 11, 2))
    x = rng.uniform(-2, 2, (n, 2))
    y = rng.uniform(-2, 2, (m, 2))
    p = float(rng.choice([1.5, 2.0, 3.0]))
    cost = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2) ** p
    supply = rng.uniform(0.05, 2, n)
    demand = rng.uniform(0.05, 2, m)
    if equal_mass:
        demand *= supply.sum() / demand.sum()
    return cost, supply, demand


@pytest.mark.parametrize("equal_mass", [False, True])
def test_trace_vertices_lie_on_a_feasible_convex_curve(equal_mass, monkeypatch):
    # HiGHS is the oracle of the end value, so the LP must not run the SSP
    monkeypatch.setattr(_minflow, "SSP_MAX_ATOMS", 0)
    rng = np.random.default_rng(41 + equal_mass)
    for _ in range(60):
        cost, supply, demand = random_network(rng, equal_mass)
        vertices = trace_partial_transport(cost, supply, demand)
        total = min(supply.sum(), demand.sum())
        tol = 1e-12 * max(total, 1.0)
        masses = [0.0] + [m for m, _, _ in vertices]
        costs = [0.0] + [t for _, t, _ in vertices]
        assert all(m1 > m0 for m0, m1 in zip(masses, masses[1:]))
        assert masses[-1] == pytest.approx(total, rel=1e-12)
        # chord slopes from the origin on are nondecreasing: T is convex
        slopes = [(t1 - t0) / (m1 - m0)
                  for m0, m1, t0, t1 in zip(masses, masses[1:], costs, costs[1:])]
        assert all(s1 >= s0 - 1e-9 * max(1.0, abs(s0)) for s0, s1 in zip(slopes, slopes[1:]))
        for m, t, flows in vertices:
            g = flows.reshape(cost.shape)
            assert np.all(g >= -tol)
            assert np.all(g.sum(axis=1) <= supply + tol)
            assert np.all(g.sum(axis=0) <= demand + tol)
            assert g.sum() == pytest.approx(m, rel=1e-12)
            assert np.sum(g * cost) == pytest.approx(t, rel=1e-9, abs=1e-12)
        if equal_mass:
            lp_value = solve_transportation(cost, supply, demand)[-1]
            assert costs[-1] == pytest.approx(lp_value, rel=1e-9)


def two_by_two_pair(partial):
    """A certified 2x2 transportation primal-dual pair ``(c, rows, cols, x, y)``.

    Arcs 00, 01, 10, 11 over unit supplies and demands; duals are the two
    supplies, then the two demands.  The identity plan is optimal: balanced
    with zero duals on costs [0, 1, 1, 0], or partial with duals -1 on costs
    [-2, 1, 1, -2].
    """
    rows, cols = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    x = np.array([1.0, 0.0, 0.0, 1.0])
    if partial:
        return np.array([-2.0, 1.0, 1.0, -2.0]), rows, cols, x, np.full(4, -1.0)
    return np.array([0.0, 1.0, 1.0, 0.0]), rows, cols, x, np.zeros(4)


# the certificate reads arcs in any order, not only _solve_lp's row-major one
@pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 1, 0, 2]], ids=["index", "permuted"])
@pytest.mark.parametrize("partial, x, y, message", [
    (False, [1.0, 0.5, 0.0, 1.0], None, "equality row violated"),
    (True, None, [0.5, -1.0, -1.0, -1.0], "dual sign violated on inequality row"),
    (False, None, [0.0, 0.0, 0.0, 2.0], "negative reduced cost"),
    (False, None, [-1.0, 0.0, 0.0, 0.0], "positive reduced cost"),
    (True, [1.0, 0.5, 0.0, 1.0], None, "inequality row violated"),
    (True, [0.5, 0.0, 0.0, 1.0], None, "complementary slackness violated"),
    (True, [1.0, -0.5, 0.0, 1.0], None, "negative flow"),
])
def test_certificate_rejects_each_corrupted_condition(partial, x, y, message, order):
    c, rows, cols, x0, y0 = two_by_two_pair(partial)
    c, rows, cols, x0 = c[order], rows[order], cols[order], x0[order]
    ones = np.ones(2)
    _check_certificate(c, rows, cols, ones, ones, partial, x0, y0)
    x = x0 if x is None else np.array(x)[order]
    y = y0 if y is None else np.array(y)
    with pytest.raises(OptimalityCertificateError, match=message):
        _check_certificate(c, rows, cols, ones, ones, partial, x, y)


def dense_partial_lp_value(cost, supply, demand, arc_mask):
    """The partial transportation LP on every cell of ``cost``, each cell
    outside ``arc_mask`` held at zero by its bounds: a HiGHS solve that
    shares no arc indexing with _minflow."""
    from scipy.optimize import linprog
    n, m = cost.shape
    a_ub = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    upper = np.where(arc_mask.ravel(), np.inf, 0.0)
    res = linprog(cost.ravel(), A_ub=a_ub, b_ub=np.concatenate([supply, demand]),
                  bounds=np.column_stack([np.zeros(n * m), upper]), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("ssp_max", [_minflow.SSP_MAX_ATOMS, 0], ids=["ssp", "highs"])
def test_partial_transportation_returns_the_masked_arcs(ssp_max, monkeypatch):
    monkeypatch.setattr(_minflow, "SSP_MAX_ATOMS", ssp_max)
    rng = np.random.default_rng(77)
    for _ in range(40):
        n, m = (int(k) for k in rng.integers(1, 9, 2))
        # negative costs inside the radius, as in the dense p=1 LP of gw
        cost = rng.uniform(0.0, 3.0, (n, m)) - 2.0
        supply, demand = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, m)
        arc_mask = rng.random((n, m)) < 0.6
        rows, cols, flows, value = solve_partial_transportation(cost, supply, demand, arc_mask)
        assert np.array_equal(rows, np.nonzero(arc_mask)[0])
        assert np.array_equal(cols, np.nonzero(arc_mask)[1])
        tol = 1e-9 * (supply.sum() + demand.sum())
        assert np.all(flows >= -tol)
        assert np.all(np.bincount(rows, flows, minlength=n) <= supply + tol)
        assert np.all(np.bincount(cols, flows, minlength=m) <= demand + tol)
        assert value == pytest.approx(float(np.dot(cost[rows, cols], flows)), rel=1e-12, abs=1e-12)
        assert value == pytest.approx(dense_partial_lp_value(cost, supply, demand, arc_mask),
                                      rel=1e-7, abs=1e-9)


#: Every name the HiGHS backend reads from scipy's bundled bindings, by owner.
HIGHS_BINDINGS = {
    "_core": ("HighsStatus", "MatrixFormat", "ObjSense", "HighsModelStatus", "_Highs",
              "kHighsInf"),
    "highs": ("setOptionValue", "passModel", "changeColsCost", "run", "getModelStatus",
              "getSolution"),
    "solution": ("col_value", "row_dual"),
}
#: The solver options the backend sets besides output and tolerances.
HIGHS_OPTIONS = {"presolve": "off", "simplex_strategy": 4}


def test_highs_bindings_provide_every_name_the_backend_uses(monkeypatch):
    # scipy's _highspy._core is private: pin what _minflow._highs reads from
    # it, and keep this list in step with the source
    import inspect
    import re

    from scipy.optimize._highspy import _core

    source = inspect.getsource(_minflow._highs)
    for owner, names in HIGHS_BINDINGS.items():
        assert set(re.findall(rf"\b{owner}\.(\w+)", source)) == set(names), owner
    for name in HIGHS_BINDINGS["_core"]:
        assert hasattr(_core, name), name
    assert _core.MatrixFormat.kColwise != _core.MatrixFormat.kRowwise
    assert _core.ObjSense.kMinimize != _core.ObjSense.kMaximize
    assert _core.HighsModelStatus.kOptimal.name == "kOptimal"
    assert _core.HighsStatus.kOk.name == "kOk"
    for name in HIGHS_BINDINGS["highs"]:
        assert callable(getattr(_core._Highs, name)), name
    for name in HIGHS_BINDINGS["solution"]:
        assert hasattr(_core.HighsSolution(), name), name
    # the two options are set, and HiGHS knows them and keeps their values
    options = {}

    class RecordingHighs(_core._Highs):
        def setOptionValue(self, name, value):
            options[name] = value
            return super().setOptionValue(name, value)

    monkeypatch.setattr(_core, "_Highs", RecordingHighs)
    c, rows, cols, _, _ = two_by_two_pair(True)
    _minflow._highs(rows, cols, np.ones(2), np.ones(2), True)(c)
    highs = RecordingHighs()
    for name, value in HIGHS_OPTIONS.items():
        assert options[name] == value, name
        assert highs.setOptionValue(name, value) == _core.HighsStatus.kOk, name
        assert highs.getOptionValue(name)[1] == value, name


@pytest.mark.parametrize("call", ["setOptionValue", "passModel", "changeColsCost"])
@pytest.mark.parametrize("entry", ["dense_p1", "probes"])
def test_a_highs_set_up_error_raises(call, entry, monkeypatch):
    # a set-up call that HiGHS rejects must not leave a model that quietly
    # fails every solve and falls back to the SSP
    from scipy.optimize._highspy import _core

    broken = type("BrokenHighs", (_core._Highs,),
                  {call: lambda self, *args: _core.HighsStatus.kError})
    monkeypatch.setattr(_core, "_Highs", broken)
    rng = np.random.default_rng(13)
    n = _minflow.SSP_MAX_ATOMS + 1
    cost = rng.uniform(0.0, 1.0, (n, n))
    supply, demand = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    with pytest.raises(RuntimeError, match=f"HiGHS set-up failed: {call}.* returned kError"):
        if entry == "dense_p1":
            solve_partial_transportation(cost - 2.0, supply, demand, np.ones((n, n), dtype=bool))
        else:
            _minflow.parametric_partial_transport(cost, supply, demand, 1.0, 1.0, 2.0)


def test_highs_solves_an_lp_of_zero_mass():
    # the masses are scaled by half their total, which must not divide by 0
    n = _minflow.SSP_MAX_ATOMS + 1
    cost = np.random.default_rng(3).uniform(-1.0, 1.0, (n, n))
    zero = np.zeros(n)
    _, _, flows, value = solve_partial_transportation(cost, zero, zero, np.ones((n, n), dtype=bool))
    assert value == 0.0 and not np.any(flows)


@pytest.mark.parametrize("partial", [False, True])
def test_highs_model_solves_again_from_its_basis_with_new_costs(partial):
    # the 2x2 pair, then its costs swapped within each row: a second solve
    # on the same model moves the plan to the other diagonal.  HiGHS sees
    # the same unit masses at any total: the flows come back in the
    # caller's units, and the duals, in the units of the costs, are the same
    c, rows, cols, x, _ = two_by_two_pair(partial)
    duals_at = {}
    for mass in (1.0, 1e-14, 1e14):
        masses = np.full(2, mass)
        solve = _minflow._highs(rows, cols, masses, masses, partial)
        for costs, plan in ((c, x), (c[[1, 0, 3, 2]], 1.0 - x)):
            flows, duals = solve(costs)
            assert flows == pytest.approx(mass * plan, abs=1e-12 * mass)
            _check_certificate(costs, rows, cols, masses, masses, partial, flows, duals)
            duals_at.setdefault(costs.tobytes(), duals)
            assert np.array_equal(duals, duals_at[costs.tobytes()])


LINE_PAIR = (np.array([0.0, 1.0]), np.array([1.0, 1.0]),
             np.array([0.5, 3.0]), np.array([1.0, 1.0]), 1.0, 1.0)


def test_line_solver_rejects_an_infeasible_dual_potential(monkeypatch):
    solve_line_partial_w1(*LINE_PAIR)
    monkeypatch.setattr(_minflow, "_backtrack", lambda argmax, step: np.full(len(argmax), 2.0))
    with pytest.raises(OptimalityCertificateError, match="infeasible"):
        solve_line_partial_w1(*LINE_PAIR)


def test_line_solver_rejects_a_dual_value_off_the_dp_maximum(monkeypatch):
    dp = _minflow._dual_chain_dp
    monkeypatch.setattr(_minflow, "_dual_chain_dp",
                        lambda *args: (dp(*args)[0] + 1e-3, dp(*args)[1]))
    with pytest.raises(OptimalityCertificateError, match="disagrees with the chain DP maximum"):
        solve_line_partial_w1(*LINE_PAIR)


# balanced, and its W1 potential [1, 0.5, 0.5, 0] spans 1 <= 2a
BALANCED_PAIR = (np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                 np.array([0.5, 1.5]), np.array([1.0, 1.0]), 1.0, 1.0)


def count_chain_dp_calls(monkeypatch):
    calls = []
    dp = _minflow._dual_chain_dp
    monkeypatch.setattr(_minflow, "_dual_chain_dp", lambda *args: calls.append(1) or dp(*args))
    return calls


@pytest.mark.parametrize("pair, dp_calls", [
    (BALANCED_PAIR, 0),
    (LINE_PAIR, 1),                     # balanced, but its W1 potential spans 2.5 > 2a
    ((np.array([0.0, 1.0]), np.array([1.0, 2.0]),
      np.array([0.5, 1.5]), np.array([1.0, 1.0]), 1.0, 1.0), 1),   # unbalanced
    # the same measure on both sides, spread over 3 > 2a/b: every S_i is 0
    ((np.array([0.0, 1.0, 3.0]), np.ones(3), np.array([0.0, 1.0, 3.0]), np.ones(3), 1.0, 1.0),
     0),
    # S_0 = (0.1 + 0.2) - 0.3 is a rounding residue across a gap of 3 > 2a/b
    ((np.array([0.0, 0.0, 3.0]), np.array([0.1, 0.2, 1.0]),
      np.array([0.0, 3.5]), np.array([0.3, 1.0]), 1.0, 1.0), 0),
], ids=["balanced-fits", "balanced-too-wide", "unbalanced", "same-measure", "residue"])
def test_line_solver_runs_the_chain_dp_only_off_the_w1_route(pair, dp_calls, monkeypatch):
    calls = count_chain_dp_calls(monkeypatch)
    solve_line_partial_w1(*pair)
    assert len(calls) == dp_calls


def chain_dp_maximum(x, w, y, u, a, b):
    nodes, node_of = np.unique(np.concatenate([x, y]), return_inverse=True)
    net = (np.bincount(node_of[:x.size], weights=w, minlength=nodes.size)
           - np.bincount(node_of[x.size:], weights=u, minlength=nodes.size))
    return _minflow._dual_chain_dp(net.tolist(), (b * np.diff(nodes)).tolist(), a,
                                   SLOPE_TOL * float(np.sum(np.abs(net))))[0]


def equal_mass_line_instance(rng):
    """Seeded 1-d instance of two equal masses, spread over a multiple of 2a/b."""
    n, m = (int(k) for k in rng.integers(1, 13, 2))
    a = float(rng.choice([0.5, 1.0, 2.0]))
    b = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
    span = float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0])) * 2 * a / b
    x = rng.uniform(0, span, n)
    w = rng.uniform(0.05, 2, n)
    if rng.random() < 0.2:              # the same measure on both sides
        return x, w, x.copy(), w.copy(), a, b
    y = rng.uniform(0, span, m)
    if rng.random() < 0.3:              # some target atoms sit on source sites
        share = rng.random(m) < 0.5
        y[share] = rng.choice(x, int(share.sum()))
    u = rng.uniform(0.05, 2, m)
    return x, w, y, u * (w.sum() / u.sum()), a, b


def test_balanced_line_solves_match_the_exact_oracle_and_the_chain_dp(monkeypatch):
    calls = count_chain_dp_calls(monkeypatch)
    rng = np.random.default_rng(1120)
    on_route = 0
    for _ in range(320):
        x, w, y, u, a, b = equal_mass_line_instance(rng)
        mass = w.sum() + u.sum()
        before = len(calls)
        value = solve_line_partial_w1(x, w, y, u, a, b)[2]
        on_route += len(calls) == before
        exact = exact_p1_gw(DiscreteMeasure(1, x[:, None], w), DiscreteMeasure(1, y[:, None], u),
                            a, b)
        assert value == pytest.approx(float(exact), rel=1e-9, abs=1e-12)
        assert abs(value - chain_dp_maximum(x, w, y, u, a, b)) <= CERT_TOL * a * mass
        params = GwParams(a, b, 1.0)
        r = gw_distance(DiscreteMeasure(1, x[:, None], w), DiscreteMeasure(1, y[:, None], u),
                        params)
        assert abs(r.value - r.value_from_parts(params)) <= RECOMPOSE_TOL * a * mass
    # both routes are exercised: potentials that fit and some wider than 2a
    assert 100 <= on_route <= 300


def test_line_solver_rejects_a_w1_potential_outside_the_box(monkeypatch):
    w1 = _minflow._w1_potential
    monkeypatch.setattr(_minflow, "_w1_potential", lambda *args: w1(*args) + 2.0)
    monkeypatch.setattr(_minflow, "_slack_witness", lambda *args: pytest.fail("witness read"))
    with pytest.raises(OptimalityCertificateError, match="infeasible"):
        solve_line_partial_w1(*BALANCED_PAIR)


def test_line_solver_rejects_a_w1_potential_below_the_bound(monkeypatch):
    w1 = _minflow._w1_potential

    def one_step_flipped(*args):
        drop = -np.diff(w1(*args))      # f_i - f_{i+1}
        drop[0] = -drop[0]
        phi = np.append(np.cumsum(drop[::-1])[::-1], 0.0)
        return phi - 0.5 * (phi.max() + phi.min())

    monkeypatch.setattr(_minflow, "_w1_potential", one_step_flipped)
    monkeypatch.setattr(_minflow, "_slack_witness", lambda *args: pytest.fail("witness read"))
    with pytest.raises(OptimalityCertificateError, match="falls short of the W1 bound"):
        solve_line_partial_w1(*BALANCED_PAIR)


@pytest.mark.parametrize("length", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("mass", [1e-15, 1e-5, 1.0, 1e5, 1e15])
def test_w1_route_holds_across_mass_and_length_scales(mass, length, monkeypatch):
    calls = count_chain_dp_calls(monkeypatch)
    x, w, y, u, a, b = BALANCED_PAIR
    # b/length keeps b * span, and with it the potential, at the unit pair's
    kept_w, kept_u, value = solve_line_partial_w1(x * length, w * mass, y * length, u * mass,
                                                  a, b / length)
    assert not calls
    assert value == pytest.approx(mass, rel=1e-12)         # b W1 of the unit pair is 1
    assert np.array_equal(kept_w, w * mass) and np.array_equal(kept_u, u * mass)


def test_assemble_rejects_a_solver_value_that_does_not_recompose():
    mu = DiscreteMeasure(1, np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    nu = DiscreteMeasure(1, np.array([[0.5], [1.5]]), np.array([1.0, 1.0]))
    params = GwParams(1.0, 1.0, 1.0)
    rows, cols, flows = [0, 1], [0, 1], [1.0, 1.0]
    assert (_assemble(mu, nu, params, rows, cols, flows, 1.0).value_from_parts(params)
            == pytest.approx(1.0))
    off = 1e-6 * params.a * 4.0
    with pytest.raises(RuntimeError, match="witness recomposition"):
        _assemble(mu, nu, params, rows, cols, flows, 1.0 + off)
