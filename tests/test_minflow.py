import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from gwass import _minflow
from gwass._minflow import (RECOMPOSE_TOL, OptimalityCertificateError, _check_certificate,
                            _Incidence, monotone_coupling, parametric_partial_transport,
                            solve_line_partial_w1, solve_transportation)
from gwass.gw import GwParams, _assemble, gw_distance
from gwass.measures import DiscreteMeasure


def line_lp_oracle(src_pos, src_w, tgt_pos, tgt_w, a, b):
    """The 1-d, p=1 distance as a HiGHS LP on the path graph of the atoms.

    Variables: kept mass per atom and a forward and a backward flux per gap
    between consecutive positions.  For cost |x - y| the transport term of
    any coupling equals the integral of |flux| along the line, so this LP
    is an exact reformulation; its optimum is certified from the duals.
    """
    n, m = src_w.size, tgt_w.size
    nodes = np.unique(np.concatenate([src_pos, tgt_pos]))
    node_of_src = np.searchsorted(nodes, src_pos)
    node_of_tgt = np.searchsorted(nodes, tgt_pos)
    n_nodes = nodes.size
    n_gaps = n_nodes - 1
    gaps = np.arange(n_gaps)
    # variable layout: [k (n), l (m), f+ (gaps), f- (gaps)]
    n_var = n + m + 2 * n_gaps
    rows = np.concatenate([node_of_src, node_of_tgt, gaps, gaps + 1, gaps, gaps + 1])
    cols = np.concatenate([np.arange(n), n + np.arange(m),
                           n + m + gaps, n + m + gaps,
                           n + m + n_gaps + gaps, n + m + n_gaps + gaps])
    data = np.concatenate([np.ones(n), -np.ones(m),
                           -np.ones(n_gaps), np.ones(n_gaps),
                           np.ones(n_gaps), -np.ones(n_gaps)])
    a_mat = sp.csr_matrix((data, (rows, cols)), shape=(n_nodes, n_var))
    rhs = np.zeros(n_nodes)
    gap_len = np.diff(nodes)
    c = np.concatenate([np.full(n, -a), np.full(m, -a), b * gap_len, b * gap_len])
    upper = np.concatenate([src_w, tgt_w, np.full(2 * n_gaps, np.inf)])
    res = linprog(c, A_eq=a_mat, b_eq=rhs, bounds=np.column_stack([np.zeros(n_var), upper]),
                  method="highs")
    assert res.status == 0, res.message
    mass = float(np.sum(src_w) + np.sum(tgt_w))
    _check_certificate(c, a_mat, rhs, False, res.x, res.eqlin.marginals, mass,
                       bounds_upper=upper)
    return a * mass + float(res.fun)


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


def test_line_solver_matches_path_graph_lp():
    rng = np.random.default_rng(2016)
    for _ in range(600):
        x, w, y, u, a, b = random_line_instance(rng)
        kept_w, kept_u, value = solve_line_partial_w1(x, w, y, u, a, b)
        assert value == pytest.approx(line_lp_oracle(x, w, y, u, a, b), rel=1e-9, abs=1e-12)
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
def test_parametric_segments_trace_feasible_convex_curve(equal_mass, monkeypatch):
    # HiGHS is the oracle of the end value, so the LP must not run the SSP
    monkeypatch.setattr(_minflow, "SSP_MAX_ATOMS", 0)
    rng = np.random.default_rng(41 + equal_mass)
    for _ in range(60):
        cost, supply, demand = random_network(rng, equal_mass)
        segments = parametric_partial_transport(cost, supply, demand)
        total = min(supply.sum(), demand.sum())
        tol = 1e-12 * max(total, 1.0)
        assert segments[0].m_lo == 0.0 and segments[0].t_lo == 0.0
        assert segments[-1].m_hi == pytest.approx(total, rel=1e-12)
        slopes = [seg.slope for seg in segments]
        assert all(s1 >= s0 - 1e-9 * max(1.0, abs(s0)) for s0, s1 in zip(slopes, slopes[1:]))
        for prev, seg in zip(segments, segments[1:]):
            assert seg.m_lo == prev.m_hi
            assert seg.t_lo == pytest.approx(prev.t_lo + prev.slope * (prev.m_hi - prev.m_lo),
                                             rel=1e-12, abs=1e-15)
        for seg in segments:
            g = seg.flows_hi
            assert seg.m_hi > seg.m_lo
            assert np.all(g >= -tol)
            assert np.all(g.sum(axis=1) <= supply + tol)
            assert np.all(g.sum(axis=0) <= demand + tol)
            assert g.sum() == pytest.approx(seg.m_hi, rel=1e-12)
            t_hi = seg.t_lo + seg.slope * (seg.m_hi - seg.m_lo)
            assert np.sum(g * cost) == pytest.approx(t_hi, rel=1e-9, abs=1e-12)
        if equal_mass:
            _, lp_value = solve_transportation(cost, supply, demand)
            t_end = segments[-1].t_lo + segments[-1].slope * (segments[-1].m_hi - segments[-1].m_lo)
            assert t_end == pytest.approx(lp_value, rel=1e-9)


def two_by_two_pair(partial, incidence):
    """A certified 2x2 transportation primal-dual pair ``(c, a_mat, rhs, x, y)``.

    Arcs 00, 01, 10, 11; rows are the two supplies, then the two demands.
    ``a_mat`` is the csr matrix or the same incidence as an
    :class:`_Incidence`.  The identity plan is optimal: balanced with zero
    duals on costs [0, 1, 1, 0], or partial with duals -1 on costs
    [-2, 1, 1, -2].
    """
    if incidence == "csr":
        a_mat = sp.csr_matrix(np.array([[1, 1, 0, 0], [0, 0, 1, 1],
                                        [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float))
    else:
        a_mat = _Incidence(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), 2, 2)
    x = np.array([1.0, 0.0, 0.0, 1.0])
    if partial:
        return np.array([-2.0, 1.0, 1.0, -2.0]), a_mat, np.ones(4), x, np.full(4, -1.0)
    return np.array([0.0, 1.0, 1.0, 0.0]), a_mat, np.ones(4), x, np.zeros(4)


def test_index_incidence_is_the_csr_incidence():
    csr = two_by_two_pair(False, "csr")[1]
    index = two_by_two_pair(False, "index")[1]
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    assert np.array_equal(index @ x, csr @ x)
    assert np.array_equal(index.T @ y, csr.T @ y)


@pytest.mark.parametrize("incidence", ["csr", "index"])
@pytest.mark.parametrize("partial, x, y, message", [
    (False, [1.0, 0.5, 0.0, 1.0], None, "equality row violated"),
    (True, None, [0.5, -1.0, -1.0, -1.0], "dual sign violated on inequality row"),
    (False, None, [0.0, 0.0, 0.0, 2.0], "negative reduced cost"),
    (False, None, [-1.0, 0.0, 0.0, 0.0], "positive reduced cost"),
    (True, [1.0, 0.5, 0.0, 1.0], None, "inequality row violated"),
    (True, [0.5, 0.0, 0.0, 1.0], None, "complementary slackness violated"),
])
def test_certificate_rejects_each_corrupted_condition(partial, x, y, message, incidence):
    c, a_mat, rhs, x0, y0 = two_by_two_pair(partial, incidence)
    _check_certificate(c, a_mat, rhs, partial, x0, y0, 4.0)
    x = x0 if x is None else np.array(x)
    y = y0 if y is None else np.array(y)
    with pytest.raises(OptimalityCertificateError, match=message):
        _check_certificate(c, a_mat, rhs, partial, x, y, 4.0)


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
