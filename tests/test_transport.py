from itertools import combinations

import numpy as np
import pytest

from gwass import _minflow
from gwass.gw import GwParams, gw_distance
from gwass.measures import DiscreteMeasure, scale, total_mass
from gwass.transport import (MassMismatchError, TransportPlan, cost_matrix,
                             wasserstein)


def vertex_oracle(cost, supply, demand):
    """Brute-force vertex enumeration of the transportation polytope.

    Every vertex is supported on a spanning tree of the bipartite graph
    (n + m - 1 cells); flows on a tree follow from leaf elimination.  Only
    intended for instances up to 3x3.
    """
    n, m = cost.shape
    best = np.inf
    for cells in combinations(range(n * m), n + m - 1):
        flows = _tree_flows(cells, supply, demand, n, m)
        if flows is None or np.min(flows[1]) < -1e-12:
            continue
        value = sum(f * cost[c // m, c % m] for c, f in zip(flows[0], flows[1]))
        best = min(best, value)
    return best


def _tree_flows(cells, supply, demand, n, m):
    residual = np.concatenate([supply, demand]).astype(float)
    edges = {c: (c // m, n + c % m) for c in cells}
    adj = {v: set() for v in range(n + m)}
    for c, (i, j) in edges.items():
        adj[i].add(c)
        adj[j].add(c)
    order, values = [], []
    active = dict(edges)
    while active:
        leaf = None
        for c, (i, j) in active.items():
            if len(adj[i]) == 1:
                leaf, node, other = c, i, j
                break
            if len(adj[j]) == 1:
                leaf, node, other = c, j, i
                break
        if leaf is None:
            return None  # cycle: not a tree
        f = residual[node]
        residual[node] = 0.0
        residual[other] -= f
        order.append(leaf)
        values.append(f)
        adj[node].discard(leaf)
        adj[other].discard(leaf)
        del active[leaf]
    if np.max(np.abs(residual)) > 1e-9:
        return None  # disconnected forest: marginals not met
    return order, values


def test_dirac_distance_any_p():
    for p in (1.0, 1.5, 2.0, 3.0):
        r = wasserstein(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(2.5), p)
        assert r.value == pytest.approx(2.5, abs=1e-12)


def test_two_atom_split_example():
    mu = DiscreteMeasure.from_atoms(1, [([1.0], 2.0)])
    nu = DiscreteMeasure.from_atoms(1, [([0.0], 1.0), ([2.0], 1.0)])
    r = wasserstein(mu, nu, 1.0)
    assert r.value == pytest.approx(2.0, abs=1e-12)
    # no deterministic map exists: the only source atom must split
    assert np.count_nonzero(r.plan.rows == 0) >= 2
    r.plan.check_marginals()


def test_scaling_law_closed_form():
    mu = DiscreteMeasure.dirac(0.0, 4.0)
    nu = DiscreteMeasure.dirac(3.0, 4.0)
    assert wasserstein(mu, nu, 2.0).value == pytest.approx(6.0, abs=1e-12)
    # W_p(k mu, k nu) = k^(1/p) W_p(mu, nu) with k = 4, p = 2
    unit = wasserstein(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(3.0), 2.0).value
    assert 4.0 ** 0.5 * unit == pytest.approx(6.0, abs=1e-12)


def test_scaling_check_edge_cases():
    mu = DiscreteMeasure.from_atoms(1, [([0.0], 1.0), ([1.0], 2.0)])
    nu = DiscreteMeasure.from_atoms(1, [([0.5], 2.0), ([3.0], 1.0)])
    base = wasserstein(mu, nu, 2.0).value
    assert wasserstein(scale(mu, 1.0), scale(nu, 1.0), 2.0).value == base
    for k in (0.25, 3.0):
        scaled = wasserstein(scale(mu, k), scale(nu, k), 2.0).value
        assert scaled == pytest.approx(k ** 0.5 * base, rel=1e-9)
    # k = 0 leaves no mass to couple; a negative k is not a measure
    with pytest.raises(MassMismatchError):
        wasserstein(scale(mu, 0.0), scale(nu, 0.0), 2.0)
    with pytest.raises(ValueError):
        scale(mu, -1.0)


def test_tiny_masses_keep_their_coupling():
    mu = DiscreteMeasure(1, [[0.0], [1.0]], [1e-9, 1e-9])
    nu = DiscreteMeasure(1, [[2.0], [3.0]], [1e-9, 1e-9])
    assert wasserstein(mu, nu, 1.0).value == pytest.approx(4e-9, rel=1e-12)


def test_value_is_homogeneous_in_mass_and_length():
    # W_p(k mu, k nu) = k^(1/p) W_p(mu, nu), and lengths scale the value
    rng = np.random.default_rng(2016)
    for _ in range(8):
        n, m = (int(v) for v in rng.integers(2, 7, 2))
        dim = int(rng.integers(1, 3))
        p = float(rng.choice([1.0, 2.0]))
        x, y = rng.uniform(-2, 2, (n, dim)), rng.uniform(-2, 2, (m, dim))
        w, u = rng.uniform(0.1, 2, n), rng.uniform(0.1, 2, m)
        u *= w.sum() / u.sum()
        unit = wasserstein(DiscreteMeasure(dim, x, w), DiscreteMeasure(dim, y, u), p).value
        for k in (1e-15, 1e-12, 1e-9, 1e9, 1e12, 1e15):
            for lam in (1e-6, 1.0, 1e6):
                got = wasserstein(DiscreteMeasure(dim, lam * x, k * w),
                                  DiscreteMeasure(dim, lam * y, k * u), p).value
                assert got == pytest.approx(lam * k ** (1 / p) * unit, rel=1e-10)


def unit_atoms(*xs):
    return DiscreteMeasure(1, [[x] for x in xs], np.ones(len(xs)))


# (mu, nu, p, distance whose p-th power leaves the float range): 5**1000
# overflows to inf, which priced the pair as never worth moving (gw 3.0
# instead of about 2.0, W_p NaN or a certificate error); 0.5**1e4
# underflows to 0, which made moving free (gw and W_p 0.0 instead of 0.5)
LOST_POWERS = [
    pytest.param(unit_atoms(0.0, 3.0), unit_atoms(1.0, 5.0), 1000.0, "5.0", id="overflow-p1e3"),
    pytest.param(unit_atoms(0.0, 3.0), unit_atoms(1.0, 5.0), 1e6, "5.0", id="overflow-p1e6"),
    pytest.param(unit_atoms(0.0, 0.2), unit_atoms(0.5, 0.6), 1e4, "0.5", id="underflow-p1e4"),
    pytest.param(unit_atoms(0.0, 0.2), unit_atoms(0.5, 0.6), 1e6, "0.5", id="underflow-p1e6"),
    pytest.param(unit_atoms(0.0), unit_atoms(5.0), 1000.0, "5.0", id="overflow-one-atom"),
    pytest.param(unit_atoms(0.0), unit_atoms(0.5), 1e4, "0.5", id="underflow-one-atom"),
]


@pytest.mark.parametrize("mu, nu, p, distance", LOST_POWERS)
def test_powers_out_of_float_range_are_rejected(mu, nu, p, distance):
    message = rf"distance {distance} to the power p = {p!r} is"
    with pytest.raises(ValueError, match=message):
        cost_matrix(mu, nu, p)
    with pytest.raises(ValueError, match=message):
        wasserstein(mu, nu, p)
    with pytest.raises(ValueError, match=message):
        gw_distance(mu, nu, GwParams(1.0, 1.0, p))


def test_large_p_inside_the_float_range_still_solves():
    mu, nu = unit_atoms(0.0, 0.2), unit_atoms(0.5, 0.6)
    assert wasserstein(mu, nu, 100.0).value == pytest.approx(0.5, rel=1e-9)
    assert gw_distance(mu, nu, GwParams(1.0, 1.0, 100.0)).value == pytest.approx(0.5, rel=1e-9)
    # coincident atoms cost 0 at any p and are not an underflow
    assert wasserstein(unit_atoms(0.0, 1.0), unit_atoms(0.0, 1.0), 1e6).value == 0.0


def test_mass_mismatch_rejected():
    with pytest.raises(MassMismatchError):
        wasserstein(DiscreteMeasure.dirac(0.0, 1.0), DiscreteMeasure.dirac(1.0, 2.0), 1.0)
    with pytest.raises(MassMismatchError):
        wasserstein(DiscreteMeasure.zero(1), DiscreteMeasure.zero(1), 1.0)
    for p in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="p must be >= 1"):
            wasserstein(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0), p)


def test_solver_matches_vertex_enumeration(monkeypatch):
    # each instance on both backends: the SSP (the default for these sizes)
    # and HiGHS (when no instance is small enough for the SSP).  wasserstein
    # answers a single atom on either side in closed form, so the LP itself
    # is also called directly, on the masses scaled to 1 as wasserstein does
    rng = np.random.default_rng(11)
    for _ in range(60):
        n, m = rng.integers(1, 4), rng.integers(1, 4)
        dim = int(rng.integers(1, 4))
        mu = DiscreteMeasure(dim, rng.uniform(-2, 2, (n, dim)), rng.uniform(0.1, 2, n))
        w_target = rng.uniform(0.1, 2, m)
        w_target *= total_mass(mu) / np.sum(w_target)
        nu = DiscreteMeasure(dim, rng.uniform(-2, 2, (m, dim)), w_target)
        p = float(rng.choice([1.0, 2.0]))
        cost = cost_matrix(mu, nu, p)
        expected = vertex_oracle(cost, mu.weights, nu.weights)
        supply, demand = mu.weights / total_mass(mu), nu.weights / total_mass(nu)
        for ssp_max in (_minflow.SSP_MAX_ATOMS, 0):
            with monkeypatch.context() as patch:
                patch.setattr(_minflow, "SSP_MAX_ATOMS", ssp_max)
                got = wasserstein(mu, nu, p)
                rows, cols, flows, raw = _minflow.solve_transportation(cost, supply, demand)
            assert got.value ** p == pytest.approx(expected, abs=1e-9, rel=1e-9)
            got.plan.check_marginals()
            assert total_mass(mu) * raw == pytest.approx(expected, abs=1e-9, rel=1e-9)
            assert np.allclose(np.bincount(rows, flows, minlength=n), supply, rtol=0, atol=1e-9)
            assert np.allclose(np.bincount(cols, flows, minlength=m), demand, rtol=0, atol=1e-9)


def test_metric_axioms_on_equal_mass_instances():
    rng = np.random.default_rng(23)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        sizes = rng.integers(1, 8, size=3)
        measures = []
        for n in sizes:
            w = rng.uniform(0.1, 2, n)
            w *= 3.0 / np.sum(w)
            measures.append(DiscreteMeasure(dim, rng.uniform(-2, 2, (n, dim)), w))
        mu, nu, eta = measures
        d_mn = wasserstein(mu, nu, p).value
        d_nm = wasserstein(nu, mu, p).value
        assert d_mn == pytest.approx(d_nm, abs=1e-9)
        d_ne = wasserstein(nu, eta, p).value
        d_me = wasserstein(mu, eta, p).value
        assert d_me <= d_mn + d_ne + 1e-9


def test_value_recomputes_from_plan():
    rng = np.random.default_rng(37)
    for p in (1.0, 2.0):
        mu = DiscreteMeasure(2, rng.uniform(-1, 1, (5, 2)), rng.uniform(0.2, 1, 5))
        w = rng.uniform(0.2, 1, 4)
        w *= total_mass(mu) / np.sum(w)
        nu = DiscreteMeasure(2, rng.uniform(-1, 1, (4, 2)), w)
        r = wasserstein(mu, nu, p)
        assert r.value ** p == pytest.approx(r.plan.cost(p), rel=1e-9)


def test_plan_marginal_check_catches_corruption():
    mu = DiscreteMeasure.dirac(0.0)
    nu = DiscreteMeasure.dirac(1.0)
    bad = TransportPlan([0], [0], [0.5], mu, nu)
    with pytest.raises(ValueError):
        bad.check_marginals()
