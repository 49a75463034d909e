import numpy as np
import pytest

from gwass._minflow import parametric_partial_transport, solve_transportation


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
def test_parametric_segments_trace_feasible_convex_curve(equal_mass):
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
