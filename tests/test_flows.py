import math
import sys
import threading

import numpy as np
import pytest

from gwass.flows import (BumpKernel, ConstantBase, FlowConfig, build_velocity_model,
                         flow_pushforward)
from gwass.gw import GwParams, gw_distance
from gwass.lab import flow_estimate_report, frozen_gap_bound
from gwass.measures import DiscreteMeasure, total_mass


def constant_model(c, params=GwParams(1, 1, 1), mass_cap=2.0, dim=1):
    return build_velocity_model({"base": {"kind": "constant", "c": list(np.atleast_1d(c))},
                                 "kernel": {"kind": "zero"}}, params, mass_cap, dim=dim)


def test_field_evaluation_examples():
    params = GwParams(1.0, 1.0, 1.0)
    model = constant_model([0.7])
    mu = DiscreteMeasure.from_atoms(1, [([3.0], 5.0)])
    assert model.make_evaluator(mu)(np.array([[0.0]]))[0, 0] == pytest.approx(0.7)
    assert model.make_evaluator(DiscreteMeasure.zero(1))(np.array([[2.0]]))[0, 0] == pytest.approx(0.7)

    bump_only = build_velocity_model(
        {"base": {"kind": "zero"}, "kernel": {"kind": "bump", "radius": 1.0, "height": 0.5}},
        params, 2.0)
    dirac = DiscreteMeasure.dirac(0.25)
    x = 0.5
    expected = 0.5 * (1 - (x - 0.25) ** 2) ** 2
    assert bump_only.make_evaluator(dirac)(np.array([[x]]))[0, 0] == pytest.approx(expected, abs=1e-14)
    assert bump_only.make_evaluator(DiscreteMeasure.zero(1))(np.array([[x]]))[0, 0] == 0.0


def test_constant_base_returns_its_read_only_vector():
    c = np.array([0.7, -0.2])
    base = ConstantBase(c)
    v = base(np.zeros((5, 2)))
    assert np.array_equal(np.zeros((5, 2)) + v, np.tile(c, (5, 1)))
    with pytest.raises(ValueError, match="read-only"):
        v += 1.0
    c[0] = 1.0          # the base keeps a copy; the caller's array stays writable
    assert base.c[0] == 0.7


def test_constant_field_translation_exact():
    model = constant_model([0.25])
    mu = DiscreteMeasure.from_atoms(1, [([0.0], 1.0), ([1.0], 2.0)])
    out = flow_pushforward(model, mu, mu, 2.0, FlowConfig(0.5))
    assert np.allclose(out.positions[:, 0], [0.5, 1.5], atol=1e-15)
    assert np.array_equal(out.weights, mu.weights)


def test_zero_time_is_identity():
    model = constant_model([1.0])
    mu = DiscreteMeasure.dirac(0.3)
    assert flow_pushforward(model, mu, mu, 0.0) is mu


def test_linear_field_exponential_growth_rk4_order():
    params = GwParams(1, 1, 1)
    model = build_velocity_model(
        {"base": {"kind": "linear", "matrix": [[1.0]], "sup_radius": 4.0},
         "kernel": {"kind": "zero"}}, params, 1.0)
    d1 = DiscreteMeasure.dirac(1.0)
    errs = []
    for step in (1 / 8, 1 / 16):
        out = flow_pushforward(model, d1, d1, 1.0, FlowConfig(step))
        errs.append(abs(out.positions[0, 0] - math.e))
    assert errs[0] / errs[1] > 12  # fourth-order: halving the step gains ~16x
    assert errs[1] < 1e-6


def test_mass_conservation_and_support_growth():
    rng = np.random.default_rng(8)
    params = GwParams(1, 1, 1)
    model = build_velocity_model(
        {"base": {"kind": "sine", "amplitude": [0.5], "frequency": [2.0]},
         "kernel": {"kind": "bump", "radius": 0.5, "height": 0.4}}, params, 3.0)
    mu = DiscreteMeasure(1, rng.uniform(-1, 1, (15, 1)), rng.uniform(0.05, 0.2, 15))
    t = 0.7
    out = flow_pushforward(model, mu, mu, t, FlowConfig(1 / 64))
    assert np.array_equal(out.weights, mu.weights)  # exact conservation
    moved = np.abs(out.positions - mu.positions).max()
    assert moved <= t * model.constants.M + 1e-9


def test_frozen_semigroup_property():
    params = GwParams(1, 1, 1)
    model = build_velocity_model(
        {"base": {"kind": "sine", "amplitude": [0.3], "frequency": [1.5]},
         "kernel": {"kind": "bump", "radius": 0.6, "height": 0.2}}, params, 2.0)
    mu = DiscreteMeasure.from_atoms(1, [([-0.4], 0.5), ([0.2], 0.7), ([0.9], 0.3)])
    cfg = FlowConfig(1 / 128)
    one_shot = flow_pushforward(model, mu, mu, 0.75, cfg)
    two_step = flow_pushforward(model, flow_pushforward(model, mu, mu, 0.5, cfg),
                                mu, 0.25, cfg)
    assert np.allclose(one_shot.positions, two_step.positions, atol=1e-10)


def test_bump_kernel_fast_path_matches_naive():
    rng = np.random.default_rng(4)
    kern = BumpKernel(0.5, -0.3, dim=1)
    src = rng.uniform(-1, 1, (300, 1))
    w = rng.uniform(0, 0.1, 300)
    conv = kern.make_conv(src, w)
    x = rng.uniform(-1.6, 1.6, (80, 1))
    fast = conv(x)
    z = np.abs(x[:, 0:1] - src[:, 0][None, :])
    slow = (np.clip(1 - (z / 0.5) ** 2, 0, None) ** 2 * -0.3) @ w
    assert np.max(np.abs(fast[:, 0] - slow)) < 1e-12


def brute_bump(x, src, w, radius, height):
    z = np.abs(x[:, 0:1] - src[:, 0][None, :])
    return (height * np.clip(1 - (z / radius) ** 2, 0, None) ** 2) @ w


def test_bump_kernel_centered_far_from_origin():
    # the moments are taken about the middle of the source span, so only the
    # span, not the distance to the origin, costs accuracy
    rng = np.random.default_rng(6)
    kern = BumpKernel(0.5, 0.7, dim=1)
    for offset in (0.0, 10.0, 100.0):
        src = offset + rng.uniform(-1, 1, (400, 1))
        w = rng.uniform(0, 1, 400)
        x = offset + rng.uniform(-1.7, 1.7, (300, 1))
        slow = brute_bump(x, src, w, 0.5, 0.7)
        fast = kern.make_conv(src, w)(x)[:, 0]
        assert np.max(np.abs(fast - slow)) <= 1e-11 * np.max(np.abs(slow))


def test_bump_kernel_shuffled_source_matches_sorted():
    rng = np.random.default_rng(7)
    kern = BumpKernel(0.3, -1.2, dim=1)
    src = np.sort(rng.uniform(-2, 2, 500))[:, None]
    w = rng.uniform(0, 0.2, 500)
    x = rng.uniform(-2.5, 2.5, (200, 1))
    ref = kern.make_conv(src, w)(x)
    order = rng.permutation(500)
    shuffled = kern.make_conv(src[order], w[order])(x)
    assert np.max(np.abs(shuffled - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_bump_kernel_2d_pairwise():
    kern = BumpKernel(1.0, 0.5, direction=[0.0, 1.0], dim=2)
    src = np.array([[0.0, 0.0]])
    conv = kern.make_conv(src, np.array([2.0]))
    out = conv(np.array([[0.5, 0.0], [3.0, 0.0]]))
    assert out[0, 0] == 0.0
    assert out[0, 1] == pytest.approx(2 * 0.5 * (1 - 0.25) ** 2)
    assert np.all(out[1] == 0.0)  # outside the support


# The 1-d convolution reuses a per-kernel, per-thread workspace from call
# to call.  Each case below must read exactly what a fresh kernel, whose
# workspace is allocated for that one call, reads.

def fresh_conv(src, w, x, radius=0.4, height=0.9):
    return BumpKernel(radius, height).make_conv(src, w)(x)


def bump_case(rng, n_src, n_x):
    src = np.sort(rng.uniform(-1.5, 1.5, n_src))[:, None]
    return src, rng.uniform(0.0, 0.1, n_src), rng.uniform(-2.0, 2.0, (n_x, 1))


def test_bump_workspace_two_closures_called_alternately():
    rng = np.random.default_rng(41)
    kern = BumpKernel(0.4, 0.9)
    small, large = bump_case(rng, 7, 50), bump_case(rng, 900, 1300)
    conv_small = kern.make_conv(small[0], small[1])
    conv_large = kern.make_conv(large[0], large[1])
    for _ in range(3):
        for conv, (src, w, x) in ((conv_small, small), (conv_large, large)):
            assert np.array_equal(conv(x), fresh_conv(src, w, x))


def test_bump_workspace_query_sizes_grow_then_shrink():
    rng = np.random.default_rng(42)
    src, w, _ = bump_case(rng, 300, 1)
    conv = BumpKernel(0.4, 0.9).make_conv(src, w)
    for n_x in (1, 5, 6, 64, 1000, 3001, 40, 1, 2999):
        x = rng.uniform(-2.0, 2.0, (n_x, 1))
        assert np.array_equal(conv(x), fresh_conv(src, w, x))


def test_bump_workspace_result_outlives_the_next_call():
    rng = np.random.default_rng(43)
    src, w, x = bump_case(rng, 400, 500)
    conv = BumpKernel(0.4, 0.9).make_conv(src, w)
    conv(rng.uniform(-2.0, 2.0, (700, 1)))   # the later calls fit in this capacity
    kept = conv(x)
    snapshot = kept.copy()
    conv(rng.uniform(-2.0, 2.0, (300, 1)))
    conv(x[::-1])
    assert np.array_equal(kept, snapshot)
    assert np.array_equal(kept, fresh_conv(src, w, x))


def test_bump_workspace_threads_share_a_kernel():
    # more threads than cores, each with its own query size, so a buffer
    # shared between threads would mix their gathers
    rng = np.random.default_rng(44)
    kern = BumpKernel(0.4, 0.9)
    cases = [bump_case(rng, 200 + 150 * k, 300 + 400 * k) for k in range(6)]
    expected = [fresh_conv(*case) for case in cases]
    convs = [kern.make_conv(src, w) for src, w, _ in cases]
    mismatches = []

    def work(k):
        for _ in range(40):
            if not np.array_equal(convs[k](cases[k][2]), expected[k]):
                mismatches.append(k)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_rk4_steps_match_the_textbook_expression():
    params = GwParams(1, 1, 1)
    model = build_velocity_model(
        {"base": {"kind": "sine", "amplitude": [0.4], "frequency": [3.0]},
         "kernel": {"kind": "bump", "radius": 0.5, "height": 0.3}}, params, 3.0)
    rng = np.random.default_rng(45)
    carrier = DiscreteMeasure(1, rng.uniform(-1, 1, (60, 1)), rng.uniform(0.01, 0.05, 60))
    frozen = DiscreteMeasure(1, rng.uniform(-1, 1, (25, 1)), rng.uniform(0.01, 0.05, 25))
    h = 0.125  # a power of two, so t / steps gives back h exactly
    out = flow_pushforward(model, carrier, frozen, 3 * h, FlowConfig(h))

    def field(y):
        return model.base(y) + model.kernel.make_conv(frozen.positions, frozen.weights)(y)

    x = carrier.positions
    for _ in range(3):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(out.positions, x)


def test_certified_constants_spot_checks():
    rng = np.random.default_rng(12)
    params = GwParams(0.8, 1.6, 1.0)
    model = build_velocity_model(
        {"base": {"kind": "sine", "amplitude": [0.4], "frequency": [1.2], "phase": [0.3]},
         "kernel": {"kind": "bump", "radius": 0.7, "height": 0.25}}, params, 1.5)
    measures = [DiscreteMeasure(1, rng.uniform(-1, 1, (6, 1)), rng.uniform(0.05, 0.25, 6))
                for _ in range(6)]
    c = model.constants
    xs = rng.uniform(-2, 2, (200, 1))
    for mu in measures:
        field = model.make_evaluator(mu)
        vals = field(xs)
        assert np.max(np.linalg.norm(vals, axis=1)) <= c.M + 1e-12
        # Lipschitz in space on random pairs
        ys = rng.uniform(-2, 2, (200, 1))
        gap = np.linalg.norm(field(xs) - field(ys), axis=1)
        assert np.all(gap <= c.L * np.abs(xs - ys)[:, 0] + 1e-12)
    # Lipschitz in the measure argument w.r.t. the generalized distance
    for mu, nu in zip(measures[:3], measures[3:]):
        dist = gw_distance(mu, nu, params).value
        f1, f2 = model.make_evaluator(mu), model.make_evaluator(nu)
        sup_gap = np.max(np.abs(f1(xs) - f2(xs)))
        assert sup_gap <= c.N * dist + 1e-9


def test_flow_estimates_reference_cases():
    params = GwParams(1.0, 1.0, 1.0)
    mu = DiscreteMeasure.dirac(0.0)
    nu = DiscreteMeasure.dirac(0.4)
    model = constant_model([0.5])
    report = flow_estimate_report(model, model, mu, nu, 0.0, params)
    # t = 0: the contraction bound collapses to gw <= gw
    assert report[0].lhs == pytest.approx(report[0].rhs, abs=1e-12)
    # constant field at p = 1, b = 1: displacement bound is tight while
    # b * t * |c| stays below the removal threshold 2a/b
    t = 0.6
    report = flow_estimate_report(model, model, mu, mu, t, params)
    disp = report[1]
    assert disp.lhs == pytest.approx(t * 0.5, abs=1e-9)
    assert disp.rhs == pytest.approx(t * 0.5, abs=1e-12)
    assert all(c.passed for c in report)


def test_flow_estimates_randomized():
    rng = np.random.default_rng(21)
    for _ in range(25):
        dim = int(rng.integers(1, 3))
        p = float(rng.choice([1.0, 2.0]))
        params = GwParams(rng.uniform(0.3, 2), rng.uniform(0.3, 2), p)
        base = {"kind": "sine", "amplitude": rng.uniform(-0.6, 0.6, dim).tolist(),
                "frequency": rng.uniform(0.5, 2, dim).tolist()}
        kernel = {"kind": "bump", "radius": float(rng.uniform(0.4, 1)),
                  "height": float(rng.uniform(-0.4, 0.4))}
        mu = DiscreteMeasure(dim, rng.uniform(-1, 1, (4, dim)), rng.uniform(0.1, 0.5, 4))
        nu = DiscreteMeasure(dim, rng.uniform(-1, 1, (3, dim)), rng.uniform(0.1, 0.5, 3))
        cap = max(total_mass(mu), total_mass(nu)) + 0.1
        m1 = build_velocity_model({"base": base, "kernel": kernel}, params, cap, dim=dim)
        m2 = constant_model(rng.uniform(-0.5, 0.5, dim), params, cap, dim=dim)
        report = flow_estimate_report(m1, m2, mu, nu, float(rng.uniform(0, 0.5)),
                                      params, FlowConfig(1 / 128))
        assert all(c.passed for c in report), [(c.check_id, c.lhs, c.rhs) for c in report]


def test_gap_bound_certified():
    params = GwParams(1, 1, 1)
    m1 = constant_model([0.5])
    m2 = constant_model([-0.25])
    mu = DiscreteMeasure.dirac(0.0, 2.0)
    assert frozen_gap_bound(m1, mu, m2, mu) == pytest.approx(0.75)


def test_builder_validation():
    params = GwParams(1, 1, 1)
    with pytest.raises(ValueError):
        build_velocity_model({"base": {"kind": "warp"}}, params, 1.0)
    with pytest.raises(ValueError):
        build_velocity_model({"base": {"kind": "zero"},
                              "kernel": {"kind": "gauss"}}, params, 1.0)
    with pytest.raises(ValueError):
        BumpKernel(-1.0, 1.0)
    with pytest.raises(ValueError):
        FlowConfig(0.0)


def test_derived_constants_formula():
    params = GwParams(2.0, 0.5, 1.0)
    model = build_velocity_model(
        {"base": {"kind": "constant", "c": [0.5]},
         "kernel": {"kind": "bump", "radius": 0.5, "height": 0.3}}, params, 1.2)
    c = model.constants
    bump_lip = 0.3 * 8 / (3 * math.sqrt(3) * 0.5)
    assert c.M == pytest.approx(0.5 + 1.2 * 0.3)
    assert c.L == pytest.approx(1.2 * bump_lip)
    assert c.N == pytest.approx(max(0.3 / 2.0, bump_lip / 0.5))
