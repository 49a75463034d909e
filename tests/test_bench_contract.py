"""The library names that the benchmark's tracer (perfbench/spans.py) wraps
and reads must exist, and traced solves must be recognized by their path."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gwass import _minflow, gw
from gwass.measures import DiscreteMeasure, canonicalize
from gwass.transport import cost_matrix


@pytest.fixture(scope="module")
def spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists(spans):
    for module, func, _, _ in spans.ENTRY_POINTS:
        assert hasattr(importlib.import_module(f"gwass.{module}"), func), f"{module}.{func}"


def test_traced_line_p1_solve_reads_as_line_p1_without_a_witness(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        value = gw.gw_distance(DiscreteMeasure(1, [[0.0], [1.0]], [1.0, 2.0]),
                               DiscreteMeasure(1, [[0.5], [3.0]], [1.5, 1.0]),
                               gw.GwParams(1.0, 1.0, 1.0)).value
    finally:
        tracer.uninstall()
    tracer.assert_clean()
    assert value > 0
    kids = tracer._children()
    solves = [k for k, span in enumerate(tracer.spans)
              if tracer.names[span[0]] == "gw.gw_distance"]
    assert [tracer.solve_path(k, kids) for k in solves] == ["line_p1"]
    layer = tracer.metrics(1)
    assert layer["gw.path.line_p1"] == 1
    assert layer["minflow.monotone_coupling.calls"] == layer["gw._assemble.calls"] == 0


def test_traced_p2_solve_above_the_crossover_reads_as_parametric(spans):
    # the two HiGHS probes run inside parametric_partial_transport, which
    # returns the one vertex the scan needs
    rng = np.random.default_rng(3)
    mu, nu = (DiscreteMeasure(2, rng.uniform(0, 1, (14, 2)), rng.uniform(0.5, 1.5, 14))
              for _ in range(2))
    tracer = spans.Tracer()
    tracer.install()
    try:
        gw.gw_distance(mu, nu, gw.GwParams(1.0, 1.0, 2.0)).value
    finally:
        tracer.uninstall()
    tracer.assert_clean()
    layer = tracer.metrics(1)
    assert layer["gw.path.parametric"] == 1
    assert layer["minflow.parametric_partial_transport.segments"] == 1
    assert layer["minflow._check_certificate.calls"] == 2
    assert layer["minflow.solve_partial_transportation.calls"] == 0


def test_traced_p2_solve_at_the_crossover_counts_the_trace_vertices(spans):
    # at or below SSP_MAX_ATOMS the scan reads every vertex of the SSP trace,
    # and the tracer counts them with len
    rng = np.random.default_rng(5)
    mu, nu = (DiscreteMeasure(2, rng.uniform(0, 1, (_minflow.SSP_MAX_ATOMS, 2)),
                              rng.uniform(0.5, 1.5, _minflow.SSP_MAX_ATOMS))
              for _ in range(2))
    params = gw.GwParams(1.0, 1.0, 2.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        gw.gw_distance(mu, nu, params).value
    finally:
        tracer.uninstall()
    tracer.assert_clean()
    layer = tracer.metrics(1)
    mu_c, nu_c = canonicalize(mu), canonicalize(nu)
    vertices = _minflow.trace_partial_transport(cost_matrix(mu_c, nu_c, params.p),
                                                mu_c.weights, nu_c.weights)
    assert layer["gw.path.parametric"] == 1
    assert layer["minflow.parametric_partial_transport.segments"] == len(vertices) > 1
    assert layer["minflow._check_certificate.calls"] == 0
