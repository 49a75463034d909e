"""Exact p = 1 oracle for the tests: gw as a min-cost flow in rational arithmetic.

It shares no code and no tolerance with :mod:`gwass._minflow`.
"""

from fractions import Fraction

import numpy as np
import pytest


def exact_p1_gw(mu, nu, a, b):
    """gw_{a,b}(mu, nu) at p = 1, exact on the atoms as given, as a Fraction.

    Every float is read as a Fraction.  The value is a(|mu| + |nu|) plus
    the least cost of a flow of min(|mu|, |nu|) from s to t on the network
    s -> x_i (capacity w_i), x_i -> y_j (cost b d_ij - 2a, kept where it is
    negative), y_j -> t (capacity u_j) and the removal hub s -> t (cost 0),
    which carries the mass that is not transported.  In one dimension d_ij
    = |x_i - y_j| is exact; in more, each float distance is read as a
    Fraction.  ``networkx.network_simplex`` solves it in exact arithmetic.
    The caller canonicalizes the measures if it compares with gw_distance.
    """
    nx = pytest.importorskip("networkx")
    a, b = Fraction(a), Fraction(b)
    w = [Fraction(v) for v in mu.weights.tolist()]
    u = [Fraction(v) for v in nu.weights.tolist()]
    flow = min(sum(w), sum(u))
    graph = nx.DiGraph()
    graph.add_node("s", demand=-flow)
    graph.add_node("t", demand=flow)
    graph.add_edge("s", "t", weight=0)
    for i, wi in enumerate(w):
        graph.add_edge("s", ("x", i), capacity=wi, weight=0)
    for j, uj in enumerate(u):
        graph.add_edge(("y", j), "t", capacity=uj, weight=0)
    for i, x in enumerate(mu.positions):
        for j, y in enumerate(nu.positions):
            if mu.dim == 1:
                d = abs(Fraction(float(x[0])) - Fraction(float(y[0])))
            else:
                d = Fraction(float(np.linalg.norm(x - y)))
            if b * d < 2 * a:
                graph.add_edge(("x", i), ("y", j), weight=b * d - 2 * a)
    return a * (sum(w) + sum(u)) + nx.network_simplex(graph)[0]
