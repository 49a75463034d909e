import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwass.measures import (DiscreteMeasure, add, canonicalize,
                            measure_from_json, measure_to_json, push_forward,
                            scale, total_mass, tv_distance)

# dyadic coordinates/weights add exactly in float64, so "preserved exactly"
# really means exactly in these tests
dyadic_weight = st.integers(0, 4096).map(lambda k: k / 1024.0)
dyadic_coord = st.integers(-4096, 4096).map(lambda k: k / 1024.0)


def dyadic_measure(dim=1, max_atoms=6):
    atom = st.tuples(st.tuples(*([dyadic_coord] * dim)), dyadic_weight)
    return st.lists(atom, min_size=0, max_size=max_atoms).map(
        lambda atoms: DiscreteMeasure.from_atoms(dim, [(list(x), w) for x, w in atoms]))


def test_total_mass_examples():
    assert total_mass(DiscreteMeasure.zero(1)) == 0.0
    assert total_mass(DiscreteMeasure.dirac(0.0)) == 1.0
    assert total_mass(DiscreteMeasure.dirac(1.0, 2.0)) == 2.0


def test_validation_errors():
    with pytest.raises(ValueError):
        DiscreteMeasure(1, np.array([[0.0]]), np.array([-1.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure(1, np.array([[np.inf]]), np.array([1.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure(0, np.empty((0, 0)), np.empty(0))
    with pytest.raises(ValueError):
        tv_distance(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac([0.0, 0.0]))


def test_immutable():
    mu = DiscreteMeasure.dirac(1.0)
    with pytest.raises(ValueError):
        mu.positions[0, 0] = 2.0
    with pytest.raises(ValueError):
        mu.weights[0] = 2.0


def test_tv_examples():
    d0 = DiscreteMeasure.dirac(0.0)
    dx = DiscreteMeasure.dirac(3.0)
    assert tv_distance(d0, d0) == 0.0
    assert tv_distance(d0, dx) == 2.0
    assert tv_distance(DiscreteMeasure.dirac(1.0, 2.0), DiscreteMeasure.dirac(1.0)) == 1.0


def test_tv_disjoint_supports_sum_of_masses():
    mu = DiscreteMeasure.from_atoms(1, [([0.0], 1.5), ([1.0], 0.5)])
    nu = DiscreteMeasure.from_atoms(1, [([5.0], 2.0)])
    assert tv_distance(mu, nu) == total_mass(mu) + total_mass(nu)


def test_push_forward_examples():
    mu = DiscreteMeasure.from_atoms(1, [([-1.0], 1.0), ([1.0], 1.0)])
    ident = push_forward(mu, lambda x: x)
    assert np.array_equal(ident.positions, mu.positions)
    shifted = push_forward(DiscreteMeasure.dirac(0.0), lambda x: x + 2.5)
    assert shifted.positions[0, 0] == 2.5
    collapsed = canonicalize(push_forward(mu, lambda x: np.zeros_like(x)))
    assert collapsed.n_atoms == 1
    assert collapsed.weights[0] == 2.0


def test_scale_add_restrict():
    mu = DiscreteMeasure.from_atoms(1, [([-1.0], 1.0), ([1.0], 1.0)])
    assert total_mass(scale(mu, 0.0)) == 0.0
    with pytest.raises(ValueError):
        scale(mu, -1.0)
    doubled = canonicalize(add(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(0.0)))
    assert doubled.n_atoms == 1 and doubled.weights[0] == 2.0


@given(dyadic_measure())
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent_and_mass_preserving(mu):
    c1 = canonicalize(mu)
    c2 = canonicalize(c1)
    assert total_mass(c1) == total_mass(mu)
    assert c1.n_atoms == c2.n_atoms
    assert np.array_equal(c1.positions, c2.positions)
    assert np.array_equal(c1.weights, c2.weights)


@given(dyadic_measure(dim=2, max_atoms=5), st.randoms())
@settings(max_examples=100, deadline=None)
def test_operations_invariant_under_atom_permutation(mu, rnd):
    order = list(range(mu.n_atoms))
    rnd.shuffle(order)
    shuffled = DiscreteMeasure(mu.dim, mu.positions[order], mu.weights[order])
    assert total_mass(shuffled) == pytest.approx(total_mass(mu), abs=1e-15)
    c1, c2 = canonicalize(mu), canonicalize(shuffled)
    assert np.array_equal(c1.positions, c2.positions)
    assert np.allclose(c1.weights, c2.weights, rtol=0, atol=1e-15)
    assert tv_distance(mu, shuffled) <= 1e-12


@given(dyadic_measure(), dyadic_measure(), dyadic_measure())
@settings(max_examples=100, deadline=None)
def test_tv_is_a_metric(mu, nu, eta):
    assert tv_distance(mu, nu) == tv_distance(nu, mu)
    assert tv_distance(mu, mu) == 0.0
    assert tv_distance(mu, eta) <= tv_distance(mu, nu) + tv_distance(nu, eta) + 1e-12
    if tv_distance(mu, nu) == 0.0:
        c1, c2 = canonicalize(mu), canonicalize(nu)
        assert np.array_equal(c1.positions, c2.positions)
        assert np.array_equal(c1.weights, c2.weights)


@given(dyadic_measure(dim=2))
@settings(max_examples=100, deadline=None)
def test_push_forward_preserves_mass_exactly(mu):
    out = push_forward(mu, lambda x: 2.0 * x + 1.0)
    assert total_mass(out) == total_mass(mu)


def test_zero_weight_atoms_pruned_on_canonicalization():
    mu = DiscreteMeasure.from_atoms(1, [([0.0], 0.0), ([1.0], 1.0)])
    assert mu.n_atoms == 2
    assert canonicalize(mu).n_atoms == 1


def test_canonicalize_lattice_range():
    merged = canonicalize(DiscreteMeasure.from_atoms(1, [([0.0], 1.0), ([1e-12], 1.0)]))
    assert merged.n_atoms == 1 and merged.weights[0] == 2.0
    # 2^63 lattice steps of the default quantum 1e-9 end near 9.2e9; beyond,
    # int64 keys would wrap and merge distant atoms into one
    far = DiscreteMeasure.from_atoms(1, [([1e10], 1.0), ([-3e10], 1.0)])
    with pytest.raises(ValueError, match="int64 lattice"):
        canonicalize(far)
    with pytest.raises(ValueError, match="int64 lattice"):
        tv_distance(far, DiscreteMeasure.dirac(0.0))
    assert canonicalize(far, quantum=1e-6).n_atoms == 2
    for quantum in (0.0, -1e-9, np.nan, np.inf):
        with pytest.raises(ValueError, match="quantum must be a positive finite number"):
            canonicalize(merged, quantum)
    near = DiscreteMeasure.from_atoms(1, [([9e9], 1.0), ([-9e9], 2.0)])
    c = canonicalize(near)
    assert np.array_equal(c.positions[:, 0], np.rint(np.array([-9e9, 9e9]) / 1e-9) * 1e-9)
    assert np.array_equal(c.weights, [2.0, 1.0])


def unique_merge(keys, weights):
    """The merge that canonicalize used before its sort-merge: np.unique over
    key rows, then np.add.at of the weights into the distinct rows."""
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros(uniq.shape[0])
    np.add.at(sums, inverse.ravel(), weights)
    return uniq, sums


def test_canonicalize_matches_unique_merge_bit_for_bit():
    rng = np.random.default_rng(11)
    for trial in range(300):
        dim = 1 + trial % 3
        quantum = (1e-9, 0.5)[trial % 2]
        n = int(rng.integers(1, 80))
        # few lattice sites, negative ones included, so many atoms share a
        # site; the jitter stays under half a quantum and snaps back onto it
        sites = rng.integers(-6, 7, (n, dim)) * rng.choice([1.0, 7.0])
        pos = (sites + rng.uniform(-0.4, 0.4, (n, dim))) * quantum
        w = rng.exponential(1.0, n) * (rng.random(n) < 0.8)
        mu = DiscreteMeasure(dim, pos, w)
        keys = np.rint(pos / quantum).astype(np.int64)
        uniq, sums = unique_merge(keys, w)
        keep = sums > 0
        c = canonicalize(mu, quantum)
        assert np.array_equal(c.positions, uniq[keep] * quantum)
        assert np.array_equal(c.weights, sums[keep])
        # tv_distance merges signed weights, so sites can cancel
        order = rng.permutation(n)
        nu = DiscreteMeasure(dim, mu.positions[order] + 1e-9 * (rng.random((n, dim)) < 0.3),
                             mu.weights[order])
        cm, cn = canonicalize(mu), canonicalize(nu)
        both = np.concatenate([cm.positions, cn.positions]) / 1e-9
        _, signed = unique_merge(np.rint(both).astype(np.int64),
                                 np.concatenate([cm.weights, -cn.weights]))
        assert tv_distance(mu, nu) == float(np.sum(np.abs(signed)))


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(5)
    mu = DiscreteMeasure(3, rng.standard_normal((7, 3)), rng.uniform(0, 2, 7))
    text = json.dumps(measure_to_json(mu))
    back = measure_from_json(json.loads(text))
    assert back.dim == mu.dim
    assert np.array_equal(back.positions, mu.positions)
    assert np.array_equal(back.weights, mu.weights)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        measure_from_json({"atoms": []})
    with pytest.raises(ValueError):
        measure_from_json({"dim": 2, "atoms": [{"x": [1.0], "w": 1.0}]})
