import numpy as np
import pytest

from drsubmax import (ObjectiveSpec, PolymatroidInstance,
                      brute_force_matroid_opt, grid_fractional_opt,
                      normalize_packing)

from oracles import finite_diff_grad, multilinear_enumeration


def test_unconstrained_coverage_opt():
    obj = ObjectiveSpec.coverage([1.0, 2.0], [[0], [1]])
    pm = PolymatroidInstance.uniform(2, 2)
    res = brute_force_matroid_opt(obj, pm)
    assert res.value == pytest.approx(3.0)
    assert res.method == "subset-enum"


def test_uniform_k1_linear_opt():
    obj = ObjectiveSpec.linear([2.0, 3.0])
    pm = PolymatroidInstance.uniform(2, 1)
    res = brute_force_matroid_opt(obj, pm)
    assert res.value == pytest.approx(3.0)
    assert res.argmax == frozenset([1])


def test_bruteforce_respects_partition():
    obj = ObjectiveSpec.linear([5.0, 4.0, 1.0])
    pm = PolymatroidInstance.partition(3, [[0, 1], [2]], [1, 1])
    res = brute_force_matroid_opt(obj, pm)
    assert res.value == pytest.approx(6.0)
    assert res.argmax == frozenset([0, 2])


def test_grid_linear_example():
    obj = ObjectiveSpec.linear([1.0, 1.0])
    inst = normalize_packing([[1.0, 1.0]], 0.05)
    res = grid_fractional_opt(obj, inst, 1e-3)
    assert res.value == pytest.approx(0.95, abs=2e-3)
    assert res.method == "grid"


def test_grid_infeasible_everywhere_returns_origin():
    obj = ObjectiveSpec.linear([1.0])
    # entry within the normalized range but saturating at any grid step
    inst = normalize_packing([[1.0 / 0.05]], 0.05)
    res = grid_fractional_opt(obj, inst, 0.1)
    assert res.value == pytest.approx(0.0)


def test_grid_cut_box_only():
    obj = ObjectiveSpec.directed_cut(2, [(0, 1, 1.0)])
    inst = normalize_packing(np.eye(2), 0.05)
    res = grid_fractional_opt(obj, inst, 1e-3)
    assert res.value == pytest.approx(0.95, abs=2e-3)  # x = (1-eps, 0)


def test_grid_monotone_in_resolution():
    obj = ObjectiveSpec.coverage([1.0], [[0], [0]])
    inst = normalize_packing([[0.7, 0.4]], 0.05)
    coarse = grid_fractional_opt(obj, inst, 0.1).value
    fine = grid_fractional_opt(obj, inst, 0.01).value
    finer = grid_fractional_opt(obj, inst, 0.002).value
    assert coarse <= fine + 1e-12
    assert fine <= finer + 1e-12


def test_grid_rejects_large_n():
    obj = ObjectiveSpec.linear([1.0] * 5)
    inst = normalize_packing(np.ones((1, 5)), 0.05)
    with pytest.raises(ValueError):
        grid_fractional_opt(obj, inst, 0.1)


def test_finite_diff_linear_is_exact():
    obj = ObjectiveSpec.linear([2.0, 3.0])
    g = finite_diff_grad(obj, np.array([0.5, 0.5]), 1e-5)
    np.testing.assert_allclose(g, [2.0, 3.0], atol=1e-9)


def test_finite_diff_coverage_example():
    obj = ObjectiveSpec.coverage([1.0], [[0], [0]])
    g = finite_diff_grad(obj, np.array([0.5, 0.5]), 1e-5)
    np.testing.assert_allclose(g, [0.5, 0.5], atol=1e-9)


def test_finite_diff_boundary_rejected():
    obj = ObjectiveSpec.linear([1.0])
    with pytest.raises(ValueError):
        finite_diff_grad(obj, np.array([1.0]), 1e-5)


def test_enumeration_matches_monte_carlo():
    cover = ObjectiveSpec.coverage([1.0, 1.5], [[0], [0, 1], [1]])
    sampled = ObjectiveSpec.sampled(3, cover.set_value, monotone=True,
                                    samples=20_000, seed=3)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.uniform(0, 1, size=3)
        exact = multilinear_enumeration(cover, x)
        mc = sampled.eval(x)
        # ~3 standard errors for 20k samples of a bounded function
        assert abs(mc - exact) < 3 * 2.5 / np.sqrt(20_000)
