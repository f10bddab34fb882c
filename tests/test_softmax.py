import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsubmax.softmax import _smax_dist, smax, smax_grad

from oracles import increment_bound


def test_params_validation():
    for eta in (0.0, -1.0, np.nan):
        for f in (smax, smax_grad):
            with pytest.raises(ValueError, match="eta"):
                f(np.zeros(3), eta)


def test_single_row_is_exact():
    # with m = 1 the softmax is just the entry itself
    eta = 0.01
    assert smax(np.array([0.37]), eta) == pytest.approx(0.37)
    assert smax_grad(np.array([0.37]), eta)[0] == pytest.approx(1.0)


@given(st.integers(1, 8), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_sandwich(m, eta, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-3, 3, size=m)
    s = smax(z, eta)
    assert z.max() <= s + 1e-9
    assert s <= eta * np.log(m) + z.max() + 1e-9


@given(st.integers(1, 8), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_grad_is_distribution(m, eta, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-3, 3, size=m)
    g = smax_grad(z, eta)
    assert g.min() >= 0
    assert g.sum() == pytest.approx(1.0, abs=1e-12)


@given(st.integers(1, 8), st.integers(1, 6), st.floats(0.01, 1.0),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_rows_match_vector_calls(m, k, eta, seed):
    Z = np.random.default_rng(seed).uniform(-3, 3, size=(k, m))
    s, g = smax(Z, eta), smax_grad(Z, eta)
    assert s.shape == (k,) and g.shape == (k, m)
    for z, s_row, g_row in zip(Z, s, g):
        assert smax(z, eta) == s_row
        assert (smax_grad(z, eta) == g_row).all()


@given(st.integers(1, 8), st.integers(0, 6), st.floats(1e-4, 1.0),
       st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_fused_kernel_is_bitwise_the_two_formulas(m, k, eta, spread, seed):
    # the potential and the distribution from one exponential equal, bit
    # for bit, the separate smax and smax_grad formulas the kernel replaced
    shape = (k, m) if k else (m,)
    z = np.random.default_rng(seed).uniform(-spread, spread, size=shape)
    zmax = z.max(axis=-1)
    s_ref = zmax + eta * np.log(np.exp((z - zmax[..., None]) / eta).sum(axis=-1))
    w = np.exp((z - z.max(axis=-1)[..., None]) / eta)
    g_ref = w / w.sum(axis=-1)[..., None]
    s, g = _smax_dist(z, eta)
    assert np.shape(s) == np.shape(s_ref) and g.shape == g_ref.shape
    assert np.asarray(s).tobytes() == np.asarray(s_ref).tobytes()
    assert g.tobytes() == g_ref.tobytes()


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    eta = 0.2
    z = rng.uniform(0, 1, size=5)
    g = smax_grad(z, eta)
    h = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        fd = (smax(z + e, eta) - smax(z - e, eta)) / (2 * h)
        assert g[j] == pytest.approx(fd, abs=1e-6)


def test_no_overflow_for_tiny_eta():
    eta = 1e-6
    z = np.array([100.0, 0.0, -100.0])
    assert smax(z, eta) == pytest.approx(100.0)
    g = smax_grad(z, eta)
    assert g[0] == pytest.approx(1.0)


def test_increment_bound_dominates_true_increase():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        eta = float(rng.uniform(0.05, 0.5))
        A = rng.uniform(0, 1, size=(m, n))
        x = rng.uniform(0.01, 1.0, size=n)
        d = x * rng.uniform(0, 0.3, size=n)
        scale = float(np.abs(A @ d).max()) / eta
        if scale > 0.5:
            d *= 0.4 / scale
        assert smax(A @ (x + d), eta) <= increment_bound(x, d, A, eta) + 1e-9


def test_increment_bound_rejects_large_steps():
    eta = 0.01
    A = np.array([[1.0]])
    with pytest.raises(ValueError, match="hypothesis"):
        increment_bound(np.array([1.0]), np.array([1.0]), A, eta)


def test_increment_bound_zero_coordinate_stays_zero():
    # pinv convention: a zero x entry contributes no correction term, and a
    # zero step there keeps the bound finite
    eta = 0.5
    A = np.array([[1.0, 1.0]])
    x = np.array([0.0, 0.5])
    d = np.array([0.0, 0.1])
    b = increment_bound(x, d, A, eta)
    assert np.isfinite(b)
    assert smax(A @ (x + d), eta) <= b + 1e-9


def test_input_validation():
    eta = 0.1
    with pytest.raises(ValueError):
        smax(np.zeros(0), eta)
    with pytest.raises(ValueError):
        smax(np.array([np.inf, 0.0]), eta)
    with pytest.raises(ValueError):
        smax_grad(np.array([[0.0, 1.0], [np.nan, 0.0]]), eta)
    with pytest.raises(ValueError):
        smax(np.zeros((2, 3, 2)), eta)
    with pytest.raises(ValueError):
        increment_bound(np.array([-0.1, 0.1]), np.array([0.0, 0.0]),
                        np.array([[1.0, 1.0], [1.0, 1.0]]), eta)
