import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsubmax.objective import COPIES_KEPT_ENTRIES, ObjectiveSpec

from oracles import finite_diff_grad, multilinear_enumeration


def cover_example():
    # universe {0, 1} with weights (1, 2); element 1 covers both items
    return ObjectiveSpec.coverage([1.0, 2.0], [[0], [0, 1], [1]])


def test_linear_eval_and_grad():
    obj = ObjectiveSpec.linear([2.0, 3.0])
    assert obj.eval([0.5, 0.5]) == pytest.approx(2.5)
    np.testing.assert_allclose(obj.grad([0.2, 0.9]), [2.0, 3.0])


def test_coverage_closed_form():
    obj = cover_example()
    x = np.array([0.5, 0.5, 0.0])
    # item 0: 1 - 0.5*0.5 = 0.75; item 1: 1 - 0.5*1 = 0.5
    assert obj.eval(x) == pytest.approx(1.0 * 0.75 + 2.0 * 0.5)


def test_directed_cut_closed_form():
    obj = ObjectiveSpec.directed_cut(3, [(0, 1, 1.0), (1, 2, 2.0)])
    x = np.array([0.5, 0.4, 0.1])
    assert obj.eval(x) == pytest.approx(0.5 * 0.6 + 2.0 * 0.4 * 0.9)
    assert not obj.monotone


def test_directed_cut_rejects_bad_arcs():
    with pytest.raises(ValueError):
        ObjectiveSpec.directed_cut(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        ObjectiveSpec.directed_cut(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        ObjectiveSpec.directed_cut(2, [(0, 5, 1.0)])


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        ObjectiveSpec.linear([1.0, -2.0])
    with pytest.raises(ValueError):
        ObjectiveSpec.coverage([-1.0], [[0]])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("make", [
    lambda w: ObjectiveSpec.linear([w, 1.0]),
    lambda w: ObjectiveSpec.coverage([w, 1.0], [[0], [1]]),
    lambda w: ObjectiveSpec.directed_cut(2, [(0, 1, 1.0), (1, 0, w)]),
], ids=["linear", "coverage", "directed-cut"])
def test_non_finite_weights_rejected(make, bad):
    # the solver loops trust the objective's values, so a non-finite
    # weight has to stop at construction
    with pytest.raises(ValueError, match="finite"):
        make(bad)


def test_clamping_above_one():
    obj = cover_example()
    full = obj.eval(np.ones(3))
    assert obj.eval(np.array([1.7, 2.0, 1.0])) == pytest.approx(full)
    g = obj.grad(np.array([1.7, 0.5, 0.3]))
    assert g[0] == 0.0  # clamped coordinate


def test_negative_input_rejected():
    obj = cover_example()
    with pytest.raises(ValueError):
        obj.eval(np.array([-0.1, 0.5, 0.5]))
    with pytest.raises(ValueError):
        obj.grad(np.array([-0.1, 0.5, 0.5]))


def test_grads_match_finite_differences():
    rng = np.random.default_rng(11)
    objs = [ObjectiveSpec.linear([1.0, 2.0, 0.5]),
            cover_example(),
            ObjectiveSpec.directed_cut(3, [(0, 1, 1.0), (1, 2, 0.5),
                                           (2, 0, 2.0)])]
    for obj in objs:
        for _ in range(25):
            x = rng.uniform(0.1, 0.9, size=obj.n)
            g = obj.grad(x)
            fd = finite_diff_grad(obj, x, 1e-5)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


def repeated_item_example():
    # element 0 lists universe item 0 twice; it still covers it once
    return ObjectiveSpec.coverage([1.0], [[0, 0], [0]])


def closed_form_examples():
    return [ObjectiveSpec.linear([1.0, 2.0, 0.5]),
            cover_example(),
            # a repeated item, and item 2 which no element covers
            ObjectiveSpec.coverage([1.0, 2.0, 4.0], [[0, 0, 1], [0], [1]]),
            # parallel arcs 0 -> 1
            ObjectiveSpec.directed_cut(3, [(0, 1, 1.0), (0, 1, 0.5), (1, 2, 2.0),
                                           (2, 0, 0.25)])]


def test_eval_many_matches_eval():
    # a row's value has the bits of its own eval, whatever the batch size
    rng = np.random.default_rng(4)
    for obj in closed_form_examples():
        for k in (2, 3, 5, 8, 20, 33, 73):
            X = rng.uniform(0, 1.2, size=(k, obj.n))
            X[::3, 0] = 1.0
            rows = b"".join(np.float64(obj.eval(row)).tobytes() for row in X)
            # a column-major batch too: the oracle orders it by rows
            for batch in (X, np.asfortranarray(X)):
                assert obj.eval_many(batch).tobytes() == rows


_entries = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0),
                     st.floats(1.0, 2.0, exclude_min=True))


@given(st.integers(0, 3), st.lists(_entries, min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_grad_is_the_multilinear_difference(which, entries):
    # F is multilinear, so dF/dx_i = F(x with x_i=1) - F(x with x_i=0),
    # also at the boundary points finite differences cannot reach
    obj = closed_form_examples()[which]
    x = np.array(entries)
    g = obj.grad(x)
    tol = 1e-12 * (1.0 + abs(obj.eval(x)))
    for i in range(obj.n):
        if x[i] > 1.0:
            assert g[i] == 0.0
            continue
        hi, lo = x.copy(), x.copy()
        hi[i], lo[i] = 1.0, 0.0
        assert abs(g[i] - (obj.eval(hi) - obj.eval(lo))) <= tol


@given(st.integers(0, 3), st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_grad_many_rows_equal_grad(which, k, data):
    obj = closed_form_examples()[which]
    X = np.array(data.draw(st.lists(_entries, min_size=k * obj.n,
                                    max_size=k * obj.n))).reshape(k, obj.n)
    G = obj.grad_many(X)
    assert G.shape == X.shape
    for row, g in zip(X, G):
        assert (g == obj.grad(row)).all()  # bitwise, not approximately


def test_grad_many_follows_the_batch_size():
    # the batched objective is kept between calls; a change of batch size
    # must build a new one, and a return to the old size must still match
    rng = np.random.default_rng(12)
    for obj in closed_form_examples():
        for k in (5, 3, 5, 1, 3):
            X = rng.uniform(0, 1.2, size=(k, obj.n))
            G = obj.grad_many(X)
            assert G.shape == X.shape
            for row, g in zip(X, G):
                assert (g == obj.grad(row)).all()


def coverage_grad_reference(obj, x):
    """The coverage gradient with the zero-complement bookkeeping always on."""
    comp = 1.0 - x[obj.elems]
    zero = comp == 0.0
    safe = comp + zero
    part = (obj.weights * np.multiply.reduceat(safe, obj.starts))[obj.item]
    alone = np.bincount(obj.item, zero, obj.weights.size)[obj.item] == zero
    return np.bincount(obj.elems, part / safe * alone, obj.n).astype(float)


@given(st.integers(1, 2), st.data())
@settings(max_examples=200, deadline=None)
def test_coverage_grad_without_zero_complements(which, data):
    # with no entry at 1 no complement is 0: the short path gives the same
    # bits as the bookkeeping it skips
    obj = closed_form_examples()[which]
    x = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
        min_size=obj.n, max_size=obj.n)))
    assert (obj.grad(x) == coverage_grad_reference(obj, x)).all()


@st.composite
def closed_forms(draw):
    """A random linear, coverage or directed-cut objective on n <= 6
    elements."""
    n = draw(st.integers(1, 6))
    weight = st.floats(0.0, 3.0)
    kind = draw(st.sampled_from(["linear", "coverage", "directed-cut"]))
    if kind == "linear":
        obj = ObjectiveSpec.linear(draw(st.lists(weight, min_size=n,
                                                 max_size=n)))
    elif kind == "coverage":
        u = draw(st.integers(1, 5))
        obj = ObjectiveSpec.coverage(
            draw(st.lists(weight, min_size=u, max_size=u)),
            draw(st.lists(st.lists(st.integers(0, u - 1), max_size=3),
                          min_size=n, max_size=n)))
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=2 * n))
        obj = ObjectiveSpec.directed_cut(
            n, [(u, v, draw(weight)) for u, v in pairs if u != v])
    return obj


@st.composite
def closed_form_points(draw):
    """(objective, x): a closed form and a point of [0, 1)^n."""
    obj = draw(closed_forms())
    below_one = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
    return obj, np.array(draw(st.lists(below_one, min_size=obj.n,
                                       max_size=obj.n)))


@given(closed_forms(), st.integers(2, 73), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_eval_many_rows_are_their_own_eval(obj, k, seed):
    # the matroid loop evaluates a batch of states in one call, and a
    # packing ladder all its guesses: row i must be eval(X[i]) bitwise
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.2, size=(k, obj.n))
    X[rng.random(X.shape) < 0.2] = 0.0
    X[rng.random(X.shape) < 0.1] = 1.0
    many = obj.eval_many(X)
    for row, v in zip(X, many):
        assert np.float64(obj.eval(row)).tobytes() == v.tobytes()


@given(closed_form_points())
@settings(max_examples=300, deadline=None)
def test_interior_kernels_are_the_clamped_ones_below_one(case):
    # on [0, 1)^n the clamp is the identity and no coverage complement is
    # 0, so the clamp-free kernels the matroid loop calls give the bytes
    # of the clamped ones the public oracles run
    obj, x = case
    assert obj._interior_grad(x).tobytes() == obj._clamped_grad(x).tobytes()
    assert (obj._interior_values(x[None]).tobytes()
            == obj._values(x[None]).tobytes())


def test_batched_objectives_kept_for_recurring_sizes(monkeypatch):
    # the matroid run-ahead's batch sizes recur: each is built once.  A
    # packing ladder's live count only falls: what is kept besides the
    # newest stays within the bound
    built = []
    build = ObjectiveSpec._build_copies
    monkeypatch.setattr(ObjectiveSpec, "_build_copies",
                        lambda self, k: built.append(k) or build(self, k))
    rng = np.random.default_rng(3)
    obj = ObjectiveSpec.directed_cut(16, [(int(u), int(v), 1.0) for u, v in
                                          rng.integers(0, 16, (60, 2))
                                          if u != v])
    row = obj.n + obj._incidences()
    sizes = [4, 8, 16, 32, 64, 48, 44]
    for k in sizes * 3:
        assert obj._copies(k).n == k * obj.n
    assert built == sizes
    assert (sum(obj._batches) - 44) * row <= COPIES_KEPT_ENTRIES
    for k in range(300, 1, -1):
        G = obj.grad_many(rng.uniform(0, 0.9, size=(k, obj.n)))
        assert list(obj._batches)[-1] == k and G.shape == (k, obj.n)
        assert (sum(obj._batches) - k) * row <= COPIES_KEPT_ENTRIES
    assert obj._copies(1) is obj


def clamped_grad_reference(obj, X):
    """The clamped gradient as clamp at 1, interior or coverage's
    zero-complement gradient, then 0 above 1, whatever the entries."""
    clamped = np.minimum(X, 1.0)
    if obj.kind == "coverage" and np.count_nonzero(clamped == 1.0):
        k = 1 if X.ndim == 1 else X.shape[0]
        g = obj._copies(k)._coverage_grad_at_ones(
            clamped.ravel()).reshape(X.shape)
    else:
        g = obj._interior_grad(clamped)
    g[X > 1.0] = 0.0
    return g


@given(closed_forms(), st.integers(0, 5), st.data())
@settings(max_examples=300, deadline=None)
def test_clamped_grad_shortcut_is_the_composition(obj, k, data):
    # below 1 the kernel returns the interior gradient at once; at and
    # above 1 it clamps, and coverage counts its zero complements
    entry = st.one_of(st.sampled_from([0.0, 1.0, np.nextafter(1.0, 0.0),
                                       np.nextafter(1.0, 2.0), 1.5]),
                      st.floats(0.0, 2.0))
    shape = (k, obj.n) if k else (obj.n,)
    X = np.array(data.draw(st.lists(entry, min_size=max(k, 1) * obj.n,
                                    max_size=max(k, 1) * obj.n))).reshape(shape)
    assert (obj._clamped_grad(X).tobytes()
            == clamped_grad_reference(obj, X).tobytes())


def test_batch_oracles_check_their_input():
    obj = cover_example()
    for bad in (np.zeros(3), np.zeros((2, 4)), np.full((2, 3), -0.5)):
        with pytest.raises(ValueError):
            obj.grad_many(bad)
        with pytest.raises(ValueError):
            obj.eval_many(bad)


def test_eval_equals_multilinear_enumeration():
    # closed forms are multilinear, so enumeration must agree exactly
    objs = [cover_example(), repeated_item_example(),
            ObjectiveSpec.directed_cut(3, [(0, 1, 1.0), (2, 1, 0.5)])]
    rng = np.random.default_rng(9)
    for obj in objs:
        for _ in range(10):
            x = rng.uniform(0, 1, size=obj.n)
            assert obj.eval(x) == pytest.approx(multilinear_enumeration(obj, x))


def test_sampled_is_reproducible_and_close():
    cover = cover_example()
    obj = ObjectiveSpec.sampled(3, cover.set_value, monotone=True,
                                samples=4000, seed=5)
    x = np.array([0.3, 0.6, 0.2])
    v1, v2 = obj.eval(x), obj.eval(x)
    assert v1 == v2  # fixed seed per call
    exact = cover.eval(x)
    assert abs(v1 - exact) < 0.1
    g = obj.grad(x)
    np.testing.assert_allclose(g, cover.grad(x), atol=0.15)


def test_singleton_and_set_value():
    obj = cover_example()
    np.testing.assert_allclose(obj.singleton_values(), [1.0, 3.0, 2.0])
    assert obj.set_value([0, 2]) == pytest.approx(3.0)
    assert obj.set_value([]) == pytest.approx(0.0)
