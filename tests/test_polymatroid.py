import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsubmax.polymatroid import TIGHT_TOL, PolymatroidInstance

from oracles import exchange_vector, membership_bruteforce, tight_set


def laminar_example():
    # nested caps: {0,1} <= 1, {0,1,2,3} <= 3
    return PolymatroidInstance.laminar(4, [[0, 1], [0, 1, 2, 3]], [1.0, 3.0])


def test_uniform_rank():
    pm = PolymatroidInstance.uniform(5, 3)
    assert pm.rank(range(5)) == 3
    assert pm.rank([0, 1]) == 2
    assert pm.rank([]) == 0


def test_partition_rank():
    pm = PolymatroidInstance.partition(5, [[0, 1, 2], [3, 4]], [2, 1])
    assert pm.rank([0, 1, 2]) == 2
    assert pm.rank([3, 4]) == 1
    assert pm.rank(range(5)) == 3
    assert pm.rank([0, 3]) == 2


def test_laminar_rank():
    pm = laminar_example()
    assert pm.rank([0, 1]) == 1
    assert pm.rank(range(4)) == 3
    assert pm.rank([0, 2, 3]) == 3
    assert pm.rank([1]) == 1


def rank_reference(family, S):
    """min over subcollections F of the family of cap(F) + |S minus union(F)|."""
    best = len(S)
    for k in range(1, len(family) + 1):
        for chosen in combinations(family, k):
            covered = frozenset().union(*(members for members, _ in chosen))
            best = min(best, sum(cap for _, cap in chosen) + len(S - covered))
    return best


def _laminar_case(n):
    drawn = st.lists(st.tuples(st.frozensets(st.integers(0, n - 1), min_size=1),
                               st.floats(0.0, 4.0)), max_size=5)
    return st.tuples(st.just(n), drawn, st.frozensets(st.integers(0, n - 1)))


@given(st.integers(1, 6).flatmap(_laminar_case))
@settings(max_examples=200, deadline=None)
def test_rank_matches_min_over_subcollections(case):
    n, drawn, S = case
    family = []
    for members, cap in drawn:  # keep the drawn sets that stay laminar
        if all(not members & m or members <= m or m <= members for m, _ in family):
            family.append((members, cap))
    pm = PolymatroidInstance.laminar(n, [sorted(m) for m, _ in family],
                                     [cap for _, cap in family])
    assert pm.rank(S) == pytest.approx(rank_reference(family, S), abs=1e-9)


def test_rank_is_monotone_and_submodular():
    pm = laminar_example()
    sets = [frozenset(s) for s in
            ([], [0], [1], [0, 1], [2], [0, 2], [1, 2, 3], [0, 1, 2, 3])]
    for S in sets:
        for T in sets:
            if S <= T:
                assert pm.rank(S) <= pm.rank(T)
            assert pm.rank(S | T) + pm.rank(S & T) <= pm.rank(S) + pm.rank(T) + 1e-12


def is_laminar_reference(sets):
    """The pairwise rule: any two sets are disjoint or nested."""
    return all(not a & b or a <= b or b <= a for a, b in combinations(sets, 2))


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.frozensets(st.integers(0, n - 1)), max_size=6))))
@settings(max_examples=300, deadline=None)
def test_laminar_check_matches_pairwise_rule(case):
    n, sets = case
    caps = [1.0] * len(sets)
    if is_laminar_reference(sets):
        PolymatroidInstance.laminar(n, sets, caps)
        return
    with pytest.raises(ValueError, match="not laminar") as err:
        PolymatroidInstance.laminar(n, sets, caps)
    # the message names two sets of the family that break the rule
    a, b = (frozenset(json.loads(part))
            for part in str(err.value).split(": ", 1)[1].split(" vs "))
    assert a in sets and b in sets and not is_laminar_reference([a, b])


def test_family_validation():
    with pytest.raises(ValueError):
        PolymatroidInstance.partition(4, [[0, 1], [1, 2]], [1, 1])
    with pytest.raises(ValueError):
        PolymatroidInstance.laminar(4, [[0, 1], [1, 2]], [1, 1])
    with pytest.raises(ValueError):
        PolymatroidInstance.uniform(3, -1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_membership_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    pm = laminar_example()
    x = rng.uniform(0, 1.2, size=4)
    scale = float(rng.uniform(0.3, 1.0))
    assert pm.membership(x, scale) == membership_bruteforce(pm, x, scale)


def test_tight_set_examples():
    pm = PolymatroidInstance.partition(4, [[0, 1], [2, 3]], [1, 1])
    t = tight_set(pm, np.array([0.5, 0.5, 0.1, 0.1]), 1.0)
    assert t == frozenset([0, 1])
    t = tight_set(pm, np.array([0.1, 0.1, 0.1, 0.1]), 1.0)
    assert t == frozenset()


def test_tight_set_is_maximal_tight():
    rng = np.random.default_rng(2)
    pm = laminar_example()
    for _ in range(100):
        x = rng.uniform(0, 0.5, size=4)
        if not pm.membership(x):
            continue
        T = tight_set(pm, x)
        # tightness of T itself
        assert sum(x[i] for i in T) == pytest.approx(pm.rank(T), abs=1e-8)
        # no strictly larger tight set exists
        for mask in range(16):
            S = frozenset(i for i in range(4) if mask >> i & 1)
            if S > T:
                assert sum(x[i] for i in S) < pm.rank(S) - 1e-9


def test_waterfill_respects_caps():
    rng = np.random.default_rng(8)
    pm = laminar_example()
    eps = 0.05
    scale = eps / (1 + eps)
    for _ in range(100):
        x = rng.uniform(0, scale / 4, size=4)
        if not pm.membership(x, scale):
            continue
        eligible = [i for i in range(4) if rng.random() < 0.7]
        y = pm.waterfill(x, eligible, eps)
        assert np.all(y >= 0)
        assert np.all(y <= eps * x + 1e-12)
        assert pm.membership(x + y, scale, tol=1e-9)
        for i in range(4):
            if i not in eligible:
                assert y[i] == 0.0


def test_waterfill_is_maximal_per_coordinate():
    # first eligible coordinate takes the full eps*x step when there is room
    pm = PolymatroidInstance.uniform(2, 1)
    eps = 0.05
    x = np.array([0.01, 0.01])
    y = pm.waterfill(x, [0, 1], eps)
    assert y[0] == pytest.approx(eps * 0.01)


def tight_set_reference(pm, x, scale, tol=1e-9):
    """Element by element: i is tight at its own cap or in a tight set."""
    sums = pm.incidence @ x
    return frozenset(
        i for i in range(pm.n)
        if x[i] >= scale - tol
        or any(sums[r] >= scale * pm.caps[r] - tol
               for r in range(pm.caps.size) if pm.incidence[r, i]))


def waterfill_reference(pm, x, eligible, eps):
    """The ascending-index fill, reading each element's sets off the matrix."""
    scale = eps / (1 + eps)
    sums = (pm.incidence @ x).tolist()
    caps = (scale * pm.caps).tolist()
    y = np.zeros(pm.n)
    for i in sorted(set(eligible)):
        rows = np.flatnonzero(pm.incidence[:, i]).tolist()
        step = min([min(eps * x[i], scale - x[i])]
                   + [caps[r] - sums[r] for r in rows])
        if step > 0:
            y[i] = step
            for r in rows:
                sums[r] += step
    return y


@st.composite
def polymatroid_points(draw):
    """(pm, x, eps, eligible): a point of (eps / (1 + eps)) * P, often on
    the boundary of an element cap or a family set."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["uniform", "partition", "laminar"]))
    cap = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
    if kind == "uniform":
        pm = PolymatroidInstance.uniform(n, draw(cap))
    elif kind == "partition":
        split = draw(st.integers(0, n))
        pm = PolymatroidInstance.partition(
            n, [range(split), range(split, n)], [draw(cap), draw(cap)])
    else:
        sets = []
        for members in draw(st.lists(st.frozensets(st.integers(0, n - 1),
                                                   min_size=1), max_size=5)):
            if all(not members & m or members <= m or m <= members
                   for m in sets):
                sets.append(members)
        pm = PolymatroidInstance.laminar(n, [sorted(m) for m in sets],
                                         [draw(cap) for _ in sets])
    eps = draw(st.sampled_from([0.01, 0.05, 0.2, 1.0]))
    scale = eps / (1 + eps)
    x = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                               min_size=n, max_size=n)))
    x *= pm.fit_factor(x, scale) * draw(st.sampled_from([0.5, 1.0 - 1e-12, 1.0]))
    if draw(st.booleans()):  # fill to the boundary, as the solver does
        x = x + pm.waterfill(x, range(n), eps)
    if draw(st.booleans()):  # some coordinates exactly at their own cap
        x[draw(st.lists(st.integers(0, n - 1), max_size=n))] = scale
        x *= min(1.0, pm.fit_factor(x, scale))
    eligible = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return pm, x, eps, eligible


@given(polymatroid_points())
@settings(max_examples=300, deadline=None)
def test_mask_and_row_helpers_match_the_references(case):
    pm, x, eps, eligible = case
    scale = eps / (1 + eps)
    if not pm.membership(x, scale):
        # the fill checks that x lies in scale * P, as the loop's checks do
        with pytest.raises(ValueError):
            pm.waterfill(x, eligible, eps)
        return
    # the matroid loop's tight mask: the kernel on bounds built once
    tight = pm._tight(x, pm.incidence @ x, scale - TIGHT_TOL,
                      scale * pm.caps - TIGHT_TOL)
    assert frozenset(np.flatnonzero(tight).tolist()) == tight_set(pm, x, scale)
    assert tight_set(pm, x, scale) == tight_set_reference(pm, x, scale)
    y = pm.waterfill(x, eligible, eps)
    assert (y == waterfill_reference(pm, x, eligible, eps)).all()  # bitwise
    # the matroid loop's later fills: the kernel on caps built once, whose
    # sparse step lists exactly the coordinates that rose
    raised, steps = pm._step_fill(x, sorted(set(eligible)), pm.incidence @ x,
                                  eps, (scale * pm.caps).tolist())
    assert raised == np.flatnonzero(y).tolist()
    assert (np.array(steps, dtype=float) == y[raised]).all()
    for i in range(pm.n):  # r({i}) = 0 iff a set holding i has cap 0
        assert (pm.rank([i]) <= 0) == any(pm.caps[r] <= 0 for r in pm.rows_of[i])


@given(st.integers(0, 2**32 - 1), st.sampled_from(["partition", "laminar"]),
       st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_tight_mask_of_points_and_rows(seed, kind, k):
    # the mask from the float product is the boolean product's, for one
    # point or rows of points, from a few elements to a few hundred sets
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 150))
    cuts = np.sort(rng.choice(np.arange(1, n), size=n // 2, replace=False))
    parts = [list(range(a, b)) for a, b in zip([0, *cuts], [*cuts, n])]
    if kind == "partition":
        pm = PolymatroidInstance.partition(
            n, parts, rng.integers(0, 3, len(parts)).tolist())
    else:  # the parts, their pairs and the ground set
        sets = parts + [a + b for a, b in zip(parts[::2], parts[1::2])]
        pm = PolymatroidInstance.laminar(
            n, sets + [list(range(n))],
            rng.integers(0, 4, len(sets) + 1).tolist())
    eps = 0.05
    scale = eps / (1 + eps)
    X = rng.uniform(0, 0.2, size=(max(k, 1), n))
    for i, x in enumerate(X):
        x *= pm.fit_factor(x, scale) * (1.0 - 1e-12)
        X[i] = x + pm.waterfill(x, range(n), eps)  # onto the boundary
    X = X if k else X[0]
    sums = X @ pm.incidence.T
    lo, caps_lo = scale - TIGHT_TOL, scale * pm.caps - TIGHT_TOL
    tight = pm._tight(X, sums, lo, caps_lo)
    assert tight.dtype == bool and tight.shape == X.shape
    members = pm.incidence > 0.0
    assert (tight == ((X >= lo) | (sums >= caps_lo) @ members)).all()
    assert tight.any()
    for x, row in zip(np.atleast_2d(X), np.atleast_2d(tight)):
        assert (frozenset(np.flatnonzero(row).tolist())
                == tight_set_reference(pm, x, scale))
    # the set sums of rows have the bits of the one-row matrix products
    for x, x_sums in zip(np.atleast_2d(X), np.atleast_2d(pm._sums(X))):
        assert x_sums.tobytes() == (pm.incidence @ x).tobytes()
        assert x_sums.tobytes() == pm._sums(x).tobytes()


def exchange_case(pm, rng):
    n = pm.n
    b = rng.uniform(0, 0.6, size=n)
    while not pm.membership(b):
        b *= 0.5
    a = b * rng.uniform(0, 1, size=n)
    c = rng.uniform(0, 0.4, size=n)
    while not pm.membership(a + c):
        c *= 0.5
    return a, b, c


@pytest.mark.parametrize("make_pm", [
    lambda: PolymatroidInstance.partition(4, [[0, 1], [2, 3]], [1, 1]),
    laminar_example,
    lambda: PolymatroidInstance.uniform(4, 2),
])
def test_exchange_vector_properties(make_pm):
    rng = np.random.default_rng(13)
    pm = make_pm()
    for _ in range(50):
        a, b, c = exchange_case(pm, rng)
        d = exchange_vector(pm, a, b, c)
        assert np.all(d >= -1e-9)
        assert np.all(d <= c + 1e-9)
        assert pm.membership(b + d, tol=1e-7)
        assert np.abs(c - d).sum() <= np.abs(b - a).sum() + 1e-7


def test_exchange_vector_trivial_when_b_equals_a():
    pm = PolymatroidInstance.uniform(3, 2)
    a = np.array([0.2, 0.3, 0.0])
    c = np.array([0.1, 0.1, 0.5])
    d = exchange_vector(pm, a, a, c)
    np.testing.assert_allclose(d, c, atol=1e-9)


def test_exchange_vector_input_validation():
    pm = PolymatroidInstance.uniform(2, 1)
    with pytest.raises(ValueError):
        exchange_vector(pm, [0.9, 0.9], [0.1, 0.1], [0.5, 0.5])  # a+c not in P
    with pytest.raises(ValueError):
        exchange_vector(pm, [0.5, 0.0], [0.1, 0.1], [0.1, 0.1])  # a > b
