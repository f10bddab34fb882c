from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsubmax.polymatroid import PolymatroidInstance


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
    assert pm.membership(x, scale) == pm.membership_bruteforce(x, scale)


def test_tight_set_examples():
    pm = PolymatroidInstance.partition(4, [[0, 1], [2, 3]], [1, 1])
    t = pm.tight_set(np.array([0.5, 0.5, 0.1, 0.1]), 1.0)
    assert t == frozenset([0, 1])
    t = pm.tight_set(np.array([0.1, 0.1, 0.1, 0.1]), 1.0)
    assert t == frozenset()


def test_tight_set_is_maximal_tight():
    rng = np.random.default_rng(2)
    pm = laminar_example()
    for _ in range(100):
        x = rng.uniform(0, 0.5, size=4)
        if not pm.membership(x):
            continue
        T = pm.tight_set(x)
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
        d = pm.exchange_vector(a, b, c)
        assert np.all(d >= -1e-9)
        assert np.all(d <= c + 1e-9)
        assert pm.membership(b + d, tol=1e-7)
        assert np.abs(c - d).sum() <= np.abs(b - a).sum() + 1e-7


def test_exchange_vector_trivial_when_b_equals_a():
    pm = PolymatroidInstance.uniform(3, 2)
    a = np.array([0.2, 0.3, 0.0])
    c = np.array([0.1, 0.1, 0.5])
    d = pm.exchange_vector(a, a, c)
    np.testing.assert_allclose(d, c, atol=1e-9)


def test_exchange_vector_input_validation():
    pm = PolymatroidInstance.uniform(2, 1)
    with pytest.raises(ValueError):
        pm.exchange_vector([0.9, 0.9], [0.1, 0.1], [0.5, 0.5])  # a+c not in P
    with pytest.raises(ValueError):
        pm.exchange_vector([0.5, 0.0], [0.1, 0.1], [0.1, 0.1])  # a > b
