import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsubmax import (MatroidSolverConfig, ObjectiveSpec, PolymatroidInstance,
                      brute_force_matroid_opt, solve_matroid_monotone,
                      solve_matroid_nonmonotone)
from drsubmax import matroid_solver
from drsubmax.report import (CONVERGED, GUESS_REJECTED, ITERATION_CAP,
                             InvariantViolation)

from oracles import stepwise_matroid_solve, tight_set

EPS = 0.05
# expected bound at eps=0.05: each epoch targets eps*((1-10*eps)*M - current),
# so a converged run ends above (1 - 1/e)*(1 - 10*eps)*M up to initialization slop
LOWER = (1 - np.exp(-1.0)) * (1 - 10 * EPS) * 0.95


def test_coverage_uniform_example():
    obj = ObjectiveSpec.coverage([1, 1, 1, 1], [[0], [1], [2], [3]])
    pm = PolymatroidInstance.uniform(4, 2)
    opt = brute_force_matroid_opt(obj, pm)
    assert opt.value == pytest.approx(2.0)
    r = solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=opt.value))
    assert r.termination == CONVERGED
    assert r.feasible
    assert r.value >= LOWER * opt.value


def test_linear_uniform_exact_optimum():
    obj = ObjectiveSpec.linear([3.0, 1.0, 2.0])
    pm = PolymatroidInstance.uniform(3, 2)
    opt = brute_force_matroid_opt(obj, pm)
    assert opt.value == pytest.approx(5.0)  # two largest weights
    r = solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=5.0))
    assert r.feasible
    assert r.value >= LOWER * 5.0


def test_solution_always_feasible():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = 6
        covers = [[int(rng.integers(0, 4))] for _ in range(n)]
        obj = ObjectiveSpec.coverage(rng.uniform(0.5, 2.0, size=4), covers)
        pm = PolymatroidInstance.partition(n, [[0, 1, 2], [3, 4, 5]], [2, 1])
        M = brute_force_matroid_opt(obj, pm).value
        r = solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=M))
        assert pm.membership(r.solution, 1.0)
        assert r.feasible


def test_oversized_guess_rejected_with_feasible_partial():
    obj = ObjectiveSpec.coverage([1, 1], [[0], [1]])
    pm = PolymatroidInstance.uniform(2, 1)
    r = solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=500.0))
    assert r.termination == GUESS_REJECTED
    assert pm.membership(r.solution, 1.0)


@pytest.mark.parametrize("obj, solve, tight", [
    # every coordinate reaches its cap eps/(1+eps): none is left to raise
    (ObjectiveSpec.linear([1.0, 1.0]), solve_matroid_monotone, {0, 1}),
    # coordinate 0 reaches its cap; the free coordinate 1 is the head of
    # the arc, whose gradient -x_0 is negative
    (ObjectiveSpec.directed_cut(2, [(0, 1, 1.0)]), solve_matroid_nonmonotone,
     {0}),
], ids=["all-tight", "free-gradient-not-positive"])
def test_epoch_without_improvable_coordinate_rejects_the_guess(obj, solve,
                                                               tight):
    # M = 100 is far above the optimum, so the gain target is out of reach
    pm = PolymatroidInstance.uniform(2, 2)
    r = solve(obj, pm, MatroidSolverConfig(eps=EPS, M=100.0))
    assert r.termination == GUESS_REJECTED
    assert r.notes == ["epoch 0: no improvable coordinate before the gain target"]
    assert r.inner_iterations > 0
    assert r.feasible and pm.membership(r.solution, 1.0)
    # the first epoch's point is the solution: its tight set names the branch
    assert tight_set(pm, r.solution, EPS / (1 + EPS)) == frozenset(tight)


def test_nonmonotone_cycle_example():
    obj = ObjectiveSpec.directed_cut(
        4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    pm = PolymatroidInstance.uniform(4, 2)
    opt = brute_force_matroid_opt(obj, pm)
    assert opt.value == pytest.approx(2.0)  # alternate vertices
    r = solve_matroid_nonmonotone(obj, pm,
                                  MatroidSolverConfig(eps=EPS, M=opt.value))
    assert r.feasible
    assert r.value > 0


def test_nonmonotone_handles_monotone_objective():
    obj = ObjectiveSpec.coverage([1, 1, 1], [[0], [1], [2]])
    pm = PolymatroidInstance.uniform(3, 2)
    opt = brute_force_matroid_opt(obj, pm)
    r = solve_matroid_nonmonotone(obj, pm,
                                  MatroidSolverConfig(eps=EPS, M=opt.value))
    assert r.feasible
    # weaker 1/e-style bound applies, generously slackened for eps=0.05
    assert r.value > 0.1 * opt.value


def test_monotone_solver_rejects_nonmonotone_objective():
    obj = ObjectiveSpec.directed_cut(2, [(0, 1, 1.0)])
    pm = PolymatroidInstance.uniform(2, 1)
    with pytest.raises(ValueError):
        solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        MatroidSolverConfig(eps=0.5, M=1.0)
    with pytest.raises(ValueError):
        MatroidSolverConfig(eps=0.05, M=0.0)
    # the same checks as PackingSolverConfig: the loop trusts these values
    for M in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            MatroidSolverConfig(eps=0.05, M=M)
    for cap in (math.inf, 2.5, "7", -3, -1, np.int64(-2)):
        with pytest.raises(ValueError, match="integer"):
            MatroidSolverConfig(eps=0.05, M=1.0, max_iterations=cap)
    assert MatroidSolverConfig(eps=0.05, M=1.0,
                               max_iterations=0).max_iterations == 0
    assert MatroidSolverConfig(eps=0.05, M=1.0,
                               max_iterations=np.int64(7)).max_iterations == 7


def test_rounds_track_iterations():
    obj = ObjectiveSpec.coverage([1, 1], [[0], [1]])
    pm = PolymatroidInstance.uniform(2, 2)
    r = solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=2.0))
    # one singleton batch, one per-epoch baseline query, one per iteration
    assert r.adaptive_rounds == 1 + r.epochs + r.inner_iterations


def test_zero_capacity_coordinates_stay_zero():
    obj = ObjectiveSpec.coverage([1, 1], [[0], [1]])
    pm = PolymatroidInstance.partition(2, [[0], [1]], [1, 0])
    r = solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=1.0))
    assert r.solution[1] == 0.0
    assert r.feasible


@pytest.mark.parametrize("eps, draws", [(0.05, 10**6), (1 / 3, 10**5),
                                         (1 / 1000, 10**5)])
def test_buckets_are_the_scalar_bucket(eps, draws):
    # a batch's v2 is the one-step loop's bit for bit, over 24 orders of
    # magnitude and, more sparsely, the whole float range, on exact powers
    # of 1 + eps and the floats on either side of them, in random order
    # and falling, as within an epoch, where most rows reuse the bucket of
    # the row before them; nan where v1 is not positive
    rng = np.random.default_rng(16)
    powers = np.array([(1.0 + eps) ** k
                       for k in range(int(-27 / math.log10(1 + eps)),
                                      int(27 / math.log10(1 + eps)))])
    v1 = np.concatenate((10.0 ** rng.uniform(-12, 12, draws),
                         10.0 ** rng.uniform(-323, 308, draws // 100),
                         powers, np.nextafter(powers, 0.0),
                         np.nextafter(powers, np.inf),
                         [0.0, -1.0, -math.inf, math.nan]))
    for v1 in (rng.permutation(v1), np.sort(v1)[::-1]):
        want = [(1.0 + eps) ** math.floor(math.log(v) / math.log1p(eps))
                if v > 0 else math.nan for v in v1.tolist()]
        assert np.array_equal(matroid_solver._buckets(v1, eps), want,
                              equal_nan=True)


@st.composite
def matroid_cases(draw):
    """(objective, matroid) with n <= 8: coverage or directed cut on a
    uniform, partition or laminar matroid with integer caps."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["uniform", "partition", "laminar"]))
    if kind == "uniform":
        pm = PolymatroidInstance.uniform(n, draw(st.integers(0, n)))
    elif kind == "partition":
        split = draw(st.integers(1, n - 1))
        pm = PolymatroidInstance.partition(
            n, [range(split), range(split, n)],
            [draw(st.integers(0, split)), draw(st.integers(0, n - split))])
    else:
        sets = []
        for members in draw(st.lists(st.frozensets(st.integers(0, n - 1),
                                                   min_size=1), max_size=4)):
            if all(not members & m or members <= m or m <= members
                   for m in sets):
                sets.append(members)
        pm = PolymatroidInstance.laminar(
            n, [sorted(m) for m in sets],
            [draw(st.integers(0, len(m))) for m in sets])
    weights = st.floats(0.5, 2.0)
    if draw(st.booleans()):
        u = draw(st.integers(1, 6))
        covers = draw(st.lists(st.lists(st.integers(0, u - 1), min_size=1,
                                        max_size=3), min_size=n, max_size=n))
        obj = ObjectiveSpec.coverage(draw(st.lists(weights, min_size=u,
                                                   max_size=u)), covers)
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              min_size=1, max_size=2 * n))
        obj = ObjectiveSpec.directed_cut(
            n, [(u, v, draw(weights)) for u, v in pairs if u != v])
    return obj, pm


@given(matroid_cases())
@settings(max_examples=30, deadline=None)
def test_random_matroid_solves_keep_their_invariants(case):
    # every invariant check runs inside the solve: InvariantViolation fails
    obj, pm = case
    M = max(brute_force_matroid_opt(obj, pm).value, 1e-9)
    solve = solve_matroid_monotone if obj.monotone else solve_matroid_nonmonotone
    r = solve(obj, pm, MatroidSolverConfig(eps=EPS, M=M))
    assert pm.membership(r.solution, 1.0)
    assert r.feasible
    if r.termination != GUESS_REJECTED:
        assert r.adaptive_rounds == 1 + r.epochs + r.inner_iterations


def test_loop_calls_the_oracle_kernels(monkeypatch):
    # each epoch makes one gradient, one value and one tight-set call on x0,
    # and each batch one of each on all the states its fills reach, so the
    # loop makes no value call of its own; the fill stays sparse.  The
    # clamped and public (checked) methods run only at the boundary: the
    # initial point, the first fill and the solution
    log = []
    for cls, names in ((ObjectiveSpec, ("_interior_grad", "_interior_values",
                                        "_clamped_grad", "_values",
                                        "grad", "eval")),
                       (PolymatroidInstance, ("_fits", "_tight", "_step_fill",
                                              "_dense", "membership",
                                              "waterfill"))):
        for name in names:
            def logged(self, *args, _name=name, _real=getattr(cls, name),
                       **kwargs):
                x = np.asarray(args[0]) if args else None
                log.append((_name, None if x is None or x.ndim < 2
                            else x.shape[0]))
                return _real(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, logged)
    obj = ObjectiveSpec.coverage([1, 1, 1, 1], [[0], [1], [2], [3]])
    pm = PolymatroidInstance.uniform(4, 2)
    r = solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=2.0))
    assert r.termination == CONVERGED

    calls = Counter(name for name, _ in log)
    # the interior kernels and the tight sets, in threes of one row count:
    # x0's at the top of each epoch, then a batch's; the last value call is
    # the final eval's
    oracle = [entry for entry in log
              if entry[0] in ("_interior_grad", "_interior_values", "_tight")]
    assert oracle.pop() == ("_interior_values", 1)
    rows = []
    for i in range(0, len(oracle), 3):
        (grad, k), (value, k_value), (tight, k_tight) = oracle[i:i + 3]
        assert (grad, value, tight) == ("_interior_grad", "_interior_values",
                                        "_tight")
        assert k == k_value == k_tight
        rows.append(k)
    # one row only at x0: no 1-row value call inside the loop
    assert rows.count(1) == r.epochs
    batches = len(rows) - r.epochs
    assert 0 < batches < r.inner_iterations / 10
    assert sum(rows) - r.epochs >= r.inner_iterations
    assert calls["_clamped_grad"] == 0
    # the final value by eval, which clamps, then runs the interior kernel
    assert calls["_values"] == 1
    # the fill stays sparse; only the first, checked fill is made dense
    assert calls["_dense"] == 1
    # the initial point's and the solution's membership tests, the first
    # fill's check, and one row-by-row test per check call: x0's of each
    # epoch (all run, as the solve converged) and each batch's
    assert calls["_fits"] == 3 + r.epochs + batches
    assert [k for name, k in log if name == "_fits" and k is not None] == rows
    assert (calls["grad"], calls["eval"]) == (0, 1)
    assert (calls["membership"], calls["waterfill"]) == (2, 1)


def _fill_from(pm, x, eligible, eps):
    """`_step_fill` from x on its own set sums, as (raised, steps), and
    whether it is geometric: each raised i rises by exactly eps * x_i."""
    raised, steps = pm._step_fill(x, eligible, pm._sums(x), eps,
                                  (eps / (1 + eps) * pm.caps).tolist())
    return raised, steps, steps == [eps * v for v in x[raised].tolist()]


def _recorded_states(monkeypatch, solve):
    """The report, the (order, state) of each `_step_fill` call, and per
    batch the (order, state) of the chain's first fill and the states and
    set sums checked after it."""
    real_fill = PolymatroidInstance._step_fill
    real_tight = PolymatroidInstance._tight
    fills, chains, chain_start = [], [], [0]

    def filling(self, x, order, *args):
        fills.append((order, x.copy()))
        return real_fill(self, x, order, *args)

    def checking(self, X, S, *args):
        if X.ndim == 2 and len(fills) > chain_start[0]:  # a chain's batch
            chains.append((*fills[chain_start[0]], X.copy(), S.copy()))
            chain_start[0] = len(fills)
        return real_tight(self, X, S, *args)
    with monkeypatch.context() as patch:
        patch.setattr(PolymatroidInstance, "_step_fill", filling)
        patch.setattr(PolymatroidInstance, "_tight", checking)
        report = solve()
    return report, fills, chains


def test_sparse_fill_adds_the_dense_step(monkeypatch):
    # every state is an earlier state plus that state's dense fill with
    # the chain's eligible set, bit for bit, with its own set sums, whether
    # a fill or a geometric run built it; the states the one-step loop
    # fills from appear among them, in order
    # equal weights: every coordinate is eligible, so several rise per step
    obj = ObjectiveSpec.linear([1.0, 1.0, 1.0, 1.0])
    pm = PolymatroidInstance.uniform(4, 2)
    cfg = MatroidSolverConfig(eps=EPS, M=2.0)
    r, _, chains = _recorded_states(
        monkeypatch, lambda: solve_matroid_monotone(obj, pm, cfg))
    _, stepwise, _ = _recorded_states(
        monkeypatch, lambda: stepwise_matroid_solve(obj, pm, cfg, True))
    assert len(stepwise) == r.inner_iterations
    rows = sum(len(X) for _, _, X, _ in chains)
    assert len(chains) < rows / 10 and rows >= r.inner_iterations
    built, raised_most = {chains[0][1].tobytes()}, 0  # the initial point
    for order, x, X, S in chains:
        assert x.tobytes() in built
        for row, sums in zip(X, S):
            raised, steps, _ = _fill_from(pm, x, order, EPS)
            x = x + pm._dense(raised, steps)
            assert x.tobytes() == row.tobytes()
            assert sums.tobytes() == pm._sums(x).tobytes()
            built.add(x.tobytes())
            raised_most = max(raised_most, len(raised))
    assert raised_most > 1
    states = iter(x.tobytes() for _, x, X, _ in chains for x in [x, *X])
    assert all(x.tobytes() in states for _, x in stepwise)


def _chain_of_fills(pm, x, eligible, eps, room):
    """Follow `room` states of the fills from x as the solver's fill chain
    does, a geometric run from each geometric fill, and check each run's
    rows against repeated `_step_fill`: the same states and set sums, bit
    for bit, cut at the first fill that does not repeat the step.  Returns
    each run's rows, room and last state."""
    caps, runs = eps / (1 + eps) * pm.caps, []
    while room > 0:
        raised, steps, geometric = _fill_from(pm, x, eligible, eps)
        if not raised:
            break
        x = x + pm._dense(raised, steps)
        if not (geometric and room > 1):
            room -= 1
            continue
        X, S = pm._geometric_run(x, raised, eps, caps, room)
        assert X[0].tobytes() == x.tobytes()
        for row, sums in zip(X[1:], S):
            again, steps, geometric = _fill_from(pm, x, eligible, eps)
            assert again == raised and geometric
            assert sums.tobytes() == pm._sums(x).tobytes()
            x = x + pm._dense(raised, steps)
            assert x.tobytes() == row.tobytes()
        assert S[-1].tobytes() == pm._sums(x).tobytes()
        if len(X) < room:  # the fill after the run is not the step
            again, _, geometric = _fill_from(pm, x, eligible, eps)
            assert not (again == raised and geometric)
        runs.append((len(X), room, x))
        room -= len(X)
    return runs


@given(matroid_cases(), st.sampled_from([0.05, 0.2, 1 / 3]),
       st.lists(st.floats(0.0, 4.0), min_size=8, max_size=8),
       st.lists(st.booleans(), min_size=8, max_size=8), st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_geometric_run_is_the_repeated_fill(case, eps, logs, picks, room):
    # from points of scale * P on uniform, partition and laminar matroids
    # whose coordinates span four orders of magnitude below scale, so that
    # runs end at element bounds and at set residuals
    _, pm = case
    scale = eps / (1 + eps)
    x = scale * 10.0 ** -np.array(logs[:pm.n])
    x *= min(1.0, pm.fit_factor(x, scale))
    eligible = [i for i in range(pm.n) if picks[i]]
    _chain_of_fills(pm, x, eligible, eps, room)


@pytest.mark.parametrize("pm, x, eligible, rows, cut", [
    # x_0 rises by (1 + eps) per step until eps * x_0 > scale - x_0
    (PolymatroidInstance.uniform(2, 2), [1e-3, 0.0], [0], 79,
     lambda x, sums, scale: EPS * x[0] > scale - x[0]),
    # x_0 meets the set's residual scale - x_0 - x_1 first
    (PolymatroidInstance.uniform(2, 1), [1e-3, 0.02], [0], 68,
     lambda x, sums, scale: EPS * x[0] > scale - sums[0]),
    # two raised coordinates share a set: x_1's residual, taken after x_0's
    # step, ends the run, where the residual before it would not
    (PolymatroidInstance.partition(3, [[0, 1], [2]], [1, 1]),
     [1e-3, 1e-3, 0.0], [0, 1], 64,
     lambda x, sums, scale: (EPS * x[:2] <= scale - sums[0]).all()),
], ids=["scale-bound", "set-residual", "running-sum"])
def test_geometric_run_ends_at_the_first_bound(pm, x, eligible, rows, cut):
    scale = EPS / (1 + EPS)
    # one run from the first fill, which stops short of its room
    (got, room, x), = _chain_of_fills(pm, np.array(x), eligible, EPS, 100)
    assert (got, room) == (rows, 100)
    assert cut(x, pm._sums(x), scale)


@pytest.mark.parametrize("pm, x", [
    # x_0's own bound scale - x_0 ends the run
    (PolymatroidInstance.uniform(2, 2), [1e-3, 0.0]),
    # the set's residual ends it sooner, within the rows built
    (PolymatroidInstance.uniform(2, 1), [1e-3, 0.02]),
], ids=["scale-bound", "set-residual"])
def test_geometric_run_builds_no_row_past_its_own_bound(pm, x, monkeypatch):
    # a room far beyond the run: the block holds the rows up to the first
    # that fails eps * x_0 <= scale - x_0, not the room
    scale = EPS / (1 + EPS)
    x = np.array(x)
    x[0] += EPS * x[0]  # a fill raised x_0 by exactly eps * x_0
    rows, v = 1, x[0]
    while EPS * v <= scale - v:
        rows, v = rows + 1, v + EPS * v
    built, sums = [], PolymatroidInstance._sums
    monkeypatch.setattr(PolymatroidInstance, "_sums",
                        lambda self, X: built.append(len(X)) or sums(self, X))
    X, _ = pm._geometric_run(x, [0], EPS, scale * pm.caps, 10_000)
    assert built == [rows] and len(X) <= rows


class _ClampedKernels:
    """An objective whose interior kernels are its clamped ones, as the
    matroid loop sees it; every other attribute is the objective's own."""

    def __init__(self, obj):
        self.obj = obj

    def __getattr__(self, name):
        return getattr(self.obj, name)

    def _interior_grad(self, X):
        return self.obj._clamped_grad(X)

    def _interior_values(self, X):
        return self.obj._values(X)


def _report_bytes(r):
    return (json.dumps(r.to_dict(), sort_keys=True).encode()
            + r.solution.tobytes())


@given(matroid_cases())
@settings(max_examples=30, deadline=None)
def test_interior_kernels_solve_as_the_clamped_ones(case):
    # the loop's points lie in [0, 1)^n, where the clamp changes nothing:
    # the same solve on the clamped kernels gives the same bytes
    obj, pm = case
    M = max(brute_force_matroid_opt(obj, pm).value, 1e-9)
    solve = solve_matroid_monotone if obj.monotone else solve_matroid_nonmonotone
    cfg = MatroidSolverConfig(eps=EPS, M=M)
    assert (_report_bytes(solve(obj, pm, cfg))
            == _report_bytes(solve(_ClampedKernels(obj), pm, cfg)))


def _outcome(solve, *args):
    """The report's termination and bytes, or the type and message of what
    the solve raised."""
    try:
        r = solve(*args)
    except (ValueError, InvariantViolation) as exc:
        return type(exc).__name__, str(exc)
    return r.termination, _report_bytes(r)


def _same_as_stepwise(obj, pm, M, cap, monotone):
    """The solve's outcome, the one-step loop's for every batch length:
    one step per batch (k = 1), short chains, the old 4,096-entry bound
    and the default."""
    cfg = MatroidSolverConfig(eps=EPS, M=M, max_iterations=cap)
    solve = solve_matroid_monotone if monotone else solve_matroid_nonmonotone
    want = _outcome(stepwise_matroid_solve, obj, pm, cfg, monotone)
    for entries in (1, 100, 4096, matroid_solver.RUN_AHEAD_ENTRIES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matroid_solver, "RUN_AHEAD_ENTRIES", entries)
            assert _outcome(solve, obj, pm, cfg) == want, entries
    return want


@given(matroid_cases(), st.sampled_from([0.5, 1.0, 1.3]),
       st.sampled_from([None, 1, 2, 3, 5, 8, 13, 40]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_run_ahead_matches_the_stepwise_loop(case, mult, cap, nonmonotone):
    # the batches accept only the steps the one-step loop takes: over- and
    # under-guesses, caps inside a batch, both variants, same bytes
    obj, pm = case
    M = mult * max(brute_force_matroid_opt(obj, pm).value, 1e-9)
    _same_as_stepwise(obj, pm, M, cap, obj.monotone and not nonmonotone)


@pytest.mark.parametrize("obj, k, mult, cap, monotone, termination", [
    # long runs of one eligible set, the batches cut by the gain target
    (ObjectiveSpec.coverage([1, 1, 1, 1], [[0], [1], [2], [3]]), 2, 1.0,
     None, True, CONVERGED),
    # the cap falls inside a batch
    (ObjectiveSpec.coverage([1, 1, 1, 1], [[0], [1], [2], [3]]), 2, 1.0,
     100, True, ITERATION_CAP),
    # the bucket falls and the eligible set grows inside a batch
    (ObjectiveSpec.coverage([2, 2, 2], [[2], [0], [0]]), 1, 1.0, None, True,
     CONVERGED),
    # the tight set grows in the accepted steps of a batch
    (ObjectiveSpec.coverage([2, 1, 2], [[2], [0, 2], [1], [2]]), 4, 3.0,
     None, True, GUESS_REJECTED),
    # a step of a batch finds every improvable coordinate tight: rejected
    (ObjectiveSpec.coverage([1, 3, 1], [[0], [2], [0, 2]]), 2, 3.0, None,
     True, GUESS_REJECTED),
    # every eligible coordinate is tight, the run ends in an empty fill
    (ObjectiveSpec.linear([1.0, 1.0]), 2, 50.0, None, True, GUESS_REJECTED),
    (ObjectiveSpec.directed_cut(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                                    (3, 0, 1.0)]), 2, 1.0, None, False,
     CONVERGED),
], ids=["gain-target", "cap", "eligible-set", "tight-set-grows",
        "rejection-in-batch", "rejection-empty-fill", "cut-nonmonotone"])
def test_batches_cut_as_the_stepwise_loop_stops(obj, k, mult, cap, monotone,
                                                termination):
    pm = PolymatroidInstance.uniform(obj.n, k)
    M = mult * brute_force_matroid_opt(obj, pm).value
    assert _same_as_stepwise(obj, pm, M, cap, monotone)[0] == termination


def test_lost_tight_coordinates_raise_as_in_the_stepwise_loop(monkeypatch):
    # a faulty tight-set kernel that calls coordinate 3, whose gradient is
    # 0, tight until x sums to 0.05, which the first epoch passes inside a
    # batch.  v1 and the eligible set do not see coordinate 3, so only the
    # per-row never-shrinks check can stop the batch where the one-step
    # loop raises
    real = PolymatroidInstance._tight

    def losing(self, x, *args):
        tight = real(self, x, *args)
        tight[..., 3] |= x.sum(axis=-1) < 0.05
        return tight
    monkeypatch.setattr(PolymatroidInstance, "_tight", losing)
    obj = ObjectiveSpec.coverage([1, 1, 1, 0], [[0], [1], [2], [3]])
    pm = PolymatroidInstance.uniform(4, 3)
    assert _same_as_stepwise(obj, pm, 3.0, None, True) == (
        "InvariantViolation", "tight set lost coordinates")


@pytest.mark.parametrize("kernel, fault, message", [
    # a value that halves once the point sums past 0.05: the step there
    # finds the objective decreased
    ("_interior_values",
     lambda X, V: np.where(X.sum(axis=-1) > 0.05, 0.5 * V, V),
     "objective decreased within an epoch"),
    # a gradient that doubles there: v2 rises while the eligible set, the
    # coordinates within a factor 1 + eps of the top, stays the same
    ("_interior_grad",
     lambda X, G: np.where(X.sum(axis=-1, keepdims=True) > 0.05, 2.0 * G, G),
     "bucket value v2 increased within an epoch"),
], ids=["value-falls", "v2-rises"])
def test_faulty_kernels_raise_as_in_the_stepwise_loop(kernel, fault, message,
                                                      monkeypatch):
    # the fault fires inside a batch, as in the lost-coordinates test: only
    # the per-row value and v2 checks can stop the batch where the
    # one-step loop raises
    real = getattr(ObjectiveSpec, kernel)
    monkeypatch.setattr(ObjectiveSpec, kernel,
                        lambda self, X: fault(X, real(self, X)))
    obj = ObjectiveSpec.coverage([1, 1, 1, 0], [[0], [1], [2], [3]])
    pm = PolymatroidInstance.uniform(4, 3)
    assert _same_as_stepwise(obj, pm, 3.0, None, True) == (
        "InvariantViolation", message)


@pytest.mark.parametrize("obj, solve", [
    (ObjectiveSpec.coverage([1, 1], [[0], [1]]), solve_matroid_monotone),
    (ObjectiveSpec.directed_cut(2, [(0, 1, 1.0)]), solve_matroid_nonmonotone),
], ids=["monotone", "non-monotone"])
def test_epoch_domain_bound_past_one_raises(obj, solve, monkeypatch):
    # a tolerance this wide lets x reach 1 / (1 + eps): the epoch's bound
    # on its evaluation points is then at least 1, before anything runs
    monkeypatch.setattr(matroid_solver, "TIGHT_TOL", 1.0 / (1.0 + EPS))
    pm = PolymatroidInstance.uniform(2, 1)
    with pytest.raises(InvariantViolation, match="epoch 0: evaluation points"):
        solve(obj, pm, MatroidSolverConfig(eps=EPS, M=1.0))


def test_single_guess_needs_a_nonempty_ground_set():
    pm = PolymatroidInstance.uniform(0, 1)
    obj = ObjectiveSpec.linear([])
    for solve in (solve_matroid_monotone, solve_matroid_nonmonotone):
        with pytest.raises(ValueError, match="constraint.n: .* needs n >= 1"):
            solve(obj, pm, MatroidSolverConfig(eps=EPS, M=1.0))
