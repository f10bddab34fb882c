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

from oracles import stepwise_matroid_solve

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
    assert pm.tight_set(r.solution, EPS / (1 + EPS)) == frozenset(tight)


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
    # the initial point's and the solution's membership tests and the first
    # fill's check; the loop tests scale * P itself, row by row
    assert calls["_fits"] == 3
    assert (calls["grad"], calls["eval"]) == (0, 1)
    assert (calls["membership"], calls["waterfill"]) == (2, 1)


def _recorded_fills(monkeypatch, solve):
    """(x, y, rows raised) for each fill that `solve()` makes, y dense."""
    real, fills = PolymatroidInstance._step_fill, []

    def recording(self, x, *args):
        raised, steps = real(self, x, *args)
        fills.append((x.copy(), self._dense(raised, steps), len(raised)))
        return raised, steps
    with monkeypatch.context() as patch:
        patch.setattr(PolymatroidInstance, "_step_fill", recording)
        report = solve()
    return report, fills


def test_sparse_fill_adds_the_dense_step(monkeypatch):
    # every state is built by adding a fill's steps at the raised
    # coordinates only: it has the bits of x + y, x the state the fill
    # started from and y the dense fill, or is the initial point; the
    # states the one-step loop fills from appear among them, in order
    # equal weights: every coordinate is eligible, so several rise per step
    obj = ObjectiveSpec.linear([1.0, 1.0, 1.0, 1.0])
    pm = PolymatroidInstance.uniform(4, 2)
    cfg = MatroidSolverConfig(eps=EPS, M=2.0)
    r, fills = _recorded_fills(
        monkeypatch, lambda: solve_matroid_monotone(obj, pm, cfg))
    _, stepwise = _recorded_fills(
        monkeypatch, lambda: stepwise_matroid_solve(obj, pm, cfg, True))
    assert len(stepwise) == r.inner_iterations < len(fills)
    assert max(k for _, _, k in fills) > 1
    built = {fills[0][0].tobytes()}  # the initial point
    for x, y, _ in fills:
        assert x.tobytes() in built
        built.add((x + y).tobytes())
    states = iter(x.tobytes() for x, _, _ in fills)
    assert all(x.tobytes() in states for x, _, _ in stepwise)


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
    one step per batch (k = 1), short chains and the default."""
    cfg = MatroidSolverConfig(eps=EPS, M=M, max_iterations=cap)
    solve = solve_matroid_monotone if monotone else solve_matroid_nonmonotone
    want = _outcome(stepwise_matroid_solve, obj, pm, cfg, monotone)
    for entries in (1, 100, matroid_solver.RUN_AHEAD_ENTRIES):
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
