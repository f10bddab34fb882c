import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsubmax import (MatroidSolverConfig, ObjectiveSpec, PolymatroidInstance,
                      brute_force_matroid_opt, solve_matroid_monotone,
                      solve_matroid_nonmonotone)
from drsubmax import matroid_solver
from drsubmax.report import CONVERGED, GUESS_REJECTED, InvariantViolation

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
    # each step calls the interior (clamp-free) kernels and the sparse
    # fill; the clamped and public (checked) methods run only at the
    # boundary: the initial point, the first fill and the final solution
    counts = {}
    for cls, names in ((ObjectiveSpec, ("_interior_grad", "_interior_values",
                                        "_clamped_grad", "_values",
                                        "grad", "eval")),
                       (PolymatroidInstance, ("_fits", "_tight", "_step_fill",
                                              "_dense", "membership",
                                              "waterfill"))):
        for name in names:
            real = getattr(cls, name)
            counts[name] = 0

            def counted(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
    obj = ObjectiveSpec.coverage([1, 1, 1, 1], [[0], [1], [2], [3]])
    pm = PolymatroidInstance.uniform(4, 2)
    r = solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=2.0))
    assert r.termination == CONVERGED
    assert r.inner_iterations > 0
    assert counts["_interior_grad"] == r.inner_iterations
    assert counts["_clamped_grad"] == 0
    # g(x0) once per epoch, g(x) once per step, the final value by eval
    # (which clamps, then runs the interior kernel)
    assert counts["_interior_values"] == r.inner_iterations + r.epochs + 1
    assert counts["_values"] == 1
    assert counts["_tight"] == counts["_step_fill"] == r.inner_iterations
    # the fill stays sparse; only the first, checked fill is made dense
    assert counts["_dense"] == 1
    # plus the initial point's and the solution's membership tests and the
    # first fill's check
    assert counts["_fits"] == r.inner_iterations + 3
    assert (counts["grad"], counts["eval"]) == (0, 1)
    assert (counts["membership"], counts["waterfill"]) == (2, 1)


def test_sparse_fill_adds_the_dense_step(monkeypatch):
    # the loop adds each fill's steps at the raised coordinates only; the
    # next step starts from the bits of x + y, y the dense fill, or from
    # the initial point when a new epoch begins
    real, calls = PolymatroidInstance._step_fill, []

    def recording(self, x, *args):
        raised, steps = real(self, x, *args)
        calls.append((x.copy(), self._dense(raised, steps), len(raised)))
        return raised, steps
    monkeypatch.setattr(PolymatroidInstance, "_step_fill", recording)
    # equal weights: every coordinate is eligible, so several rise per step
    obj = ObjectiveSpec.linear([1.0, 1.0, 1.0, 1.0])
    pm = PolymatroidInstance.uniform(4, 2)
    r = solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=2.0))
    assert r.inner_iterations == len(calls)
    assert max(k for _, _, k in calls) > 1
    x0 = calls[0][0]
    for (x, y, _), (x_next, _, _) in zip(calls, calls[1:]):
        assert (x_next == x + y).all() or (x_next == x0).all()


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
