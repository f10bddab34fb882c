import json
import math

import numpy as np
import pytest

import drsubmax.guessing
import drsubmax.packing_solver
import drsubmax.softmax
from drsubmax import (ObjectiveSpec, PolymatroidInstance, SolveReport,
                      add_box_rows, build_ladder, normalize_packing,
                      solve_single, solve_with_guessing)
from drsubmax.report import CONVERGED, GUESS_REJECTED, ITERATION_CAP


def test_m0_is_max_singleton():
    obj = ObjectiveSpec.linear([2.0, 3.0])
    m0 = obj.singleton_values().max()
    assert m0 == pytest.approx(3.0)
    assert build_ladder(obj, 0.05)[0] == m0


def test_ladder_formula_small_case():
    # n=2, eps=0.5: ceil(2 ln 2 / 0.5) = 3, so 4 entries
    obj = ObjectiveSpec.linear([2.0, 3.0])
    ladder = build_ladder(obj, 0.5)
    np.testing.assert_allclose(ladder, [3.0, 4.5, 6.75, 10.125])


def test_ladder_coverage_example():
    obj = ObjectiveSpec.coverage([1.0], [[0], [0]])
    assert obj.singleton_values().max() == pytest.approx(1.0)
    assert build_ladder(obj, 0.05)[0] == obj.singleton_values().max()


def test_ladder_covers_any_opt_in_range():
    obj = ObjectiveSpec.linear([1.0, 1.0, 1.0])
    eps = 0.05
    ladder = build_ladder(obj, eps)
    m0 = obj.singleton_values().max()
    for opt in np.linspace(m0, 3 * m0, 200):
        assert any(M <= opt <= (1 + eps) * M for M in ladder)


def test_zero_objective_returns_zero_solution():
    obj = ObjectiveSpec.linear([0.0, 0.0])
    pm = PolymatroidInstance.uniform(2, 1)
    r = solve_with_guessing(obj, pm, 0.05)
    np.testing.assert_allclose(r.solution, 0.0)
    assert r.adaptive_rounds == 1
    assert r.termination == CONVERGED


@pytest.mark.parametrize("m", [0, 2])
def test_empty_ground_set(m):
    # n = 0: the ladder reports the zero solution for both constraint
    # kinds; a single guess has nothing to solve and says so
    empty = np.zeros(0)
    packing = normalize_packing(np.zeros((m, 0)), 0.05)
    assert (packing.m, packing.n, packing.fixed_zero) == (m, 0, [])
    cases = [(ObjectiveSpec.linear([]), packing, True),
             (ObjectiveSpec.directed_cut(0, []), packing, False),
             (ObjectiveSpec.coverage([1.0], []), PolymatroidInstance.uniform(0, 1),
              True),
             (ObjectiveSpec.directed_cut(0, []),
              PolymatroidInstance.partition(0, [], []), False)]
    for obj, constraint, monotone in cases:
        r = solve_with_guessing(obj, constraint, 0.05, monotone=monotone)
        assert (r.solution == empty).all() and r.solution.shape == (0,)
        assert (r.value, r.termination, r.feasible) == (0.0, CONVERGED, True)
        with pytest.raises(ValueError, match=r"constraint.n: .* needs n >= 1"):
            solve_single(obj, constraint, 0.05, 1.0, monotone=monotone)


def test_guessing_matroid_end_to_end():
    obj = ObjectiveSpec.coverage([1, 1, 1], [[0], [1], [2]])
    pm = PolymatroidInstance.uniform(3, 2)
    r = solve_with_guessing(obj, pm, 0.05)
    assert r.feasible
    assert r.termination == CONVERGED
    assert len(r.guess_trace) == len(build_ladder(obj, 0.05))


def test_rounds_are_parallel_max_not_sum():
    obj = ObjectiveSpec.coverage([1, 1], [[0], [1]])
    pm = PolymatroidInstance.uniform(2, 1)
    r = solve_with_guessing(obj, pm, 0.05)
    # combined rounds = 1 + max per guess; any sum over the trace would be
    # far larger than a single run's rounds
    per_guess_total = sum(1 for _ in r.guess_trace)
    assert per_guess_total > 1
    assert r.adaptive_rounds < 10_000 * per_guess_total  # sanity scale
    # exact accounting against a rerun of the best guess alone
    from drsubmax import MatroidSolverConfig, solve_matroid_monotone
    best = max((solve_matroid_monotone(obj, pm,
                                       MatroidSolverConfig(eps=0.05, M=M))
                .adaptive_rounds) for (M, _, _) in r.guess_trace)
    assert r.adaptive_rounds == 1 + best


def test_build_ladder_rejects_bad_eps():
    obj = ObjectiveSpec.linear([1.0])
    with pytest.raises(ValueError):
        build_ladder(obj, 0.0)


@pytest.mark.parametrize("eps, m_low", [(1e-300, None), (5e-324, None),
                                        (1e-6, None), (0.05, 5e-324)])
def test_build_ladder_bounds_its_length_up_front(eps, m_low):
    # counted before any guess is built: the first two would be ~1e300
    # guesses, and m0 / m_low overflows in the last
    obj = ObjectiveSpec.linear([1.0, 2.0])
    with pytest.raises(ValueError, match="ladder of more than"):
        build_ladder(obj, eps, m_low=m_low)
    longest = build_ladder(obj, 2 * math.log(2) / (
        drsubmax.guessing.MAX_LADDER_GUESSES - 1))
    assert len(longest) == drsubmax.guessing.MAX_LADDER_GUESSES


def _fake_solver(outcomes, calls):
    """A solver returning outcomes[i] = (termination, value, feasible) on
    its i-th call, recording each call's guess."""
    def solve(obj, constraint, cfg):
        termination, value, feasible = outcomes[len(calls)]
        calls.append(cfg.M)
        return SolveReport(solution=np.zeros(obj.n), value=value, epochs=1,
                           inner_iterations=1, adaptive_rounds=2,
                           feasible=feasible, guess_used=cfg.M,
                           termination=termination)
    return solve


@pytest.mark.parametrize("late, expected", [
    # a converged guess below a feasible capped one: the ladder converged
    ((CONVERGED, 0.8440, True), CONVERGED),
    # no guess converged: the best guess's own termination stands
    ((GUESS_REJECTED, 0.5, True), ITERATION_CAP),
])
def test_ladder_termination(monkeypatch, late, expected):
    obj = ObjectiveSpec.coverage([1, 1], [[0], [1]])
    pm = PolymatroidInstance.uniform(2, 1)
    k = len(build_ladder(obj, 0.05))
    outcomes = ([(ITERATION_CAP, 0.8488, True), (GUESS_REJECTED, 0.9, False)]
                + [late] * (k - 2))
    calls = []
    monkeypatch.setattr(drsubmax.guessing, "solve_matroid_monotone",
                        _fake_solver(outcomes, calls))
    r = solve_with_guessing(obj, pm, 0.05)
    assert r.value == 0.8488
    assert r.termination == expected
    assert [t for _, t, _ in r.guess_trace] == [t for t, _, _ in outcomes]


@pytest.mark.parametrize("name, constraint, monotone", [
    ("solve_matroid_monotone", PolymatroidInstance.uniform(2, 1), True),
    ("solve_matroid_nonmonotone", PolymatroidInstance.uniform(2, 1), False),
])
def test_ladder_calls_solvers_by_module_name(monkeypatch, name, constraint,
                                            monotone):
    # the benchmark's tracer wraps these names; a dispatch table captured
    # at import time would bypass the wrappers.  Packing ladders run their
    # guesses in lockstep instead (test_lockstep_ladder_matches_solve_single)
    obj = ObjectiveSpec.linear([1.0, 1.0])
    calls = []
    monkeypatch.setattr(drsubmax.guessing, name, _fake_solver(
        [(CONVERGED, 1.0, True)] * 1000, calls))
    r = solve_with_guessing(obj, constraint, 0.05, monotone=monotone)
    assert calls == [M for M, _, _ in r.guess_trace]
    assert len(calls) > 1


def _packing_ladder_case(kind, seed):
    """A criterion-3-style ladder (linear, coverage) or a non-monotone
    directed-cut packing ladder; (objective, constraint, monotone)."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    if kind == "cut":
        arcs = {(int(u), int(v)) for u, v in rng.integers(0, n, size=(2 * n, 2))
                if u != v} or {(0, 1)}
        obj = ObjectiveSpec.directed_cut(
            n, [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in sorted(arcs)])
        A = np.vstack([np.eye(n), rng.uniform(0.3, 1.0, size=(1, n))])
        return obj, normalize_packing(A, 0.05), False
    if kind == "linear":
        obj = ObjectiveSpec.linear(rng.uniform(0.5, 2.0, size=n))
    else:
        u = int(rng.integers(3, 7))
        obj = ObjectiveSpec.coverage(
            rng.uniform(0.5, 2.0, size=u),
            [rng.choice(u, size=int(rng.integers(1, 3)), replace=False).tolist()
             for _ in range(n)])
    return obj, normalize_packing(rng.uniform(0.3, 1.5, size=(m, n)), 0.05), True


@pytest.mark.parametrize("kind", ["linear", "coverage", "cut"])
@pytest.mark.parametrize("seed", [1, 2])
def test_lockstep_ladder_matches_solve_single(kind, seed):
    # every lockstep guess ends as its own one-guess solve does
    obj, inst, monotone = _packing_ladder_case(kind, seed)
    r = solve_with_guessing(obj, inst, 0.05, monotone=monotone,
                            max_iterations=1000)
    guesses = [M for M, _, _ in r.guess_trace]
    lockstep = drsubmax.packing_solver.solve_packing_guesses(
        obj, inst if monotone else add_box_rows(inst), 0.05, guesses,
        monotone=monotone, max_iterations=1000)
    assert [(M, got.termination) for M, got in zip(guesses, lockstep)] == [
        (M, t) for M, t, _ in r.guess_trace]
    for M, got in zip(guesses, lockstep):
        want = drsubmax.guessing.solve_single(obj, inst, 0.05, M,
                                              monotone=monotone,
                                              max_iterations=1000)
        assert got.guess_used == M
        assert (got.termination, got.inner_iterations, got.adaptive_rounds,
                got.notes, got.feasible) == (
            want.termination, want.inner_iterations, want.adaptive_rounds,
            want.notes, want.feasible)
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)
        np.testing.assert_allclose(got.solution, want.solution, rtol=1e-12)


def test_lockstep_state_runs_in_bounded_blocks(monkeypatch):
    # with a block of two rows the seven guesses run in four blocks, and
    # each report is the one a single block of all seven gives
    obj, inst, _ = _packing_ladder_case("linear", 3)
    guesses = [0.5 * 1.2 ** k for k in range(7)]
    whole = drsubmax.packing_solver.solve_packing_guesses(
        obj, inst, 0.05, guesses, monotone=True, max_iterations=300)
    monkeypatch.setattr(drsubmax.packing_solver, "MAX_PACKING_ENTRIES",
                        2 * (inst.m + inst.n))
    sizes, real = [], drsubmax.packing_solver._solve
    monkeypatch.setattr(drsubmax.packing_solver, "_solve",
                        lambda *args: sizes.append(len(args[3])) or real(*args))
    blocks = drsubmax.packing_solver.solve_packing_guesses(
        obj, inst, 0.05, guesses, monotone=True, max_iterations=300)
    assert sizes == [2, 2, 2, 1]
    assert len(blocks) == len(whole)
    for got, want in zip(blocks, whole):
        assert (got.guess_used, got.termination, got.inner_iterations) == (
            want.guess_used, want.termination, want.inner_iterations)
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)


def test_packing_loop_calls_the_softmax_kernels(monkeypatch):
    # each iteration calls the unchecked kernel once, for both the potential
    # and the distribution; the checked smax runs at the start point and on
    # the converged guess, the checked smax_grad at the start point only
    counts = {"_smax_dist": 0, "smax": 0, "smax_grad": 0}
    for name in counts:
        real = getattr(drsubmax.packing_solver, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(drsubmax.packing_solver, name, counted)
    obj = ObjectiveSpec.linear([1.0, 1.0])
    inst = normalize_packing([[1.0, 1.0]], 0.05)
    r = drsubmax.guessing.solve_single(obj, inst, 0.05, 0.95, monotone=True)
    assert r.termination == CONVERGED
    assert r.inner_iterations > 0
    assert counts["_smax_dist"] == r.inner_iterations
    assert counts["smax"] == 2
    assert counts["smax_grad"] == 1


@pytest.mark.parametrize("obj, constraint, M, monotone", [
    (ObjectiveSpec.coverage([1, 1, 1, 1], [[0], [1], [2], [3]]),
     PolymatroidInstance.uniform(4, 2), 2.0, True),
    (ObjectiveSpec.linear([1.0, 1.0]), normalize_packing([[1.0, 1.0]], 0.05),
     1.0, True),
    (ObjectiveSpec.directed_cut(3, [(0, 1, 1.0), (1, 2, 1.0)]),
     normalize_packing(np.eye(3), 0.05), 3.0, False),
], ids=["matroid", "packing", "packing-nonmonotone"])
def test_input_checks_do_not_grow_with_the_iterations(monkeypatch, obj,
                                                      constraint, M,
                                                      monotone):
    # inputs are checked at the boundary only: a solve of 1,000 iterations
    # runs the shape, sign and finiteness checks as often as one of 10
    counts = {}
    for owner, name in ((ObjectiveSpec, "_check"),
                        (PolymatroidInstance, "_vec"),
                        (drsubmax.softmax, "_check_z")):
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    seen = []
    for cap in (10, 1000):
        counts.clear()
        r = drsubmax.guessing.solve_single(obj, constraint, 0.05, M,
                                           monotone=monotone,
                                           max_iterations=cap)
        assert (r.termination, r.inner_iterations) == (ITERATION_CAP, cap)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]  # the boundary checks did run


def test_lockstep_ladder_rejects_non_finite_guesses():
    obj, inst, _ = _packing_ladder_case("linear", 3)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            drsubmax.packing_solver.solve_packing_guesses(
                obj, inst, 0.05, [1.0, bad], monotone=True)


@pytest.mark.parametrize("constraint", [
    PolymatroidInstance.uniform(2, 1), normalize_packing([[1.0, 1.0]], 0.05)])
def test_zero_max_iterations_is_a_cap_not_the_default(constraint):
    obj = ObjectiveSpec.linear([1.0, 1.0])
    r = drsubmax.guessing.solve_single(obj, constraint, 0.05, 0.95,
                                       monotone=True, max_iterations=0)
    assert r.termination == ITERATION_CAP
    assert r.inner_iterations == 0
    # a negative cap is rejected, by the ladder too
    with pytest.raises(ValueError, match="non-negative integer"):
        solve_with_guessing(obj, constraint, 0.05, max_iterations=-1)
    with pytest.raises(ValueError, match="non-negative integer"):
        solve_single(obj, constraint, 0.05, 0.95, monotone=True,
                     max_iterations=-1)


def _stub_packing_guesses(monkeypatch):
    """Replace the lockstep solve by one converged report per guess; the
    list it returns collects the guesses of each call."""
    calls = []

    def solve(obj, constraint, eps, guesses, **kwargs):
        calls.append(list(guesses))
        return [SolveReport(solution=np.zeros(obj.n), value=0.0, epochs=1,
                            inner_iterations=1, adaptive_rounds=2,
                            feasible=True, guess_used=M, termination=CONVERGED)
                for M in guesses]
    monkeypatch.setattr(drsubmax.guessing, "solve_packing_guesses", solve)
    return calls


def test_packing_ladder_starts_at_m0_when_a_singleton_is_feasible():
    # element 1 covers every item and x = e_1 is feasible, so the lower
    # end is m0 itself and no guess lies below it
    obj = ObjectiveSpec.coverage(
        [1.2659009621094757, 0.3695931039298933, 0.8990223231940234,
         1.053434639731769], [[0, 3], [0, 1, 2, 3]])
    inst = normalize_packing([[2.802483825678371, 0.0],
                              [0.0, 0.6244233843612701]], 0.05)
    r = solve_with_guessing(obj, inst, 0.05, max_iterations=10)
    ladder = build_ladder(obj, 0.05)
    assert [M for M, _, _ in r.guess_trace] == ladder
    assert ladder[0] == obj.singleton_values().max()


@pytest.mark.parametrize("kind", ["linear", "coverage", "cut"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_packing_lower_end_is_a_feasible_point_value(monkeypatch, kind, seed):
    # m_low = max_i t_i f({i}) is the value of the feasible point t_i e_i
    obj, inst, monotone = _packing_ladder_case(kind, seed)
    lows, real = [], drsubmax.guessing.build_ladder
    monkeypatch.setattr(drsubmax.guessing, "build_ladder",
                        lambda obj, eps, m_low=None:
                        lows.append(m_low) or real(obj, eps, m_low=m_low))
    _stub_packing_guesses(monkeypatch)
    solve_with_guessing(obj, inst, 0.05, monotone=monotone)
    colmax = inst.A.max(axis=0)
    colmax[inst.fixed_zero] = 0.0
    values = [obj.eval(min(1.0, 0.95 / colmax[i]) * np.eye(obj.n)[i])
              for i in range(obj.n) if colmax[i] > 0]
    assert lows == [pytest.approx(max(values), rel=1e-12, abs=0)]


def test_packing_ladder_setup_evaluates_no_points(monkeypatch):
    # the lower end comes from the singleton values: no point batch is
    # evaluated before the guesses run
    obj, inst, _ = _packing_ladder_case("coverage", 1)
    batches, real = [], ObjectiveSpec.eval_many
    monkeypatch.setattr(ObjectiveSpec, "eval_many",
                        lambda self, X: batches.append(len(X)) or real(self, X))
    calls = _stub_packing_guesses(monkeypatch)
    solve_with_guessing(obj, inst, 0.05)
    assert len(calls) == 1 and len(calls[0]) > 1
    assert batches == []


@pytest.mark.parametrize("arcs", [[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
                                  [(0, 2, 2.0), (1, 0, 0.5)]])
def test_boxed_and_unboxed_ladders_report_the_same_bytes(arcs):
    # every column's max is below 1, so box rows would lower t_i to 0.95
    # and the ladder's lower end with it, were they read
    obj = ObjectiveSpec.directed_cut(3, arcs)
    inst = normalize_packing([[0.5, 0.6, 0.0], [0.0, 0.4, 0.8]], 0.05)
    unboxed, boxed = (
        solve_with_guessing(obj, c, 0.05, monotone=False, max_iterations=300)
        for c in (inst, add_box_rows(inst)))
    assert len(unboxed.guess_trace) == len(boxed.guess_trace)
    assert (json.dumps(unboxed.to_dict(), sort_keys=True)
            == json.dumps(boxed.to_dict(), sort_keys=True))
    assert unboxed.solution.tobytes() == boxed.solution.tobytes()
