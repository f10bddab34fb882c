import numpy as np
import pytest

import drsubmax.guessing
import drsubmax.packing_solver
from drsubmax import (ObjectiveSpec, PolymatroidInstance, SolveReport,
                      build_ladder, normalize_packing, solve_with_guessing)
from drsubmax.report import CONVERGED, GUESS_REJECTED, ITERATION_CAP


def test_m0_is_max_singleton():
    obj = ObjectiveSpec.linear([2.0, 3.0])
    ladder = build_ladder(obj, 0.05)
    assert ladder.m0 == pytest.approx(3.0)


def test_ladder_formula_small_case():
    # n=2, eps=0.5: ceil(2 ln 2 / 0.5) = 3, so 4 entries
    obj = ObjectiveSpec.linear([2.0, 3.0])
    ladder = build_ladder(obj, 0.5)
    np.testing.assert_allclose(ladder.guesses, [3.0, 4.5, 6.75, 10.125])


def test_ladder_coverage_example():
    obj = ObjectiveSpec.coverage([1.0], [[0], [0]])
    assert build_ladder(obj, 0.05).m0 == pytest.approx(1.0)


def test_ladder_covers_any_opt_in_range():
    obj = ObjectiveSpec.linear([1.0, 1.0, 1.0])
    eps = 0.05
    ladder = build_ladder(obj, eps)
    for opt in np.linspace(ladder.m0, 3 * ladder.m0, 200):
        assert any(M <= opt <= (1 + eps) * M for M in ladder.guesses)


def test_zero_objective_returns_zero_solution():
    obj = ObjectiveSpec.linear([0.0, 0.0])
    pm = PolymatroidInstance.uniform(2, 1)
    r = solve_with_guessing(obj, pm, 0.05)
    np.testing.assert_allclose(r.solution, 0.0)
    assert r.adaptive_rounds == 1
    assert r.termination == CONVERGED


def test_guessing_matroid_end_to_end():
    obj = ObjectiveSpec.coverage([1, 1, 1], [[0], [1], [2]])
    pm = PolymatroidInstance.uniform(3, 2)
    r = solve_with_guessing(obj, pm, 0.05)
    assert r.feasible
    assert r.termination == CONVERGED
    assert len(r.guess_trace) == len(build_ladder(obj, 0.05).guesses)


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
    k = len(build_ladder(obj, 0.05).guesses)
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
    ("solve_packing_monotone", normalize_packing([[1.0, 1.0]], 0.05), True),
    ("solve_packing_nonmonotone", normalize_packing([[1.0, 1.0]], 0.05), False),
])
def test_ladder_calls_solvers_by_module_name(monkeypatch, name, constraint,
                                            monotone):
    # the benchmark's tracer wraps these names; a dispatch table captured
    # at import time would bypass the wrappers
    obj = ObjectiveSpec.linear([1.0, 1.0])
    calls = []
    monkeypatch.setattr(drsubmax.guessing, name, _fake_solver(
        [(CONVERGED, 1.0, True)] * 1000, calls))
    r = solve_with_guessing(obj, constraint, 0.05, monotone=monotone)
    assert calls == [M for M, _, _ in r.guess_trace]
    assert len(calls) > 1


def test_packing_loop_calls_softmax_by_module_name(monkeypatch):
    counts = {"smax": 0, "smax_grad": 0}
    for name in counts:
        real = getattr(drsubmax.packing_solver, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(drsubmax.packing_solver, name, counted)
    obj = ObjectiveSpec.linear([1.0, 1.0])
    inst = normalize_packing([[1.0, 1.0]], 0.05)
    r = drsubmax.guessing.solve_single(obj, inst, 0.05, 0.95, monotone=True)
    assert r.inner_iterations > 0
    assert counts["smax_grad"] == r.inner_iterations
    assert counts["smax"] >= r.inner_iterations


@pytest.mark.parametrize("constraint", [
    PolymatroidInstance.uniform(2, 1), normalize_packing([[1.0, 1.0]], 0.05)])
def test_zero_max_iterations_is_a_cap_not_the_default(constraint):
    obj = ObjectiveSpec.linear([1.0, 1.0])
    r = drsubmax.guessing.solve_single(obj, constraint, 0.05, 0.95,
                                       monotone=True, max_iterations=0)
    assert r.termination == ITERATION_CAP
    assert r.inner_iterations == 0
