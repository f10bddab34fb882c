import json
import math
import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsubmax import (ObjectiveSpec, PackingSolverConfig, add_box_rows,
                      grid_fractional_opt, normalize_packing, solve_single,
                      solve_packing_monotone, solve_packing_nonmonotone,
                      solve_with_guessing)
from drsubmax import packing_solver
from drsubmax.matroid_solver import iteration_budget
from drsubmax.packing_solver import (iteration_cap_monotone,
                                     iteration_cap_nonmonotone,
                                     solve_packing_guesses)
from drsubmax.report import (CONVERGED, GUESS_REJECTED, ITERATION_CAP,
                             InvariantViolation)

from oracles import recorded_iterates, reference_packing_solve

EPS = 0.05


def test_normalize_in_range_is_identity():
    A = np.array([[0.5, 1.0], [0.2, 0.0]])
    inst = normalize_packing(A, EPS)
    np.testing.assert_allclose(inst.A, A)
    assert inst.fixed_zero == []


def test_normalize_huge_entry_pins_column():
    n = 1
    inst = normalize_packing([[10 * n / EPS]], EPS)
    assert inst.fixed_zero == [0]
    assert inst.A[0, 0] == 0.0


def test_normalize_raises_tiny_entries_and_keeps_zeros():
    A = np.array([[1.0, 1e-4], [0.0, 1.0]])
    inst = normalize_packing(A, EPS)
    assert inst.A[0, 1] == pytest.approx(EPS / 2)
    assert inst.A[1, 0] == 0.0  # sparsity preserved
    assert (inst.A == [[1.0, EPS / 2], [0.0, 1.0]]).all()  # nothing else moved


def _normalize_by_columns(A, eps):
    """The per-column loop normalize_packing ran before its array form:
    (A, fixed_zero) with every column holding an entry above n/eps zeroed
    and pinned, and in the other columns every nonzero entry below eps/n
    raised to eps/n."""
    A = np.array(A, dtype=float)
    n = A.shape[1]
    lo, hi = eps / n, n / eps
    fixed_zero = []
    for j in range(n):
        col = A[:, j]
        if col.max() > hi:
            fixed_zero.append(j)
            A[:, j] = 0.0
            continue
        small = (col > 0) & (col < lo)
        A[small, j] = lo
    return A, fixed_zero


@st.composite
def packing_matrices(draw):
    """(A, eps) with entries 0, below eps/n, inside the range, above n/eps,
    and at both ends and their neighbouring floats."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    eps = draw(st.sampled_from([0.05, 0.03, 0.001]))
    lo, hi = eps / n, n / eps
    ends = [lo, hi] + [np.nextafter(v, d) for v in (lo, hi)
                       for d in (0.0, math.inf)]
    entry = st.one_of(st.just(0.0), st.sampled_from(ends),
                      st.floats(0.0, lo), st.floats(lo, hi),
                      st.floats(hi, 1e3 * hi))
    A = np.array(draw(st.lists(entry, min_size=m * n,
                               max_size=m * n))).reshape(m, n)
    A[0, ~A.any(axis=0)] = 1.0  # every column needs a nonzero entry
    return A, eps


@given(packing_matrices())
@settings(max_examples=300, deadline=None)
def test_normalize_matches_the_per_column_rule(case):
    A, eps = case
    inst = normalize_packing(A, eps)
    want, fixed_zero = _normalize_by_columns(A, eps)
    assert inst.A.tobytes() == want.tobytes()
    assert inst.fixed_zero == fixed_zero
    assert all(type(j) is int for j in inst.fixed_zero)


def test_normalize_rejects_zero_column():
    with pytest.raises(ValueError, match="all-zero"):
        normalize_packing([[1.0, 0.0]], EPS)
    A = np.zeros((1, 10_000))
    A[0, 7] = 1.0
    with pytest.raises(ValueError, match="9999 all-zero") as err:
        normalize_packing(A, EPS)
    assert len(str(err.value)) < 100


def test_start_point_skips_fixed_and_empty_columns():
    from drsubmax.packing_solver import _start_point
    # column 1 is pinned to 0, which leaves it empty until the box rows
    # give it an entry again
    base = normalize_packing([[0.5, 10 * 3 / EPS, 0.0],
                              [0.25, 0.0, 0.7]], EPS)
    assert base.fixed_zero == [1]
    for inst in (base, add_box_rows(base)):
        colmax = inst.A.max(axis=0)
        want = np.zeros(3)
        for i in range(3):  # the per-coordinate rule
            if i not in inst.fixed_zero and colmax[i] > 0:
                want[i] = EPS / (3 * colmax[i])
        assert (_start_point(inst, EPS) == want).all()
        assert want[1] == 0.0 and want[0] > 0.0 and want[2] > 0.0
        assert (inst.A.max(axis=0) == colmax).all()  # A is left as it was


def test_start_point_uses_the_solvers_eps():
    # the instance was normalized at 0.05; the solve runs at 0.03
    A = np.array([[0.5, 0.8, 0.0], [0.25, 0.1, 0.7]])
    inst = normalize_packing(A, 0.05)
    cfg = PackingSolverConfig(eps=0.03, M=1.0, max_iterations=0)
    r = solve_packing_monotone(ObjectiveSpec.linear([1.0, 1.0, 1.0]), inst, cfg)
    assert (r.termination, r.inner_iterations) == (ITERATION_CAP, 0)
    assert (r.solution == 0.03 / (3 * A.max(axis=0))).all()


def test_linear_single_row_example():
    obj = ObjectiveSpec.linear([1.0, 1.0])
    inst = normalize_packing([[1.0, 1.0]], EPS)
    M = 0.95  # fractional optimum of <c,x> s.t. x0+x1 <= 1-eps
    r = solve_packing_monotone(obj, inst, PackingSolverConfig(eps=EPS, M=M))
    assert r.termination == CONVERGED
    assert r.value >= (1 - math.exp(-1 + 10 * EPS)) * M
    assert r.slack <= 1 - 2 * EPS + 1e-9  # ||Ax||_inf
    assert r.feasible


def test_coverage_single_row_example():
    obj = ObjectiveSpec.coverage([1.0], [[0], [0]])
    inst = normalize_packing([[0.5, 0.5]], EPS)
    opt = grid_fractional_opt(obj, inst, 1e-3)
    r = solve_packing_monotone(obj, inst,
                               PackingSolverConfig(eps=EPS, M=opt.value))
    assert r.termination == CONVERGED
    assert r.value >= (1 - math.exp(-1 + 10 * EPS)) * opt.value


def test_oversized_guess_rejected():
    obj = ObjectiveSpec.linear([1.0, 1.0])
    inst = normalize_packing([[1.0, 1.0]], EPS)
    r = solve_packing_monotone(obj, inst,
                               PackingSolverConfig(eps=EPS, M=100 * 0.95))
    assert r.termination == GUESS_REJECTED


def test_nonmonotone_box_only_cut_example():
    obj = ObjectiveSpec.directed_cut(2, [(0, 1, 1.0)])
    inst = add_box_rows(normalize_packing(np.eye(2), EPS))
    M = 0.9
    r = solve_packing_nonmonotone(obj, inst, PackingSolverConfig(eps=EPS, M=M))
    assert r.termination == CONVERGED
    assert r.value >= math.exp(-1 - 10 * EPS) * M
    assert r.feasible


def test_nonmonotone_adds_its_own_box_rows():
    # an unboxed instance gives the boxed instance's reports, byte for byte,
    # through every non-monotone entry point.  Every column max is at
    # least 1, the box rows' entry, so the ladder's lower end, which reads
    # the column maxima of the instance as given, is the same for both
    obj = ObjectiveSpec.directed_cut(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5)])
    inst = normalize_packing([[1.0, 1.5, 0.0], [0.0, 0.4, 1.2]], EPS)
    boxed = add_box_rows(inst)
    cfg = PackingSolverConfig(eps=EPS, M=1.0, max_iterations=300)

    def solves(c):
        yield solve_packing_nonmonotone(obj, c, cfg)
        yield from solve_packing_guesses(obj, c, EPS, [0.5, 1.0, 2.0],
                                         monotone=False, max_iterations=300)
        yield solve_single(obj, c, EPS, 1.0, monotone=False,
                           max_iterations=300)
        yield solve_with_guessing(obj, c, EPS, max_iterations=300)

    def report_bytes(r):
        return (json.dumps(r.to_dict(), sort_keys=True).encode()
                + r.solution.tobytes())

    got = [report_bytes(r) for r in solves(inst)]
    assert got == [report_bytes(r) for r in solves(boxed)]
    assert len(got) == 6 and len(set(got)) > 1
    assert (inst.m, inst.includes_box) == (2, False)  # left as it was


def test_nonmonotone_with_monotone_objective():
    obj = ObjectiveSpec.linear([1.0, 0.5])
    inst = add_box_rows(normalize_packing([[1.0, 1.0]], EPS))
    opt = grid_fractional_opt(obj, inst, 1e-3)
    r = solve_packing_nonmonotone(obj, inst,
                                  PackingSolverConfig(eps=EPS, M=opt.value))
    assert r.feasible
    assert r.value >= math.exp(-1 - 10 * EPS) * opt.value


def test_add_box_rows_idempotent():
    inst = normalize_packing([[1.0, 1.0]], EPS)
    boxed = add_box_rows(inst)
    assert boxed.m == inst.m + inst.n
    assert add_box_rows(boxed) is boxed


def test_nonmonotone_norm_invariant_enforced():
    # invariant checking is on by default; a converged run means it held
    obj = ObjectiveSpec.directed_cut(3, [(0, 1, 1.0), (1, 2, 1.0)])
    inst = add_box_rows(normalize_packing(np.eye(3), EPS))
    r = solve_packing_nonmonotone(obj, inst,
                                  PackingSolverConfig(eps=EPS, M=1.0))
    assert r.termination == CONVERGED
    assert float(r.solution.max()) <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        PackingSolverConfig(eps=0.2, M=1.0)
    with pytest.raises(ValueError):
        PackingSolverConfig(eps=0.05, M=-1.0)
    for M in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            PackingSolverConfig(eps=0.05, M=M)
    for cap in (math.inf, 2.5, "7", -3, -1, np.int64(-2)):
        with pytest.raises(ValueError, match="integer"):
            PackingSolverConfig(eps=0.05, M=1.0, max_iterations=cap)
    assert PackingSolverConfig(eps=0.05, M=1.0,
                               max_iterations=0).max_iterations == 0
    assert PackingSolverConfig(eps=0.05, M=1.0,
                               max_iterations=np.int64(7)).max_iterations == 7


@pytest.mark.parametrize("cap", [
    lambda eps: iteration_cap_monotone(2, 1, eps),
    lambda eps: iteration_cap_nonmonotone(2, 3, eps),
    lambda eps: iteration_budget(3, eps)])
def test_iteration_caps_reject_tiny_eps(cap):
    # eps^2 underflows to 0 at 1e-300; the cap overflows at 1e-160
    assert cap(0.05) > 0
    for eps in (1e-300, 1e-160):
        with pytest.raises(ValueError, match="iteration cap"):
            cap(eps)


@st.composite
def packing_cases(draw):
    """(objective, instance, M) with n <= 6, m <= 4: a linear or coverage
    objective on a random packing matrix, or a directed cut on the matrix
    with its box rows; M is a fraction of an upper bound on the optimum."""
    kind = draw(st.sampled_from(["linear", "coverage", "cut"]))
    n = draw(st.integers(2 if kind == "cut" else 1, 6))
    m = draw(st.integers(1, 4))
    A = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
                               min_size=m * n, max_size=m * n))).reshape(m, n)
    A[0, ~A.any(axis=0)] = 1.0  # every column needs a nonzero entry
    inst = normalize_packing(A, EPS)
    weights = st.floats(0.5, 2.0)
    if kind == "linear":
        obj = ObjectiveSpec.linear(draw(st.lists(weights, min_size=n,
                                                 max_size=n)))
        top = obj.eval(np.ones(n))
    elif kind == "coverage":
        u = draw(st.integers(1, 6))
        covers = draw(st.lists(st.lists(st.integers(0, u - 1), min_size=1,
                                        max_size=3), min_size=n, max_size=n))
        obj = ObjectiveSpec.coverage(draw(st.lists(weights, min_size=u,
                                                   max_size=u)), covers)
        top = obj.eval(np.ones(n))
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              min_size=1, max_size=2 * n))
        arcs = [(u, v, draw(weights)) for u, v in pairs if u != v]
        obj = ObjectiveSpec.directed_cut(n, arcs)
        inst = add_box_rows(inst)
        top = sum(w for _, _, w in arcs) or 1.0
    return obj, inst, draw(st.floats(0.05, 1.0)) * top


@given(packing_cases())
@settings(max_examples=30, deadline=None)
def test_random_packing_solves_keep_their_invariants(case):
    # every invariant check runs inside the solve: InvariantViolation fails
    obj, inst, M = case
    # an oversized guess can run 600,000 iterations to the default cap
    cfg = PackingSolverConfig(eps=EPS, M=M, max_iterations=5000)
    solve = solve_packing_monotone if obj.monotone else solve_packing_nonmonotone
    with recorded_iterates() as iterates:
        r = solve(obj, inst, cfg)
    assert r.adaptive_rounds == 1 + r.inner_iterations
    assert len(iterates) == 1 + r.inner_iterations
    assert r.value == obj.eval(r.solution)
    if r.termination == CONVERGED:
        assert r.feasible
        assert (inst.A @ r.solution).max() <= 1 - 2 * EPS + 1e-9
    if obj.monotone:  # F is non-decreasing along the iterates
        values = [obj.eval(x) for x in iterates]
        assert all(b >= a for a, b in zip(values, values[1:]))


@st.composite
def loop_cases(draw):
    """(objective, instance, guesses, monotone, figure1_lambda) with n <= 5,
    m <= 3: linear, coverage or cut; a column may be pinned to 0; the
    guesses are 1-4 multiples of an upper bound on the optimum, so some
    converge and some are rejected."""
    kind = draw(st.sampled_from(["linear", "coverage", "cut"]))
    n = draw(st.integers(2 if kind == "cut" else 1, 5))
    m = draw(st.integers(1, 3))
    A = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
                               min_size=m * n, max_size=m * n))).reshape(m, n)
    A[0, ~A.any(axis=0)] = 1.0  # every column needs a nonzero entry
    if draw(st.booleans()):  # an entry above n/eps pins its column to 0
        A[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = 1e3 * n / EPS
    inst = normalize_packing(A, EPS)
    weights = st.floats(0.5, 2.0)
    if kind == "linear":
        obj = ObjectiveSpec.linear(draw(st.lists(weights, min_size=n,
                                                 max_size=n)))
    elif kind == "coverage":
        u = draw(st.integers(1, 5))
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
    monotone = obj.monotone and draw(st.booleans())
    if not monotone:
        inst = add_box_rows(inst)
    top = max(obj.eval(np.ones(n)), obj.weights.sum() if kind == "cut" else 0,
              1e-3)
    guesses = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4))
    return (obj, inst, [g * top for g in guesses], monotone,
            monotone and draw(st.booleans()))


def _loop_outcomes(obj, inst, guesses, monotone, cap, figure1, faults=()):
    """(solver, reference): each one's reports as JSON and solution bytes,
    or the type and message of what it raised; every run gets its own
    fresh `faults`."""
    def outcome(solve):
        try:
            with _faulty_kernels(faults):
                reports = solve(obj, inst, EPS, guesses, monotone, cap,
                                figure1)
        except (ValueError, InvariantViolation) as exc:
            return type(exc).__name__, str(exc)
        return [json.dumps(r.to_dict(), sort_keys=True).encode()
                + r.solution.tobytes() for r in reports]
    return outcome(packing_solver._solve), outcome(reference_packing_solve)


@given(loop_cases(), st.sampled_from([0, 1, 2, 3, 5, 13, 5000]))
@settings(max_examples=60, deadline=None)
def test_loop_matches_the_reference_loop(case, cap):
    # the two-stage tests stop, reject and raise where the full masks do:
    # both variants, several guesses, pinned columns, caps inside a run
    got, want = _loop_outcomes(*case[:4], cap, case[4])
    assert got == want


# -- fault-injected kernels ------------------------------------------------
#
# A fault is (kernel, iteration, amount, once): from that iteration on (at
# it alone if once), "values" scales what ObjectiveSpec._values returns by
# amount, and "smax" adds amount to the potential the loop's _smax_dist
# returns.  _values is called once at the start point and then once per
# iteration, _smax_dist once per iteration.

@contextmanager
def _faulty_kernels(faults):
    values, smax = ObjectiveSpec._values, packing_solver._smax_dist
    calls = {"values": -2, "smax": -1}  # the iteration of the last call

    def hit(kernel):
        calls[kernel] += 1
        return [amount for k, at, amount, once in faults if k == kernel
                and (calls[kernel] == at if once else calls[kernel] >= at)]

    def faulty_values(self, X):
        v = values(self, X)
        for amount in hit("values"):
            v = v * amount
        return v

    def faulty_smax(z, eta):
        t, P = smax(z, eta)
        for amount in hit("smax"):
            t = t + amount
        return t, P
    ObjectiveSpec._values = faulty_values
    packing_solver._smax_dist = faulty_smax
    try:
        yield
    finally:
        ObjectiveSpec._values, packing_solver._smax_dist = values, smax


@pytest.mark.parametrize("faults, scale, fired", [
    # a value that drops: the gain-rate invariant raises
    ([("values", 4, 0.5, True)], 1.0, "gain rate -.* below lambda"),
    # a potential that overshoots: the gain-rate invariant raises
    ([("smax", 4, 0.01, True)], 1.0, "gain rate .* below lambda"),
    # a potential that falls short: the ||x||_inf bound raises
    ([("smax", 4, -0.05, True)], 1.0, r"\|\|x\|\|_inf = .* exceeds"),
    # a value that drops as the potential falls: no gain-rate test, since
    # the potential does not rise; the gain recurrence notes it
    ([("smax", 4, -0.001, True), ("values", 4, 0.5, True)], 1.0,
     "iteration 4: exponential-gain recurrence short"),
    # a potential past its budget as the value passes the target:
    # converged, not rejected
    ([("smax", 100, 1.0, False), ("values", 100, 100.0, False)], 1.0,
     '"termination": "converged"'),
    # the gain-rate slack is relative to M: the test fires at small scales
    ([("values", 4, 0.5, True)], 1e-8, "gain rate -.* below lambda"),
    ([("smax", 200, 1.0, True)], 1e-10, "gain rate .* below lambda"),
    ([("smax", 100, 1.0, False)], 1e-10, "gain rate .* below lambda"),
], ids=["value-drops", "potential-overshoots", "potential-short",
        "value-drops-as-potential-falls", "converged-over-budget",
        "small-value-drops", "small-potential-overshoots",
        "small-potential-past-budget"])
def test_faults_fire_as_in_the_reference_loop(faults, scale, fired):
    got, want = _path_outcomes(scale, faults)
    assert got == want
    text = " ".join(got) if isinstance(got, tuple) else got[0].decode(
        "latin-1")
    assert re.search(fired, text)


def _path_outcomes(scale, faults):
    """_loop_outcomes of one non-monotone guess M = scale on the cut of the
    path 0 -> 1 -> 2 with arc weights scale, in the unit box."""
    obj = ObjectiveSpec.directed_cut(3, [(0, 1, scale), (1, 2, scale)])
    inst = add_box_rows(normalize_packing(np.eye(3), EPS))
    return _loop_outcomes(obj, inst, [scale], False, 3000, False, faults)


@given(loop_cases(), st.lists(st.tuples(
    st.sampled_from(["values", "smax"]), st.sampled_from([0, 1, 2, 5, 40]),
    st.sampled_from([-0.3, -0.01, -1e-3, 1e-4, 0.01, 0.3, 1.0, 0.5, 0.99,
                     1.5]),
    st.booleans()), min_size=1, max_size=2), st.sampled_from([1.0, 1e-8]))
@settings(max_examples=60, deadline=None)
def test_faulty_kernels_give_the_reference_outcome(case, faults, scale):
    obj, inst, guesses, monotone, figure1 = case
    faults = [(k, at, amount, once) for k, at, amount, once in faults
              if k == "smax" or amount > 0]
    got, want = _loop_outcomes(obj, inst, [g * scale for g in guesses],
                               monotone, 3000, figure1, faults)
    assert got == want
