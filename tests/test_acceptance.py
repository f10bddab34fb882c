"""End-to-end acceptance runs: approximation bounds against independent
oracles, parallel-round budgets, and the property suites at full trial
counts.  Each criterion prints one PASS/FAIL line on the real stdout.
"""

import math
import sys
import time

import numpy as np
import pytest

from drsubmax import (MatroidSolverConfig, ObjectiveSpec, PackingSolverConfig,
                      PolymatroidInstance, add_box_rows, build_ladder,
                      brute_force_matroid_opt, grid_fractional_opt,
                      normalize_packing,
                      solve_matroid_monotone, solve_matroid_nonmonotone,
                      solve_packing_monotone, solve_packing_nonmonotone,
                      solve_with_guessing)
from drsubmax.matroid_solver import iteration_budget
from drsubmax.packing_solver import (iteration_cap_monotone,
                                     iteration_cap_nonmonotone)
from drsubmax.polymatroid import PolymatroidInstance as PM
from drsubmax.report import CONVERGED, GUESS_REJECTED
from drsubmax.softmax import smax, smax_grad

from linear_reference import linear_packing_reference
from oracles import (exchange_vector, finite_diff_grad, increment_bound,
                     multilinear_enumeration, recorded_iterates)

EPS = 0.05
C = 15  # calibrated constant for the approximation bounds

# iteration records accumulated by criteria 1-4 and audited by criterion 5
RECORDS = []
# (instance, objective, grid-opt, report) tuples kept from criterion 3
C3_RUNS = []


_CAPMAN = None


@pytest.fixture(scope="session", autouse=True)
def _capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}"
    if _CAPMAN is not None:
        # bypass pytest's fd-level capture so the line reaches the real stdout
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _random_coverage(rng, n):
    u = int(rng.integers(3, 7))
    weights = rng.uniform(0.5, 2.0, size=u)
    covers = [list(rng.choice(u, size=int(rng.integers(1, 3)), replace=False))
              for _ in range(n)]
    return ObjectiveSpec.coverage(weights, covers)


def _random_cut(rng, n):
    arcs = []
    seen = set()
    for _ in range(2 * n):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            arcs.append((u, v, float(rng.uniform(0.5, 2.0))))
    if not arcs:
        arcs = [(0, 1, 1.0)]
    return ObjectiveSpec.directed_cut(n, arcs)


def _random_matroid(rng, n):
    if rng.random() < 0.5:
        return PM.uniform(n, int(rng.integers(1, max(2, n // 2) + 1)))
    split = int(rng.integers(1, n))
    parts = [list(range(split)), list(range(split, n))]
    caps = [int(rng.integers(1, split + 1)), int(rng.integers(1, n - split + 1))]
    return PM.partition(n, parts, caps)


# the matroid solvers run E = ceil(1/eps) epochs at the effective eps 1/E
EPOCHS = math.ceil(1 / EPS)
EPS_EFF = 1 / EPOCHS


def test_criterion_01_monotone_matroid_guarantee():
    rng = np.random.default_rng(101)
    bound = 1 - 1 / math.e - C * EPS
    # a converged epoch j ends with f(z_{j+1}) > (1 - eps) g0 + eps (1 -
    # 10 eps) M, and g0 = f(z_j + x0) >= f(z_j) for a monotone f; with M = opt
    # this recurrence gives f(z_E) >= (1 - 10 eps)(1 - (1 - eps)^E) opt
    floor = (1 - 10 * EPS_EFF) * (1 - (1 - EPS_EFF) ** EPOCHS)
    t0 = time.monotonic()
    worst = math.inf
    for _ in range(50):
        n = int(rng.integers(4, 11))
        obj = _random_coverage(rng, n)
        pm = _random_matroid(rng, n)
        opt = brute_force_matroid_opt(obj, pm).value
        r = solve_matroid_monotone(obj, pm, MatroidSolverConfig(eps=EPS, M=opt))
        RECORDS.append(("matroid", n, 0, r.inner_iterations))
        assert r.feasible
        assert r.value >= bound * opt
        assert r.termination == CONVERGED  # the floor rests on every epoch
        assert r.value >= floor * opt
        worst = min(worst, r.value / opt if opt > 0 else math.inf)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    _report(1, ok, f"50 coverage/matroid instances, worst ratio "
                   f"{worst:.3f} >= {floor:.3f} (and >= {bound:.3f}), "
                   f"{elapsed:.1f}s")
    assert ok


def test_criterion_02_nonmonotone_matroid_guarantee():
    rng = np.random.default_rng(202)
    bound = 1 / math.e - C * EPS
    # a converged epoch j ends with f(z_{j+1}) > (1 - eps) g0 + eps (q^j -
    # 10 eps) M, q = 1 - eps/(1+eps); unrolled from f(0) = 0 with M = opt:
    q = 1 - EPS_EFF / (1 + EPS_EFF)
    floor = sum((1 - EPS_EFF) ** (EPOCHS - 1 - j) * EPS_EFF
                * (q ** j - 10 * EPS_EFF) for j in range(EPOCHS))
    t0 = time.monotonic()
    worst = math.inf
    for _ in range(50):
        n = int(rng.integers(4, 11))
        obj = _random_cut(rng, n)
        pm = _random_matroid(rng, n)
        opt = brute_force_matroid_opt(obj, pm).value
        r = solve_matroid_nonmonotone(obj, pm,
                                      MatroidSolverConfig(eps=EPS, M=max(opt, 1e-9)))
        RECORDS.append(("matroid", n, 0, r.inner_iterations))
        assert r.feasible
        assert r.value >= bound * opt
        # Allowance for the initial point: each epoch's g0 = f(z + (1-z) x0)
        # may fall below f(z), a non-monotone f, by at most ||x0||_1 times
        # the largest |df/dx_i|.  Here x0_i <= eps^2/(n D) <= eps^3/n^2
        # (D >= n/eps), so ||x0||_1 <= eps^3/n, and |df/dx_i| is at most the
        # total arc weight W; over E epochs that is E eps^3 W / n.
        allowance = EPOCHS * EPS_EFF ** 3 * float(obj.weights.sum()) / n
        assert r.termination == CONVERGED  # the floor rests on every epoch
        assert r.value >= floor * opt - allowance
        if opt > 0:
            worst = min(worst, r.value / opt)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    _report(2, ok, f"50 cut/matroid instances, worst ratio "
                   f"{worst:.3f} >= {floor:.3f} less the initial-point "
                   f"allowance (and >= {bound:.3f}), {elapsed:.1f}s")
    assert ok


def _random_packing(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    A = rng.uniform(0.3, 1.5, size=(m, n))
    if rng.random() < 0.5:
        obj = ObjectiveSpec.linear(rng.uniform(0.5, 2.0, size=n))
    else:
        obj = _random_coverage(rng, n)
    return obj, normalize_packing(A, EPS)


def test_criterion_03_monotone_packing_guarantee():
    rng = np.random.default_rng(303)
    bound = 1 - 1 / math.e - C * EPS
    threshold = 1 - math.exp(-1 + 10 * EPS)
    # the ladder holds a guess M in [OPT/(1+eps), OPT], a converged guess
    # has value above threshold * M, and the grid optimum is at most OPT
    floor = threshold / (1 + EPS)
    t0 = time.monotonic()
    worst = math.inf
    for _ in range(50):
        obj, inst = _random_packing(rng)
        res = 1e-2 if inst.n <= 3 else 2.5e-2
        opt = grid_fractional_opt(obj, inst, res).value
        r = solve_with_guessing(obj, inst, EPS, max_iterations=5_000)
        RECORDS.append(("packing-mono", inst.n, inst.m, r.inner_iterations))
        C3_RUNS.append((obj, inst, opt, r))
        assert r.feasible
        assert r.slack <= 1 - 2 * EPS + 1e-9  # ||Ax||_inf, the exit bound
        converged = [(M, v) for (M, t, v) in r.guess_trace if t == CONVERGED]
        assert converged, "no ladder guess converged"
        M_star, v_star = max(converged)
        assert v_star > threshold * M_star
        assert r.value >= bound * opt
        assert r.value >= floor * opt
        worst = min(worst, r.value / opt)
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    _report(3, ok, f"50 packing instances via the guess ladder, worst ratio "
                   f"{worst:.3f} >= {floor:.3f}, exit norms <= {1 - 2 * EPS}, "
                   f"{elapsed:.1f}s")
    assert ok


def test_criterion_04_nonmonotone_packing_guarantee():
    rng = np.random.default_rng(404)
    bound = 1 / math.e - C * EPS
    t0 = time.monotonic()
    worst = math.inf
    for _ in range(50):
        n = int(rng.integers(2, 4))
        rows = [np.eye(n)]
        if rng.random() < 0.5:
            rows.append(rng.uniform(0.3, 1.0, size=(1, n)))
        A = np.vstack(rows)
        obj = _random_cut(rng, n)
        inst = add_box_rows(normalize_packing(A, EPS))
        opt = grid_fractional_opt(obj, inst, 1e-2).value
        if opt <= 0:
            continue
        r = solve_packing_nonmonotone(obj, inst,
                                      PackingSolverConfig(eps=EPS, M=opt))
        RECORDS.append(("packing-nonmono", inst.n, inst.m, r.inner_iterations))
        assert r.termination == CONVERGED  # norm invariant checked every iteration
        assert r.feasible
        assert r.value >= math.exp(-1 - 10 * EPS) * opt
        assert r.value >= bound * opt
        worst = min(worst, r.value / opt)
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    _report(4, ok, f"50 cut/packing instances, worst ratio {worst:.3f}, "
                   f"norm invariant held every iteration, {elapsed:.1f}s")
    assert ok


def test_criterion_05_adaptivity_bounds():
    if not RECORDS:
        pytest.skip("requires the criteria 1-4 runs")
    over = 0
    for kind, n, m, iters in RECORDS:
        if kind == "matroid":
            cap = iteration_budget(n, EPS)
        elif kind == "packing-mono":
            cap = iteration_cap_monotone(n, m, EPS)
        else:
            cap = iteration_cap_nonmonotone(n, m, EPS)
        if iters > cap:
            over += 1
    ok = over == 0
    _report(5, ok, f"{len(RECORDS)} recorded runs, {over} over the "
                   "iteration budget")
    assert ok


def test_criterion_06_softmax_bound_suite():
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        eta = float(rng.uniform(0.05, 0.5))
        A = rng.uniform(0.1, 1.0, size=(m, n))
        x = rng.uniform(0.01, 1.0, size=n)
        x *= 0.5 / float((A @ x).max())  # ||Ax||_inf = 1/2: hypothesis holds
        lam = float(rng.uniform(0.1, 2.0))
        c = rng.uniform(0.1, 2.0, size=n)
        score = A.T @ smax_grad(A @ x, eta)
        mdiag = np.maximum(1.0 - lam * score / c, 0.0)
        d = eta * mdiag * x
        s0 = smax(A @ x, eta)
        s1 = smax(A @ (x + d), eta)
        if s1 > increment_bound(x, d, A, eta) + 1e-9:
            violations += 1
        cor_a = s0 + eta * float(score @ (mdiag * x + mdiag ** 2 * x))
        if s1 > cor_a + 1e-9:
            violations += 1
        cd = float(c @ d)
        if cd > 0 and (s1 - s0) / cd > 1 / lam + 1e-9:
            violations += 1
    ok = violations == 0
    _report(6, ok, f"1000 draws, {violations} violations of the increment "
                   "bound and both derived inequalities")
    assert ok


def test_criterion_07_exchange_property_suite():
    rng = np.random.default_rng(707)
    violations = 0
    for trial in range(1000):
        if trial % 2 == 0:
            pm = PM.partition(4, [[0, 1], [2, 3]],
                              [int(rng.integers(1, 3)), int(rng.integers(1, 3))])
        else:
            pm = PM.laminar(4, [[0, 1], [0, 1, 2, 3]],
                            [int(rng.integers(1, 3)), int(rng.integers(2, 4))])
        b = rng.uniform(0, 0.8, size=4)
        while not pm.membership(b):
            b *= 0.5
        a = b * rng.uniform(0, 1, size=4)
        c = rng.uniform(0, 0.5, size=4)
        while not pm.membership(a + c):
            c *= 0.5
        d = exchange_vector(pm, a, b, c)
        if (np.any(d < -1e-9) or np.any(d > c + 1e-9)
                or not pm.membership(b + d, tol=1e-9)
                or np.abs(c - d).sum() > np.abs(b - a).sum() + 1e-9):
            violations += 1
    ok = violations == 0
    _report(7, ok, f"1000 partition/laminar triples, {violations} violations")
    assert ok


def test_criterion_08_gradient_and_estimator_cross_checks():
    rng = np.random.default_rng(808)
    grad_fail = 0
    for kind in ("linear", "coverage", "cut"):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            if kind == "linear":
                obj = ObjectiveSpec.linear(rng.uniform(0.1, 2.0, size=n))
            elif kind == "coverage":
                obj = _random_coverage(rng, n)
            else:
                obj = _random_cut(rng, n)
            x = rng.uniform(0.1, 0.9, size=n)
            g = obj.grad(x)
            fd = finite_diff_grad(obj, x, 1e-5)
            if np.any(np.abs(g - fd) > 1e-5 * np.maximum(1.0, np.abs(fd))):
                grad_fail += 1
    mc_fail = 0
    for trial in range(20):
        n = int(rng.integers(4, 9))
        base = _random_coverage(rng, n) if trial % 2 == 0 else _random_cut(rng, n)
        x = rng.uniform(0, 1, size=n)
        exact = multilinear_enumeration(base, x)
        # independent Monte-Carlo estimate with its own standard error
        samples = 20_000
        draws = np.random.default_rng(trial).random((samples, n)) < x
        vals = np.array([base.set_value(np.flatnonzero(row)) for row in draws])
        se = vals.std(ddof=1) / math.sqrt(samples)
        if abs(vals.mean() - exact) > 3 * se + 1e-12:
            mc_fail += 1
    ok = grad_fail == 0 and mc_fail <= 1  # 3-sigma: allow one statistical miss
    _report(8, ok, f"300 gradient checks ({grad_fail} fails), 20 estimator "
                   f"checks ({mc_fail} outside 3 standard errors)")
    assert ok


def test_criterion_09_linear_reference_equivalence():
    rng = np.random.default_rng(909)
    mismatches = 0
    for _ in range(10):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        w = rng.uniform(0.5, 2.0, size=n)
        A = rng.uniform(0.5, 2.0, size=(m, n))
        inst = normalize_packing(A, EPS)
        M = 0.5 * w.sum() / A.sum(axis=1).max()
        obj = ObjectiveSpec.linear(w)
        ref = linear_packing_reference(w, inst.A, EPS, M)
        cfg = PackingSolverConfig(eps=EPS, M=M, figure1_lambda=True)
        with recorded_iterates() as got:
            r = solve_packing_monotone(obj, inst, cfg)
        assert len(got) == 1 + r.inner_iterations
        if len(ref) != len(got) or not all(
                (a == b).all() for a, b in zip(ref, got)):
            mismatches += 1
    ok = mismatches == 0
    _report(9, ok, f"10 instances, {mismatches} iterate-sequence mismatches "
                   "(bitwise comparison)")
    assert ok


def test_criterion_10_guess_rejection_soundness():
    if not C3_RUNS:
        pytest.skip("requires the criterion 3 runs")
    rejected = 0
    total = 0
    for (obj, inst, opt, _) in C3_RUNS[:10]:
        if opt <= 0:
            continue
        total += 1
        r = solve_packing_monotone(
            obj, inst, PackingSolverConfig(eps=EPS, M=100 * opt,
                                           max_iterations=5_000))
        if r.termination == GUESS_REJECTED:
            rejected += 1
    ladder_ok = all(any(t == CONVERGED for (_, t, _) in r.guess_trace)
                    for (_, _, _, r) in C3_RUNS)
    ok = rejected == total and ladder_ok
    _report(10, ok, f"{rejected}/{total} oversized guesses rejected; "
                    f"every ladder produced a converged guess: {ladder_ok}")
    assert ok
