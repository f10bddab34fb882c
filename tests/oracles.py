"""Test-support oracles: exhaustive references and proof devices.

The paper's exchange-vector construction and its softmax increment bound
are steps of the analysis, not of the algorithm; the 2^n membership check,
the multilinear enumeration and central differences are references.  None
of them is on the solve path, so they live beside the tests that use them
and reach the package only through its public API.  `recorded_iterates`
watches a solve from outside, through the objective's value kernel.
`stepwise_matroid_solve` is the matroid loop without its run-ahead, one
step per iteration on the package's private kernels: the reference the
solver's batched steps must match byte for byte.
"""

import math
from contextlib import contextmanager
from itertools import product

import numpy as np

from drsubmax import ObjectiveSpec, PolymatroidInstance, smax, smax_grad
from drsubmax.matroid_solver import _initial_point, iteration_budget
from drsubmax.polymatroid import TIGHT_TOL
from drsubmax.report import (CONVERGED, GUESS_REJECTED, ITERATION_CAP,
                             InvariantViolation, SolveReport,
                             check_dimensions)


def _vec(pm: PolymatroidInstance, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (pm.n,):
        raise ValueError(f"expected vector of length {pm.n}, got shape {x.shape}")
    if x.min(initial=0.0) < 0:
        raise ValueError("negative entries are not allowed")
    return x


def exchange_vector(pm: PolymatroidInstance, a, b, c,
                    tol: float = TIGHT_TOL) -> np.ndarray:
    """Constructive exchange: d with 0 <= d <= c, b + d in P, and
    ||c - d||_1 <= ||b - a||_1, given a + c in P, b in P, a <= b.

    Minimal tight sets and residual capacities are found by exhaustive
    subset enumeration, which is exact for every shipped kind; this
    oracle is test support, not on the solve path, so n is capped at 16.
    """
    a = _vec(pm, a)
    b = _vec(pm, b)
    c = _vec(pm, c)
    if pm.n > 16:
        raise ValueError("exchange_vector supports n <= 16")
    if not pm.membership(a + c, 1.0, tol):
        raise ValueError("a + c is not in P")
    if not pm.membership(b, 1.0, tol):
        raise ValueError("b is not in P")
    if np.any(a > b + tol):
        raise ValueError("a <= b is required")

    ranks = {}
    for mask in range(1 << pm.n):
        S = frozenset(i for i in range(pm.n) if mask >> i & 1)
        ranks[S] = pm.rank(S)

    def min_slack(v, contain, exclude=None):
        best = np.inf
        best_sets = []
        for S, r in ranks.items():
            if contain not in S:
                continue
            if exclude is not None and exclude in S:
                continue
            slack = r - sum(v[i] for i in S)
            if slack < best - tol:
                best, best_sets = slack, [S]
            elif slack <= best + tol:
                best_sets.append(S)
        return best, best_sets

    bh = a.copy()
    dh = c.copy()
    max_iter = 4 * pm.n * pm.n + 8
    for _ in range(max_iter):
        todo = [i for i in range(pm.n) if bh[i] < b[i] - tol]
        if not todo:
            break
        i = todo[0]
        v = bh + dh
        slack, _ = min_slack(v, i)
        step = min(max(slack, 0.0), b[i] - bh[i])
        bh[i] += step
        if bh[i] >= b[i] - tol:
            continue
        v = bh + dh
        _, tight_sets = min_slack(v, i)
        tmin = frozenset.intersection(*tight_sets)
        donors = [j for j in tmin if dh[j] > tol]
        if not donors:
            raise RuntimeError(
                "no donor coordinate in the minimal tight set; "
                "rank oracle inconsistency")
        j = donors[0]
        if j == i:
            gamma = np.inf
        else:
            gamma, _ = min_slack(v, i, exclude=j)
        delta = min(b[i] - bh[i], gamma, dh[j])
        if delta <= tol:
            raise RuntimeError("exchange procedure stalled")
        bh[i] += delta
        dh[j] -= delta
    else:
        raise RuntimeError("exchange procedure exceeded 4n^2 iterations")
    return np.clip(dh, 0.0, c)


def membership_bruteforce(pm: PolymatroidInstance, x, scale: float = 1.0,
                          tol: float = TIGHT_TOL) -> bool:
    """2^n reference check of x(S) <= scale * r(S); n <= 16."""
    x = _vec(pm, x)
    if pm.n > 16:
        raise ValueError("brute-force membership supports n <= 16")
    for mask in range(1 << pm.n):
        S = [i for i in range(pm.n) if mask >> i & 1]
        if sum(x[i] for i in S) > scale * pm.rank(S) + tol:
            return False
    return True


def increment_bound(x, d, A, eta: float) -> float:
    """Second-order upper bound on smax(A(x+d)).

    Returns smax(Ax) + <A^T grad smax(Ax), d + ||Ax||_inf * (1/eta) *
    pinv(x) * (d o d)>, where pinv inverts nonzero entries of x and maps
    zero to zero.  Valid under the hypothesis (1/eta) * ||Ad||_inf <= 1/2,
    which is checked and reported if violated.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != x.size or d.shape != x.shape:
        raise ValueError("inconsistent dimensions")
    if np.any(x < 0) or np.any(d < 0) or np.any(A < 0):
        raise ValueError("x, d and A must be non-negative")
    Ad = A @ d
    if Ad.size and float(np.abs(Ad).max()) / eta > 0.5 + 1e-12:
        raise ValueError(
            "hypothesis violated: (1/eta) * ||A d||_inf = "
            f"{float(np.abs(Ad).max()) / eta:.6g} > 1/2"
        )
    Ax = A @ x
    g = smax_grad(Ax, eta)
    ax_inf = float(Ax.max()) if Ax.size else 0.0
    pinv = np.zeros_like(x)
    nz = x > 0
    pinv[nz] = 1.0 / x[nz]
    correction = ax_inf * (1.0 / eta) * pinv * (d * d)
    return smax(Ax, eta) + float((A.T @ g) @ (d + correction))


def multilinear_enumeration(obj: ObjectiveSpec, x) -> float:
    """Exact multilinear value sum_S f(S) prod_{i in S} x_i prod_{i not in S}(1-x_i)."""
    x = np.minimum(np.asarray(x, dtype=float), 1.0)
    n = obj.n
    if n > 20:
        raise ValueError("enumeration supports n <= 20")
    total = 0.0
    for bits in product([0, 1], repeat=n):
        w = 1.0
        for i, b in enumerate(bits):
            w *= x[i] if b else 1.0 - x[i]
        if w > 0:
            total += w * obj.set_value([i for i, b in enumerate(bits) if b])
    return total


def finite_diff_grad(obj: ObjectiveSpec, x, h: float = 1e-5) -> np.ndarray:
    """Central differences (F(x + h e_i) - F(x - h e_i)) / (2h)."""
    x = np.asarray(x, dtype=float)
    if h <= 0:
        raise ValueError("h must be positive")
    if np.any(x < h) or np.any(x > 1.0 - h):
        raise ValueError("x must lie in (h, 1-h)^n for central differences")
    g = np.zeros(x.size)
    for i in range(x.size):
        up = x.copy(); up[i] += h
        dn = x.copy(); dn[i] -= h
        g[i] = (obj.eval(up) - obj.eval(dn)) / (2.0 * h)
    return g


@contextmanager
def recorded_iterates():
    """While the block runs, record the first row of every matrix the value
    kernel `ObjectiveSpec._values` is called on, as a list of copies.

    The packing loop calls the kernel once on the start point (through
    `eval_many`) and once per iteration on the new iterate, so a
    single-guess solve in the block leaves 1 + inner_iterations iterates.
    """
    iterates = []
    kernel = ObjectiveSpec._values

    def record(self, X):
        iterates.append(X[0].copy())
        return kernel(self, X)

    ObjectiveSpec._values = record
    try:
        yield iterates
    finally:
        ObjectiveSpec._values = kernel


def stepwise_matroid_solve(obj: ObjectiveSpec, pm: PolymatroidInstance, cfg,
                           monotone: bool) -> SolveReport:
    """The matroid solver taking one step per iteration: each step makes
    its own gradient call, checks, fill and value call.  Same arguments
    as `matroid_solver._solve`."""
    n = pm.n
    check_dimensions(obj.n, n)
    epochs = math.ceil(1.0 / cfg.eps)
    eps = 1.0 / epochs
    scale = eps / (1.0 + eps)
    M = cfg.M
    tol = 1e-12 * M
    singles = obj.singleton_values()
    D = max(n / eps, float(singles.max()) / M)
    budget = iteration_budget(n, eps)
    max_inner = budget if cfg.max_iterations is None else cfg.max_iterations
    rounds = 1
    x0 = _initial_point(pm, n, eps, D, scale)
    x_hi, x_lo = scale + TIGHT_TOL, scale - TIGHT_TOL
    caps = scale * pm.caps
    caps_hi, caps_lo = caps + TIGHT_TOL, caps - TIGHT_TOL
    fill_caps = caps.tolist()
    z = np.zeros(n)
    notes: list = []
    total_inner = 0
    termination = CONVERGED
    for j in range(epochs):
        if monotone:
            g = lambda v: float(obj._interior_values((v + z)[None])[0])
            threshold = eps * ((1.0 - 10.0 * eps) * M)
            top = (1.0 + eps) * x_hi + float(z.max(initial=0.0))
        else:
            damp = 1.0 - z
            damp_eps = damp * (1.0 + eps)
            g = lambda v: float(obj._interior_values((damp * v + z)[None])[0])
            threshold = eps * (((1.0 - eps / (1.0 + eps)) ** j - 10.0 * eps) * M)
            top = float((damp_eps * x_hi + z).max(initial=0.0))
        if not top < 1.0:
            raise InvariantViolation(
                f"epoch {j}: evaluation points may reach {top} >= 1")
        xt = x0.copy()
        g0 = g(x0)
        rounds += 1
        gt = g0
        tight_prev = np.zeros(n, dtype=bool)
        v2_prev = math.inf
        rejected = False
        while gt - g0 <= threshold - eps * g0 + tol:
            if total_inner >= max_inner:
                termination = ITERATION_CAP
                break
            if monotone:
                c = obj._interior_grad((1.0 + eps) * xt + z)
            else:
                c = damp * obj._interior_grad(damp_eps * xt + z)
            sums = pm.incidence @ xt
            if not pm._fits(xt, sums, x_hi, caps_hi):
                raise ValueError("x is not in scale * P")
            tight = pm._tight(xt, sums, x_lo, caps_lo)
            if np.count_nonzero(tight_prev > tight):
                raise InvariantViolation("tight set lost coordinates")
            tight_prev = tight
            v1 = c.max(where=~tight, initial=-math.inf)
            if v1 <= 0:
                rejected = True
                break
            v2 = (1.0 + eps) ** math.floor(math.log(v1) / math.log1p(eps))
            if v2 > v2_prev * (1.0 + 1e-9):
                raise InvariantViolation("bucket value v2 increased within an epoch")
            v2_prev = v2
            eligible = (c >= v2).nonzero()[0].tolist()
            if total_inner == 0:
                y = pm.waterfill(xt, eligible, eps)
                raised = y.nonzero()[0].tolist()
                steps = y[raised].tolist()
            else:
                raised, steps = pm._step_fill(xt, eligible, sums, eps,
                                              fill_caps)
            if not raised:
                rejected = True
                break
            for i, step in zip(raised, steps):
                xt[i] += step
            g_new = g(xt)
            if g_new < gt - 1e-9 * M:
                raise InvariantViolation("objective decreased within an epoch")
            gt = g_new
            total_inner += 1
            rounds += 1
        z = z + xt if monotone else z + (1.0 - z) * xt
        if not monotone:
            bound = 1.0 - (1.0 - eps / (1.0 + eps)) ** (j + 1)
            if float(z.max()) > bound + 1e-9:
                raise InvariantViolation("damped solution exceeded the epoch bound")
        if rejected:
            termination = GUESS_REJECTED
            notes.append(f"epoch {j}: no improvable coordinate before the gain target")
        if termination != CONVERGED:
            break
    value = obj.eval(np.minimum(z, 1.0))
    feasible = pm.membership(z, 1.0)
    if not feasible:
        raise InvariantViolation("returned solution is outside the polymatroid")
    return SolveReport(
        solution=z, value=value, epochs=epochs, inner_iterations=total_inner,
        adaptive_rounds=rounds, feasible=feasible, guess_used=M,
        termination=termination, slack=pm.slack(z), notes=notes)
