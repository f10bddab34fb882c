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
`reference_packing_solve` is the packing loop with every test's full mask
built every iteration, the reference for the loop's two-stage tests.
`tight_set` reads the matroid loop's tight-set kernel as a set.
"""

import math
from contextlib import contextmanager
from itertools import product

import numpy as np

from drsubmax import ObjectiveSpec, PolymatroidInstance, smax, smax_grad
from drsubmax import packing_solver as ps
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


def tight_set(pm: PolymatroidInstance, x, scale: float = 1.0) -> frozenset:
    """The unique maximal S with x(S) = scale * r(S), from the kernels the
    matroid loop calls on the same bounds.  Raises ValueError unless
    x >= 0 lies in scale * P."""
    x = _vec(pm, x)
    sums = pm._sums(x)
    if not pm._fits(x, sums, scale + TIGHT_TOL, scale * pm.caps + TIGHT_TOL):
        raise ValueError("x is not in scale * P")
    tight = pm._tight(x, sums, scale - TIGHT_TOL, scale * pm.caps - TIGHT_TOL)
    return frozenset(np.flatnonzero(tight).tolist())


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
            g = lambda v: float(obj._values((v + z)[None])[0])
            threshold = eps * ((1.0 - 10.0 * eps) * M)
        else:
            damp = 1.0 - z
            damp_eps = damp * (1.0 + eps)
            g = lambda v: float(obj._values((damp * v + z)[None])[0])
            threshold = eps * (((1.0 - eps / (1.0 + eps)) ** j - 10.0 * eps) * M)
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
                c = obj._clamped_grad((1.0 + eps) * xt + z)
            else:
                c = damp * obj._clamped_grad(damp_eps * xt + z)
            sums = pm._sums(xt)
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
    value = obj.eval(z)
    feasible = pm.membership(z, 1.0)
    if not feasible:
        raise InvariantViolation("returned solution is outside the polymatroid")
    return SolveReport(
        solution=z, value=value, epochs=epochs, inner_iterations=total_inner,
        adaptive_rounds=rounds, feasible=feasible, guess_used=M,
        termination=termination, slack=pm.slack(z), notes=notes)


def reference_packing_solve(obj: ObjectiveSpec, inst, eps, guesses,
                            monotone, max_iterations,
                            figure1_lambda=False) -> list:
    """The packing loop as it was before its tests were reordered to make
    fewer numpy calls: each test builds its full mask every iteration.
    Same arguments and reports as `ps._solve`, whose kernels
    (`_values`, `_clamped_grad`, `_smax_dist`) it calls through their
    modules, so a test that replaces one replaces it for both."""
    check_dimensions(obj.n, inst.n)
    A = inst.A
    m, n = inst.m, inst.n
    if monotone and not figure1_lambda:
        eta = eps / (2.0 * (2.0 + ps._lnm(m)))
    else:
        eta = eps / (2.0 * ps._lnm(m))
    if monotone:
        cap = ps.iteration_cap_monotone(n, m, eps)
        floor_k = math.exp(10.0 * eps - 1.0) - eta  # lambda floor / M
        target_k = 1.0 - math.exp(-1.0 + 10.0 * eps)  # value target / M
    else:
        cap = ps.iteration_cap_nonmonotone(n, m, eps)
        floor_k = 0.0  # the non-monotone lambda is never clamped
        target_k = math.exp(-1.0 - 10.0 * eps)
    max_iters = cap if max_iterations is None else max_iterations

    # the potential is t = smax(Az): z is x itself for the monotone variant
    # and the undamped companion of x for the non-monotone one
    M = np.array(guesses, dtype=float)
    X = np.tile(ps._start_point(inst, eps), (M.size, 1))
    AZ = X @ A.T
    t = smax(AZ, eta)
    s = ps._Live(pos=np.arange(M.size), M=M, target=target_k * M,
                 lam_floor=floor_k * M, tol=1e-9 * M,
                 c_floor=1e-15 * M[:, None], X=X, Z=X, AZ=AZ, t=t,
                 P=smax_grad(AZ, eta), exp_t=np.exp(t), exp_neg_t=np.exp(-t),
                 fx=obj.eval_many(X), coord_updates=np.zeros(X.shape))

    reports = [None] * M.size
    notes = [[] for _ in range(M.size)]
    clamp_iter = np.full(M.size, np.iinfo(np.int64).max)  # first clamp
    gain_note = set()  # guesses with a gain-recurrence note
    iters = 0

    def stop(rows, termination, note=None):
        """Report the guesses at `rows` with `termination`; drop them."""
        for i in np.flatnonzero(rows):
            k = s.pos[i]
            if note is not None:
                notes[k].append(note(i))
            if clamp_iter[k] < iters - 1:
                notes[k].append(
                    f"lambda clamped at its floor from iteration {clamp_iter[k]}")
            ps._budget_notes(s.coord_updates[i], s.X[i], n, eps, eta,
                             notes[k])
        X_done, fx_done = s.X[rows], s.fx[rows]
        AX = X_done @ A.T
        ax_inf = AX.max(axis=1)
        feasible = ax_inf <= 1.0 - 2.0 * eps + 1e-9
        if termination == CONVERGED:
            s_final = smax(AX, eta)
            bad = s_final > 1.0 - 2.0 * eps + 1e-9
            if np.count_nonzero(bad):
                raise InvariantViolation(f"converged with smax "
                                         f"{s_final[bad][0]:.6g} > 1 - 2*eps")
        for j, (k, x) in enumerate(zip(s.pos[rows], X_done)):
            if termination != CONVERGED and not feasible[j]:
                notes[k].append(f"final ||Ax||_inf = {ax_inf[j]:.6g} "
                                "exceeds 1 - 2*eps")
            reports[k] = SolveReport(
                solution=x.copy(), value=float(fx_done[j]), epochs=1,
                inner_iterations=iters, adaptive_rounds=1 + iters,
                feasible=bool(feasible[j]), guess_used=float(M[k]),
                termination=termination, slack=float(ax_inf[j]),
                notes=notes[k])
        s.keep(~rows)

    while True:
        done = ~(s.fx <= s.target)
        if np.count_nonzero(done):
            stop(done, CONVERGED)
        if not s.pos.size:
            break
        if iters >= max_iters:
            stop(np.ones(s.pos.size, dtype=bool), ITERATION_CAP)
            break
        if monotone:
            if figure1_lambda:
                lam = s.M
            else:
                lam = s.M - (1.0 + eta) * s.fx
                clamped = lam < s.lam_floor
                if np.count_nonzero(clamped):
                    lam = np.where(clamped, s.lam_floor, lam)
                    k = s.pos[clamped]
                    clamp_iter[k] = np.minimum(clamp_iter[k], iters)
            c = obj._clamped_grad((1.0 + eta) * s.X)
        else:
            lam = s.M * (s.exp_neg_t - 2.0 * eps) - s.fx
            rejected = lam <= 0.0
            if np.count_nonzero(rejected):
                stop(rejected, GUESS_REJECTED,
                     lambda i: f"iteration {iters}: lambda = {lam[i]:.6g} <= 0 "
                               "(guess/time inconsistency)")
                lam = lam[~rejected]
                if not s.pos.size:
                    break
            c = np.maximum((1.0 - s.X) * obj._clamped_grad((1.0 + eta) * s.X),
                           0.0)
        score = s.P @ A
        live = c > s.c_floor
        # (lam * score) / c where live; 1 - inf clamps to 0 elsewhere
        mvec = np.maximum(1.0 - np.divide(lam[:, None] * score, c,
                                          out=np.full(c.shape, np.inf),
                                          where=live), 0.0)
        d = eta * s.X * mvec
        stuck = d.sum(axis=1) <= 0.0
        if np.count_nonzero(stuck):
            stop(stuck, GUESS_REJECTED,
                 lambda i: f"iteration {iters}: zero update direction")
            lam, mvec, d = lam[~stuck], mvec[~stuck], d[~stuck]
            if not s.pos.size:
                break
        if monotone:
            X_new = Z_new = s.X + d
        else:
            X_new = s.X + d * (1.0 - s.X)
            Z_new = s.Z + d
        fx_new = obj._values(X_new)
        AZ_new = Z_new @ A.T
        t_new, P_new = ps._smax_dist(AZ_new, eta)
        dt = t_new - s.t
        short = (t_new > s.t + 1e-12) & (fx_new - s.fx < lam * dt - s.tol)
        if np.count_nonzero(short):
            i = np.flatnonzero(short)[0]
            rate = (fx_new[i] - s.fx[i]) / dt[i]
            raise InvariantViolation(
                f"gain rate {rate:.6g} below lambda {lam[i]:.6g}")
        if not monotone:
            exp_t_new, exp_neg_t_new = np.exp(t_new), np.exp(-t_new)
            bound = (1.0 + eps) * (1.0 - exp_neg_t_new)
            x_max = X_new.max(axis=1)
            over = x_max > bound + 1e-9
            if np.count_nonzero(over):
                i = np.flatnonzero(over)[0]
                raise InvariantViolation(
                    f"||x||_inf = {x_max[i]:.6g} exceeds "
                    f"(1+eps)(1-e^-t) = {bound[i]:.6g}")
            gain_lhs = exp_t_new * fx_new
            gain_rhs = ((1.0 - 2.0 * math.e * eps) * dt * s.M
                        + s.exp_t * s.fx)
            short = gain_lhs < gain_rhs - 1e-9 * s.M
            if np.count_nonzero(short):
                for i in np.flatnonzero(short):
                    if s.pos[i] not in gain_note:
                        gain_note.add(s.pos[i])
                        notes[s.pos[i]].append(
                            f"iteration {iters}: exponential-gain recurrence "
                            f"short by {gain_rhs[i] - gain_lhs[i]:.3g}")
            s.exp_t, s.exp_neg_t = exp_t_new, exp_neg_t_new
        s.coord_updates += mvec
        s.X, s.Z, s.AZ, s.t, s.P, s.fx = X_new, Z_new, AZ_new, t_new, P_new, fx_new
        iters += 1
        # a valid guess keeps the potential <= 1-eps until the last
        # iteration, so spending the whole budget short of the value
        # target certifies M > f(x*)
        exhausted = (s.fx <= s.target) & (s.t > 1.0 - eps + 1e-9)
        if np.count_nonzero(exhausted):
            stop(exhausted, GUESS_REJECTED,
                 lambda i: f"iteration {iters}: potential {s.t[i]:.6g} "
                           "exhausted before the value target")
    return reports
