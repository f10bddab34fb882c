"""Low-adaptivity DR-submodular maximization under packing constraints Ax <= 1.

The hard constraint ||Ax||_inf <= 1 is replaced by the smooth potential
smax_eta(Ax); each iteration makes a large multiplicative update whose
potential increase is paid for by objective gain at rate at least lambda.
The non-monotone solver additionally damps updates by (1 - x), tracks
time t through an undamped companion vector z, and adds the box rows
x_i <= 1 to A itself (add_box_rows), so it takes boxed and unboxed
instances alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .objective import ObjectiveSpec
from .report import (CONVERGED, GUESS_REJECTED, ITERATION_CAP,
                     InvariantViolation, SolveReport, check_dimensions,
                     check_params, finite_cap)
from .softmax import _smax_dist, smax, smax_grad

ITER_CAP_K = 64
COORD_BUDGET_K = 16
# largest m * n accepted for a packing matrix, which is held dense; it also
# bounds the box rows and the lockstep state of a ladder
MAX_PACKING_ENTRIES = 10_000_000


@dataclass
class PackingInstance:
    """Normalized packing constraints Ax <= 1.

    `A` is dense (desk scale); sparse triplets are the interchange format
    only.  `fixed_zero` lists coordinates pinned to 0 by preprocessing.
    """

    A: np.ndarray
    eps: float
    includes_box: bool = False
    fixed_zero: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def normalize_packing(A, eps: float) -> PackingInstance:
    """Bring every nonzero entry of A into [eps/n, n/eps].

    Columns containing an entry above n/eps force the coordinate so small
    that it is pinned to 0 (additive-eps loss).  Nonzero entries below
    eps/n are raised to eps/n: with the effective domain [0,1]^n they add
    at most eps to any row, which the eps slack of the guarantee absorbs.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-d matrix")
    if not np.all(A >= 0):
        raise ValueError("A must be non-negative")
    if not (0 < eps <= 0.05):
        raise ValueError(f"eps must be in (0, 0.05], got {eps}")
    m, n = A.shape
    if n == 0:
        return PackingInstance(A=A, eps=eps)  # no entry to bring into range
    zero_cols = np.flatnonzero(~A.any(axis=0))
    if zero_cols.size:
        first = ", ".join(map(str, zero_cols[:5].tolist()))
        raise ValueError(
            f"{zero_cols.size} all-zero column(s), first {first}: "
            "coordinate is unbounded")
    pinned = A.max(axis=0) > n / eps
    A[:, pinned] = 0.0
    A[(A > 0) & (A < eps / n)] = eps / n
    return PackingInstance(A=A, eps=eps,
                           fixed_zero=np.flatnonzero(pinned).tolist())


def add_box_rows(inst: PackingInstance) -> PackingInstance:
    """Append the n identity rows so x_i <= 1 rides the same machinery.

    The boxed matrix is dense, so (m + n) * n may not exceed
    MAX_PACKING_ENTRIES; that is checked before anything is allocated.
    """
    if inst.includes_box:
        return inst
    entries = (inst.m + inst.n) * inst.n
    if entries > MAX_PACKING_ENTRIES:
        raise ValueError(
            f"the {inst.n} box rows make (m + n) * n = {entries} matrix "
            f"entries, above the limit of {MAX_PACKING_ENTRIES}")
    A = np.vstack([inst.A, np.eye(inst.n)])
    return PackingInstance(A=A, eps=inst.eps, includes_box=True,
                           fixed_zero=list(inst.fixed_zero))


@dataclass
class PackingSolverConfig:
    eps: float
    M: float
    max_iterations: Optional[int] = None  # default: the per-algorithm cap
    # align eta and lambda with the classic linear packing scheme
    # (eta = eps/(2 ln m), lambda fixed at M); equivalence-test hook
    figure1_lambda: bool = False

    def __post_init__(self):
        check_params(self.eps, [self.M], self.max_iterations)


def _lnm(m: int) -> float:
    return math.log(max(m, 2))


def iteration_cap_monotone(n: int, m: int, eps: float) -> int:
    return finite_cap(ITER_CAP_K * math.log(n / eps) * _lnm(m), eps, 2)


def iteration_cap_nonmonotone(n: int, m: int, eps: float) -> int:
    return finite_cap(ITER_CAP_K * math.log(n / eps) * math.log(1 / eps)
                      * _lnm(m), eps, 2)


def _start_point(inst: PackingInstance, eps: float) -> np.ndarray:
    """eps / (n * max_j A_ji) per coordinate; 0 where the column is fixed
    to 0 or empty.  eps is the solver's, which may differ from inst.eps."""
    colmax = inst.A.max(axis=0)
    colmax[inst.fixed_zero] = 0.0
    return np.divide(eps, inst.n * colmax, out=np.zeros(inst.n),
                     where=colmax > 0)


def _check_variant(obj: ObjectiveSpec, inst: PackingInstance, monotone: bool):
    """The instance the variant solves: the non-monotone one adds box rows."""
    if monotone and not obj.monotone:
        raise ValueError("monotone solver requires a monotone objective")
    return inst if monotone else add_box_rows(inst)


def solve_packing_monotone(obj: ObjectiveSpec, inst: PackingInstance,
                           cfg: PackingSolverConfig) -> SolveReport:
    inst = _check_variant(obj, inst, True)
    return _solve(obj, inst, cfg.eps, [cfg.M], True, cfg.max_iterations,
                  cfg.figure1_lambda)[0]


def solve_packing_nonmonotone(obj: ObjectiveSpec, inst: PackingInstance,
                              cfg: PackingSolverConfig) -> SolveReport:
    inst = _check_variant(obj, inst, False)
    return _solve(obj, inst, cfg.eps, [cfg.M], False, cfg.max_iterations,
                  cfg.figure1_lambda)[0]


def solve_packing_guesses(obj: ObjectiveSpec, inst: PackingInstance,
                          eps: float, guesses, *, monotone: bool,
                          max_iterations: Optional[int] = None) -> list:
    """One solver run per guess M, all advanced in lockstep; reports in order.

    Each report is the one solve_packing_monotone (or _nonmonotone) gives
    at that guess, up to the last bits of the batched matrix products.
    Guesses run in blocks of at most MAX_PACKING_ENTRIES // (m + n), which
    bounds the (guesses, m) and (guesses, n) arrays of the state.
    """
    inst = _check_variant(obj, inst, monotone)
    check_params(eps, guesses, max_iterations)
    block = max(1, MAX_PACKING_ENTRIES // (inst.m + inst.n))
    reports = []
    for lo in range(0, len(guesses), block):
        reports += _solve(obj, inst, eps, guesses[lo:lo + block], monotone,
                          max_iterations)
    return reports


class _Live(SimpleNamespace):
    """The guesses still running, one row per array, all of the same length.

    pos: where each guess stands in `guesses`; M: the guess; target: the
    value that ends it as converged; lam_floor: the floor of the monotone
    lambda; tol: 1e-9 * M, the slack of its gain-rate invariant and of its
    gain recurrence; c_floor: gradient entries at most this get no
    update; inf: rows of +inf, copied as the multiplier's ratio where the
    gradient is at most c_floor; X, Z, t, P, fx: x, z, smax(A z),
    smax_grad(A z) and F(x); below: fx <= target, the mask both the
    exhaustion test and the next convergence test read; exp_t, exp_neg_t:
    exp(t) and exp(-t), for the non-monotone rules; coord_updates: the
    multipliers summed per coordinate.  A plain namespace: generating a
    dataclass of these fields costs about a millisecond at import.
    """

    def keep(self, rows: np.ndarray):
        for name, value in vars(self).items():
            setattr(self, name, value[rows])


def _solve(obj, inst, eps, guesses, monotone, max_iterations,
           figure1_lambda=False) -> list:
    """The packing loop over a vector of guesses; one report per guess.

    Every guess starts at the same point and takes one iteration per pass,
    so all running guesses share the iteration count.  A guess that stops
    leaves the state with the report its own solve gives.

    The start point goes through the checked `eval_many`, `smax` and
    `smax_grad`, a converged guess through `smax`; each iteration calls the
    unchecked kernels (one softmax) on the state built from there.

    With a few guesses of a few coordinates each, an iteration costs its
    number of numpy calls, so the loop makes few: the constants are
    computed once per solve or per guess, one `fx <= target` mask serves
    the exhaustion test and the next convergence test, and a test that is
    an AND of two masks (gain rate, exhaustion) first counts the half that
    is rarely true, and builds the AND only when that half fires.  Every
    test decides on the float comparisons it always made.
    """
    check_dimensions(obj.n, inst.n)
    A = inst.A
    m, n = inst.m, inst.n
    if monotone and not figure1_lambda:
        eta = eps / (2.0 * (2.0 + _lnm(m)))
    else:
        eta = eps / (2.0 * _lnm(m))
    if monotone:
        cap = iteration_cap_monotone(n, m, eps)
        floor_k = math.exp(10.0 * eps - 1.0) - eta  # lambda floor / M
        target_k = 1.0 - math.exp(-1.0 + 10.0 * eps)  # value target / M
    else:
        cap = iteration_cap_nonmonotone(n, m, eps)
        floor_k = 0.0  # the non-monotone lambda is never clamped
        target_k = math.exp(-1.0 - 10.0 * eps)
    max_iters = cap if max_iterations is None else max_iterations
    eta_up = 1.0 + eta  # the gradient is taken at (1 + eta) x
    t_limit = 1.0 - eps + 1e-9  # the potential budget
    gain_k = 1.0 - 2.0 * math.e * eps  # the gain recurrence's rate / M

    # the potential is t = smax(Az): z is x itself for the monotone variant
    # and the undamped companion of x for the non-monotone one
    M = np.array(guesses, dtype=float)
    X = np.tile(_start_point(inst, eps), (M.size, 1))
    AZ = X @ A.T
    t = smax(AZ, eta)
    fx = obj.eval_many(X)
    target = target_k * M
    s = _Live(pos=np.arange(M.size), M=M, target=target,
              lam_floor=floor_k * M, tol=1e-9 * M, c_floor=1e-15 * M[:, None],
              inf=np.full(X.shape, np.inf), X=X, Z=X, t=t,
              P=smax_grad(AZ, eta), fx=fx, below=fx <= target,
              exp_t=np.exp(t), exp_neg_t=np.exp(-t),
              coord_updates=np.zeros(X.shape))

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
            _budget_notes(s.coord_updates[i], s.X[i], n, eps, eta, notes[k])
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
        if np.count_nonzero(s.below) < s.pos.size:
            stop(~s.below, CONVERGED)
        if not s.pos.size:
            break
        if iters >= max_iters:
            stop(np.ones(s.pos.size, dtype=bool), ITERATION_CAP)
            break
        if monotone:
            if figure1_lambda:
                lam = s.M
            else:
                lam = s.M - eta_up * s.fx
                clamped = lam < s.lam_floor
                if np.count_nonzero(clamped):
                    lam = np.where(clamped, s.lam_floor, lam)
                    k = s.pos[clamped]
                    clamp_iter[k] = np.minimum(clamp_iter[k], iters)
            c = obj._clamped_grad(eta_up * s.X)
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
            comp = 1.0 - s.X
            c = np.maximum(comp * obj._clamped_grad(eta_up * s.X), 0.0)
        # max(1 - (lam * score) / c, 0); 0 where c <= c_floor, whose ratio
        # stays +inf
        mvec = np.divide(lam[:, None] * (s.P @ A), c, out=s.inf.copy(),
                         where=c > s.c_floor)
        np.subtract(1.0, mvec, out=mvec)
        np.maximum(mvec, 0.0, out=mvec)
        d = eta * s.X * mvec
        stuck = np.add.reduce(d, axis=1) <= 0.0
        if np.count_nonzero(stuck):
            stop(stuck, GUESS_REJECTED,
                 lambda i: f"iteration {iters}: zero update direction")
            lam, mvec, d = lam[~stuck], mvec[~stuck], d[~stuck]
            if not monotone:
                comp = comp[~stuck]
            if not s.pos.size:
                break
        if monotone:
            X_new = Z_new = s.X + d
        else:
            X_new = s.X + d * comp
            Z_new = s.Z + d
        fx_new = obj._values(X_new)
        t_new, P_new = _smax_dist(Z_new @ A.T, eta)
        dt = t_new - s.t
        short = fx_new - s.fx < lam * dt - s.tol  # rarely true
        if np.count_nonzero(short):
            short &= t_new > s.t + 1e-12
            if np.count_nonzero(short):
                i = np.flatnonzero(short)[0]
                rate = (fx_new[i] - s.fx[i]) / dt[i]
                raise InvariantViolation(
                    f"gain rate {rate:.6g} below lambda {lam[i]:.6g}")
        if not monotone:
            exp_t_new, exp_neg_t_new = np.exp(t_new), np.exp(-t_new)
            bound = (1.0 + eps) * (1.0 - exp_neg_t_new)
            x_max = np.maximum.reduce(X_new, axis=1)
            over = x_max > bound + 1e-9
            if np.count_nonzero(over):
                i = np.flatnonzero(over)[0]
                raise InvariantViolation(
                    f"||x||_inf = {x_max[i]:.6g} exceeds "
                    f"(1+eps)(1-e^-t) = {bound[i]:.6g}")
            gain_lhs = exp_t_new * fx_new
            gain_rhs = gain_k * dt * s.M + s.exp_t * s.fx
            short = gain_lhs < gain_rhs - s.tol
            if np.count_nonzero(short):
                for i in np.flatnonzero(short):
                    if s.pos[i] not in gain_note:
                        gain_note.add(s.pos[i])
                        notes[s.pos[i]].append(
                            f"iteration {iters}: exponential-gain recurrence "
                            f"short by {gain_rhs[i] - gain_lhs[i]:.3g}")
            s.exp_t, s.exp_neg_t = exp_t_new, exp_neg_t_new
        s.coord_updates += mvec
        s.X, s.Z, s.t, s.P, s.fx = X_new, Z_new, t_new, P_new, fx_new
        s.below = fx_new <= s.target
        iters += 1
        # a valid guess keeps the potential <= 1-eps until the last
        # iteration, so spending the whole budget short of the value
        # target certifies M > f(x*)
        exhausted = t_new > t_limit  # rarely true
        if np.count_nonzero(exhausted):
            exhausted &= s.below
            if np.count_nonzero(exhausted):
                stop(exhausted, GUESS_REJECTED,
                     lambda i: f"iteration {iters}: potential {s.t[i]:.6g} "
                               "exhausted before the value target")
    return reports


def _budget_notes(coord_updates, x, n, eps, eta, notes):
    """Flag coordinates whose cumulative multiplier exceeds the update budget."""
    budget = COORD_BUDGET_K * math.log(n / eps) / eta
    cap = n / eps
    for i in np.flatnonzero((x <= cap) & (coord_updates > budget)):
        notes.append(f"coordinate {i}: cumulative multiplier "
                     f"{coord_updates[i]:.3g} exceeds budget {budget:.3g}")
