"""Low-adaptivity DR-submodular maximization under packing constraints Ax <= 1.

The hard constraint ||Ax||_inf <= 1 is replaced by the smooth potential
smax_eta(Ax); each iteration makes a large multiplicative update whose
potential increase is paid for by objective gain at rate at least lambda.
The non-monotone solver additionally damps updates by (1 - x) and tracks
time t through an undamped companion vector z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .objective import ObjectiveSpec
from .report import (CONVERGED, GUESS_REJECTED, ITERATION_CAP,
                     InvariantViolation, RoundCounter, SolveReport)
from .softmax import SoftmaxParams, smax, smax_grad

ITER_CAP_K = 64
COORD_BUDGET_K = 16


@dataclass
class PackingInstance:
    """Normalized packing constraints Ax <= 1.

    `A` is dense (desk scale); sparse triplets are the interchange format
    only.  `fixed_zero` lists coordinates pinned to 0 by preprocessing;
    `transcript` records every modification made by normalize_packing.
    """

    A: np.ndarray
    eps: float
    includes_box: bool = False
    fixed_zero: list = field(default_factory=list)
    transcript: list = field(default_factory=list)

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
    zero_cols = np.flatnonzero(~A.any(axis=0))
    if zero_cols.size:
        first = ", ".join(map(str, zero_cols[:5].tolist()))
        raise ValueError(
            f"{zero_cols.size} all-zero column(s), first {first}: "
            "coordinate is unbounded")
    lo, hi = eps / n, n / eps
    transcript = []
    fixed_zero = []
    for j in range(n):
        col = A[:, j]
        if col.max() > hi:
            fixed_zero.append(j)
            transcript.append(f"column {j}: entry {col.max():.6g} > {hi:.6g}, "
                              "coordinate fixed to 0")
            A[:, j] = 0.0
            continue
        small = (col > 0) & (col < lo)
        for i in np.flatnonzero(small):
            transcript.append(f"entry ({i},{j}): {col[i]:.6g} raised to {lo:.6g}")
        A[small, j] = lo
    return PackingInstance(A=A, eps=eps, fixed_zero=fixed_zero,
                           transcript=transcript)


def add_box_rows(inst: PackingInstance) -> PackingInstance:
    """Append the n identity rows so x_i <= 1 rides the same machinery."""
    if inst.includes_box:
        return inst
    A = np.vstack([inst.A, np.eye(inst.n)])
    return PackingInstance(A=A, eps=inst.eps, includes_box=True,
                           fixed_zero=list(inst.fixed_zero),
                           transcript=list(inst.transcript))


@dataclass
class PackingSolverConfig:
    eps: float
    M: float
    max_iterations: Optional[int] = None  # default: the per-algorithm cap
    # align eta and lambda with the classic linear packing scheme
    # (eta = eps/(2 ln m), lambda fixed at M); equivalence-test hook
    figure1_lambda: bool = False
    # called with a copy of x at initialization and after every update
    iterate_hook: Optional[object] = None

    def __post_init__(self):
        if not (0 < self.eps <= 0.05):
            raise ValueError(f"eps must be in (0, 0.05], got {self.eps}")
        if not (self.M > 0):
            raise ValueError(f"M must be positive, got {self.M}")


def _lnm(m: int) -> float:
    return math.log(max(m, 2))


def iteration_cap_monotone(n: int, m: int, eps: float) -> int:
    return int(math.ceil(ITER_CAP_K * math.log(n / eps) * _lnm(m) / eps ** 2))


def iteration_cap_nonmonotone(n: int, m: int, eps: float) -> int:
    return int(math.ceil(ITER_CAP_K * math.log(n / eps) * math.log(1 / eps)
                         * _lnm(m) / eps ** 2))


def _start_point(inst: PackingInstance) -> np.ndarray:
    n = inst.n
    colmax = inst.A.max(axis=0)
    x = np.zeros(n)
    for i in range(n):
        if i in inst.fixed_zero or colmax[i] <= 0:
            continue
        x[i] = inst.eps / (n * colmax[i])
    return x


def solve_packing_monotone(obj: ObjectiveSpec, inst: PackingInstance,
                           cfg: PackingSolverConfig) -> SolveReport:
    if not obj.monotone:
        raise ValueError("monotone solver requires a monotone objective")
    return _solve(obj, inst, cfg, monotone=True)


def solve_packing_nonmonotone(obj: ObjectiveSpec, inst: PackingInstance,
                              cfg: PackingSolverConfig) -> SolveReport:
    if not inst.includes_box:
        raise ValueError("non-monotone solver requires box rows (add_box_rows)")
    return _solve(obj, inst, cfg, monotone=False)


def _solve(obj, inst, cfg, monotone: bool) -> SolveReport:
    if obj.n != inst.n:
        raise ValueError("objective and constraint dimensions differ")
    eps, M = cfg.eps, cfg.M
    m = inst.m
    if monotone and not cfg.figure1_lambda:
        eta = eps / (2.0 * (2.0 + _lnm(m)))
    else:
        eta = eps / (2.0 * _lnm(m))
    p = SoftmaxParams(eta=eta, m=m)
    if monotone:
        cap = iteration_cap_monotone(inst.n, m, eps)
        lam_floor = M * (math.exp(10.0 * eps - 1.0) - eta)
        target = (1.0 - math.exp(-1.0 + 10.0 * eps)) * M
    else:
        cap = iteration_cap_nonmonotone(inst.n, m, eps)
        target = math.exp(-1.0 - 10.0 * eps) * M
    max_iters = cap if cfg.max_iterations is None else cfg.max_iterations

    rounds = RoundCounter()
    x = _start_point(inst)
    # the potential is t = smax(Az): z is x itself for the monotone variant
    # and the undamped companion of x for the non-monotone one
    z = x
    Az = inst.A @ z
    t = smax(Az, p)
    fx = obj.eval(x)
    rounds.observe(1)
    if cfg.iterate_hook is not None:
        cfg.iterate_hook(x.copy())

    notes: list = []
    termination = CONVERGED
    iters = 0
    coord_updates = np.zeros(inst.n)
    clamp_iter = None
    gain_note = False

    while fx <= target:
        if iters >= max_iters:
            termination = ITERATION_CAP
            break
        if monotone:
            if cfg.figure1_lambda:
                lam = M
            else:
                lam = M - (1.0 + eta) * fx
                if lam < lam_floor:
                    lam = lam_floor
                    if clamp_iter is None:
                        clamp_iter = iters
            c = obj.grad((1.0 + eta) * x)
        else:
            lam = M * (math.exp(-t) - 2.0 * eps) - fx
            if lam <= 0:
                termination = GUESS_REJECTED
                notes.append(f"iteration {iters}: lambda = {lam:.6g} <= 0 "
                             "(guess/time inconsistency)")
                break
            c = np.maximum((1.0 - x) * obj.grad((1.0 + eta) * x), 0.0)
        score = inst.A.T @ smax_grad(Az, p)
        mvec = np.zeros(inst.n)
        live = c > 1e-15 * M
        mvec[live] = np.maximum(1.0 - lam * score[live] / c[live], 0.0)
        d = eta * x * mvec
        if float(d.sum()) <= 0.0:
            termination = GUESS_REJECTED
            notes.append(f"iteration {iters}: zero update direction")
            break
        if monotone:
            x_new = z_new = x + d
        else:
            x_new = x + d * (1.0 - x)
            z_new = z + d
        fx_new = obj.eval(x_new)
        Az_new = inst.A @ z_new
        t_new = smax(Az_new, p)
        if t_new > t + 1e-12:
            if fx_new - fx < lam * (t_new - t) - 1e-9 * max(M, 1.0):
                rate = (fx_new - fx) / (t_new - t)
                raise InvariantViolation(
                    f"gain rate {rate:.6g} below lambda {lam:.6g}")
        if not monotone:
            bound = (1.0 + eps) * (1.0 - math.exp(-t_new))
            if float(x_new.max()) > bound + 1e-9:
                raise InvariantViolation(
                    f"||x||_inf = {float(x_new.max()):.6g} exceeds "
                    f"(1+eps)(1-e^-t) = {bound:.6g}")
            gain_lhs = math.exp(t_new) * fx_new
            gain_rhs = ((1.0 - 2.0 * math.e * eps) * (t_new - t) * M
                        + math.exp(t) * fx)
            if gain_lhs < gain_rhs - 1e-9 * M and not gain_note:
                notes.append(f"iteration {iters}: exponential-gain recurrence "
                             f"short by {gain_rhs - gain_lhs:.3g}")
                gain_note = True
        coord_updates += mvec
        x, z, Az, t, fx = x_new, z_new, Az_new, t_new, fx_new
        if cfg.iterate_hook is not None:
            cfg.iterate_hook(x.copy())
        iters += 1
        rounds.observe(inst.n + 2)  # gradient batch, value, potential matvec
        if fx <= target and t > 1.0 - eps + 1e-9:
            # a valid guess keeps the potential <= 1-eps until the last
            # iteration, so spending the whole budget short of the value
            # target certifies M > f(x*)
            termination = GUESS_REJECTED
            notes.append(f"iteration {iters}: potential {t:.6g} exhausted "
                         "before the value target")
            break

    if clamp_iter is not None and clamp_iter < iters - 1:
        notes.append(f"lambda clamped at its floor from iteration {clamp_iter}")
    _budget_notes(coord_updates, x, inst, eta, notes)

    Ax = inst.A @ x
    ax_inf = float(Ax.max())
    feasible = ax_inf <= 1.0 - 2.0 * eps + 1e-9
    if termination == CONVERGED:
        s_final = smax(Ax, p)
        if s_final > 1.0 - 2.0 * eps + 1e-9:
            raise InvariantViolation(
                f"converged with smax {s_final:.6g} > 1 - 2*eps")
    elif not feasible:
        notes.append(f"final ||Ax||_inf = {ax_inf:.6g} exceeds 1 - 2*eps")
    return SolveReport(
        solution=x, value=fx, epochs=1, inner_iterations=iters,
        adaptive_rounds=rounds.rounds, feasible=feasible, guess_used=M,
        termination=termination, slack=ax_inf, notes=notes)


def _budget_notes(coord_updates, x, inst, eta, notes):
    """Flag coordinates whose cumulative multiplier exceeds the update budget."""
    budget = COORD_BUDGET_K * math.log(inst.n / inst.eps) / eta
    cap = inst.n / inst.eps
    for i in range(inst.n):
        if x[i] <= cap and coord_updates[i] > budget:
            notes.append(f"coordinate {i}: cumulative multiplier "
                         f"{coord_updates[i]:.3g} exceeds budget {budget:.3g}")
