"""Low-adaptivity DR-submodular maximization over a polymatroid.

Both solvers build the solution over ceil(1/eps) epochs.  Within an epoch
the gradient is evaluated at the future point (1+eps)*x, eligible
coordinates are bucketed by powers of (1+eps), and a sequential
water-filling step raises each eligible coordinate by up to a (1+eps)
multiplicative factor while staying inside eps*P.  The non-monotone
variant dampens the accumulated solution measured-greedy style.

Inputs are checked once, by the config, the constructors, the public
membership test of the initial point and the public water-fill of the
first step; the loop then calls the unchecked oracle kernels on the state
it builds.  Each step computes the family's set sums once, for its
(eps/(1+eps))*P check, its tight mask and its fill, and takes the largest
gradient entry off the tight set as one masked max.  The fill returns the
few coordinates that rose and their steps, which are added to x in place.

The loop calls the clamp-free interior oracle kernels (objective.py), as
every point it evaluates lies in [0, 1)^n.  x stays at most x_hi =
eps/(1+eps) + TIGHT_TOL: the initial point is checked into
(eps/(1+eps))*P, and the fill raises x_i by at most eps/(1+eps) - x_i.
Gradients are taken at (1+eps)*x + z or (1-z)(1+eps)*x + z, values at
the smaller x + z or (1-z)*x + z, so, rounding being monotone, all lie
below (1+eps)*x_hi + max z or (1-z)(1+eps)*x_hi + z computed in the same
floating-point operations.  Each epoch checks once that this bound is
below 1 (by the epoch recurrences it is about (1+eps^2)/(1+eps) at most
for monotone runs, and eps + (1-eps)*z below the damping bound for
non-monotone ones) and raises InvariantViolation if it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objective import ObjectiveSpec
from .polymatroid import TIGHT_TOL, PolymatroidInstance
from .report import (CONVERGED, GUESS_REJECTED, ITERATION_CAP,
                     InvariantViolation, SolveReport, check_dimensions,
                     check_params, finite_cap)

ITER_BUDGET_K = 64


@dataclass
class MatroidSolverConfig:
    eps: float
    M: float
    max_iterations: Optional[int] = None  # default: iteration_budget

    def __post_init__(self):
        check_params(self.eps, [self.M], self.max_iterations)


def iteration_budget(n: int, eps: float) -> int:
    """Default inner-iteration cap, K * log^2(n/eps) / eps^3."""
    return finite_cap(ITER_BUDGET_K * math.log(n / eps) ** 2, eps, 3)


def solve_matroid_monotone(obj: ObjectiveSpec, pm: PolymatroidInstance,
                           cfg: MatroidSolverConfig) -> SolveReport:
    if not obj.monotone:
        raise ValueError("monotone solver requires a monotone objective")
    return _solve(obj, pm, cfg, monotone=True)


def solve_matroid_nonmonotone(obj: ObjectiveSpec, pm: PolymatroidInstance,
                              cfg: MatroidSolverConfig) -> SolveReport:
    return _solve(obj, pm, cfg, monotone=False)


def _solve(obj, pm, cfg, monotone: bool) -> SolveReport:
    n = pm.n
    check_dimensions(obj.n, n)
    epochs = math.ceil(1.0 / cfg.eps)
    eps = 1.0 / epochs  # effective eps so that (1 - eps)^epochs <= 1/e
    scale = eps / (1.0 + eps)
    M = cfg.M
    tol = 1e-12 * M

    singles = obj.singleton_values()
    D = max(n / eps, float(singles.max()) / M)
    budget = iteration_budget(n, eps)  # raises when eps is too small for it
    max_inner = budget if cfg.max_iterations is None else cfg.max_iterations

    # adaptive rounds: the singleton batch for the gradient-scale bound,
    # then one per epoch for g(x0) and one per step
    rounds = 1

    x0 = _initial_point(pm, n, eps, D, scale)
    # the bounds of scale * P and of its tight sets, and the fill's caps
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
            damp = 1.0 - z  # fixed for the epoch
            damp_eps = damp * (1.0 + eps)
            g = lambda v: float(obj._interior_values((damp * v + z)[None])[0])
            threshold = eps * (((1.0 - eps / (1.0 + eps)) ** j - 10.0 * eps) * M)
            top = float((damp_eps * x_hi + z).max(initial=0.0))
        # a bound on every coordinate of the points the epoch evaluates
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
            # one x(S) per step, shared by the check, the mask and the fill
            sums = pm.incidence @ xt
            if not pm._fits(xt, sums, x_hi, caps_hi):
                raise ValueError("x is not in scale * P")
            tight = pm._tight(xt, sums, x_lo, caps_lo)
            if np.count_nonzero(tight_prev > tight):
                raise InvariantViolation("tight set lost coordinates")
            tight_prev = tight
            # -inf when every coordinate is tight
            v1 = c.max(where=~tight, initial=-math.inf)
            if v1 <= 0:
                rejected = True
                break
            v2 = (1.0 + eps) ** math.floor(math.log(v1) / math.log1p(eps))
            if v2 > v2_prev * (1.0 + 1e-9):
                raise InvariantViolation("bucket value v2 increased within an epoch")
            v2_prev = v2
            eligible = (c >= v2).nonzero()[0].tolist()  # ascending
            # the solve's first fill is checked like any caller's; the
            # later ones start from the state the fills built
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
            rounds += 1  # one gradient batch plus the value query

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
    slack = pm.slack(z)
    return SolveReport(
        solution=z, value=value, epochs=epochs, inner_iterations=total_inner,
        adaptive_rounds=rounds, feasible=feasible, guess_used=M,
        termination=termination, slack=slack, notes=notes)


def _initial_point(pm, n, eps, D, scale) -> np.ndarray:
    """eps^2/(nD) * 1, zeroed on rank-0 coordinates and shrunk into scale*P.

    r({i}) = 0 exactly when a family set that holds i has cap 0.
    """
    x0 = np.full(n, eps * eps / (n * D))
    x0[[any(pm.caps[r] <= 0 for r in rows) for rows in pm.rows_of]] = 0.0
    if not pm.membership(x0, scale):
        x0 *= pm.fit_factor(x0, scale) * (1.0 - 1e-12)
    return x0
