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

Run-ahead.  The loop repeats the same step for long stretches: while the
eligible set E stays the same, each step is the fill with E from the
state the last one reached.  So after each step the loop builds the
states that k - 1 more steps with E reach, each filled from its own set
sums as the step fills, takes the gradients and values of all of them in
one batched kernel call each, and runs the step's checks on every row at
once: the gain test, the iteration cap, membership in
(eps/(1+eps))*P, a tight set that never shrinks, v1 > 0, v2 that never
rises, an unchanged eligible set and a value that never falls.  It
accepts the rows before the first that fails, and hands that row, with
its gradient, to the step, which continues, rejects or raises as it
would have.  A batched kernel gives each row the bits of its own one-row
call, and v2 is computed per row in Python floats, so an accepted row
is the step the loop would take: reports are byte for byte those of one
step per iteration (tests/oracles.py keeps that loop).  k starts at 4,
doubles while whole batches are accepted and goes back to 4 otherwise;
a batch's gradients hold at most RUN_AHEAD_ENTRIES entries, so at
n = 1,000 k stays 1 and the loop takes one step at a time.
`inner_iterations` and `adaptive_rounds` count the algorithm's steps, not
kernel calls: each step's queries depend on the step before it.
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
# a batch of k steps starts at k = 4, and its gradient call touches
# k * (n + incidences) <= RUN_AHEAD_ENTRIES entries
RUN_AHEAD_START = 4
RUN_AHEAD_ENTRIES = 4096


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

    # a batch is a step and the k - 1 steps run ahead of it, with one
    # gradient row per step; k is bounded by the entries a row touches
    k_max = max(1, RUN_AHEAD_ENTRIES // (n + obj._incidences()))

    z = np.zeros(n)
    notes: list = []
    total_inner = 0
    termination = CONVERGED

    for j in range(epochs):
        # the gradient at the future points of the rows of X, and the
        # values at the points of the rows of Y
        if monotone:
            grad = lambda X: obj._interior_grad((1.0 + eps) * X + z)
            values = lambda Y: obj._interior_values(Y + z)
            threshold = eps * ((1.0 - 10.0 * eps) * M)
            top = (1.0 + eps) * x_hi + float(z.max(initial=0.0))
        else:
            damp = 1.0 - z  # fixed for the epoch
            damp_eps = damp * (1.0 + eps)
            grad = lambda X: damp * obj._interior_grad(damp_eps * X + z)
            values = lambda Y: obj._interior_values(damp * Y + z)
            threshold = eps * (((1.0 - eps / (1.0 + eps)) ** j - 10.0 * eps) * M)
            top = float((damp_eps * x_hi + z).max(initial=0.0))
        # a bound on every coordinate of the points the epoch evaluates
        if not top < 1.0:
            raise InvariantViolation(
                f"epoch {j}: evaluation points may reach {top} >= 1")

        xt = x0.copy()
        g0 = float(values(x0[None])[0])
        rounds += 1
        gt = g0
        target = threshold - eps * g0 + tol
        tight_prev = np.zeros(n, dtype=bool)
        v2_prev = math.inf
        rejected = False
        c = None  # the gradient at xt, when a batch has computed it
        k = min(RUN_AHEAD_START, k_max)

        while gt - g0 <= target:
            if total_inner >= max_inner:
                termination = ITERATION_CAP
                break
            if c is None:
                c = grad(xt)
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
            v2 = _bucket(v1, eps)
            if v2 > v2_prev * (1.0 + 1e-9):
                raise InvariantViolation("bucket value v2 increased within an epoch")
            v2_prev = v2
            eligible_mask = c >= v2
            eligible = eligible_mask.nonzero()[0].tolist()  # ascending
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
            g_new = float(values(xt[None])[0])
            if g_new < gt - 1e-9 * M:
                raise InvariantViolation("objective decreased within an epoch")
            gt = g_new
            total_inner += 1
            rounds += 1  # one gradient batch plus the value query
            c = None

            # run ahead: the states up to k - 1 more steps with this
            # eligible set reach, each filled from its own set sums as the
            # step fills; an empty fill ends the run (the step rejects)
            states, state_sums = [xt], []
            while len(state_sums) < k - 1:
                x = states[-1]
                sums = pm.incidence @ x
                raised, steps = pm._step_fill(x, eligible, sums, eps, fill_caps)
                if not raised:
                    break
                x = x.copy()
                for i, step in zip(raised, steps):
                    x[i] += step
                states.append(x)
                state_sums.append(sums)
            m = len(state_sums)
            if not m:
                continue
            # one gradient batch for every state, one value batch for the
            # states the steps reach; a row has the bits of its own call
            X = np.array(states)
            C = grad(X)
            V = values(X[1:])
            # row r checks the step from states[r] as the step does; it is
            # accepted when every check passes and the eligible set is E,
            # so it is the step the loop would take
            S, C_steps, sums = X[:m], C[:m], np.array(state_sums)
            g_at = np.concatenate(([gt], V[:-1]))
            T = pm._tight(S, sums, x_lo, caps_lo)
            v1s = C_steps.max(axis=1, where=~T, initial=-math.inf)
            # nan where the step would reject or raise, which fails the row
            v2s = np.array([_bucket(v, eps) if 0 < v < math.inf else math.nan
                            for v in v1s.tolist()])
            ok = ((g_at - g0 <= target)
                  & (np.arange(m) < max_inner - total_inner)
                  & (S.max(axis=1) <= x_hi)
                  & (sums <= caps_hi).all(axis=1)
                  & ~(np.vstack((tight_prev, T[:-1])) > T).any(axis=1)
                  & (v2s <= np.concatenate(([v2_prev], v2s[:-1])) * (1.0 + 1e-9))
                  & ((C_steps >= v2s[:, None]) == eligible_mask).all(axis=1)
                  & (V >= g_at - 1e-9 * M))
            a = m if ok.all() else int(ok.argmin())
            if a:
                xt = states[a]
                gt = float(V[a - 1])
                tight_prev = T[a - 1]
                v2_prev = float(v2s[a - 1])
                total_inner += a
                rounds += a
            # the step at xt, the first row that failed or the last state,
            # takes its gradient from the batch
            c = C[a]
            k = min(2 * k, k_max) if a == m else min(RUN_AHEAD_START, k_max)

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


def _bucket(v1: float, eps: float) -> float:
    """v2, the power of (1+eps) at or below v1 > 0."""
    return (1.0 + eps) ** math.floor(math.log(v1) / math.log1p(eps))


def _initial_point(pm, n, eps, D, scale) -> np.ndarray:
    """eps^2/(nD) * 1, zeroed on rank-0 coordinates and shrunk into scale*P.

    r({i}) = 0 exactly when a family set that holds i has cap 0.
    """
    x0 = np.full(n, eps * eps / (n * D))
    x0[[any(pm.caps[r] <= 0 for r in rows) for rows in pm.rows_of]] = 0.0
    if not pm.membership(x0, scale):
        x0 *= pm.fit_factor(x0, scale) * (1.0 - 1e-12)
    return x0
