"""Low-adaptivity DR-submodular maximization over a polymatroid.

Both solvers build the solution over ceil(1/eps) epochs.  Within an epoch
the gradient is evaluated at the future point (1+eps)*x, eligible
coordinates are bucketed by powers of (1+eps), and a sequential
water-filling step raises each eligible coordinate by up to a (1+eps)
multiplicative factor while staying inside eps*P.  The non-monotone
variant dampens the accumulated solution measured-greedy style.

Inputs are checked once, by the config, the constructors, the public
membership test of the initial point and the public water-fill of the
first step; the loop then calls the unchecked kernels on the states it
builds, each with its set sums computed once for its checks and fill.

The loop calls the clamped oracle kernels (objective.py), as the packing
loop does.

Run-ahead.  While the eligible set E stays the same, each step is the
fill with E from the state the last one reached.  So a pass builds a
chain of states in links of two kinds: a fill from the last state, and,
after a fill that raised each coordinate i by exactly eps * x_i, the
states that repeat that step, built as one block that ends at the first
state whose fill would not (PolymatroidInstance._geometric_run), which
takes a fill next.  An empty fill ends the chain, and so do k =
RUN_AHEAD_ENTRIES // (n + incidences) states (at least one), a memory
bound on the batch.  The pass takes the states'
gradients and values in one batched kernel call each, runs one check
function on every row, each against the row before it, as on x0 once per
epoch, and accepts the rows up to the first from which the loop would
not step on with E (past the gain target or the cap, a failed check,
another eligible set, or a falling value next); that row starts the next
pass.  Batched kernels give each row the bits of its own one-row call,
so reports are byte for byte those of one step per iteration
(tests/oracles.py keeps that loop).  `inner_iterations` and
`adaptive_rounds` count the algorithm's steps, not kernel calls: each
step's queries depend on the step before it.
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
# a memory bound: a batch's gradient call touches at most
# RUN_AHEAD_ENTRIES entries, 512 KiB of floats
RUN_AHEAD_ENTRIES = 1 << 16


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

    x0 = _initial_point(pm, n, eps, D, scale)
    # the bounds of scale * P and of its tight sets, and the fill's caps
    x_hi, x_lo = scale + TIGHT_TOL, scale - TIGHT_TOL
    caps = scale * pm.caps
    caps_hi, caps_lo = caps + TIGHT_TOL, caps - TIGHT_TOL
    fill_caps = caps.tolist()

    k = max(1, RUN_AHEAD_ENTRIES // (n + obj._incidences()))

    def check(X, S, C, tight, v2):
        """The step's checks on each row of the states X, with set sums S
        and gradients C, each taken after the row before it and the first
        after a state with tight set `tight` and bucket value `v2`: in
        scale * P, the tight set, a lost tight coordinate, v2 (nan when
        v1 <= 0) and a rising v2."""
        fits = pm._fits(X, S, x_hi, caps_hi)
        T = pm._tight(X, S, x_lo, caps_lo)
        lost = (np.vstack((tight, T[:-1])) > T).any(axis=1)
        # v1 is -inf when every coordinate is tight
        v1s = C.max(axis=1, where=~T, initial=-math.inf)
        v2s = _buckets(v1s, eps)
        rising = v2s > np.append(v2, v2s[:-1]) * (1.0 + 1e-9)
        return fits, T, lost, v2s, rising

    z = np.zeros(n)
    notes: list = []
    total_inner = 0
    termination = CONVERGED

    for j in range(epochs):
        # the gradient at the future points of the rows of X, and the
        # values at the points of the rows of Y
        if monotone:
            grad = lambda X: obj._clamped_grad((1.0 + eps) * X + z)
            values = lambda Y: obj._values(Y + z)
            threshold = eps * ((1.0 - 10.0 * eps) * M)
        else:
            damp = 1.0 - z  # fixed for the epoch
            damp_eps = damp * (1.0 + eps)
            grad = lambda X: damp * obj._clamped_grad(damp_eps * X + z)
            values = lambda Y: obj._values(damp * Y + z)
            threshold = eps * (((1.0 - eps / (1.0 + eps)) ** j - 10.0 * eps) * M)

        # the loop's state is row r of the batch X, with its set sums S[r],
        # gradient C[r] and checks; each epoch starts from x0
        X, S = x0[None], pm._sums(x0[None])
        C = grad(X)
        g0 = gt = float(values(X)[0])
        target = threshold - eps * g0 + tol
        fits, T, lost, v2s, rising = check(X, S, C, np.zeros(n, dtype=bool),
                                           math.inf)
        r = 0
        rejected = False

        while gt - g0 <= target:
            if total_inner >= max_inner:
                termination = ITERATION_CAP
                break
            if not fits[r]:
                raise ValueError("x is not in scale * P")
            if lost[r]:
                raise InvariantViolation("tight set lost coordinates")
            v2 = float(v2s[r])
            if math.isnan(v2):
                rejected = True
                break
            if rising[r]:
                raise InvariantViolation("bucket value v2 increased within an epoch")
            tight, eligible_mask = T[r], C[r] >= v2
            eligible = eligible_mask.nonzero()[0].tolist()  # ascending

            # the step's fill and up to k - 1 more with the same eligible
            # set E, each from its state's set sums, in links: a fill, or a
            # geometric run after it; an empty fill ends the chain
            states, state_sums = [], []  # blocks of rows
            x, sums, reached = X[r], S[r], 0
            while reached < k:
                # the solve's first fill is checked like any caller's
                if total_inner == reached == 0:
                    y = pm.waterfill(x, eligible, eps)
                    raised = y.nonzero()[0].tolist()
                    steps = y[raised].tolist()
                else:
                    raised, steps = pm._step_fill(x, eligible, sums, eps,
                                                  fill_caps)
                if not raised:
                    break
                geometric = (reached + 1 < k and steps
                             == [eps * v for v in x[raised].tolist()])
                x = x.copy()
                for i, step in zip(raised, steps):
                    x[i] += step
                run, run_sums = (
                    pm._geometric_run(x, raised, eps, caps, k - reached)
                    if geometric else (x[None], pm._sums(x[None])))
                states.append(run)
                state_sums.append(run_sums)
                reached += len(run)
                x, sums = run[-1], run_sums[-1]
            if not states:
                rejected = True
                break

            # one gradient and one value call for the states reached; a
            # row has the bits of its own one-row call
            X, S = np.concatenate(states), np.concatenate(state_sums)
            C = grad(X)
            V = values(X)
            if V[0] < gt - 1e-9 * M:
                raise InvariantViolation("objective decreased within an epoch")
            fits, T, lost, v2s, rising = check(X, S, C, tight, v2)
            # the loop steps on from row q when it is below the target and
            # the cap, passes its checks and keeps E, and row q + 1 is the
            # state it reaches if that row's value does not fall
            steps_on = ((V - g0 <= target)
                        & (np.arange(1, len(V) + 1) < max_inner - total_inner)
                        & fits & ~lost & ~np.isnan(v2s) & ~rising
                        & ((C >= v2s[:, None]) == eligible_mask).all(axis=1))
            steps_on = steps_on[:-1] & (V[1:] >= V[:-1] - 1e-9 * M)
            # the steps up to X[r] are taken, one round each
            r = len(steps_on) if steps_on.all() else int(steps_on.argmin())
            gt = float(V[r])
            total_inner += r + 1

        z = z + X[r] if monotone else z + (1.0 - z) * X[r]

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
    slack = pm.slack(z)
    # adaptive rounds: the singleton batch for the gradient-scale bound,
    # then one per epoch started (j + 1 of them) for g(x0) and one per step
    return SolveReport(
        solution=z, value=value, epochs=epochs, inner_iterations=total_inner,
        adaptive_rounds=2 + j + total_inner, feasible=feasible, guess_used=M,
        termination=termination, slack=slack, notes=notes)


def _buckets(v1s: np.ndarray, eps: float) -> np.ndarray:
    """v2 for each v1 > 0, the power of (1+eps) at or below it, and nan for
    the others.  A v1 inside the last bucket computed, 1e-9 relative from
    both of its ends, has that bucket's floor, as log and pow are exact to
    a few places on buckets above 1e-300, so its power is reused."""
    log1p, v2s, lo, hi = math.log1p(eps), [], math.inf, math.inf
    for v1 in v1s.tolist():
        if not lo <= v1 < hi:
            if not v1 > 0:
                v2s.append(math.nan)
                continue
            v2 = (1.0 + eps) ** math.floor(math.log(v1) / log1p)
            lo, hi = max(v2, 1e-300) * (1 + 1e-9), v2 * (1 + eps) * (1 - 1e-9)
        v2s.append(v2)
    return np.array(v2s)


def _initial_point(pm, n, eps, D, scale) -> np.ndarray:
    """eps^2/(nD) * 1, zeroed on rank-0 coordinates and shrunk into scale*P."""
    x0 = np.full(n, eps * eps / (n * D))
    x0[pm.singleton_ranks() <= 0] = 0.0
    if not pm.membership(x0, scale):
        x0 *= pm.fit_factor(x0, scale) * (1.0 - 1e-12)
    return x0
