"""Guessing ladder for the optimum value M and the combined-run driver.

The solvers need M with M <= f(x*) <= (1+eps)M.  The max singleton value
m0 is an n-approximation, so the geometric ladder m0*(1+eps)^k for
k = 0..ceil(2 ln n / eps) contains a valid guess when singletons are
feasible.  A singleton may violate a packing row or a polymatroid cap
below 1, so the ladder also reaches down to m_low, a lower bound on a
feasible point's value, taken from the singleton values.  All guesses
run independently, so the combined adaptivity is one singleton batch
plus the max over guesses.  Packing guesses run in lockstep, as one
batched state advanced one iteration at a time
(packing_solver.solve_packing_guesses); matroid guesses run one after
another, since their water-fill is sequential.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .matroid_solver import (MatroidSolverConfig, solve_matroid_monotone,
                             solve_matroid_nonmonotone)
from .objective import ObjectiveSpec
from .packing_solver import (PackingInstance, PackingSolverConfig,
                             solve_packing_guesses, solve_packing_monotone,
                             solve_packing_nonmonotone)
from .polymatroid import PolymatroidInstance
from .report import CONVERGED, GuessExhausted, SolveReport

# most guesses a ladder may hold; a smaller eps asks for a longer ladder
MAX_LADDER_GUESSES = 100_000


def build_ladder(obj: ObjectiveSpec, eps: float,
                 m_low: Optional[float] = None) -> list:
    """The guesses m0 * (1+eps)^k for k = 0..ceil(2 ln n / eps), where m0
    is the max singleton value; empty for the zero objective.

    The top guess is at least n^(2 ln(1+eps)/eps) * m0, about n^1.95 * m0
    at eps = 0.05, above the n * m0 that bounds the optimum.  m0 only
    lower-bounds the optimum when singletons are feasible.  They may not
    be, so callers can pass `m_low`, a lower bound on the value of some
    feasible point, and k then starts at -ceil(ln(m0 / m_low) /
    ln(1+eps)).  A ladder of more than MAX_LADDER_GUESSES guesses raises
    ValueError before it is built.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    m0 = float(obj.singleton_values().max()) if obj.n else 0.0
    if m0 <= 0:
        return []
    up = 2.0 * math.log(max(obj.n, 2)) / eps
    down = 0.0
    if m_low is not None and 0 < m_low < m0:
        down = math.log(m0 / m_low) / math.log1p(eps)
    # compared as floats first: at a tiny eps they are too large to round
    if not (up + down <= MAX_LADDER_GUESSES
            and math.ceil(up) + math.ceil(down) < MAX_LADDER_GUESSES):
        raise ValueError(f"eps = {eps:g} asks for a ladder of more than "
                         f"{MAX_LADDER_GUESSES} guesses")
    k_max, k_min = math.ceil(up), -math.ceil(down)
    return [m0 * (1.0 + eps) ** k for k in range(k_min, k_max + 1)]


def solve_single(obj: ObjectiveSpec,
                 constraint: Union[PolymatroidInstance, PackingInstance],
                 eps: float, M: float, *, monotone: bool,
                 max_iterations: Optional[int] = None) -> SolveReport:
    """One solver run at guess M, chosen by the constraint type and `monotone`.

    The solvers are looked up in this module's namespace at call time, so
    a wrapper installed on one of these names sees every such run: the
    CLI's --guess runs and each matroid ladder guess.  Packing ladder
    guesses run in lockstep in solve_packing_guesses instead.
    """
    if isinstance(constraint, PackingInstance):
        cfg = PackingSolverConfig(eps=eps, M=M, max_iterations=max_iterations)
        if monotone:
            return solve_packing_monotone(obj, constraint, cfg)
        return solve_packing_nonmonotone(obj, constraint, cfg)
    cfg = MatroidSolverConfig(eps=eps, M=M, max_iterations=max_iterations)
    if monotone:
        return solve_matroid_monotone(obj, constraint, cfg)
    return solve_matroid_nonmonotone(obj, constraint, cfg)


def solve_with_guessing(obj: ObjectiveSpec,
                        constraint: Union[PolymatroidInstance, PackingInstance],
                        eps: float, *, monotone: Optional[bool] = None,
                        max_iterations: Optional[int] = None) -> SolveReport:
    """Run the appropriate solver for every ladder guess; keep the best.

    Rejected guesses still enter the argmax when their partial solution is
    feasible.  adaptive_rounds reports 1 (the singleton batch shared by
    every guess) + max over guesses, since the runs are independent.  The
    result's termination is `converged` when any guess converged: a
    converged guess is feasible, so the best value is at least its value.
    Otherwise it is the best guess's own termination; `guess_trace` keeps
    each guess's own.
    """
    if monotone is None:
        monotone = obj.monotone
    # singletons may violate Ax <= 1 or a cap below 1, so the ladder must
    # reach below m0.  The point t_i * e_i is feasible, and F is
    # multilinear with F(0) >= 0, so its value is at least t_i * f({i})
    if isinstance(constraint, PackingInstance):
        # t_i = min(1, (1-eps) / max_j A_ji); pinned and empty columns and
        # box rows (t_i <= 1 meets them) are left out
        m = constraint.m - constraint.n * constraint.includes_box
        colmax = constraint.A[:m].max(axis=0, initial=0.0)  # A >= 0
        colmax[constraint.fixed_zero] = 0.0
        t = np.minimum(1.0, np.divide(1.0 - eps, colmax,
                                      out=np.zeros(constraint.n),
                                      where=colmax > 0))
    else:
        t = constraint.singleton_ranks()  # t_i = r({i})
    m_low = float((t * obj.singleton_values()).max(initial=0.0))
    guesses = build_ladder(obj, eps, m_low=m_low)
    if not guesses:
        zero = np.zeros(obj.n)
        return SolveReport(solution=zero, value=obj.eval(zero), epochs=0,
                           inner_iterations=0, adaptive_rounds=1,
                           feasible=True, guess_used=0.0,
                           termination=CONVERGED, slack=0.0,
                           notes=["all singleton values are zero"])

    best = None
    max_rounds = 0
    trace = []
    if isinstance(constraint, PackingInstance):
        reports = solve_packing_guesses(obj, constraint, eps, guesses,
                                        monotone=monotone,
                                        max_iterations=max_iterations)
    else:
        reports = [solve_single(obj, constraint, eps, M, monotone=monotone,
                                max_iterations=max_iterations)
                   for M in guesses]
    for M, report in zip(guesses, reports):
        max_rounds = max(max_rounds, report.adaptive_rounds)
        trace.append((M, report.termination, report.value))
        if not report.feasible:
            continue
        if (best is None or report.value > best.value
                or (report.value == best.value and M < best.guess_used)):
            best = report
    if best is None:
        raise GuessExhausted(
            "no guess produced a feasible solution; "
            "objective/constraint inconsistency")
    best.adaptive_rounds = 1 + max_rounds
    best.guess_trace = trace
    if any(t == CONVERGED for _, t, _ in trace):
        best.termination = CONVERGED
    return best
