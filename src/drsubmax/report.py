"""Solve reports, solver parameter checks, and shared error types."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

CONVERGED = "converged"
GUESS_REJECTED = "guess_rejected"
ITERATION_CAP = "iteration_cap"

SCHEMA_VERSION = 1


class InvariantViolation(RuntimeError):
    """A runtime invariant of a solver failed (CLI exit code 3)."""


class GuessExhausted(RuntimeError):
    """No guess produced a feasible solution (CLI exit code 2)."""


def check_params(eps, guesses, max_iterations):
    """The solver parameters' checks, shared by both configs and ladders."""
    if not (0 < eps <= 0.05):
        raise ValueError(f"eps must be in (0, 0.05], got {eps}")
    for M in guesses:
        if not (0 < M < math.inf):
            raise ValueError(f"M must be positive and finite, got {M}")
    if not (max_iterations is None
            or isinstance(max_iterations, numbers.Integral)
            and max_iterations >= 0):
        raise ValueError(f"max_iterations must be a non-negative integer, "
                         f"got {max_iterations!r}")


def check_dimensions(obj_n: int, n: int):
    """The solvers' shape checks: the objective and the constraint have the
    same dimension n, and there is an element to solve for."""
    if obj_n != n:
        raise ValueError("objective and constraint dimensions differ")
    if n == 0:
        raise ValueError("constraint.n: a solve at one guess needs n >= 1, "
                         "got 0 (the guessing ladder reports the zero solution)")


def finite_cap(numerator: float, eps: float, power: int) -> int:
    """An iteration cap, numerator / eps**power rounded up.

    At a tiny eps the cap overflows (or eps**power underflows to 0); that
    is rejected with a ValueError before any solve starts.
    """
    scale = eps ** power
    cap = numerator / scale if scale > 0 else math.inf
    if not cap < math.inf:
        raise ValueError(f"eps = {eps:g} is too small: the iteration cap "
                         "is not a finite number")
    return int(math.ceil(cap))


@dataclass
class SolveReport:
    solution: np.ndarray
    value: float
    epochs: int
    inner_iterations: int
    adaptive_rounds: int
    feasible: bool
    guess_used: float
    termination: str
    slack: float = float("nan")
    notes: list = field(default_factory=list)
    guess_trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "solution": [float(v) for v in self.solution],
            "value": float(self.value),
            "epochs": int(self.epochs),
            "inner_iterations": int(self.inner_iterations),
            "adaptive_rounds": int(self.adaptive_rounds),
            "feasible": bool(self.feasible),
            "guess_used": float(self.guess_used),
            "termination": self.termination,
            "slack": float(self.slack),
            "notes": list(self.notes),
            "guess_trace": [
                {"guess": float(g), "termination": t, "value": float(v)}
                for (g, t, v) in self.guess_trace
            ],
        }
