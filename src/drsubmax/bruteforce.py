"""Desk-scale ground-truth oracles: subset enumeration and a grid search.

Independent of the solvers by construction — these never call the solver
modules and evaluate objectives through their exact set-function values or
closed forms only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import SAMPLED, ObjectiveSpec
from .packing_solver import PackingInstance
from .polymatroid import PolymatroidInstance

SUBSET_ENUM = "subset-enum"
GRID = "grid"

_GRID_CHUNK = 200_000
MAX_SUBSET_ENUM_N, MAX_GRID_N = 20, 4  # largest n of each exhaustive oracle


@dataclass
class OracleResult:
    value: float
    argmax: object  # frozenset (subset-enum) or np.ndarray (grid)
    method: str


def brute_force_matroid_opt(obj: ObjectiveSpec,
                            pm: PolymatroidInstance) -> OracleResult:
    """Max exact set value over all independent 0/1 vectors of pm.

    When every cap of pm is an integer, pm is a matroid polytope and this
    equals the fractional optimum of the multilinear relaxation (lossless
    rounding), so it is a valid reference for fractional solver output
    too.  With other caps it can fall below that optimum.
    """
    n = pm.n
    if n > MAX_SUBSET_ENUM_N:
        raise ValueError(f"subset enumeration supports n <= {MAX_SUBSET_ENUM_N}")
    best_val = -np.inf
    best_set = None
    for mask in range(1 << n):
        S = [i for i in range(n) if mask >> i & 1]
        ind = np.zeros(n)
        ind[S] = 1.0
        if not pm.membership(ind, 1.0):
            continue
        val = obj.set_value(S)
        if val > best_val:  # first hit wins ties: lexicographic by mask
            best_val = val
            best_set = frozenset(S)
    return OracleResult(value=float(best_val), argmax=best_set,
                        method=SUBSET_ENUM)


def grid_fractional_opt(obj: ObjectiveSpec, inst: PackingInstance,
                        resolution: float) -> OracleResult:
    """Exhaustive grid over [0,1]^n restricted to Ax <= (1-eps)1."""
    n = inst.n
    if n > MAX_GRID_N:
        raise ValueError(f"grid search supports n <= {MAX_GRID_N}")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if obj.kind == SAMPLED:
        raise ValueError("grid oracle needs a closed-form objective")
    axis = np.arange(0.0, 1.0 + resolution / 2, resolution)
    axis = np.minimum(axis, 1.0)
    rhs = 1.0 - inst.eps
    best_val = -np.inf
    best_x = None
    # slice the grid along the first axis so memory stays bounded at n = 4;
    # at n = 0 the grid is the one empty point
    if n <= 1:
        slabs = [axis[:, None] if n else np.zeros((1, 0))]
    else:
        tail = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
        tail = np.stack([g.ravel() for g in tail], axis=1)
        slabs = None
    for v0 in (axis if n > 1 else [None]):
        if n > 1:
            chunk_all = np.column_stack([np.full(tail.shape[0], v0), tail])
        else:
            chunk_all = slabs[0]
        for lo in range(0, chunk_all.shape[0], _GRID_CHUNK):
            chunk = chunk_all[lo:lo + _GRID_CHUNK]
            feas = np.all(chunk @ inst.A.T <= rhs + 1e-12, axis=1)
            if not feas.any():
                continue
            chunk = chunk[feas]
            vals = obj.eval_many(chunk)
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val = float(vals[k])
                best_x = chunk[k].copy()
    if best_x is None:
        best_x = np.zeros(n)
        best_val = float(obj.eval(best_x))
    return OracleResult(value=best_val, argmax=best_x, method=GRID)

