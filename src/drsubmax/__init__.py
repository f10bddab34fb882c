"""Low-adaptivity DR-submodular maximization under matroid and packing
constraints."""

from .bruteforce import (OracleResult, brute_force_matroid_opt,
                         grid_fractional_opt)
from .guessing import build_ladder, solve_single, solve_with_guessing
from .matroid_solver import (MatroidSolverConfig, solve_matroid_monotone,
                             solve_matroid_nonmonotone)
from .objective import ObjectiveSpec
from .packing_solver import (PackingInstance, PackingSolverConfig,
                             add_box_rows, normalize_packing,
                             solve_packing_monotone, solve_packing_nonmonotone)
from .polymatroid import PolymatroidInstance
from .report import (CONVERGED, GUESS_REJECTED, ITERATION_CAP, GuessExhausted,
                     InvariantViolation, SolveReport)
from .softmax import smax, smax_grad

__version__ = "0.1.0"

__all__ = [
    "ObjectiveSpec", "PolymatroidInstance",
    "smax", "smax_grad",
    "MatroidSolverConfig", "solve_matroid_monotone", "solve_matroid_nonmonotone",
    "PackingInstance", "PackingSolverConfig", "normalize_packing",
    "add_box_rows", "solve_packing_monotone", "solve_packing_nonmonotone",
    "build_ladder", "solve_single", "solve_with_guessing",
    "OracleResult", "brute_force_matroid_opt", "grid_fractional_opt",
    "SolveReport", "InvariantViolation", "GuessExhausted",
    "CONVERGED", "GUESS_REJECTED", "ITERATION_CAP",
]
