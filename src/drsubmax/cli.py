"""Instance parsing, solver dispatch, report emission, and verification.

Instances and reports are JSON (schemas in docs/formats.md).  Two runs
with identical instance + flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .bruteforce import (MAX_GRID_N, MAX_SUBSET_ENUM_N, brute_force_matroid_opt,
                         grid_fractional_opt)
from .guessing import solve_single, solve_with_guessing
from .objective import COVERAGE, DIRECTED_CUT, LINEAR, ObjectiveSpec
from .packing_solver import (MAX_PACKING_ENTRIES, PackingInstance,
                             normalize_packing)
from .polymatroid import (LAMINAR, MAX_POLYMATROID_ENTRIES, PARTITION, UNIFORM,
                          PolymatroidInstance)
from .report import (CONVERGED, GUESS_REJECTED, ITERATION_CAP, GuessExhausted,
                     InvariantViolation)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUESS = 2
EXIT_INVARIANT = 3
EXIT_ITER_CAP = 4

_EXIT_BY_TERMINATION = {CONVERGED: EXIT_OK, GUESS_REJECTED: EXIT_GUESS,
                        ITERATION_CAP: EXIT_ITER_CAP}


class InstanceError(ValueError):
    """Malformed instance file; message carries the offending field path."""


_EXIT_BY_ERROR = {InstanceError: EXIT_USAGE, FileNotFoundError: EXIT_USAGE,
                  GuessExhausted: EXIT_GUESS, InvariantViolation: EXIT_INVARIANT}


@dataclass
class InstanceFile:
    """A parsed instance file.  The objective and constraint it builds are
    kept: parse_instance builds them to check the data, and the solve
    reuses them."""

    objective: dict
    constraint: dict
    eps: float
    known_opt: Optional[float] = None
    _objective: Optional[ObjectiveSpec] = field(default=None, repr=False,
                                                compare=False)
    # (eps, constraint) of the last build_constraint call
    _constraint: Optional[tuple] = field(default=None, repr=False,
                                         compare=False)

    def build_objective(self) -> ObjectiveSpec:
        if self._objective is None:
            self._objective = self._make_objective()
        return self._objective

    def build_constraint(self, eps: float):
        """The constraint, normalized at eps if it is a packing matrix;
        rebuilt only when a packing matrix is asked for at another eps."""
        if self._constraint is None or (
                self._constraint[0] != eps
                and isinstance(self._constraint[1], PackingInstance)):
            self._constraint = (eps, self._make_constraint(eps))
        return self._constraint[1]

    def _make_objective(self) -> ObjectiveSpec:
        o = self.objective
        try:
            if o["kind"] == LINEAR:
                return ObjectiveSpec.linear(o["weights"])
            if o["kind"] == COVERAGE:
                return ObjectiveSpec.coverage(o["weights"], o["covers"])
            if o["kind"] == DIRECTED_CUT:
                return ObjectiveSpec.directed_cut(
                    o["n"], [tuple(a) for a in o["arcs"]])
        except (ValueError, KeyError, TypeError) as exc:
            raise InstanceError(f"objective: {exc}") from exc
        raise InstanceError(f"objective.kind: unsupported kind {o['kind']!r}")

    def _make_constraint(self, eps: float):
        c = self.constraint
        try:
            if c["type"] == "packing":
                A = np.zeros((c["m"], c["n"]))
                for (r, col, v) in c["triplets"]:
                    A[r, col] = v
                return normalize_packing(A, eps)
            if c["type"] == "polymatroid":
                if c["kind"] == UNIFORM:
                    return PolymatroidInstance.uniform(c["n"], c["k"])
                if c["kind"] == PARTITION:
                    return PolymatroidInstance.partition(
                        c["n"], c["parts"], c["caps"])
                if c["kind"] == LAMINAR:
                    return PolymatroidInstance.laminar(
                        c["n"], c["sets"], c["caps"])
                raise InstanceError(
                    f"constraint.kind: unsupported kind {c['kind']!r}")
        except InstanceError:
            raise
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise InstanceError(f"constraint: {exc}") from exc
        raise InstanceError(f"constraint.type: unsupported type {c['type']!r}")


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise InstanceError(f"non-finite number {token} is not allowed")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_count(section: dict, key: str, path: str) -> int:
    value = section.get(key)
    if not (_is_int(value) and value >= 0):
        raise InstanceError(
            f"{path}.{key}: expected a non-negative integer, got {value!r}")
    return value


def _boolean_path(value) -> Optional[str]:
    """The path of the first JSON boolean in a parsed value, such as
    `.k` or `[2][0]` ("" for a boolean itself), or None when it has none.

    Python counts True as the integer 1, so the per-field number and index
    checks would let a boolean through; this one walk finds it first.
    """
    if isinstance(value, dict):
        items, step = value.items(), ".{}"
    elif isinstance(value, list):
        items, step = enumerate(value), "[{}]"
    else:
        return "" if isinstance(value, bool) else None
    for key, item in items:
        if item is True or item is False or isinstance(item, (dict, list)):
            path = _boolean_path(item)
            if path is not None:
                return step.format(key) + path
    return None


def parse_instance(text: Union[str, bytes]) -> InstanceFile:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        # NaN, Infinity and overflowing literals never reach the solvers,
        # whose comparisons would let a NaN through as feasible
        data = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise InstanceError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise InstanceError("top level: expected a JSON object")
    path = _boolean_path(data)
    if path is not None:
        raise InstanceError(f"{path[1:]}: JSON booleans are not accepted "
                            "in an instance")
    for key in ("objective", "constraint", "eps"):
        if key not in data:
            raise InstanceError(f"{key}: missing required field")
    obj = data["objective"]
    con = data["constraint"]
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InstanceError("objective: expected an object with a 'kind' field")
    if not isinstance(con, dict) or "type" not in con:
        raise InstanceError("constraint: expected an object with a 'type' field")
    eps = data["eps"]
    if not isinstance(eps, (int, float)) or not eps > 0:
        raise InstanceError(f"eps: must be a positive number, got {eps!r}")
    seed = data.get("seed", 0)
    if not _is_int(seed):
        raise InstanceError(f"seed: expected an integer, got {seed!r}")
    known_opt = data.get("known_opt")
    if "known_opt" in data and not (isinstance(known_opt, (int, float))
                                    and known_opt >= 0):
        raise InstanceError(f"known_opt: expected a non-negative finite "
                            f"number, got {known_opt!r}")
    if obj["kind"] == DIRECTED_CUT:
        _require_count(obj, "n", "objective")
    if con["type"] in ("packing", "polymatroid"):
        n = _require_count(con, "n", "constraint")
    if con["type"] == "packing":
        m = _require_count(con, "m", "constraint")
        trips = con.get("triplets")
        if not isinstance(trips, list):
            raise InstanceError("constraint.triplets: missing or not a list")
        # checked before A is allocated
        if n > len(trips):
            raise InstanceError(
                f"constraint.n: {n} columns but {len(trips)} triplets; "
                "every column needs a nonzero entry")
        if m * n > MAX_PACKING_ENTRIES:
            raise InstanceError(
                f"constraint.m: m * n = {m * n} exceeds the limit of "
                f"{MAX_PACKING_ENTRIES} matrix entries")
        prev = None
        for idx, t in enumerate(trips):
            if not (isinstance(t, list) and len(t) == 3):
                raise InstanceError(
                    f"constraint.triplets[{idx}]: expected [row, col, value]")
            r, c, v = t
            if not (_is_int(r) and _is_int(c) and 0 <= r < m and 0 <= c < n):
                raise InstanceError(
                    f"constraint.triplets[{idx}]: index ({r},{c}) out of range")
            if not (isinstance(v, (int, float)) and v >= 0):
                raise InstanceError(
                    f"constraint.triplets[{idx}]: negative value {v}")
            if prev is not None and (r, c) <= prev:
                raise InstanceError(
                    f"constraint.triplets[{idx}]: not sorted by (row, col) "
                    "or duplicate entry")
            prev = (r, c)
    if con["type"] == "polymatroid":
        # checked before the dense (sets x n) incidence is allocated
        kind = con.get("kind")
        family = (con.get("parts") if kind == PARTITION
                  else con.get("sets") if kind == LAMINAR else None)
        rows = max(len(family), 1) if isinstance(family, list) else 1
        if rows * n > MAX_POLYMATROID_ENTRIES:
            raise InstanceError(
                f"constraint.n: {rows} sets x {n} elements = {rows * n} "
                f"incidence entries, above the limit of "
                f"{MAX_POLYMATROID_ENTRIES}")
    inst = InstanceFile(objective=obj, constraint=con, eps=float(eps),
                        known_opt=known_opt)
    # surface structural problems (negative weights, non-laminar family,
    # self-loops, mismatched dimensions) at parse time, not at solve time
    obj_n = inst.build_objective().n
    con_n = inst.build_constraint(min(inst.eps, 0.05)).n
    if obj_n != con_n:
        raise InstanceError(f"constraint.n: {con_n} does not match the "
                            f"objective's dimension {obj_n}")
    return inst


def _emit_report(report_dict: dict, path: Optional[str]):
    text = json.dumps(report_dict, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def _resolve_monotone(flag: str, obj: ObjectiveSpec) -> bool:
    if flag == "auto":
        return obj.monotone
    want = flag == "true"
    if want and not obj.monotone:
        raise InstanceError(
            "objective is non-monotone; --monotone true is incompatible")
    return want


_CONSTRAINT_OF = {"solve-packing": (PackingInstance, "packing"),
                  "solve-matroid": (PolymatroidInstance, "polymatroid")}


def _solve(args):
    """Load the instance and solve it as the flags ask.

    Returns (instance file, objective, constraint, report).
    """
    if args.max_iters is not None and args.max_iters < 1:
        raise InstanceError(f"--max-iters: must be >= 1, got {args.max_iters}")
    M = None
    if args.guess != "auto":
        try:
            M = float(args.guess)
        except ValueError:
            M = math.nan
        if not (0 < M < math.inf):
            raise InstanceError(
                f"--guess: expected 'auto' or a positive number, got {args.guess!r}")
    with open(args.instance, "rb") as fh:
        inst = parse_instance(fh.read())
    eps = args.eps if args.eps is not None else inst.eps
    if not (0 < eps <= 0.05):
        raise InstanceError(f"eps: {eps} outside the supported range (0, 0.05]")
    obj = inst.build_objective()
    constraint = inst.build_constraint(eps)
    if args.command in _CONSTRAINT_OF:
        cls, name = _CONSTRAINT_OF[args.command]
        if not isinstance(constraint, cls):
            raise InstanceError(f"constraint.type: {args.command} needs a "
                                f"{name} constraint")
    # verify's exhaustive oracle has a size limit, and its enumeration of
    # 0/1 sets finds the optimum only under integral caps: checked before
    # the solve
    packing = isinstance(constraint, PackingInstance)
    limit = MAX_GRID_N if packing else MAX_SUBSET_ENUM_N
    if args.command == "verify" and constraint.n > limit:
        raise InstanceError(f"constraint.n: verify's oracle supports "
                            f"n <= {limit}, got {constraint.n}")
    if args.command == "verify" and not packing and np.any(constraint.caps % 1):
        raise InstanceError(f"constraint: verify's oracle needs integral "
                            f"caps, got {constraint.caps.tolist()}")
    monotone = _resolve_monotone(args.monotone, obj)
    try:
        # the size limits that depend on eps and on the solver variant (the
        # ladder length, the iteration cap, the non-monotone box rows) are
        # checked by the solvers before they allocate anything
        if M is None:
            report = solve_with_guessing(obj, constraint, eps,
                                         monotone=monotone,
                                         max_iterations=args.max_iters)
        else:
            report = solve_single(obj, constraint, eps, M, monotone=monotone,
                                  max_iterations=args.max_iters)
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc
    return inst, obj, constraint, report


def _solve_command(args) -> int:
    report = _solve(args)[3]
    _emit_report(report.to_dict(), args.report)
    return _EXIT_BY_TERMINATION[report.termination]


def _verify(args) -> int:
    inst, obj, constraint, report = _solve(args)
    if isinstance(constraint, PackingInstance):
        oracle = grid_fractional_opt(obj, constraint, resolution=1e-2)
    else:
        oracle = brute_force_matroid_opt(obj, constraint)
    ratio = report.value / oracle.value if oracle.value > 0 else None
    out = {"schema": 1, "value": report.value, "opt": oracle.value,
           "ratio": ratio, "oracle_method": oracle.method,
           "feasible": report.feasible, "guess_used": report.guess_used}
    if inst.known_opt is not None:
        out["known_opt"] = inst.known_opt
    _emit_report(out, args.report)
    return _EXIT_BY_TERMINATION[report.termination]


def _add_common(sub):
    sub.add_argument("instance", help="instance JSON file")
    sub.add_argument("--eps", type=float, default=None,
                     help="override instance eps (range (0, 0.05])")
    sub.add_argument("--guess", default="auto",
                     help="'auto' for the guessing ladder, or a value for M")
    sub.add_argument("--monotone", choices=["auto", "true", "false"],
                     default="auto")
    sub.add_argument("--max-iters", type=int, default=None,
                     help="iteration cap per guess (>= 1)")
    sub.add_argument("--report", default=None, help="also write the report here")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drsubmax",
        description="Low-adaptivity DR-submodular maximization solvers")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("solve-packing"))
    _add_common(subs.add_parser("solve-matroid"))
    _add_common(subs.add_parser("verify"))
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            return _verify(args)
        return _solve_command(args)
    except tuple(_EXIT_BY_ERROR) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_BY_ERROR.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
