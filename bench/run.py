"""drsubmax benchmark: seeded solve workloads, end-to-end and per-layer metrics.

Run from anywhere inside a checkout of the repository:

    python3 bench/run.py --workload packing-ladder --seed 1 --seconds 55 --trace 0

`--workload all` runs both workloads one after another in one process.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it reports the per-layer metrics of one traced pass (spans written to
`.bench_work/`), next to an untraced pass for the tracing overhead.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  What each
metric means, and which end-to-end metric each layer metric should move,
is recorded in bench/manifest.json.

On a shared 2-vCPU host, speed drifts by up to 3x over phases of seconds
to minutes, so absolute solve times are not comparable between runs.  The
gated times are therefore relative: every timed solve is paired, back to
back and in alternating order, with the same solve by a frozen copy of the
seed commit's solver (bench/seed_solver), and the run reports the
program's time as a multiple of the copy's.  Absolute seconds are printed
beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import inspect
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS thread: on a 2-vCPU shared host a second one measures the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEED_SOLVER = HERE / "seed_solver"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SETUP_REPS = 11
SETUP_REPS_SPREAD = 10  # more set-up repetitions, spread over paired passes
DEFAULT_SEED = 1

SOLVERS = {W.MATROID_MONO: "solve_matroid_monotone",
           W.MATROID_NONMONO: "solve_matroid_nonmonotone",
           W.PACKING_NONMONO: "solve_packing_nonmonotone"}
LADDER_ARGV = ["solve-packing", None, "--max-iters", str(W.LADDER_MAX_ITERS)]


# -- set-up -------------------------------------------------------------------

def fresh_import():
    """Import drsubmax (and its CLI) from the checkout's sources, anew."""
    for name in [m for m in sys.modules
                 if m == "drsubmax" or m.startswith("drsubmax.")]:
        del sys.modules[name]
    dm = importlib.import_module("drsubmax")
    importlib.import_module("drsubmax.cli")
    return dm


def import_seed_solver():
    """The frozen seed solver, package `drsubmax_seed`, with its CLI."""
    if str(SEED_SOLVER) not in sys.path:
        sys.path.insert(0, str(SEED_SOLVER))
    seed = importlib.import_module("drsubmax_seed")
    importlib.import_module("drsubmax_seed.cli")
    return seed


def build(dm, case: W.Case):
    """The program's objects for one case, through its public constructors.

    Returns (objective, constraint); for the ladder the constraint slot
    holds the parsed instance file, which the CLI re-reads when it solves.
    """
    if case.mode == W.CLI_LADDER:
        parsed = dm.cli.parse_instance(case.text)
        return None, parsed
    o, c = case.objective, case.constraint
    if o["kind"] == "coverage":
        obj = dm.ObjectiveSpec.coverage(o["weights"], o["covers"])
    else:
        obj = dm.ObjectiveSpec.directed_cut(o["n"], [tuple(a) for a in o["arcs"]])
    if case.mode == W.PACKING_NONMONO:
        return obj, dm.add_box_rows(dm.normalize_packing(case.A, W.EPS))
    if c["kind"] == "uniform":
        return obj, dm.PolymatroidInstance.uniform(c["n"], c["k"])
    if c["kind"] == "partition":
        return obj, dm.PolymatroidInstance.partition(c["n"], c["parts"], c["caps"])
    return obj, dm.PolymatroidInstance.laminar(c["n"], c["sets"], c["caps"])


def time_set_up(cases):
    """(seconds, package, objects) of importing drsubmax anew and building
    every case."""
    gc.collect()  # the previous import's cycles are not this one's cost
    t0 = time.perf_counter()
    dm = fresh_import()
    built = [build(dm, case) for case in cases]
    return time.perf_counter() - t0, dm, built


def set_up(cases):
    """Time the set-up SETUP_REPS times.

    Returns the last import, its objects and the per-repetition seconds.
    Paired passes add SETUP_REPS_SPREAD repetitions at even intervals, so
    that the median samples the host over the whole run rather than over
    its first second.  Their number is fixed because every re-import leaves
    some memory behind, which would otherwise move peak_rss_mb with the
    number of pairs a run fits.
    """
    times = []
    for _ in range(SETUP_REPS):
        seconds, dm, built = time_set_up(cases)
        times.append(seconds)
    return dm, built, times


# -- solving and checking -----------------------------------------------------

@dataclass
class Outcome:
    """One solve: its time, what it returned, and what its checks found.

    `failure` says the operation failed (traceback, non-zero exit code, no
    converged guess); `wrong` says an output it returned is incorrect
    (infeasible, value not eval(solution), report not deterministic).
    Either counts in `failed`; only `wrong` makes the run incorrect.
    """

    seconds: float
    value: float = math.nan
    rounds: int = 0
    failure: str = ""
    wrong: str = ""
    report_text: str = ""


@dataclass
class Workload:
    """A workload's cases, built for the program and for the seed solver.

    `seed` and `seed_built` are the frozen seed solver and its objects, and
    `setup_times` the set-up seconds that paired passes add repetitions to;
    they are only needed for paired passes.  The repetitions re-import
    drsubmax, which leaves `dm` and `built` working as they were.
    """

    name: str
    cases: list
    dm: object
    built: list
    paths: list
    seed: object = None
    seed_built: list = None
    setup_times: list = None
    outcomes: list = field(default_factory=list)  # (case index, Outcome)
    pairs: list = field(default_factory=list)  # (case, program s, seed s)

    def timed_call(self, dm, objs, i: int):
        """One public call for case i through package `dm`.

        Returns (seconds, result), where result is the CLI's (exit code,
        report text), the solve report, or the exception the call raised.
        """
        case, (obj, con) = self.cases[i], objs
        gc.collect()  # start every timed call from the same collector state
        if case.mode == W.CLI_LADDER:
            argv = list(LADDER_ARGV)
            argv[1] = str(self.paths[i])
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = dm.cli.main(argv)
            except Exception as exc:  # a traceback is a failed solve
                return time.perf_counter() - t0, exc
            return time.perf_counter() - t0, (rc, out.getvalue())
        cfg_cls = (dm.PackingSolverConfig if case.mode == W.PACKING_NONMONO
                   else dm.MatroidSolverConfig)
        t0 = time.perf_counter()
        try:
            report = getattr(dm, SOLVERS[case.mode])(
                obj, con, cfg_cls(eps=W.EPS, M=case.M))
        except Exception as exc:  # a raising solve is a failed solve
            return time.perf_counter() - t0, exc
        return time.perf_counter() - t0, report

    def solve(self, i: int) -> Outcome:
        """One timed public call of the program for case i, then its checks."""
        seconds, result = self.timed_call(self.dm, self.built[i], i)
        if isinstance(result, Exception):
            return Outcome(seconds,
                           failure=f"{type(result).__name__}: {result}")
        if self.cases[i].mode == W.CLI_LADDER:
            return self._check_cli(i, *result, seconds)
        report, obj = result, self.built[i][0]
        x = np.asarray(report.solution, dtype=float)
        return Outcome(
            seconds, value=float(report.value),
            rounds=int(report.adaptive_rounds),
            failure=("" if report.termination == "converged"
                     else f"termination {report.termination}"),
            wrong=_join(W.feasibility_error(self.cases[i], x),
                        W.value_error(report.value, obj.eval(x))))

    def _check_cli(self, i, rc, text, seconds) -> Outcome:
        try:
            report = json.loads(text)
            x = np.asarray(report["solution"], dtype=float)
            value = float(report["value"])
            converged = [g for g in report["guess_trace"]
                         if g["termination"] == "converged"]
            rounds = int(report["adaptive_rounds"])
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(seconds, failure=f"exit code {rc}" if rc else "",
                           wrong=f"unreadable report: {exc}", report_text=text)
        obj = self.built[i][1].build_objective()
        first = next((o for j, o in self.outcomes if j == i), None)
        return Outcome(
            seconds, value=value, rounds=rounds, report_text=text,
            failure=_join(f"exit code {rc}" if rc else "",
                          "" if converged else "no converged guess on the ladder"),
            wrong=_join(W.feasibility_error(self.cases[i], x),
                        W.value_error(value, obj.eval(x)),
                        "report differs from the first pass (not deterministic)"
                        if first is not None and first.report_text != text
                        else ""))

    def run_passes(self, seconds: float, passes: int = 0,
                   paired: bool = False):
        """Solve the cases in a cycle, recording every outcome.

        With `passes` set, make exactly that many full passes; otherwise make
        one full pass, then keep cycling while the next solve, at the length
        of its previous sample, still ends within `seconds`.  With `paired`,
        every program solve sits back to back with the seed solver's solve
        of the same case, which goes first on every other pass, and a
        set-up repetition follows the first pair past each of
        SETUP_REPS_SPREAD evenly spaced points of `seconds`.
        """
        last = {}
        spread = 0  # set-up repetitions made so far
        t_start = time.perf_counter()
        n = len(self.cases)
        for k in itertools.count():
            i = k % n
            if passes and k >= passes * n:
                break
            if not passes and k >= n and (
                    time.perf_counter() - t_start + last[i] > seconds):
                break
            if not paired:
                last[i] = self.record(i).seconds
                continue
            if (k // n) % 2:
                ref = self.timed_call(self.seed, self.seed_built[i], i)[0]
                own = self.record(i).seconds
            else:
                own = self.record(i).seconds
                ref = self.timed_call(self.seed, self.seed_built[i], i)[0]
            self.pairs.append((i, own, ref))
            if (time.perf_counter() - t_start
                    >= (spread + 1) / (SETUP_REPS_SPREAD + 1) * seconds):
                self.setup_times.append(time_set_up(self.cases)[0])
                spread += 1
            last[i] = own + ref

    def record(self, i: int) -> Outcome:
        outcome = self.solve(i)
        self.outcomes.append((i, outcome))
        if outcome.failure or outcome.wrong:
            print(f"FAILED {self.name}/{self.cases[i].name}: "
                  f"{_join(outcome.failure, outcome.wrong)}", file=sys.stderr)
        return outcome

    def ensure_repeat(self):
        """The ladder's determinism check needs some case solved twice."""
        if self.cases[0].mode != W.CLI_LADDER:
            return
        seen = [i for i, _ in self.outcomes]
        if len(seen) == len(set(seen)):
            self.record(0)


def _join(*messages) -> str:
    return "; ".join(m for m in messages if m)


def set_wall(cases, outcomes) -> float:
    """The solve set's wall time: per case, the median of its samples, summed.

    Not the fastest sample: the minimum of k samples shrinks as k grows, so
    it moved with the number of passes a run happened to fit.
    """
    per_case = {}
    for i, o in outcomes:
        per_case.setdefault(i, []).append(o.seconds)
    return sum(statistics.median(per_case[i]) for i in range(len(cases)))


# -- metrics ------------------------------------------------------------------

def pass_samples(wl: Workload) -> list:
    """Solve times of the run's complete passes, every case equally often.

    Partial passes would let the pool's mix of cheap and dear instances, and
    so its median, shift with how many solves a run happened to fit.
    """
    n = len(wl.cases)
    full = len(wl.outcomes) // n * n
    return [o.seconds for _, o in wl.outcomes[:full]]


def relative_times(pairs, n_cases: int):
    """(wall_rel, solve_rel_p50) from (case, program s, seed solver s) pairs.

    wall_rel weights each case's median ratio by its median seed-solver
    time, so it is the set's wall time as a multiple of the seed solver's;
    solve_rel_p50 is the median ratio over the run's complete passes, every
    case counted equally often.
    """
    ratios, seed = {}, {}
    for i, own, ref in pairs:
        ratios.setdefault(i, []).append(own / ref)
        seed.setdefault(i, []).append(ref)
    weight = {i: statistics.median(v) for i, v in seed.items()}
    wall = (sum(w * statistics.median(ratios[i]) for i, w in weight.items())
            / sum(weight.values()))
    full = len(pairs) // n_cases * n_cases
    return wall, statistics.median(own / ref for _, own, ref in pairs[:full])


def end_to_end(wl: Workload, setup_times):
    """(gated metrics, metrics that are only printed), each name: (value, unit)."""
    first = {}
    for i, o in wl.outcomes:
        first.setdefault(i, o)
    ratios = [first[i].value / c.reference if c.reference > 0 else math.nan
              for i, c in enumerate(wl.cases)]
    rounds = [first[i].rounds for i in range(len(wl.cases))]
    ok = [r for r in ratios if math.isfinite(r)]
    wall_rel, solve_rel_p50 = relative_times(wl.pairs, len(wl.cases))
    seed_times = [(i, Outcome(ref)) for i, _, ref in wl.pairs]
    shown = {
        "wall_s": (set_wall(wl.cases, wl.outcomes), "s"),
        "solve_s_p50": (statistics.median(pass_samples(wl)), "s"),
        "seed_solver.wall_s": (set_wall(wl.cases, seed_times), "s"),
    }
    return {
        "wall_rel": (wall_rel, "x"),
        "solve_rel_p50": (solve_rel_p50, "x"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ratio_min": (min(ok) if ok else 0.0, "ratio"),
        "ratio_mean": (statistics.fmean(ok) if ok else 0.0, "ratio"),
        "adaptive_rounds_max": (float(max(rounds)), "rounds"),
        "adaptive_rounds_mean": (statistics.fmean(rounds), "rounds"),
    }, shown


def install(tracer: Tracer, dm):
    """Wrap each layer boundary named in bench/manifest.json."""
    def solver_info(report):
        return (int(report.inner_iterations), report.termination == "converged")

    tracer.patch(dm.packing_solver, "smax", "softmax.smax")
    tracer.patch(dm.packing_solver, "smax_grad", "softmax.smax_grad")
    for module, names in ((dm.matroid_solver, ("solve_matroid_monotone",
                                               "solve_matroid_nonmonotone")),
                          (dm.packing_solver, ("solve_packing_monotone",
                                               "solve_packing_nonmonotone"))):
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            # ladder guesses call through guessing's namespace, the direct
            # solves through the package's
            tracer.patch(dm.guessing, name, f"{layer}.{name}", solver_info)
            tracer.patch(dm, name, f"{layer}.{name}", solver_info)
    tracer.patch(dm.cli, "parse_instance", "cli.parse_instance")
    tracer.patch(dm.cli, "solve_with_guessing", "guessing.solve_with_guessing")
    tracer.patch(dm.cli, "main", "cli.main")
    for cls, layer in ((dm.ObjectiveSpec, "objective"),
                       (dm.PolymatroidInstance, "polymatroid")):
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                tracer.patch(cls, attr, f"{layer}.{attr}")


def per_layer(tracer: Tracer, traced_wall: float) -> dict:
    """Layer metrics of one traced pass that took `traced_wall` seconds."""
    name_idx, parent, start, end = tracer.arrays()
    names = tracer.names
    dur = end - start
    own = self_times(parent, start, end)
    k = len(names)
    calls = np.bincount(name_idx, minlength=k)
    dur_sum = np.bincount(name_idx, weights=dur, minlength=k)
    own_sum = np.bincount(name_idx, weights=own, minlength=k)
    index = {name: j for j, name in enumerate(names)}

    def n_calls(name):
        return int(calls[index[name]]) if name in index else 0

    def us_per_call(name):
        c = n_calls(name)
        return float(dur_sum[index[name]]) / c * 1e6 if c else 0.0

    def own_s(prefix):
        return float(sum(own_sum[j] for j, name in enumerate(names)
                         if name.startswith(prefix)))

    m = {}
    for op in ("eval", "grad"):
        m[f"objective.{op}.calls"] = (n_calls(f"objective.{op}"), "count")
        m[f"objective.{op}.us_per_call"] = (us_per_call(f"objective.{op}"), "us")
    m["objective.singleton_values.us_per_call"] = (
        us_per_call("objective.singleton_values"), "us")
    m["objective.share"] = (own_s("objective.") / traced_wall, "fraction")
    for op in ("membership", "tight_set", "waterfill"):
        m[f"polymatroid.{op}.calls"] = (n_calls(f"polymatroid.{op}"), "count")
        m[f"polymatroid.{op}.us_per_call"] = (us_per_call(f"polymatroid.{op}"), "us")
    m["polymatroid.share"] = (own_s("polymatroid.") / traced_wall, "fraction")
    for op in ("smax", "smax_grad"):
        m[f"softmax.{op}.calls"] = (n_calls(f"softmax.{op}"), "count")
        m[f"softmax.{op}.us_per_call"] = (us_per_call(f"softmax.{op}"), "us")
    m["softmax.share"] = (own_s("softmax.") / traced_wall, "fraction")

    for layer in ("packing_solver", "matroid_solver"):
        iters = sum(it for idx, (it, _) in tracer.info.items()
                    if names[name_idx[idx]].startswith(f"{layer}."))
        m[f"{layer}.iterations"] = (iters, "count")
        m[f"{layer}.self_us_per_iter"] = (
            own_s(f"{layer}.") / iters * 1e6 if iters else 0.0, "us")

    ladder = index.get("guessing.solve_with_guessing", -2)
    per_ladder: dict = {}
    for idx, (iters, converged) in tracer.info.items():
        p = parent[idx]
        if p >= 0 and name_idx[p] == ladder:
            per_ladder.setdefault(int(p), []).append((iters, converged))
    guesses = [g for gs in per_ladder.values() for g in gs]
    m["guessing.guesses"] = (len(guesses), "count")
    m["guessing.accept_ratio"] = (
        sum(c for _, c in guesses) / len(guesses) if guesses else 0.0, "fraction")
    m["guessing.iters_total"] = (sum(it for it, _ in guesses), "count")
    m["guessing.iters_critical"] = (
        sum(max(it for it, _ in gs) for gs in per_ladder.values()), "count")
    m["guessing.self_s"] = (own_s("guessing."), "s")
    m["cli.parse_instance.us_per_call"] = (us_per_call("cli.parse_instance"), "us")
    m["cli.main.self_s"] = (own_s("cli.main"), "s")
    roots = parent < 0
    m["bench.self_s"] = (traced_wall - float(dur[roots].sum()), "s")
    return m


# -- command line -------------------------------------------------------------

def blas_threads():
    """OpenBLAS's own thread count through its C API; None if not found."""
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads()}


def write_cases(case_dir: Path, cases) -> list:
    """Instance files for the CLI cases (the CLI reads its input from disk)."""
    paths = []
    for case in cases:
        path = case_dir / f"{case.name}.json"
        if case.text:
            path.write_text(case.text)
        paths.append(path)
    return paths


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    cases, held_out = W.generate(name, seed)
    case_dir = WORK / f"{name}-seed{seed}"
    case_dir.mkdir(parents=True, exist_ok=True)
    try:
        dm, built, setup_times = set_up(cases)
        W.attach_references(cases + held_out, dm)
        wl = Workload(name, cases, dm, built, write_cases(case_dir, cases))
        shown = {}
        if not trace:
            wl.seed = import_seed_solver()
            wl.seed_built = [build(wl.seed, case) for case in cases]
            wl.setup_times = setup_times
            wl.run_passes(seconds, paired=True)
            wl.ensure_repeat()
            metrics, shown = end_to_end(wl, setup_times)
        else:
            metrics = traced_run(wl, seconds, WORK / f"spans-{name}-seed{seed}.npz")
        extra = Workload(name, held_out, dm, [build(dm, c) for c in held_out],
                         write_cases(case_dir, held_out))
        extra.run_passes(0, passes=1)
    finally:
        shutil.rmtree(case_dir, ignore_errors=True)
    outcomes = [o for _, o in wl.outcomes + extra.outcomes]
    failed = sum(1 for o in outcomes if o.failure or o.wrong)
    wrong = sum(1 for o in outcomes if o.wrong)
    samples = {"solve_s_p50": f"{len(pass_samples(wl))} solves",
               "solve_rel_p50": f"{len(wl.pairs) // len(cases) * len(cases)} pairs"}
    return len(outcomes), failed, wrong, samples, metrics, shown


def traced_run(wl: Workload, seconds: float, spans_path: Path) -> dict:
    """Untraced passes for half the time, then one traced pass of the set."""
    wl.run_passes(seconds / 2)
    untraced = set_wall(wl.cases, wl.outcomes)
    first_traced = len(wl.outcomes)
    tracer = Tracer()
    install(tracer, wl.dm)
    try:
        t0 = time.perf_counter()
        wl.run_passes(0, passes=1)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    traced = set_wall(wl.cases, wl.outcomes[first_traced:])
    metrics = per_layer(tracer, traced_wall)
    metrics["trace_overhead_frac"] = ((traced - untraced) / untraced, "fraction")
    tracer.save(spans_path)
    own = float(self_times(*tracer.arrays()[1:]).sum())
    print(f"{wl.name}: {len(tracer.start)} spans in {spans_path.name}; "
          f"layer self time {own:.3f} s + bench {metrics['bench.self_s'][0]:.3f} s "
          f"= {own + metrics['bench.self_s'][0]:.3f} s of traced wall "
          f"{traced_wall:.3f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "drsubmax" / "__init__.py").is_file():
        print(f"error: no drsubmax sources at {SRC}; run the benchmark "
              "inside a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"environment {json.dumps(environment())}")

    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = total_wrong = 0
    result = {}
    for name in names:
        attempted, failed, wrong, samples, metrics, shown = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        total_attempted += attempted
        total_failed += failed
        total_wrong += wrong
        for metric, (value, unit) in {**metrics, **shown}.items():
            note = f"  [{samples[metric]}]" if metric in samples else ""
            if metric in shown:
                note += "  (printed only)"
            print(f"{name:18s} {metric:40s} {value:14.6g} {unit}{note}")
        for metric, (value, unit) in metrics.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result[key] = {"value": value, "unit": unit}
        print(f"{name:18s} {'failed_frac':40s} {failed / attempted:14.6g} "
              f"fraction  [{failed} of {attempted} solves]")
    print(json.dumps({"correct": total_wrong == 0,
                      "attempted": total_attempted, "failed": total_failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
