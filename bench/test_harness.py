"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import NO_PARENT, Tracer, self_times  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0,10] holds a [1,4] (which holds [2,3]) and b [5,9]
    parent = [NO_PARENT, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    own = self_times(parent, start, end)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0  # self times partition the root


def test_self_time_counts_only_the_covered_part():
    # a child reaching past its parent's end covers only [8, 10]
    own = self_times([NO_PARENT, 0], [0.0, 8.0], [10.0, 12.0])
    assert own.tolist() == [8.0, 4.0]


def test_tracer_records_parents_and_restores_originals():
    class Box:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.inner()

    original = Box.__dict__["inner"]
    tracer = Tracer()
    tracer.patch(Box, "outer", "box.outer")
    tracer.patch(Box, "inner", "box.inner", annotate=lambda r: r * 10)
    assert Box().outer() == 2
    tracer.uninstall()
    assert Box.__dict__["inner"] is original
    name_idx, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name_idx] == ["box.outer", "box.inner",
                                                    "box.inner"]
    assert parent.tolist() == [NO_PARENT, 0, 0]
    assert tracer.info == {1: 10, 2: 10}
    own = self_times(parent, start, end)
    assert own.sum() == pytest.approx(end[0] - start[0])


def test_set_wall_sums_per_case_medians():
    outcomes = [(0, run.Outcome(1.0)), (1, run.Outcome(4.0)),
                (0, run.Outcome(3.0)), (0, run.Outcome(2.0))]
    # case 0's median is 2, case 1's only sample is 4
    assert run.set_wall([None, None], outcomes) == 6.0


def test_end_to_end_p50_and_sample_count_use_complete_passes():
    cases = [W.Case("a", W.MATROID_MONO, {}, {}, reference=2.0),
             W.Case("b", W.MATROID_MONO, {}, {}, reference=4.0)]
    wl = run.Workload("w", cases, None, [], [])
    wl.outcomes = [(0, run.Outcome(1.0, value=1.0, rounds=5)),
                   (1, run.Outcome(5.0, value=1.0, rounds=7)),
                   (0, run.Outcome(2.0, value=1.0, rounds=5)),
                   (1, run.Outcome(6.0, value=1.0, rounds=7)),
                   (0, run.Outcome(0.5, value=1.0, rounds=5))]
    wl.pairs = [(i, o.seconds, ref) for (i, o), ref
                in zip(wl.outcomes, (2.0, 5.0, 2.0, 4.0, 1.0))]
    # the third pass is partial: its 0.5 s stays out of the pool
    assert run.pass_samples(wl) == [1.0, 5.0, 2.0, 6.0]
    m, shown = run.end_to_end(wl, [0.3, 0.1, 0.2])
    assert shown["solve_s_p50"] == (3.5, "s")
    assert shown["wall_s"] == (1.0 + 5.5, "s")
    assert shown["seed_solver.wall_s"] == (2.0 + 4.5, "s")
    # ratios: case a 0.5, 1, 0.5 (median 0.5, seed median 2 s);
    # case b 1, 1.5 (median 1.25, seed median 4.5 s)
    assert m["wall_rel"] == (pytest.approx((2.0 * 0.5 + 4.5 * 1.25) / 6.5), "x")
    assert m["solve_rel_p50"] == (1.0, "x")
    assert m["setup_s"] == (0.2, "s")
    assert m["ratio_min"] == (0.25, "ratio")
    assert m["ratio_mean"] == (0.375, "ratio")
    assert m["adaptive_rounds_max"] == (7.0, "rounds")
    assert m["adaptive_rounds_mean"] == (6.0, "rounds")


def test_generation_is_seeded():
    (a, held_a), (b, held_b) = (W.generate(W.MATROID_CUT, 5),
                                W.generate(W.MATROID_CUT, 5))
    c, held_c = W.generate(W.MATROID_CUT, 6)
    assert [x.objective for x in a + held_a] == [x.objective for x in b + held_b]
    assert np.array_equal(a[-1].A, b[-1].A)
    assert a[0].objective != c[0].objective
    assert held_a[0].objective != held_c[0].objective
    texts = [x.text for x in W.generate(W.PACKING_LADDER, 5)[0]]
    assert all(texts)
    assert texts == [x.text for x in W.generate(W.PACKING_LADDER, 5)[0]]


def test_relabelling_keeps_the_problem():
    rng = np.random.default_rng(3)
    case = W.Case("c", W.MATROID_NONMONO, W._cut(rng, 16, 48),
                  W._partition(16, 4, 2))
    moved = W.relabel(case, rng)
    assert moved.constraint["parts"] != case.constraint["parts"]
    assert sorted(i for part in moved.constraint["parts"] for i in part) \
        == list(range(16))
    assert W.greedy_value(moved.objective, moved.constraint) == pytest.approx(
        W.greedy_value(case.objective, case.constraint))
    A = rng.uniform(0.3, 1.5, size=(3, 4))
    ladder = W.Case("p", W.CLI_LADDER, {"kind": "linear",
                                        "weights": [1.0, 2.0, 3.0, 4.0]},
                    W._packing_constraint(A), A=A)
    moved = W.relabel(ladder, rng)
    # the same columns, renumbered, with the weights following their columns
    cols = {tuple(sorted(A[:, j])): w for j, w in enumerate([1.0, 2.0, 3.0, 4.0])}
    for j, w in enumerate(moved.objective["weights"]):
        assert cols[tuple(sorted(moved.A[:, j]))] == w
    assert moved.text


def test_checks_reject_bad_outputs():
    case = W.Case("p", W.MATROID_MONO, {"kind": "coverage", "weights": [1.0],
                                        "covers": [[0], [0], [0]]},
                  W._partition(3, 3, 1))
    assert W.feasibility_error(case, np.array([0.5, 0.5, 0.0])) == ""
    assert "cap" in W.feasibility_error(case, np.array([0.5, 0.6, 0.0]))
    assert "negative" in W.feasibility_error(case, np.array([-0.1, 0.0, 0.0]))
    packing = W.Case("q", W.CLI_LADDER, {"kind": "linear", "weights": [1, 1]},
                     {}, A=np.array([[1.0, 1.0]]))
    assert W.feasibility_error(packing, np.array([0.45, 0.45])) == ""
    assert "max(Ax)" in W.feasibility_error(packing, np.array([0.5, 0.45]))
    assert W.value_error(1.0, 1.0) == ""
    assert W.value_error(1.0, 1.1) != ""
    assert W.value_error(float("nan"), 1.0) != ""


def test_greedy_reference_is_feasible_and_exact_on_tiny_case():
    objective = {"kind": "coverage", "weights": [1.0, 2.0, 4.0],
                 "covers": [[0], [1], [2], [1, 2]]}
    # best rank-1 choice is element 3 (covers 6.0); rank 2 adds element 0
    assert W.greedy_value(objective, W._uniform(4, 1)) == 6.0
    assert W.greedy_value(objective, W._uniform(4, 2)) == 7.0


def _tiny_workload():
    rng = np.random.default_rng(0)
    case = W.Case("tiny", W.MATROID_NONMONO, W._cut(rng, 8, 24),
                  W._uniform(8, 3))
    W.attach_references([case], None)
    dm, built, setup_times = run.set_up([case])
    return dm, run.Workload("tiny", [case], dm, built, [None])


def test_untraced_run_leaves_no_wrapper():
    dm, wl = _tiny_workload()
    wl.run_passes(0, passes=1)
    assert dm.packing_solver.smax is dm.softmax.smax
    assert dm.solve_matroid_nonmonotone is dm.matroid_solver.solve_matroid_nonmonotone
    assert not (wl.outcomes[0][1].failure or wl.outcomes[0][1].wrong)

    before = {cls: dict(vars(cls))
              for cls in (dm.ObjectiveSpec, dm.PolymatroidInstance)}
    tracer = Tracer()
    run.install(tracer, dm)
    assert dm.packing_solver.smax is not dm.softmax.smax
    try:
        wl.run_passes(0, passes=1)
    finally:
        tracer.uninstall()
    assert dm.packing_solver.smax is dm.softmax.smax
    assert dm.guessing.solve_packing_monotone is dm.packing_solver.solve_packing_monotone
    assert all(dict(vars(cls)) == attrs for cls, attrs in before.items())
    names = {tracer.names[i] for i in tracer.arrays()[0]}
    assert "matroid_solver.solve_matroid_nonmonotone" in names
    assert "polymatroid.waterfill" in names
    # the traced pass gives the same answer as the untraced one
    assert wl.outcomes[1][1].value == wl.outcomes[0][1].value


def test_paired_passes_time_the_frozen_seed_solver():
    dm, wl = _tiny_workload()
    wl.seed = run.import_seed_solver()
    wl.seed_built = [run.build(wl.seed, case) for case in wl.cases]
    wl.setup_times = []
    assert wl.seed.ObjectiveSpec is not dm.ObjectiveSpec
    assert wl.seed.__name__ == "drsubmax_seed"
    wl.run_passes(0, passes=2, paired=True)
    assert [i for i, _, _ in wl.pairs] == [0, 0]
    assert all(own > 0 and ref > 0 for _, own, ref in wl.pairs)
    assert len(wl.setup_times) == 2  # with no time to spread over, one per pair
    assert not any(o.failure or o.wrong for _, o in wl.outcomes)
    # the re-imports of the set-up repetitions leave the built objects usable
    assert wl.solve(0).value == wl.outcomes[0][1].value
