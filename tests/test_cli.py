import json
from pathlib import Path

import pytest

import drsubmax
import drsubmax.cli
from drsubmax.cli import InstanceError, main, parse_instance
from drsubmax.report import GuessExhausted, InvariantViolation

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "linear_packing.json"


def test_every_exported_name_resolves():
    assert [name for name in drsubmax.__all__
            if not hasattr(drsubmax, name)] == []


def test_fixture_parses():
    inst = parse_instance(FIXTURE.read_bytes())
    assert inst.constraint["n"] == 2
    assert inst.constraint["m"] == 1
    assert inst.eps == 0.05
    assert inst.known_opt == 0.95


def test_malformed_json_reports_line():
    with pytest.raises(InstanceError, match="line"):
        parse_instance(b'{"objective": }')


def test_negative_weight_rejected_with_path():
    bad = json.loads(FIXTURE.read_text())
    bad["objective"]["weights"][1] = -1.0
    with pytest.raises(InstanceError, match="objective"):
        parse_instance(json.dumps(bad))


def test_unsorted_triplets_rejected():
    bad = json.loads(FIXTURE.read_text())
    bad["constraint"]["triplets"] = [[0, 1, 1.0], [0, 0, 1.0]]
    with pytest.raises(InstanceError, match="sorted"):
        parse_instance(json.dumps(bad))


def test_duplicate_triplets_rejected():
    bad = json.loads(FIXTURE.read_text())
    bad["constraint"]["triplets"] = [[0, 0, 1.0], [0, 0, 2.0]]
    with pytest.raises(InstanceError, match="sorted|duplicate"):
        parse_instance(json.dumps(bad))


def test_non_laminar_family_rejected():
    bad = {"objective": {"kind": "linear", "weights": [1, 1, 1]},
           "constraint": {"type": "polymatroid", "kind": "laminar", "n": 3,
                          "sets": [[0, 1], [1, 2]], "caps": [1, 1]},
           "eps": 0.05}
    with pytest.raises(InstanceError, match="laminar"):
        parse_instance(json.dumps(bad))


def test_solve_packing_exit_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["solve-packing", str(FIXTURE), "--guess", "0.95",
                 "--report", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 1
    assert rep["feasible"] is True
    assert rep["termination"] == "converged"
    assert rep["slack"] <= 1 - 2 * 0.05 + 1e-9


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["solve-packing", str(FIXTURE), "--guess", "0.95",
                     "--report", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flags, builds", [
    ([], (1, 1)),
    # another eps normalizes the matrix again; the objective is kept
    (["--eps", "0.04"], (1, 2)),
], ids=["instance-eps", "other-eps"])
def test_cli_builds_the_instance_once(monkeypatch, capsys, flags, builds):
    # parse_instance builds the objective and the packing constraint to
    # check the data; the solve reuses both
    counts = {"linear": 0, "normalize_packing": 0}
    for owner, name in ((drsubmax.cli.ObjectiveSpec, "linear"),
                        (drsubmax.cli, "normalize_packing")):
        def counted(*args, _real=getattr(owner, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)
    assert main(["solve-packing", str(FIXTURE), *flags]) == 0
    assert (counts["linear"], counts["normalize_packing"]) == builds


def test_eps_out_of_range_rejected(capsys):
    code = main(["solve-packing", str(FIXTURE), "--eps", "0.5"])
    assert code == 1
    assert "0.05" in capsys.readouterr().err


def test_oversized_guess_maps_to_exit_2(capsys):
    code = main(["solve-packing", str(FIXTURE), "--guess", "95"])
    assert code == 2


def test_missing_instance_file_maps_to_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve-packing", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing.json" in err


@pytest.mark.parametrize("error, code", [(GuessExhausted, 2),
                                         (InvariantViolation, 3)])
def test_solver_errors_map_to_their_exit_codes(monkeypatch, capsys, error,
                                               code):
    def fail(*args, **kwargs):
        raise error("the solver failed")
    monkeypatch.setattr(drsubmax.cli, "solve_with_guessing", fail)
    assert main(["solve-packing", str(FIXTURE)]) == code
    assert capsys.readouterr().err == "error: the solver failed\n"


def test_wrong_constraint_type_rejected(capsys):
    code = main(["solve-matroid", str(FIXTURE)])
    assert code == 1


def test_solve_matroid_end_to_end(tmp_path, capsys):
    inst = {"objective": {"kind": "coverage", "weights": [1, 1, 1],
                          "covers": [[0], [1], [2]]},
            "constraint": {"type": "polymatroid", "kind": "uniform",
                           "n": 3, "k": 2},
            "eps": 0.05, "seed": 0}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code = main(["solve-matroid", str(path), "--guess", "2.0"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["feasible"] is True


def test_monotone_flag_incompatibility(tmp_path, capsys):
    inst = {"objective": {"kind": "directed-cut", "n": 2,
                          "arcs": [[0, 1, 1.0]]},
            "constraint": {"type": "polymatroid", "kind": "uniform",
                           "n": 2, "k": 1},
            "eps": 0.05}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    assert main(["solve-matroid", str(path), "--monotone", "true",
                 "--guess", "1.0"]) == 1


def test_verify_on_fixture(capsys):
    code = main(["verify", str(FIXTURE)])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["value"] >= (1 - 2.718281828 ** -0.5) * rep["guess_used"] * 0.999
    assert rep["opt"] == pytest.approx(0.95, abs=0.02)


def test_verify_honours_guess(capsys):
    code = main(["verify", str(FIXTURE), "--guess", "95"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["guess_used"] == 95.0


def _packing_row(weights):
    """A linear objective on one packing row over len(weights) columns."""
    n = len(weights)
    return {"objective": {"kind": "linear", "weights": weights},
            "constraint": {"type": "packing", "m": 1, "n": n,
                           "triplets": [[0, j, 1.0] for j in range(n)]},
            "eps": 0.05}


def _coverage_uniform(weights, n, k):
    """Coverage of item 0 by every element, on the uniform matroid (n, k)."""
    return {"objective": {"kind": "coverage", "weights": weights,
                          "covers": [[0]] * n},
            "constraint": {"type": "polymatroid", "kind": "uniform",
                           "n": n, "k": k},
            "eps": 0.05}


@pytest.mark.parametrize("inst, match", [
    (_packing_row([1.0] * 5), "n <= 4, got 5"),
    (_coverage_uniform([1.0], 21, 2), "n <= 20, got 21"),
], ids=["grid-n5", "subset-enum-n21"])
def test_verify_rejects_instances_too_large_for_its_oracle(
        monkeypatch, tmp_path, capsys, inst, match):
    def never(*args, **kwargs):
        pytest.fail("verify solved an instance its oracle cannot check")
    monkeypatch.setattr(drsubmax.cli, "solve_with_guessing", never)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: constraint.n:") and match in err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("inst", [_packing_row([0.0, 0.0]),
                                  _coverage_uniform([0.0], 2, 1)],
                         ids=["linear-packing", "coverage-matroid"])
def test_verify_ratio_is_null_when_opt_is_zero(tmp_path, capsys, inst):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    assert main(["verify", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert rep["opt"] == 0.0
    assert rep["ratio"] is None


def _set(path, value):
    """The fixture's text with the field at `path` set to `value`."""
    def mutate(data):
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        node[last] = value
        return json.dumps(data)
    return mutate


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("mutate, match", [
    (_set(["objective", "weights", 0], NAN), "non-finite"),
    (_set(["objective", "weights", 1], INF), "non-finite"),
    (_set(["constraint", "triplets", 0, 2], -INF), "non-finite"),
    (lambda data: json.dumps(data).replace('"weights": [1.0, 1.0]',
                                           '"weights": [1e999, 1.0]'),
     "non-finite"),
    (_set(["constraint"], {"type": "polymatroid", "kind": "uniform",
                           "n": 2, "k": NAN}), "non-finite"),
    (_set(["constraint", "m"], 1.0), "constraint.m"),
    (_set(["constraint", "n"], "2"), "constraint.n"),
    (_set(["objective", "weights"], [1.0, 1.0, 1.0]), "constraint.n"),
    (_set(["seed"], "abc"), "seed"),
    (_set(["seed"], 1.7), "seed"),
    # rejected before the dense matrix is allocated
    pytest.param(_set(["constraint", "m"], 10**12), "constraint.m", id="huge-m"),
    pytest.param(_set(["constraint", "n"], 10**12), "constraint.n", id="huge-n"),
    # m * n = 3,200 fits, but the non-monotone solver's box rows would make
    # (m + n) * n = 10,243,200 entries; rejected before they are allocated
    pytest.param(lambda data: json.dumps({
        "objective": {"kind": "linear", "weights": [1.0] * 3200},
        "constraint": {"type": "packing", "m": 1, "n": 3200,
                       "triplets": [[0, j, 1.0] for j in range(3200)]},
        "eps": 0.05}), "box rows", id="huge-box-rows"),
    (_set(["constraint"], {"type": "polymatroid", "kind": [], "n": 2}),
     "constraint.kind"),
    # rejected before the dense (sets x n) incidence is allocated
    pytest.param(_set(["constraint"], {"type": "polymatroid", "kind": "uniform",
                                       "n": 10**12, "k": 1}),
                 "incidence entries", id="huge-uniform-n"),
    pytest.param(_set(["constraint"], {"type": "polymatroid", "kind": "partition",
                                       "n": 10**12, "parts": [[0], [1]],
                                       "caps": [1, 1]}),
                 "incidence entries", id="huge-partition-n"),
])
def test_bad_instance_values_rejected(tmp_path, capsys, mutate, match):
    text = mutate(json.loads(FIXTURE.read_text()))
    path = tmp_path / "inst.json"
    path.write_text(text)
    command = ("solve-packing" if '"packing"' in text else "solve-matroid")
    # the other cases fail at parse time, before the flag is read
    assert main([command, str(path), "--guess", "0.95",
                 "--monotone", "false"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err


@pytest.mark.parametrize("flags", [["--max-iters", "0"], ["--max-iters", "-3"],
                                   ["--guess", "abc"], ["--guess", "nan"],
                                   ["--guess", "-1"]])
def test_bad_flag_values_rejected(capsys, flags):
    assert main(["solve-packing", str(FIXTURE)] + flags) == 1
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("flags, match", [
    # the ladder would hold ~1e300 guesses: rejected before it is built
    (["--eps", "1e-300"], "ladder of more than"),
    # the iteration cap's eps^2 underflows: rejected before the solve
    (["--eps", "1e-300", "--guess", "1", "--max-iters", "1"], "iteration cap"),
])
def test_tiny_eps_rejected_up_front(capsys, flags, match):
    assert main(["solve-packing", str(FIXTURE)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err


def _uniform_matroid(objective, n, k):
    return {"objective": objective,
            "constraint": {"type": "polymatroid", "kind": "uniform",
                           "n": n, "k": k},
            "eps": 0.05}


@pytest.mark.parametrize("inst, path", [
    (_uniform_matroid({"kind": "linear", "weights": [1.0, 2.0]}, 2, True),
     "constraint.k"),
    (_uniform_matroid({"kind": "directed-cut", "n": 2,
                       "arcs": [[False, True, 1.0]]}, 2, 1),
     "objective.arcs[0][0]"),
    (_uniform_matroid({"kind": "directed-cut", "n": 2,
                       "arcs": [[0, 1, True]]}, 2, 1),
     "objective.arcs[0][2]"),
    (_uniform_matroid({"kind": "linear", "weights": [True, False]}, 2, 1),
     "objective.weights[0]"),
    (_uniform_matroid({"kind": "coverage", "weights": [1.0],
                       "covers": [[True]]}, 1, 1),
     "objective.covers[0][0]"),
    ({**_packing_row([1.0]), "constraint": {
        "type": "packing", "m": 1, "n": 1, "triplets": [[0, 0, True]]}},
     "constraint.triplets[0][2]"),
    ({**_packing_row([1.0]), "eps": True}, "eps"),
], ids=["k", "arc-ends", "arc-weight", "weights", "covers", "triplet-value",
        "eps"])
def test_json_booleans_rejected_with_their_field(tmp_path, capsys, inst, path):
    # Python counts true as 1: each of these solved with exit 0
    file = tmp_path / "inst.json"
    file.write_text(json.dumps(inst))
    command = ("solve-packing" if inst["constraint"]["type"] == "packing"
               else "solve-matroid")
    assert main([command, str(file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: JSON booleans are not accepted in an instance\n"


_EMPTY_PACKING = {"objective": {"kind": "linear", "weights": []},
                  "constraint": {"type": "packing", "m": 1, "n": 0,
                                 "triplets": []},
                  "eps": 0.05}
_EMPTY_CUT_PACKING = {"objective": {"kind": "directed-cut", "n": 0, "arcs": []},
                      "constraint": {"type": "packing", "m": 0, "n": 0,
                                     "triplets": []},
                      "eps": 0.05}
_EMPTY_MATROID = _uniform_matroid({"kind": "coverage", "weights": [1.0],
                                   "covers": []}, 0, 1)


@pytest.mark.parametrize("inst, command", [
    (_EMPTY_PACKING, "solve-packing"),
    (_EMPTY_CUT_PACKING, "solve-packing"),
    (_EMPTY_MATROID, "solve-matroid"),
], ids=["linear-packing", "cut-packing", "coverage-matroid"])
def test_empty_ground_set(tmp_path, capsys, inst, command):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    # the ladder reports the zero solution
    assert main([command, str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["solution"], rep["value"], rep["termination"]) == (
        [], 0.0, "converged")
    assert rep["notes"] == ["all singleton values are zero"]
    assert main(["verify", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["value"], rep["opt"], rep["ratio"]) == (0.0, 0.0, None)
    # one guess has nothing to solve
    for cmd in (command, "verify"):
        assert main([cmd, str(path), "--guess", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: constraint.n: ") and "n >= 1" in err


@pytest.mark.parametrize("known_opt", [{"a": [1, "x"]}, "abc", -1.0, None,
                                       [0.95]],
                         ids=["object", "string", "negative", "null", "list"])
def test_known_opt_must_be_a_non_negative_number(tmp_path, capsys, known_opt):
    # each of these used to verify with exit 0 (all but null were copied
    # into the report)
    data = json.loads(FIXTURE.read_text())
    data["known_opt"] = known_opt
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: known_opt: expected a non-negative finite number, "
                   f"got {known_opt!r}\n")
    for ok in (0, 2, 0.5):
        data["known_opt"] = ok
        assert parse_instance(json.dumps(data)).known_opt == ok
