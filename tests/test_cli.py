import dataclasses
import json
import os
import stat

import numpy as np
import pytest

from nclp.cli import main
from nclp.compop import build_composition
from nclp.jordan import identity_morphism, transpose_morphism
from nclp.matcore import BlockProfile
from nclp.sampling import generator, unitary
from nclp.vnops import Weight


def c2(z):
    return [float(np.real(z)), float(np.imag(z))]


def diag_weight_json(values):
    n = len(values)
    block = [[c2(values[i] if i == j else 0.0) for j in range(n)] for i in range(n)]
    return [block]


BASE_SPEC = {
    "algebra1": [2],
    "algebra2": [2],
    "weight1": diag_weight_json([0.5, 0.5]),
    "weight2": diag_weight_json([0.8, 0.2]),
    "morphism": {"tiles": [{"src": 0, "dst": 0, "offset": 0, "kind": "H"}]},
    "measure_space": {
        "atoms1": ["a", "b"],
        "masses1": [0.5, 0.5],
        "atoms2": ["x", "y", "z"],
        "masses2": [1 / 3, 1 / 3, 1 / 3],
        "map": {"x": "a", "y": "a", "z": "b"},
    },
    "exponents": {"p": "2", "q": "1"},
}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(BASE_SPEC))
    return str(path)


def run(args):
    return main(args)


def machine_report(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--format", "machine", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_check_jordan_pass(spec_path, tmp_path):
    code, report = machine_report(tmp_path, ["check-jordan", spec_path])
    assert code == 0
    assert report["results"]["verdict"] == "PASS"
    assert report["results"]["max_residual"] < 1e-9


def test_check_jordan_malformed_tile(tmp_path):
    bad = dict(BASE_SPEC)
    bad["morphism"] = {"tiles": [{"src": 0, "dst": 0, "offset": 1, "kind": "H"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["check-jordan", str(path)]) == 1


def test_norm_prints_bound(spec_path, tmp_path):
    code, report = machine_report(tmp_path, ["norm", spec_path, "--p", "2", "--q", "1"])
    assert code == 0
    results = report["results"]
    assert results["norm_lower_bound"] <= results["change_of_weights_bound"] + 1e-6
    assert results["change_of_weights_bound"] == pytest.approx(1.166190, abs=1e-6)
    assert results["within_bound"] is True
    assert results["restarts_capped"] == 0
    assert results["status"] == "exact"
    assert results["norm_upper_bound"] == results["norm_lower_bound"]
    assert set(results) == {
        "p", "q", "norm_lower_bound", "norm_upper_bound", "status", "norm_source", "certified",
        "restarts_capped", "change_of_weights_bound", "within_bound"}
    assert results["norm_source"] == "positive-endpoint"


def test_norm_reports_the_bound_for_a_corner_morphism(tmp_path):
    # [2] into offset 1 of [3]: not onto, yet the change-of-weights bound
    # holds, and under a diagonal weight2 it is the norm
    spec = dict(BASE_SPEC, algebra2=[3], weight2=diag_weight_json([0.5, 0.3, 0.2]))
    spec["morphism"] = {"tiles": [{"src": 0, "dst": 0, "offset": 1, "kind": "H"}]}
    path = tmp_path / "corner.json"
    path.write_text(json.dumps(spec))
    code, report = machine_report(tmp_path, ["norm", str(path), "--p", "3", "--q", "1.5"])
    results = report["results"]
    assert code == 0 and results["within_bound"] is True
    assert results["change_of_weights_bound"] == pytest.approx(0.638250429886, abs=1e-12)
    assert results["norm_lower_bound"] == results["change_of_weights_bound"]


def test_norm_identity_certified(tmp_path):
    spec = dict(BASE_SPEC)
    spec["weight2"] = diag_weight_json([0.5, 0.5])
    path = tmp_path / "id.json"
    path.write_text(json.dumps(spec))
    code, report = machine_report(tmp_path, ["norm", str(path), "--p", "2", "--q", "2"])
    assert code == 0
    assert report["results"]["certified"] is True
    assert report["results"]["norm_lower_bound"] == pytest.approx(1.0, abs=1e-9)


def test_norm_refuses_reversed_exponents(spec_path):
    assert main(["norm", spec_path, "--p", "1", "--q", "2"]) == 2


def test_norm_zero_restarts_is_a_usage_error(spec_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    for restarts in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["norm", spec_path, "--restarts", restarts, "--out", str(out)])
        assert exc.value.code == 2
        assert "--restarts" in capsys.readouterr().err
    assert not out.exists()


def test_norm_negative_seed_is_a_usage_error(tmp_path, capsys):
    # [2] into [4] as an H tile and an A tile: no closed form, so the
    # maximiser would seed its restarts from the negative seed
    spec = dict(BASE_SPEC, algebra2=[4], weight2=diag_weight_json([0.4, 0.3, 0.2, 0.1]),
                morphism={"tiles": [{"src": 0, "dst": 0, "offset": 0, "kind": "H"},
                                    {"src": 0, "dst": 0, "offset": 2, "kind": "A"}]})
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["norm", str(path), "--p", "4", "--q", "4", "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_check_jordan_zero_samples_is_a_usage_error(spec_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    for samples in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["check-jordan", spec_path, "--samples", samples, "--out", str(out)])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err
    assert not out.exists()


def test_samples_is_not_an_option(spec_path, capsys):
    # the Jordan laws are decided exactly, so there is nothing to sample
    with pytest.raises(SystemExit) as exc:
        main(["check-jordan", spec_path, "--samples", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples" in capsys.readouterr().err


def classify_spec():
    """BASE_SPEC with the superoperator of the transpose map at (2, 1), and its matrix."""
    prof = BlockProfile([2])
    w1 = Weight.diagonal(prof, [0.5, 0.5])
    w2 = Weight.diagonal(prof, [0.8, 0.2])
    mat = build_composition(transpose_morphism(prof), w1, w2, 2, 1).matrix()
    spec = dict(BASE_SPEC)
    spec["superoperator"] = {"matrix": [[c2(z) for z in row] for row in mat]}
    return spec, mat


def test_classify_accept_and_reject(tmp_path):
    spec, mat = classify_spec()
    path = tmp_path / "cls.json"
    path.write_text(json.dumps(spec))
    code, report = machine_report(tmp_path, ["classify", str(path), "--p", "2", "--q", "1"])
    assert code == 0
    assert report["results"]["verdict"] == "ACCEPT"
    assert report["results"]["tiles"][0]["kind"] == "A"
    assert report["results"]["basis_pairs_checked"] == 4 * 5 // 2
    assert "probes_used" not in report["results"]

    perturbed = np.array(mat) + 0.05 * np.eye(4)
    spec["superoperator"] = {"matrix": [[c2(z) for z in row] for row in perturbed]}
    path2 = tmp_path / "cls_bad.json"
    path2.write_text(json.dumps(spec))
    code2, report2 = machine_report(tmp_path, ["classify", str(path2), "--p", "2", "--q", "1"], name="r2.json")
    assert code2 == 2
    assert report2["results"]["verdict"] == "REJECT"
    assert report2["results"]["witness_residual"] > 1e-7
    assert report2["results"]["basis_pairs_checked"] == 4 * 5 // 2
    # the witness is a projection (to the report's 12 digits), its image is not
    e = np.array(report2["results"]["witness_projection"][0])
    e = e[..., 0] + 1j * e[..., 1]
    assert np.linalg.norm(e @ e - e) < 1e-9 and np.linalg.norm(e - e.conj().T) < 1e-9
    f = np.array(report2["results"]["witness_image"][0])
    f = f[..., 0] + 1j * f[..., 1]
    assert max(np.linalg.norm(f @ f - f), np.linalg.norm(f - f.conj().T)) > 1e-7


def test_classify_dimension_error(tmp_path):
    spec = dict(BASE_SPEC)
    spec["superoperator"] = {"matrix": [[c2(0.0)] * 3] * 4}
    path = tmp_path / "cls_dim.json"
    path.write_text(json.dumps(spec))
    assert main(["classify", str(path), "--p", "2", "--q", "1"]) == 1


def test_classify_a_rounding_hair_off_the_base_operator_ends_in_a_verdict(tmp_path, capsys):
    prof = BlockProfile([2])
    w1 = Weight.diagonal(prof, [0.5, 0.5])
    w2 = Weight.diagonal(prof, [0.8, 0.2])
    mat = np.array(build_composition(identity_morphism(prof), w1, w2, 2, 1).matrix())
    rng = np.random.default_rng(0)
    mat += 1e-9 * np.abs(mat).max() * (rng.standard_normal(mat.shape)
                                        + 1j * rng.standard_normal(mat.shape))
    path = tmp_path / "near.json"
    path.write_text(json.dumps(dict(BASE_SPEC, superoperator={
        "matrix": [[c2(z) for z in row] for row in mat]})))
    code, report = machine_report(tmp_path, ["classify", str(path), "--p", "2", "--q", "1"])
    assert code in (0, 2)
    assert report["results"]["verdict"] in ("ACCEPT", "REJECT")
    assert not any(line.startswith("refused:") for line in capsys.readouterr().err.splitlines())


def test_superoperator_parse_errors_name_their_path(tmp_path, capsys):
    # [2] into [3]: 9 rows of 4 entries
    spec = dict(BASE_SPEC, algebra2=[3], weight2=diag_weight_json([0.5, 0.3, 0.2]))
    row = [c2(0.0)] * 4
    bad_entry = [row] * 9
    bad_entry[1] = row[:2] + [[1.0]] + row[3:]
    for matrix, where, message in (
        ([row] * 8, "superoperator.matrix", "expected 9 rows"),
        ([row] * 8 + [row[:3]], "superoperator.matrix[8]", "expected 4 entries"),
        (bad_entry, "superoperator.matrix[1][2]", "complex entries must be [re, im] pairs"),
    ):
        path = tmp_path / "superop.json"
        path.write_text(json.dumps(dict(spec, superoperator={"matrix": matrix})))
        assert main(["classify", str(path), "--p", "2", "--q", "1"]) == 1
        assert capsys.readouterr().err == f"input error: {where}: {message}\n"


def test_change_of_weights_report(spec_path, tmp_path):
    code, report = machine_report(
        tmp_path, ["change-of-weights", spec_path, "--p", "2", "--q", "1"]
    )
    assert code == 0
    assert report["results"]["bound"] == pytest.approx(1.166190, abs=1e-6)
    d = report["results"]["d"]
    assert d[0][0][0][0] == pytest.approx(1.063659, abs=1e-6)


def test_change_of_weights_scale_mode(spec_path, tmp_path):
    code, report = machine_report(
        tmp_path, ["change-of-weights", spec_path, "--r", "2"]
    )
    assert code == 0
    assert report["results"]["all_ok"] is True
    assert len(report["results"]["entries"]) == 2


def test_classical_report(spec_path, tmp_path):
    code, report = machine_report(tmp_path, ["classical", spec_path])
    assert code == 0
    results = report["results"]
    assert results["r"] == "2"
    assert results["f_norm_r"] == pytest.approx(1.054093, abs=1e-6)
    assert results["pipeline_residual"] < 1e-10
    assert results["all_ok"] is True


def test_classical_builds_its_operator_once(tmp_path, monkeypatch):
    # one pushforward, one direct map plus the five stages, no maximiser
    # run, and no pair check on the unitary-free point-map morphism
    from nclp import classical, cli, compop, jordan

    modules = (classical, cli, compop, jordan)
    counts = dict.fromkeys(["pushforward", "_index_map", "jordan_defect", "operator_norm"], 0)
    for name in counts:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for m in modules:
            if getattr(m, name, None) is original:
                monkeypatch.setattr(m, name, counted)
    spec = json.loads(json.dumps(BASE_SPEC))
    atoms1 = [f"a{j}" for j in range(14)]
    atoms2 = [f"b{j}" for j in range(17)]
    spec["measure_space"] = {
        "atoms1": atoms1, "masses1": [0.1 + 0.13 * j for j in range(14)],
        "atoms2": atoms2, "masses2": [1.9 - 0.1 * j for j in range(17)],
        "map": {atoms2[j]: atoms1[j % 14] for j in range(16)},
    }
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(spec))
    code, report = machine_report(tmp_path, ["classical", str(path), "--p", "3", "--q", "1.5"])
    assert code == 0 and report["results"]["all_ok"] is True
    assert counts == {"pushforward": 1, "_index_map": 6, "jordan_defect": 0, "operator_norm": 0}


def test_classical_when_an_atom_label_holds_a_bar(tmp_path):
    spec = json.loads(json.dumps(BASE_SPEC))
    spec["measure_space"] = {
        "atoms1": ["X", "Y"], "masses1": [0.5, 0.7],
        "atoms2": ["a|b", "a", "b"], "masses2": [0.3, 0.2, 0.6],
        "map": {"a|b": "X", "a": "Y", "b": "Y"},
    }
    path = tmp_path / "bar.json"
    path.write_text(json.dumps(spec))
    code, report = machine_report(tmp_path, ["classical", str(path), "--p", "2", "--q", "1"])
    assert code == 0 and report["results"]["all_ok"] is True


def test_check_jordan_runs_the_pair_check_once(tmp_path, monkeypatch):
    # a tile unitary and a block unitary: the constructor checks the frames,
    # and only verify_jordan runs the pair check
    from nclp import compop, jordan

    calls = []
    original = jordan.jordan_defect

    def counted(*args):
        calls.append(1)
        return original(*args)

    for m in (compop, jordan):
        monkeypatch.setattr(m, "jordan_defect", counted)
    rng = generator(31)
    spec = json.loads(json.dumps(BASE_SPEC))
    spec["algebra2"] = [3]
    spec["weight2"] = diag_weight_json([0.5, 0.3, 0.2])
    spec["morphism"] = {
        "tiles": [{"src": 0, "dst": 0, "offset": 1, "kind": "A",
                   "unitary": [[c2(z) for z in row] for row in unitary(2, rng)]}],
        "block_unitaries": [[[c2(z) for z in row] for row in unitary(3, rng)]],
    }
    path = tmp_path / "unitaries.json"
    path.write_text(json.dumps(spec))
    code, report = machine_report(tmp_path, ["check-jordan", str(path)])
    assert code == 0 and report["results"]["verdict"] == "PASS"
    assert len(calls) == 1


def test_classical_gates_on_the_isometry_residual(spec_path, tmp_path, monkeypatch):
    # stage III is an isometry of scale 1, so its residual is held to 1e-10
    from nclp import cli

    pipeline = cli.five_step_pipeline
    monkeypatch.setattr(cli, "five_step_pipeline", lambda C: dataclasses.replace(
        pipeline(C), isometry_residual=1e-6))
    code, report = machine_report(tmp_path, ["classical", spec_path])
    assert code == 2 and report["results"]["all_ok"] is False
    assert report["results"]["isometry_residual"] == 1e-6


def test_classical_rejects_reversed_exponents(spec_path):
    assert main(["classical", spec_path, "--p", "1", "--q", "2"]) == 2


def test_modular_report(spec_path, tmp_path):
    code, report = machine_report(tmp_path, ["modular", spec_path, "--t", "0", "0.5"])
    assert code == 0
    results = report["results"]
    assert results["weights_commute"] is True
    assert results["modular_orbit"][0]["orbit_residual"] == 0.0


@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize("t", ["nan", "inf", "1e999"])
def test_modular_non_finite_t_is_an_input_error(spec_path, tmp_path, capsys, fmt, t):
    out = tmp_path / "report.txt"
    assert main(["modular", spec_path, "--t", "0", t, "--format", fmt, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("input error: --t: ")
    assert not out.exists()


def test_modular_noncommuting(tmp_path):
    spec = dict(BASE_SPEC)
    spec["weight1"] = diag_weight_json([1.0, 2.0])
    spec["weight2"] = [[[c2(2.0), c2(1.0)], [c2(1.0), c2(2.0)]]]
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(spec))
    code, report = machine_report(tmp_path, ["modular", str(path)])
    assert code == 0
    assert report["results"]["weights_commute"] is False
    assert report["results"]["density_commutator_norm"] > 0.1


def test_unknown_section_warning(tmp_path, capsys):
    spec = dict(BASE_SPEC)
    spec["mystery"] = {"a": 1}
    path = tmp_path / "warn.json"
    path.write_text(json.dumps(spec))
    assert main(["check-jordan", str(path)]) == 0
    assert "ignoring unknown section" in capsys.readouterr().err


def test_parse_error_paths(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-jordan", str(path)]) == 1
    # non-psd weight
    spec = dict(BASE_SPEC)
    spec["weight1"] = diag_weight_json([1.0, -1.0])
    path2 = tmp_path / "npsd.json"
    path2.write_text(json.dumps(spec))
    assert main(["norm", str(path2), "--p", "2", "--q", "1"]) == 1
    capsys.readouterr()
    # JSON true and false are not integers, though Python's bool is an int
    tile = {"src": 0, "dst": 0, "offset": 0, "kind": "H"}
    space = BASE_SPEC["measure_space"]
    for command, change, where in (
        ("norm", {"algebra1": [True]}, "algebra1[0]"),
        ("check-jordan", {"algebra2": [2, False]}, "algebra2[1]"),
        ("check-jordan", {"morphism": {"tiles": [dict(tile, offset=False)]}},
         "morphism.tiles[0].offset"),
        ("check-jordan", {"morphism": {"tiles": [dict(tile, src=True)]}},
         "morphism.tiles[0].src"),
        # atoms2 labels are the keys of map, and JSON keys are strings
        ("classical", {"measure_space": dict(space, atoms2=[1, 2, 3],
                                             map={"1": "a", "2": "a", "3": "b"})},
         "measure_space.atoms2[0]"),
        ("classical", {"measure_space": dict(space, atoms2=["x", True, "z"])},
         "measure_space.atoms2[1]"),
        ("classical", {"measure_space": dict(space, atoms1=[True, 1],
                                             map={"x": True, "y": True, "z": 1})},
         "measure_space.atoms1[0]"),
    ):
        path3 = tmp_path / "bool.json"
        path3.write_text(json.dumps(dict(BASE_SPEC, **change)))
        assert main([command, str(path3), "--p", "2", "--q", "1"]) == 1, where
        assert capsys.readouterr().err.startswith(f"input error: {where}: ")
    # numbers are atoms1 labels, as the values of map
    numeric = dict(space, atoms1=[1, 2], map={"x": 1, "y": 1, "z": 2})
    path3.write_text(json.dumps(dict(BASE_SPEC, measure_space=numeric)))
    assert main(["classical", str(path3), "--p", "2", "--q", "1"]) == 0


def _with_measure_field(key, value):
    spec = json.loads(json.dumps(BASE_SPEC))
    spec["measure_space"][key] = value
    return spec


def _with_weight_entry(which, value):
    spec = json.loads(json.dumps(BASE_SPEC))
    spec[which][0][0][0] = value
    return spec


@pytest.mark.parametrize("command, spec, where", [
    ("classical", _with_measure_field("masses1", ["half", 0.5]), "measure_space.masses1[0]"),
    ("classical", _with_measure_field("masses1", [None, 0.5]), "measure_space.masses1[0]"),
    ("classical", _with_measure_field("masses1", [float("nan"), 0.5]), "measure_space.masses1[0]"),
    ("classical", _with_measure_field("masses2", [1 / 3, float("inf"), 1 / 3]),
     "measure_space.masses2[1]"),
    ("classical", _with_measure_field("atoms1", [["a"], "b"]), "measure_space.atoms1[0]"),
    ("classical", _with_measure_field("atoms2", {"x": 1, "y": 2, "z": 3}), "measure_space.atoms2"),
    ("classical", _with_measure_field("masses1", 0.5), "measure_space.masses1"),
    ("norm", _with_weight_entry("weight1", [float("nan"), 0.0]), "weight1[0][0][0]"),
    ("norm", _with_weight_entry("weight2", [0.8, float("-inf")]), "weight2[0][0][0]"),
    ("classical", _with_measure_field("masses1", [True, 0.5]), "measure_space.masses1[0]"),
    ("norm", _with_weight_entry("weight1", [True, 0.0]), "weight1[0][0][0]"),
], ids=["text-mass", "null-mass", "nan-mass", "infinite-mass", "list-atom", "atoms-object",
        "masses-number", "nan-entry", "infinite-entry", "boolean-mass", "boolean-entry"])
def test_malformed_numbers_are_input_errors(tmp_path, capsys, command, spec, where):
    # json reads NaN and Infinity; neither they nor a non-numeric mass or an
    # unhashable atom may escape as a traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main([command, str(path), "--p", "2", "--q", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"input error: {where}: ")


def _with_exponent(name, value):
    spec = json.loads(json.dumps(BASE_SPEC))
    spec["exponents"][name] = value
    return spec


@pytest.mark.parametrize("args, spec, where", [
    (["norm", "--p", "1e400", "--q", "1"], BASE_SPEC, "--p"),
    (["norm"], _with_exponent("p", "1e400"), "exponents.p"),
    (["change-of-weights", "--r", "1e400"], BASE_SPEC, "--r"),
    (["change-of-weights", "--r", "abc"], BASE_SPEC, "--r"),
], ids=["huge-flag", "huge-spec", "huge-ratio", "text-ratio"])
def test_bad_exponents_are_input_errors(tmp_path, capsys, args, spec, where):
    # an exponent too large for a float, or a ratio that does not parse,
    # is an input error, never an OverflowError traceback or a refusal
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(args[:1] + [str(path)] + args[1:]) == 1
    assert capsys.readouterr().err.startswith(f"input error: {where}: ")


_DROP = object()


def _edited(*keys, value):
    """A copy of BASE_SPEC with the entry at `keys` set to `value`, or removed for _DROP."""
    spec = json.loads(json.dumps(BASE_SPEC))
    *head, last = keys
    node = spec
    for key in head:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return spec


_TILE = {"src": 0, "dst": 0, "offset": 0, "kind": "H"}
_PQ = ["--p", "2", "--q", "1"]


@pytest.mark.parametrize("args, spec, where", [
    (["check-jordan"], [BASE_SPEC], "$"),
    (["check-jordan"], None, None),
    (["check-jordan"], _edited("algebra2", value=_DROP), "algebra2"),
    (["norm", *_PQ], _edited("algebra1", value=[]), "algebra1"),
    (["norm", *_PQ], _edited("weight1", value=diag_weight_json([0.5, 0.5]) * 2), "weight1"),
    (["check-jordan"], _edited("morphism", value=[_TILE]), "morphism"),
    (["check-jordan"], _edited("morphism", "tiles", value=_TILE), "morphism.tiles"),
    (["check-jordan"], _edited("morphism", "tiles", value=[[0, 0, 0, "H"]]), "morphism.tiles[0]"),
    (["check-jordan"], _edited("morphism", "tiles", 0, "kind", value="X"),
     "morphism.tiles[0].kind"),
    (["check-jordan"], _edited("morphism", "tiles", 0, value=dict(
        _TILE, src=1, unitary=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]])), "morphism.tiles[0].src"),
    (["check-jordan"], _edited("morphism", "block_unitaries", value=[None, None]),
     "morphism.block_unitaries"),
    (["classical", *_PQ], _edited("measure_space", value=[]), "measure_space"),
    (["classical", *_PQ], _edited("measure_space", "masses2", value=_DROP),
     "measure_space.masses2"),
    (["classical", *_PQ], _edited("measure_space", "masses1", value=[0.5]), "measure_space"),
    (["classical", *_PQ], _edited("measure_space", "map", value=[["x", "a"]]),
     "measure_space.map"),
    (["classical", *_PQ], _edited("measure_space", "map", "x", value="c"), "measure_space.map"),
    (["classify", *_PQ], dict(BASE_SPEC, superoperator={"rows": []}), "superoperator"),
    (["norm"], _edited("exponents", "p", value=_DROP), "exponents.p"),
    (["norm"], _edited("exponents", "p", value=2), "exponents.p"),
    (["classical", *_PQ], _edited("measure_space", "masses1", value=[10 ** 400, 0.5]),
     "measure_space.masses1[0]"),
], ids=["top-level-list", "unreadable-path", "missing-section", "empty-algebra",
        "weight-block-count", "morphism-list", "tiles-object", "tile-list", "tile-kind",
        "unitary-src-range", "block-unitaries-length", "measure-space-list",
        "measure-field-missing", "mass-short", "map-list", "map-target", "no-matrix",
        "exponent-missing", "exponent-number", "huge-integer-mass"])
def test_spec_refusals_name_their_path(tmp_path, capsys, args, spec, where):
    # every refusal is exit 1 with the JSON path (or the spec path itself),
    # no traceback and no report file
    path, out = tmp_path / "spec.json", tmp_path / "report.json"
    if spec is not None:
        path.write_text(json.dumps(spec))
    where = str(path) if where is None else where
    assert main(args[:1] + [str(path)] + args[1:] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {where}: ") and "Traceback" not in err
    assert not out.exists()


def test_modular_with_a_singular_first_weight(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(dict(BASE_SPEC, weight1=diag_weight_json([1.0, 0.0]))))
    code, report = machine_report(tmp_path, ["modular", str(path)])
    assert code == 0
    assert report["results"]["other_density_in_centralizer"] == "weight1 is not faithful"
    assert "modular_orbit" not in report["results"]


def test_change_of_weights_scale_mode_at_infinite_ratio(spec_path, tmp_path):
    code, report = machine_report(tmp_path, ["change-of-weights", spec_path, "--r", "inf"])
    assert code == 0
    assert report["results"]["ratio"] == "inf"
    assert [(e["p"], e["q"]) for e in report["results"]["entries"]] == [("inf", "1"), ("inf", "2")]
    assert report["results"]["all_ok"] is True


def test_human_report_abbreviates_long_nested_lists(tmp_path, capsys):
    # a [13] block: d is one block of 13 rows, shown as a count
    spec = dict(BASE_SPEC, algebra1=[13], weight1=diag_weight_json([0.5] * 13),
                weight2=diag_weight_json([1.0 + k for k in range(13)]))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    assert main(["change-of-weights", str(path), "--p", "2", "--q", "1"]) == 0
    assert "d: [[13 entries]]\n" in capsys.readouterr().out


def test_classical_accepts_infinite_p(spec_path, tmp_path):
    # at (inf, q) the criterion exponent is r = 1: every reported number exists
    for q in ("2", "1", "inf"):
        code, report = machine_report(tmp_path, ["classical", spec_path, "--p", "inf", "--q", q])
        assert code == 0
        results = report["results"]
        assert results["r"] == ("inf" if q == "inf" else "1")
        assert results["measured_norm"] == pytest.approx(results["bound"], rel=1e-9)
        assert results["all_ok"] is True


def test_p_just_above_q_reports(spec_path, tmp_path):
    # the Holder complement r is about 1e7, so the witness (d*d)^{r/p} must
    # not be formed unscaled
    for command in ("norm", "change-of-weights"):
        code, report = machine_report(tmp_path, [command, spec_path,
                                                 "--p", "1.0000001", "--q", "1"])
        assert code == 0
        assert report["results"]["within_bound"] is True


@pytest.mark.parametrize("scale", [s * 10.0 ** k for k in range(-12, 13, 3) for s in (1, 3)])
def test_reports_pass_at_every_scale_of_the_second_weight(tmp_path, scale):
    # every check is relative to the size of what it compares, so scaling
    # weight2 and masses2 by a constant changes no verdict
    scaled = json.loads(json.dumps(BASE_SPEC))
    scaled["weight2"] = diag_weight_json([0.8 * scale, 0.2 * scale])
    scaled["measure_space"]["masses2"] = [scale / 3] * 3
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(scaled))
    code, report = machine_report(tmp_path, ["norm", str(path), "--p", "2", "--q", "1"])
    assert code == 0
    assert report["results"]["within_bound"] is True
    assert report["results"]["status"] == "exact"
    for args, key in ((["--p", "2", "--q", "1"], "within_bound"), (["--r", "2"], "all_ok")):
        code, report = machine_report(tmp_path, ["change-of-weights", str(path)] + args)
        assert code == 0 and report["results"][key] is True, args
    for p, q in (("2", "1"), ("3", "1.5"), ("5", "1.25")):
        code, report = machine_report(tmp_path, ["classical", str(path), "--p", p, "--q", q])
        assert code == 0 and report["results"]["all_ok"] is True, (p, q)


def test_classical_at_a_huge_exponent(spec_path, tmp_path):
    # the maximiser's cross-check must not beat the exact norm at s = 1e300
    code, report = machine_report(tmp_path, ["classical", spec_path, "--p", "1e300", "--q", "1e300"])
    assert code == 0
    assert report["results"]["all_ok"] is True


def test_classical_with_p_just_above_q(spec_path, tmp_path):
    # r = p/(p-q) is about 1e7: f ** r and f ** (1/(p-q)) must not overflow
    code, report = machine_report(tmp_path, ["classical", spec_path,
                                             "--p", "1.0000001", "--q", "1"])
    assert code == 0
    results = report["results"]
    assert results["all_ok"] is True
    # f = (4/3, 2/3) on atoms of mass 1/2: ||f||_r = (4/3) (1/2)^{1/r}
    r = 1.0000001 / 1e-7
    assert results["bound"] == pytest.approx(4 / 3 * 0.5 ** (1 / r), rel=1e-10)
    assert results["measured_norm"] == pytest.approx(results["bound"], rel=1e-10)


def test_non_finite_results_are_refused(spec_path, tmp_path, monkeypatch, capsys):
    # a machine report with inf or nan would not be valid JSON
    from nclp import cli

    def handler(spec, args):
        report = cli.Report("norm", spec, {}, {}, args.seed)
        report.put("finite", 1.0)
        report.put("entries", [{"bound": float("inf")}, {"bound": float("nan")}])
        return report, 0

    out = tmp_path / "report.json"
    assert main(["check-jordan", spec_path, "--format", "machine", "--out", str(out)]) == 0
    before = out.read_bytes()
    monkeypatch.setitem(cli._HANDLERS, "norm", handler)
    fresh = tmp_path / "fresh.json"
    code = main(["norm", spec_path, "--format", "machine", "--out", str(fresh)])
    assert code == 2
    assert not fresh.exists()
    assert "non-finite result in entries" in capsys.readouterr().err
    # the refusal comes before the file is opened: an earlier report stays whole
    assert main(["norm", spec_path, "--format", "machine", "--out", str(out)]) == 2
    assert out.read_bytes() == before


def _without_wall_time(text):
    return [line for line in text.splitlines() if '"wall_time_s"' not in line]


def test_report_written_over_a_longer_one(spec_path, tmp_path):
    # --out writes in place and then cuts the file to the report's length
    out = tmp_path / "report.json"
    args = ["--p", "2", "--q", "1", "--format", "machine"]
    assert main(["change-of-weights", spec_path, *args, "--out", str(out)]) == 0
    longer = out.stat().st_size
    assert main(["check-jordan", spec_path, *args, "--out", str(out)]) == 0
    fresh = tmp_path / "fresh.json"
    assert main(["check-jordan", spec_path, *args, "--out", str(fresh)]) == 0
    assert out.stat().st_size < longer
    assert json.loads(out.read_text())["command"] == "check-jordan"
    assert _without_wall_time(out.read_text()) == _without_wall_time(fresh.read_text())


def test_report_to_a_special_file(spec_path):
    # a file that cannot be truncated is written and not cut
    assert main(["check-jordan", spec_path, "--format", "machine", "--out", "/dev/null"]) == 0


def test_new_report_file_mode(spec_path, tmp_path):
    # a new report file gets the permissions open(path, "w") gives it
    old_mask = os.umask(0o027)
    try:
        with open(tmp_path / "reference.txt", "w"):
            pass
        assert main(["check-jordan", spec_path, "--out", str(tmp_path / "report.txt")]) == 0
    finally:
        os.umask(old_mask)
    mode = stat.S_IMODE((tmp_path / "report.txt").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "reference.txt").stat().st_mode) == 0o640


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_out_is_an_input_error(spec_path, tmp_path, capsys, target):
    code = main(["check-jordan", spec_path, "--out", str(tmp_path / target)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("input error: --out: cannot write report: ")
    assert "Traceback" not in err


def test_norm_at_p_inf_is_exact(spec_path, tmp_path):
    # the sup-norm remark: ||C|| = ||C(1)||_2 = tr(k)^{1/2} = 1, attained at 1
    code, report = machine_report(tmp_path, ["norm", spec_path, "--p", "inf", "--q", "2"])
    assert code == 0
    results = report["results"]
    assert results["norm_lower_bound"] == 1.0
    assert results["norm_upper_bound"] == 1.0
    assert results["status"] == "exact" and results["certified"] is True


def test_norm_reports_no_upper_bound_off_the_positive_regime(tmp_path):
    # [1] into both diagonal entries of [2]: a positive map with two Kraus
    # operators on one block pair, so no closed form applies, and (3, 3) is
    # outside the cone's proved regime: the maximiser gives a lower bound only
    spec = dict(BASE_SPEC, algebra1=[1], weight1=diag_weight_json([1.0]))
    spec["morphism"] = {"tiles": [{"src": 0, "dst": 0, "offset": 0, "kind": "H"},
                                  {"src": 0, "dst": 0, "offset": 1, "kind": "H"}]}
    path = tmp_path / "multiplicity-2.json"
    path.write_text(json.dumps(spec))
    code, report = machine_report(tmp_path, ["norm", str(path), "--p", "3", "--q", "3"])
    assert code == 0
    results = report["results"]
    assert results["norm_upper_bound"] is None
    assert results["status"] == "lower-only" and results["certified"] is False


def test_console_entry_point(spec_path, tmp_path):
    import subprocess
    import sys

    out = tmp_path / "subproc.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nclp.cli", "classical", spec_path,
         "--format", "machine", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["results"]["all_ok"] is True


def test_machine_reports_deterministic(spec_path, tmp_path):
    classify_path = tmp_path / "cls.json"
    classify_path.write_text(json.dumps(classify_spec()[0]))
    for command in (
        ["check-jordan", spec_path],
        ["classify", str(classify_path), "--p", "2", "--q", "1"],
        ["norm", spec_path, "--p", "2", "--q", "1", "--seed", "7"],
        ["change-of-weights", spec_path, "--p", "2", "--q", "1"],
        ["classical", spec_path],
        ["modular", spec_path],
    ):
        _, a = machine_report(tmp_path, command, name="a.json")
        _, b = machine_report(tmp_path, command, name="b.json")
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
