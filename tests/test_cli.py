import json

import numpy as np
import pytest

from nclp.cli import main
from nclp.compop import build_composition
from nclp.jordan import transpose_morphism
from nclp.matcore import BlockProfile
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


def test_classical_rejects_reversed_exponents(spec_path):
    assert main(["classical", spec_path, "--p", "1", "--q", "2"]) == 2


def test_modular_report(spec_path, tmp_path):
    code, report = machine_report(tmp_path, ["modular", spec_path, "--t", "0", "0.5"])
    assert code == 0
    results = report["results"]
    assert results["weights_commute"] is True
    assert results["modular_orbit"][0]["orbit_residual"] == 0.0


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


def test_parse_error_paths(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-jordan", str(path)]) == 1
    # non-psd weight
    spec = dict(BASE_SPEC)
    spec["weight1"] = diag_weight_json([1.0, -1.0])
    path2 = tmp_path / "npsd.json"
    path2.write_text(json.dumps(spec))
    assert main(["norm", str(path2), "--p", "2", "--q", "1"]) == 1


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
], ids=["text-mass", "null-mass", "nan-mass", "infinite-mass", "list-atom", "atoms-object",
        "masses-number", "nan-entry", "infinite-entry"])
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

    monkeypatch.setitem(cli._HANDLERS, "norm", handler)
    out = tmp_path / "report.json"
    code = main(["norm", spec_path, "--format", "machine", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "non-finite result in entries" in capsys.readouterr().err


def test_norm_at_p_inf_is_exact(spec_path, tmp_path):
    # the sup-norm remark: ||C|| = ||C(1)||_2 = tr(k)^{1/2} = 1, attained at 1
    code, report = machine_report(tmp_path, ["norm", spec_path, "--p", "inf", "--q", "2"])
    assert code == 0
    results = report["results"]
    assert results["norm_lower_bound"] == 1.0
    assert results["norm_upper_bound"] == 1.0
    assert results["status"] == "exact" and results["certified"] is True


def test_norm_reports_no_upper_bound_off_the_positive_regime(spec_path, tmp_path):
    # (3, 3) is outside the proved regime: the maximiser gives a lower bound only
    code, report = machine_report(tmp_path, ["norm", spec_path, "--p", "3", "--q", "3"])
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
