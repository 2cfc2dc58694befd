"""End-to-end tests for the command line interface.

Every test drives ``dulac.cli.main`` directly with an argv list and reads
the JSON report from stdout, which is exactly what a subprocess run would
see, minus the fork.
"""

import json

import pytest

from dulac.cli import main

GOLDEN = {
    "variables": ["x", "y"],
    "field_mode": "rational",
    "parameters": {"beta": "1"},
    "eigenvalues": ["1", "3"],
    "vector_field": ["x", "3*y + beta*x^3"],
    "ideals": {
        "seed": ["x^3 + y", "y^2"],
        "psi": ["x^3 + y + y^2"],
    },
    "trunc_order": 8,
}


@pytest.fixture
def problem(tmp_path):
    def write(data, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# -- extract -------------------------------------------------------------------


def test_extract_golden_end_to_end(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(capsys, ["extract", path, "--ideal", "psi", "--close"])
    assert code == 0
    assert report["route"] == "lie-derivative"
    assert report["closed"] is True
    assert report["generators"] == ["x^3 + y", "y^2"]
    cert = report["certificates"][0]
    assert cert["weights"] == ["3", "6"]
    assert cert["nodes"] == ["3", "6"]
    assert cert["block_count"] == 3
    assert cert["size"] == 6
    assert cert["determinant"] == "-19683"
    assert cert["abs_determinant"] == "19683"
    assert cert["matrix"] == [
        ["1", "1", "0", "0", "0", "0"],
        ["3", "6", "1", "1", "0", "0"],
        ["9", "36", "6", "12", "1", "1"],
        ["27", "216", "27", "108", "9", "18"],
        ["81", "1296", "108", "864", "54", "216"],
        ["243", "7776", "405", "6480", "270", "2160"],
    ]
    # right-hand side holds the iterated derivatives of the seed series
    assert cert["rhs"] == [
        "x^3 + y^2 + y",
        "2*x^3*y + 4*x^3 + 6*y^2 + 3*y",
        "2*x^6 + 24*x^3*y + 15*x^3 + 36*y^2 + 9*y",
        "36*x^6 + 216*x^3*y + 54*x^3 + 216*y^2 + 27*y",
        "432*x^6 + 1728*x^3*y + 189*x^3 + 1296*y^2 + 81*y",
        "4320*x^6 + 12960*x^3*y + 648*x^3 + 7776*y^2 + 243*y",
    ]
    assert cert["solution"] == [
        "x^3 + y",
        "y^2",
        "x^3",
        "2*x^3*y",
        "0",
        "2*x^6",
    ]


def test_extract_reports_non_invariant_seed(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(capsys, ["extract", path, "--ideal", "psi"])
    assert code == 4
    err = report["error"]
    assert err["type"] == "NotInvariantError"
    assert "--close" in err["message"]
    assert err["witness"]["reduced_lie_derivative"] == "-y"


def test_error_report_carries_trunc_order_override(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(
        capsys, ["extract", path, "--ideal", "psi", "--trunc-order", "6"]
    )
    assert code == 4
    assert report["error"]["type"] == "NotInvariantError"
    assert report["trunc_order"] == 6


def test_extract_without_certificates(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(
        capsys, ["extract", path, "--ideal", "psi", "--close", "--no-certificate"]
    )
    assert code == 0
    assert report["generators"] == ["x^3 + y", "y^2"]
    assert "certificates" not in report


def test_extract_semisimple_symbolic(problem, capsys):
    path = problem(
        {
            "variables": ["x", "y"],
            "field_mode": "symbolic",
            "eigenvalues": [["1", "0"], ["0", "1"]],
            "ideals": {"main": ["x^2", "x*y", "x^2 + 3*x*y"]},
            "trunc_order": 5,
        }
    )
    code, report, _ = run(capsys, ["extract", path, "--semisimple"])
    assert code == 0
    assert report["route"] == "semisimple"
    assert report["generators"] == ["x^2", "x*y"]
    assert report["certificates"] is None  # no concrete matrix in symbolic mode


def test_extract_semisimple_close_needs_concrete_weights(problem, capsys):
    path = problem(
        {
            "variables": ["x", "y"],
            "field_mode": "symbolic",
            "eigenvalues": [["1", "0"], ["0", "1"]],
            "ideals": {"main": ["x^2"]},
        }
    )
    code, report, _ = run(capsys, ["extract", path, "--semisimple", "--close"])
    assert code == 5
    assert report["error"]["type"] == "UnsupportedSpectrumError"


def test_extract_picks_sole_ideal_without_flag(problem, capsys):
    data = dict(GOLDEN)
    data["ideals"] = {"seed": ["x^3 + y", "y^2"]}
    path = problem(data)
    code, report, _ = run(capsys, ["extract", path, "--close"])
    assert code == 0
    assert report["ideal"] == "seed"


def test_extract_requires_ideal_choice_when_ambiguous(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(capsys, ["extract", path, "--close"])
    assert code == 2
    assert report["error"]["type"] == "SchemaError"
    assert "--ideal" in report["error"]["message"]


# -- check-pdnf and normalize ----------------------------------------------


def test_check_pdnf_accepts_golden(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(capsys, ["check-pdnf", path])
    assert code == 0
    assert report["pdnf"] is True
    assert report["residual"] == ["0", "0"]
    assert report["eigenvalues"] == ["1", "3"]


def test_check_pdnf_rejects_with_residual(problem, capsys):
    path = problem(
        {
            "variables": ["x", "y"],
            "vector_field": ["x", "2*y + x^3"],
            "trunc_order": 6,
        }
    )
    code, report, _ = run(capsys, ["check-pdnf", path])
    assert code == 4
    assert report["pdnf"] is False
    assert report["residual"] == ["0", "-x^3"]


def test_normalize_removes_nonresonant_terms(problem, capsys):
    path = problem(
        {
            "variables": ["x", "y"],
            "vector_field": ["x", "2*y + x^3"],
            "trunc_order": 6,
        }
    )
    code, report, _ = run(capsys, ["normalize", path])
    assert code == 0
    assert report["input"] == ["x", "x^3 + 2*y"]
    assert report["normalized"] == ["x", "2*y"]
    assert report["transformation"][0] == "x"
    assert "x^3" in report["transformation"][1]
    assert report["resonant_kernel_choice"] == "zero-projection"
    assert report["pdnf"] is True
    assert report["pdnf_residual"] == ["0", "0"]
    assert report["conjugacy_holds"] is True


def test_normalize_keeps_resonant_terms(problem, capsys):
    path = problem(
        {
            "variables": ["x", "y"],
            "vector_field": ["x", "2*y + x^2 + x^3"],
            "trunc_order": 6,
        }
    )
    code, report, _ = run(capsys, ["normalize", path])
    assert code == 0
    assert report["normalized"] == ["x", "x^2 + 2*y"]


# -- weights and invariance --------------------------------------------------


def test_weights_golden_mapping(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(capsys, ["weights", path, "--ideal", "psi"])
    assert code == 0
    assert report["series"] == "x^3 + y^2 + y"
    assert report["weights"] == {"3": "x^3 + y", "6": "y^2"}


def test_weights_index_selects_generator(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(
        capsys, ["weights", path, "--ideal", "seed", "--index", "1"]
    )
    assert code == 0
    assert report["weights"] == {"6": "y^2"}


def test_invariance_failure_names_the_witness(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(capsys, ["invariance", path, "--ideal", "seed"])
    assert code == 4
    assert report["invariant"] is False
    assert report["witness"] == {
        "generator": "x^3 + y",
        "reduced_lie_derivative": "-y",
    }


def test_invariance_success_after_closure(problem, capsys):
    data = dict(GOLDEN)
    data["ideals"] = {"closed": ["x^3", "y"]}
    path = problem(data)
    code, report, _ = run(capsys, ["invariance", path, "--basis"])
    assert code == 0
    assert report["invariant"] is True
    assert report["witness"] is None
    assert report["basis"] == ["x^3", "y"]
    # every degree-8 monomial reduces under <x^3, y>, so nothing is left over
    assert report["truncation_monomials"] == []


def test_invariance_semisimple_route(problem, capsys):
    data = dict(GOLDEN)
    data["ideals"] = {"closed": ["x^3", "y"]}
    path = problem(data)
    code, report, _ = run(capsys, ["invariance", path, "--semisimple"])
    assert code == 0
    assert report["derivation"] == "semisimple"
    assert report["invariant"] is True


# -- resonance ---------------------------------------------------------------


def test_resonance_lists_candidates(problem, capsys):
    path = problem(
        {
            "variables": ["x", "y", "z"],
            "field_mode": "symbolic",
            "eigenvalues": [["1", "0"], ["0", "1"], ["-1", "-2"]],
            "resonance": ["-1", "-2"],
        }
    )
    code, report, _ = run(capsys, ["resonance", path])
    assert code == 0
    assert report["count"] == 7
    assert report["candidates"][0] == ["x"]
    assert report["candidates"][-1] == ["x", "y", "z"]
    assert report["hypothesis"]["independent"] is True
    assert report["hypothesis"]["relation_holds"] is True


def test_resonance_rejects_positive_exponents(problem, capsys):
    path = problem(
        {
            "variables": ["x", "y"],
            "field_mode": "symbolic",
            "eigenvalues": [["1"], ["2"]],
            "resonance": ["2"],
        }
    )
    code, report, _ = run(capsys, ["resonance", path])
    assert code == 3
    assert report["error"]["type"] == "HypothesisError"
    assert "nonpositive" in report["error"]["message"]


# -- problem file validation --------------------------------------------------


def test_missing_file_exits_1_with_stderr_only(tmp_path, capsys):
    code, report, err = run(capsys, ["check-pdnf", str(tmp_path / "no.json")])
    assert code == 1
    assert report is None
    assert "cannot read problem file" in err


def test_invalid_json_exits_2(problem, capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, report, _ = run(capsys, ["check-pdnf", str(path)])
    assert code == 2
    assert report["error"]["type"] == "SchemaError"
    assert "not valid JSON" in report["error"]["message"]


def test_unknown_keys_exit_2(problem, capsys):
    path = problem({"variables": ["x"], "vector_field": ["x"], "bogus": 1})
    code, report, _ = run(capsys, ["check-pdnf", str(path)])
    assert code == 2
    assert "bogus" in report["error"]["message"]


def test_expression_errors_carry_positions(problem, capsys):
    path = problem(
        {"variables": ["x", "y"], "vector_field": ["x", "x^"], "trunc_order": 4}
    )
    code, report, _ = run(capsys, ["check-pdnf", str(path)])
    assert code == 2
    assert report["error"]["type"] == "ExprSyntaxError"
    assert "line 1, column 2" in report["error"]["message"]


def test_field_with_constant_term_exits_2(problem, capsys):
    data = dict(GOLDEN)
    data["vector_field"] = ["1 + x", "3*y"]
    path = problem(data)
    code, report, _ = run(capsys, ["normalize", path])
    assert code == 2
    assert report["error"]["type"] == "SchemaError"
    assert "constant term" in report["error"]["message"]


def test_declared_eigenvalues_must_match_field(problem, capsys):
    data = dict(GOLDEN)
    data["eigenvalues"] = ["1", "4"]
    path = problem(data)
    code, report, _ = run(capsys, ["check-pdnf", path])
    assert code == 2
    assert report["error"]["type"] == "SchemaError"
    assert "eigenvalue" in report["error"]["message"]


def test_rotation_needs_gaussian_mode(problem, capsys):
    spec = {
        "variables": ["x", "y"],
        "field_mode": "rational",
        "vector_field": ["-y", "x"],
        "trunc_order": 4,
    }
    path = problem(spec)
    code, report, _ = run(capsys, ["check-pdnf", path])
    assert code == 5
    assert report["error"]["type"] == "UnsupportedSpectrumError"
    spec["field_mode"] = "gaussian"
    path = problem(spec, "gauss.json")
    code, report, _ = run(capsys, ["check-pdnf", path])
    assert code == 0
    assert sorted(report["eigenvalues"]) == ["0+1*i", "0-1*i"]


def test_symbolic_mode_rejects_field_commands(problem, capsys):
    path = problem(
        {
            "variables": ["x", "y"],
            "field_mode": "symbolic",
            "eigenvalues": [["1", "0"], ["0", "1"]],
        }
    )
    code, report, _ = run(capsys, ["normalize", path])
    assert code == 5
    assert report["error"]["type"] == "UnsupportedSpectrumError"
    assert "concrete" in report["error"]["message"]


# -- flags and determinism -----------------------------------------------------


def test_trunc_order_flag_overrides_file(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(capsys, ["check-pdnf", path, "--trunc-order", "5"])
    assert code == 0
    assert report["trunc_order"] == 5


def test_parameters_are_substituted(problem, capsys):
    data = dict(GOLDEN)
    data["parameters"] = {"beta": "2"}
    path = problem(data)
    code, report, _ = run(capsys, ["weights", path, "--ideal", "psi"])
    assert code == 0  # the ideal itself has no parameters; the field does
    code, report, _ = run(capsys, ["check-pdnf", path])
    assert code == 0
    assert report["pdnf"] is True


def test_verbose_writes_summary_to_stderr(problem, capsys):
    path = problem(GOLDEN)
    code, report, err = run(capsys, ["check-pdnf", path, "--verbose"])
    assert code == 0
    assert report["pdnf"] is True
    assert err.strip()  # one status line


def test_reports_are_deterministic(problem, capsys):
    path = problem(GOLDEN)
    main(["extract", path, "--ideal", "psi", "--close"])
    first = capsys.readouterr().out
    main(["extract", path, "--ideal", "psi", "--close"])
    second = capsys.readouterr().out
    assert first == second
