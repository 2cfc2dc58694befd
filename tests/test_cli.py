"""End-to-end tests for the command line interface.

Every test drives ``dulac.cli.main`` directly with an argv list and reads
the JSON report from stdout, which is exactly what a subprocess run would
see, minus the fork.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dulac
from dulac import cli
from dulac.cli import build_parser, main
from dulac.exprs import format_series, parse_expression

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


def test_weights_of_a_field_need_a_diagonal_semisimple_part(problem, capsys):
    path = problem(
        {
            "variables": ["x", "y"],
            "field_mode": "gaussian",
            "vector_field": ["-y", "x + x^2"],
            "ideals": {"main": ["x^2"]},
            "trunc_order": 4,
        }
    )
    code, report, _ = run(capsys, ["weights", path])
    assert code == 4
    assert report["error"]["type"] == "NotDiagonalError"


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


@pytest.mark.parametrize("command", ["weights", "extract"])
@pytest.mark.parametrize("ideals, message", [
    (None, "the file defines no ideals"),
    (GOLDEN["ideals"], "the file defines several ideals; pick one with --ideal"),
])
def test_ideal_choice_without_flag_names_the_count(problem, capsys, command, ideals, message):
    data = {"variables": ["x", "y"], "vector_field": ["x", "3*y + x^3"]}
    if ideals is not None:
        data["ideals"] = ideals
    code, report, _ = run(capsys, [command, problem(data)])
    assert code == 2
    assert report["error"]["message"] == message


# -- check-pdnf and normalize ----------------------------------------------


def test_check_pdnf_accepts_golden(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(capsys, ["check-pdnf", path])
    assert code == 0
    assert report["pdnf"] is True
    assert report["residual"] == ["0", "0"]
    assert report["eigenvalues"] == ["1", "3"]


@pytest.mark.parametrize(
    "lams, expected",
    [((10007, 10009), ["10007", "10009"]),
     ((1000000007, 998244353), ["998244353", "1000000007"])],
)
def test_large_eigenvalues_of_a_triangular_linear_part(problem, lams, expected):
    # The spectrum is read off the diagonal; a root search over divisors
    # of these eigenvalues' products used to run for minutes.  A separate
    # process with a timeout fails this test instead of hanging it.
    path = problem(
        {
            "variables": ["x", "y"],
            "vector_field": [f"{lams[0]}*x + y", f"{lams[1]}*y"],
            "trunc_order": 4,
        }
    )
    src = os.path.dirname(os.path.dirname(dulac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "dulac.cli", "check-pdnf", path],
        capture_output=True, text=True, timeout=10, env=env,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["pdnf"] is True
    assert report["eigenvalues"] == expected
    assert elapsed < 1


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


# 5000 digits lie beyond Python's default limit of 4300 on int-from-str.
LONG = "9" * 5000


@pytest.mark.parametrize(
    "source, column",
    [(f"x + {LONG}*x^2", 5), (f"x + 1/{LONG}*x^2", 7), (f"x + x^{LONG}", 7)],
    ids=["numerator", "denominator", "exponent"],
)
def test_overlong_number_literal_exits_2_at_its_token(problem, capsys, source, column):
    path = problem({"variables": ["x", "y"], "vector_field": [source, "3*y"],
                    "trunc_order": 4})
    code, report, _ = run(capsys, ["normalize", path])
    assert code == 2
    assert report["error"]["type"] == "ExprSyntaxError"
    assert "5000 digits" in report["error"]["message"]
    assert f"line 1, column {column}" in report["error"]["message"]


# A 3000-digit coefficient parses, but normalization at order 5 builds
# report integers past the 4300-digit int-to-str limit.
OVERFLOWING_FIELD = {
    "variables": ["x", "y"],
    "vector_field": [f"x + {'9' * 3000}*x^2", "3*y"],
    "trunc_order": 5,
}


def _assert_budget_report(report, text):
    assert report["error"]["type"] == "BudgetError"
    assert "int-to-str" in report["error"]["message"]
    assert max(len(token) for token in text.replace('"', " ").split()) < 100


def test_report_integer_past_the_digit_limit_exits_6(problem, capsys):
    start = time.monotonic()
    code = main(["normalize", problem(OVERFLOWING_FIELD)])
    out = capsys.readouterr().out
    assert time.monotonic() - start < 1
    assert code == 6
    report = json.loads(out)
    assert report["command"] == "normalize"
    _assert_budget_report(report, out)


def test_report_integer_past_the_digit_limit_exits_6_in_a_process(problem):
    src = os.path.dirname(os.path.dirname(dulac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "dulac.cli", "normalize", problem(OVERFLOWING_FIELD)],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert time.monotonic() - start < 1
    assert proc.returncode == 6
    assert "Traceback" not in proc.stderr
    _assert_budget_report(json.loads(proc.stdout), proc.stdout)


def _normalize_in_a_process(path):
    """The report of ``dulac normalize`` run in a fresh interpreter, which
    must exit 0 within 1 s."""
    src = os.path.dirname(os.path.dirname(dulac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "dulac.cli", "normalize", path],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert time.monotonic() - start < 1
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_linear_field_at_a_huge_order_normalizes_in_a_process(problem):
    # the degree loop skips every degree without a term, so no work grows with N
    path = problem({"variables": ["x", "y"], "vector_field": ["x", "2*y"],
                    "trunc_order": 100000000})
    report = _normalize_in_a_process(path)
    assert report["normalized"] == ["x", "2*y"]
    assert report["transformation"] == ["x", "y"]
    assert report["pdnf"] is True


def test_a_monomial_past_the_recursion_limit_normalizes_in_a_process(problem):
    # the conjugacy check composes y^1000, whose image is built from those
    # of its divisors: a recursion one frame per degree overflowed here
    path = problem({"variables": ["x", "y"], "vector_field": ["x + y^1000", "3*y"],
                    "trunc_order": 1001})
    report = _normalize_in_a_process(path)
    assert report["normalized"] == ["x", "3*y"]
    assert report["transformation"] == ["1/2999*y^1000 + x", "y"]
    assert report["conjugacy_holds"] is True


def test_witness_past_the_digit_limit_exits_6(problem, capsys, monkeypatch):
    # the error path formats the residual; it must not fail the same way
    huge = dulac.Series(2, {(3, 0): dulac.Scalar(10 ** 4400)}, 6)

    def failing(problem, args):
        raise dulac.NotNormalFormError("not in normal form", [huge, huge])

    monkeypatch.setattr(cli, "cmd_check_pdnf", failing)
    code = main(["check-pdnf", problem(GOLDEN)])
    out = capsys.readouterr().out
    assert code == 6
    _assert_budget_report(json.loads(out), out)


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


def test_rejected_trunc_order_override_is_reported_at_the_file_order(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(capsys, ["normalize", path, "--trunc-order", "1"])
    assert code == 2
    assert report == {
        "command": "normalize",
        "trunc_order": 8,
        "field_mode": "rational",
        "variables": ["x", "y"],
        "error": {"type": "SchemaError", "message": "--trunc-order must be an integer >= 2"},
    }


@pytest.mark.parametrize("command, key, first", [
    ("check-pdnf", "residual", "x²"),
    ("normalize", "transformation", "x² + x²*_y"),
])
def test_names_that_read_as_one_token_are_accepted(problem, capsys, command, key, first):
    # isalnum holds for a superscript digit, so x² and b² are identifiers
    path = problem({"variables": ["x²", "_y"], "parameters": {"b²": "1"},
                    "vector_field": [first, "2*_y + b²*x²^2"], "trunc_order": 4,
                    "ideals": {"I²": ["x²"]}})
    code, report, _ = run(capsys, [command, path])
    assert code == 0
    names = report["variables"]
    assert names == ["x²", "_y"]
    printed = report[key] + report.get("normalized", [])
    assert all(text == "0" for text in printed) or any("x²*_y" in text for text in printed)
    for text in printed:
        assert format_series(parse_expression(text, names), names) == text


def test_a_lone_superscript_digit_is_an_unexpected_character(problem, capsys):
    path = problem({"variables": ["x", "y"], "vector_field": ["x + ²", "2*y"]})
    code, report, _ = run(capsys, ["check-pdnf", path])
    assert code == 2
    assert report["error"]["type"] == "ExprSyntaxError"
    assert "unexpected character '²'" in report["error"]["message"]


@pytest.mark.parametrize("value", [[1], 1, 1.5, True, "s"], ids=repr)
@pytest.mark.parametrize("key", ["parameters", "ideals"])
@pytest.mark.parametrize("command", ["check-pdnf", "extract"])
def test_non_object_parameters_or_ideals_exit_2(problem, capsys, command, key, value):
    data = dict(GOLDEN)
    data[key] = value
    code, report, _ = run(capsys, [command, problem(data)])
    assert code == 2
    assert report == {"error": {"type": "SchemaError",
                                "message": f"{key!r} must be a JSON object"}}


@pytest.mark.parametrize("value", [None, [], 0, "", False, {}], ids=repr)
def test_falsy_parameters_mean_none(problem, capsys, value):
    data = {k: v for k, v in GOLDEN.items() if k != "parameters"}
    data["vector_field"] = ["x", "3*y + x^3"]
    data["parameters"] = value
    code, report, _ = run(capsys, ["check-pdnf", problem(data)])
    assert code == 0 and report["pdnf"] is True


def test_trunc_order_defaults_to_8_and_may_be_2(problem, capsys):
    data = {k: v for k, v in GOLDEN.items() if k != "trunc_order"}
    code, report, _ = run(capsys, ["check-pdnf", problem(data)])
    assert code == 0 and report["trunc_order"] == 8
    code, report, _ = run(capsys, ["check-pdnf", problem(data), "--trunc-order", "2"])
    assert code == 0 and report["trunc_order"] == 2
    code, report, _ = run(capsys, ["check-pdnf", problem(dict(data, trunc_order=2))])
    assert code == 0 and report["trunc_order"] == 2


@pytest.mark.parametrize("mode, code", [("rational", 5), ("gaussian", 0)])
def test_imaginary_coefficients_need_gaussian_mode(problem, capsys, mode, code):
    data = dict(GOLDEN, field_mode=mode, ideals={"I": ["(0+1*i)*x^3 + y"]})
    got, report, _ = run(capsys, ["weights", problem(data)])
    assert got == code
    if code:
        assert "imaginary coefficients in rational mode" in report["error"]["message"]
    else:
        assert report["weights"] == {"3": "(0+1*i)*x^3 + y"}


def test_imaginary_eigenvalues_declared_in_rational_mode_exit_5(problem, capsys):
    data = dict(GOLDEN, eigenvalues=["0+1*i", "0-1*i"])
    code, report, _ = run(capsys, ["weights", problem(data), "--ideal", "psi"])
    assert code == 5
    assert "imaginary eigenvalues declared in rational mode" in report["error"]["message"]


def test_weights_read_off_a_diagonal_field_without_declared_eigenvalues(problem, capsys):
    data = {k: v for k, v in GOLDEN.items() if k != "eigenvalues"}
    code, report, _ = run(capsys, ["weights", problem(data), "--ideal", "psi"])
    assert code == 0
    assert report["eigenvalues"] == ["1", "3"]
    assert report["weights"] == {"3": "x^3 + y", "6": "y^2"}


def test_weights_follow_the_field_not_the_order_of_declared_eigenvalues(problem, capsys):
    # the declared list is a permutation of the spectrum, so build_field
    # accepts it, and every command reads x at weight 1 and y at weight 3
    data = {"variables": ["x", "y"], "eigenvalues": ["3", "1"],
            "vector_field": ["x", "3*y + x^3"], "ideals": {"I": ["x^3 + y"]}}
    path = problem(data)
    code, report, _ = run(capsys, ["check-pdnf", path])
    assert (code, report["eigenvalues"], report["pdnf"]) == (0, ["1", "3"], True)
    code, report, _ = run(capsys, ["weights", path])
    assert code == 0
    assert report["eigenvalues"] == ["1", "3"]
    assert report["weights"] == {"3": "x^3 + y"}
    code, report, _ = run(capsys, ["extract", path, "--semisimple"])
    assert code == 0
    assert report["generators"] == ["x^3 + y"]
    # with no field, the declared list is all there is, read by position
    del data["vector_field"]
    code, report, _ = run(capsys, ["weights", problem(data, "no_field.json")])
    assert code == 0
    assert report["weights"] == {"1": "y", "9": "x^3"}


def test_declared_eigenvalues_of_a_non_diagonal_field_are_not_read_by_position(problem, capsys):
    # the rotation is invariant under its semisimple part, which is not
    # diagonal: weight commands refuse it rather than report it not invariant
    path = problem({"variables": ["x", "y"], "field_mode": "gaussian",
                    "eigenvalues": ["0+1*i", "0-1*i"], "vector_field": ["y", "-x"],
                    "ideals": {"I": ["x^2 + y^2"]}})
    code, report, _ = run(capsys, ["invariance", path, "--semisimple"])
    assert (code, report["invariant"]) == (0, True)
    for argv in (["extract", path, "--semisimple"], ["weights", path]):
        code, report, _ = run(capsys, argv)
        assert code == 4
        assert report["error"] == {
            "type": "NotDiagonalError",
            "message": "weight operations index eigenvalues by variable position "
            "and need a diagonal semisimple part; normalize in the "
            "diagonalizing basis first",
        }


def test_invariance_reports_the_basis_only_when_asked(problem, capsys):
    path = problem(dict(GOLDEN, ideals={"J": ["y^2"]}))
    code, report, _ = run(capsys, ["invariance", path])
    assert "basis" not in report and "truncation_monomials" not in report
    code, report, _ = run(capsys, ["invariance", path, "--basis"])
    assert report["basis"] == ["y^2"]
    assert report["truncation_monomials"] == ["x^8", "x^7*y"]


def test_extract_semisimple_closes_along_concrete_weights(problem, capsys):
    path = problem(GOLDEN)
    code, report, _ = run(capsys, ["extract", path, "--ideal", "psi", "--semisimple", "--close"])
    assert code == 0
    assert report["route"] == "semisimple" and report["closed"] is True
    assert report["generators"] == ["x^2*y^2", "x^3 + y", "y^3", "y^2"]
    # the semisimple derivation has no L_g blocks past the components
    assert [c["block_count"] for c in report["certificates"]] == [1] * 5


def _extract_head(mode):
    return {"command": "extract", "trunc_order": 6, "field_mode": mode, "variables": ["x", "y"]}


_NOT_DIAGONAL = ("extraction indexes weights by position and needs a diagonal "
                 "semisimple part; normalize in the diagonalizing basis first")

CLOSE_CASES = {
    "semi-invariant seed split": (
        ["x", "3*y"], ["x^2 + y"], "rational", 0, {
            "ideal": "I",
            "seed_generators": ["x^2 + y"],
            "route": "lie-derivative",
            "closed": True,
            "generators": ["x^2", "y"],
            "certificates": [{
                "source": "x^2 + y",
                "weights": ["2", "3"],
                "nodes": ["2", "3"],
                "block_count": 1,
                "size": 2,
                "matrix": [["1", "1"], ["2", "3"]],
                "rhs": ["x^2 + y", "2*x^2 + 3*y"],
                "solution": ["x^2", "y"],
                "determinant": "1",
                "abs_determinant": "1",
                "trunc_order": 6,
            }],
        },
    ),
    "field not in normal form": (
        ["x", "2*y + x^3"], ["y"], "rational", 4, {
            "error": {
                "type": "NotNormalFormError",
                "message": "the field must be in normal form for weight extraction",
                "residual": ["0", "-x^3"],
            },
        },
    ),
    "no seed": (
        ["x", "2*y + x^3"], ["0"], "rational", 0, {
            "ideal": "I",
            "seed_generators": [],
            "route": "lie-derivative",
            "closed": True,
            "generators": [],
            "certificates": [],
        },
    ),
    "rotation": (
        ["y", "-x"], ["x^2 + y^2"], "gaussian", 4, {
            "error": {"type": "NotDiagonalError", "message": _NOT_DIAGONAL},
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CLOSE_CASES))
def test_extract_close_reports_are_pinned(problem, capsys, monkeypatch, case):
    # `--close` closes the weight components of the seeds; the reports are
    # the bytes of closing the seeds themselves, and a field that is not
    # in normal form is refused before its closure could differ
    field, ideal, mode, code, tail = CLOSE_CASES[case]
    path = problem({"variables": ["x", "y"], "field_mode": mode, "vector_field": field,
                    "ideals": {"I": ideal}, "trunc_order": 6})
    calls = []
    groebner = cli.ideal_ops.groebner

    def counting(*args):
        calls.append(args)
        return groebner(*args)

    monkeypatch.setattr(cli.ideal_ops, "groebner", counting)
    assert main(["extract", path, "--close"]) == code
    expected = json.dumps({**_extract_head(mode), **tail}, indent=2) + "\n"
    assert capsys.readouterr().out == expected
    if case == "semi-invariant seed split":
        # x^2 and y are invariant already: one basis, no closure round
        assert len(calls) == 1


# extraction without --close: (field, ideal, mode, order, flags, code, tail)
REFUSAL_CASES = {
    "not invariant along the field": (
        ["x", "3*y + x^3"], ["x^3 + y + y^2"], "rational", 8, [], 4, {
            "error": {
                "type": "NotInvariantError",
                "message": "the ideal is not invariant along the field "
                "(pass --close to close it first)",
                "witness": {"generator": "x^3 + y^2 + y", "reduced_lie_derivative": "-y"},
            },
        },
    ),
    "not invariant under the semisimple part": (
        ["x", "3*y + x^3"], ["x^3 + y + y^2"], "rational", 8, ["--semisimple"], 4, {
            "error": {
                "type": "NotInvariantError",
                "message": "the ideal is not invariant under the semisimple derivation",
                "witness": {"generator": "x^3 + y^2 + y", "reduced_lie_derivative": "3*y^2"},
            },
        },
    ),
    "field not in normal form": (
        ["x", "2*y + x^3"], ["x", "y"], "rational", 6, [], 4, {
            "error": {
                "type": "NotNormalFormError",
                "message": "the field must be in normal form for weight extraction",
                "residual": ["0", "-x^3"],
            },
        },
    ),
    "no member, so no field check": (
        ["x", "2*y + x^3"], ["0"], "rational", 6, [], 0, {
            "ideal": "I",
            "seed_generators": [],
            "route": "lie-derivative",
            "closed": False,
            "generators": [],
            "certificates": [],
        },
    ),
    "rotation": (
        ["-y", "x"], ["x", "y"], "gaussian", 6, [], 4, {
            "error": {"type": "NotDiagonalError", "message": _NOT_DIAGONAL},
        },
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSAL_CASES))
def test_extract_refusal_reports_are_pinned(problem, capsys, case):
    field, ideal, mode, order, flags, code, tail = REFUSAL_CASES[case]
    path = problem({"variables": ["x", "y"], "field_mode": mode, "vector_field": field,
                    "ideals": {"I": ideal}, "trunc_order": order})
    assert main(["extract", path, *flags]) == code
    head = {**_extract_head(mode), "trunc_order": order}
    assert capsys.readouterr().out == json.dumps({**head, **tail}, indent=2) + "\n"


def test_resonance_of_one_variable_takes_no_coefficients(problem, capsys):
    path = problem({"variables": ["x"], "field_mode": "symbolic",
                    "eigenvalues": [["1"]], "resonance": []})
    code, report, _ = run(capsys, ["resonance", path])
    assert code == 0
    assert report["candidates"] == [["x"]]


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


def test_main_reuses_its_parser_across_calls(problem, capsys):
    path = problem({**GOLDEN, "ideals": {"psi": GOLDEN["ideals"]["psi"]}})
    plain = ["extract", path, "--close", "--no-certificate"]
    with_certificates = ["extract", path, "--close"]
    first = run(capsys, plain)
    second = run(capsys, with_certificates)
    assert run(capsys, plain) == first
    assert first[0] == second[0] == 0
    assert "certificates" not in first[1]
    assert second[1]["certificates"]
    assert {k: v for k, v in second[1].items() if k != "certificates"} == first[1]
    # An argparse error in between leaves the next reports unchanged.
    with pytest.raises(SystemExit) as exc:
        main(["extract", path, "--no-certificate", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, with_certificates) == second
    assert run(capsys, plain) == first


def test_main_calls_the_handler_bound_on_the_module(problem, capsys, monkeypatch):
    # The parser outlives one call; a handler replaced on the module after
    # it was built is still the one that runs.
    path = problem(GOLDEN)
    expected = run(capsys, ["check-pdnf", path])
    calls = []
    real = cli.cmd_check_pdnf
    monkeypatch.setattr(
        cli, "cmd_check_pdnf", lambda *args: calls.append(args) or real(*args)
    )
    assert run(capsys, ["check-pdnf", path]) == expected
    assert len(calls) == 1


def test_help_is_the_parser_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()


# -- fuzzing: every problem file ends in a documented exit code ---------------

_NAMES = ("x", "y", "z")
_COEFFS = {
    "rational": ("", "2*", "1/3*", "beta*", "7/2*"),
    "gaussian": ("", "2*", "beta*", "(1+1*i)*", "(0-2*i)*"),
}
_MALFORMED = (
    "", "x^", "(x", "x**2", "2 x", "x^-1", "1/0*x", "x/y", "i*x", "1 + x",
    "x^2.5", "1.5*x", "()", "@", "q*x", "(1+1*i", "x^1000001", "+", "x +",
)
# Every documented exit code except 1, which needs an unreadable file.
_REPORTED_CODES = {0, 2, 3, 4, 5}


def _term(coeff, exps):
    monomial = "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(_NAMES, exps) if e
    )
    if not monomial:
        return coeff.rstrip("*") or "1"
    return coeff + monomial


@st.composite
def _polynomials(draw, nvars, mode, lead=None, min_degree=0):
    """A sum of terms of degree >= ``min_degree``, led by ``x_lead`` if given."""
    terms = []
    if lead is not None:
        exps = [int(k == lead) for k in range(nvars)]
        terms.append(_term(draw(st.sampled_from(_COEFFS[mode])), exps))
    for _ in range(draw(st.integers(0 if terms else 1, 2))):
        exps = draw(
            st.one_of(
                st.just([0] * nvars),
                st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars),
            )
        )
        if sum(exps) < min_degree:
            exps[0] += min_degree - sum(exps)
        terms.append(_term(draw(st.sampled_from(_COEFFS[mode])), exps))
    signs = draw(
        st.lists(st.sampled_from("+-"), min_size=len(terms), max_size=len(terms))
    )
    return " ".join(f"{sign} {term}" for sign, term in zip(signs, terms))


_garbage = st.one_of(
    st.sampled_from(_MALFORMED),
    st.text(alphabet="xyzi0123456789+-*/^() ", max_size=10),
)

# One key of a valid problem file replaced by something malformed.
_CORRUPTIONS = {
    "vector_field": st.sampled_from(([], ["x", "y", "z", "x"], "x", [1])),
    "ideals": st.one_of(
        _garbage.map(lambda g: {"I": [g]}),
        st.sampled_from(({}, {"I": "x"}, {"1": ["x"]}, [])),
    ),
    "trunc_order": st.sampled_from((-1, 0, 1, 2.5, "8", True, None)),
    "parameters": st.sampled_from(
        ({"beta": "x"}, {"beta": "1/0"}, {"i": "1"}, {"x": "2"})
    ),
    "eigenvalues": st.sampled_from((["1"], ["zz"], ["1", "2", "3"], [["1"]])),
    "resonance": st.sampled_from((["x"], "1", [1])),
    "field_mode": st.sampled_from(("symbolic", "real", 3)),
    "variables": st.sampled_from(([], ["x", "x"], ["i"], "x", [1])),
}


@st.composite
def _problem_files(draw):
    nvars = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(("rational", "gaussian")))
    data = {
        "variables": list(_NAMES[:nvars]),
        "field_mode": mode,
        "parameters": {"beta": draw(st.sampled_from(("1/2", "-3", "0")))},
        "trunc_order": draw(st.integers(2, 7)),
        "vector_field": [
            draw(_polynomials(nvars, mode, lead=k, min_degree=1)) for k in range(nvars)
        ],
        "ideals": {
            "I": draw(st.lists(_polynomials(nvars, mode), min_size=1, max_size=2))
        },
        "resonance": draw(
            st.lists(st.sampled_from(("-1", "-2", "1", "1/2")), max_size=3)
        ),
    }
    if draw(st.booleans()):
        data["ideals"]["J"] = [draw(_polynomials(nvars, mode))]
    key = draw(st.sampled_from((None, "component", *_CORRUPTIONS)))
    if key == "component":
        # A constant term, an imaginary coefficient, or a malformed string.
        k = draw(st.integers(0, nvars - 1))
        constant = _polynomials(nvars, mode).map(lambda p: f"{p} + 1")
        imaginary = st.just("(0+1*i)*x")
        data["vector_field"][k] = draw(st.one_of(constant, imaginary, _garbage))
    elif key is not None:
        data[key] = draw(_CORRUPTIONS[key])
    return data


_COMMANDS = (
    ("check-pdnf", st.just([])),
    ("normalize", st.just([])),
    ("weights", st.sampled_from(([], ["--index", "1"]))),
    ("invariance", st.sampled_from(([], ["--semisimple"], ["--basis"]))),
    (
        "extract",
        st.sampled_from(([], ["--close"], ["--semisimple"], ["--no-certificate"])),
    ),
    ("resonance", st.just([])),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=_problem_files(), flags=st.tuples(*(flags for _, flags in _COMMANDS)))
def test_fuzzed_problem_files_end_in_documented_codes(fuzz_path, data, flags):
    fuzz_path.write_text(json.dumps(data))
    for (command, _), extra in zip(_COMMANDS, flags):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(fuzz_path), *extra])
        assert code in _REPORTED_CODES, (command, code, err.getvalue())
        text = out.getvalue()
        assert text == "" or isinstance(json.loads(text), dict)
