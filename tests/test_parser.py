"""Tests for the expression grammar and series printing."""

import random
from fractions import Fraction

import pytest

from dulac.errors import ExprSyntaxError
from dulac.exprs import (
    _format_monomial, format_series, parse_expression, parse_fraction, parse_scalar,
)
from dulac.field import IMAG, ONE, Scalar, format_fraction, format_scalar
from dulac.poly import Series

from _gen import random_series

XY = ("x", "y")


def test_parse_monomials_and_signs():
    s = parse_expression("x^3 + y", XY)
    assert dict(s.terms) == {(3, 0): ONE, (0, 1): ONE}
    s = parse_expression("-x + 2*y - y", XY)
    assert dict(s.terms) == {(1, 0): Scalar(-1), (0, 1): ONE}
    s = parse_expression("+x", XY)
    assert dict(s.terms) == {(1, 0): ONE}


def test_parse_rational_coefficients():
    s = parse_expression("3/2*x*y^2 - 5*x^4", XY)
    assert s.terms[(1, 2)] == Scalar(Fraction(3, 2))
    assert s.terms[(4, 0)] == Scalar(-5)


def test_parse_gaussian_coefficients_need_parentheses():
    s = parse_expression("(0+1*i)*x + (1-1/2*i)*y", XY)
    assert s.terms[(1, 0)] == IMAG
    assert s.terms[(0, 1)] == Scalar(1, Fraction(-1, 2))
    # a sign inside the parentheses, explicit plus included
    s = parse_expression("(+3/2)*x + (-6/4+2*i)*y", XY)
    assert s.terms == {(1, 0): Scalar(Fraction(3, 2)), (0, 1): Scalar(Fraction(-3, 2), 2)}
    with pytest.raises(ExprSyntaxError):
        parse_expression("i*x", XY)


def test_parse_repeated_variables_multiply():
    s = parse_expression("x*x*y^2*x", XY)
    assert dict(s.terms) == {(3, 2): ONE}


def test_parse_constant_and_cancellation():
    s = parse_expression("5", XY)
    assert dict(s.terms) == {(0, 0): Scalar(5)}
    s = parse_expression("x - x", XY)
    assert s.is_zero()
    s = parse_expression("0", XY)
    assert s.is_zero()


def test_parse_parameter_names():
    s = parse_expression("a*x^2 - 3*b*y", ("x", "y", "a", "b"))
    assert s.terms[(2, 0, 1, 0)] == ONE
    assert s.terms[(0, 1, 0, 1)] == Scalar(-3)


def test_parse_whitespace_and_newlines():
    s = parse_expression("  x^2\n  + y  ", XY)
    assert dict(s.terms) == {(2, 0): ONE, (0, 1): ONE}


def test_parse_x_caret_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("x^", XY)
    assert info.value.line == 1
    assert info.value.column == 2
    assert "exponent" in str(info.value)


def test_parse_error_positions():
    cases = [
        ("", 1, 1, "empty expression"),
        ("z", 1, 1, "unknown identifier"),
        ("x +* y", 1, 4, "unexpected '*'"),
        ("(1+2*i", 1, 7, "expected ')'"),
        ("2 x", 1, 3, "unexpected 'x'"),
        ("3/0*x", 1, 3, "zero denominator"),
        ("x\n+ y^", 2, 4, "exponent"),
        ("1/", 1, 3, "expected a denominator after '/'"),
        ("(1+2 i)", 1, 6, "expected '*' before the imaginary unit"),
        ("(1+2*j)", 1, 6, "expected the imaginary unit 'i'"),
        ("(+x)", 1, 3, "expected a number"),
    ]
    for text, line, column, fragment in cases:
        with pytest.raises(ExprSyntaxError) as info:
            parse_expression(text, XY)
        assert info.value.line == line, text
        assert info.value.column == column, text
        assert fragment in str(info.value), text


def test_parse_bare_imaginary_unit_is_rejected_with_hint():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("i", XY)
    assert "parenthesized coefficient" in str(info.value)


def test_parse_exponent_cap():
    assert parse_expression("x^1000000", XY).degree() == 1000000
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("x^1000001", XY)
    assert "cap" in str(info.value)


def test_variable_name_validation():
    with pytest.raises(ValueError):
        parse_expression("x", ("x", "x"))
    with pytest.raises(ValueError):
        parse_expression("x", ("x", "i"))
    with pytest.raises(ValueError):
        parse_expression("x", ("x", "2y"))
    with pytest.raises(ValueError):
        parse_expression("x", ())


def test_format_zero_and_signs():
    assert format_series(Series.zero(2), XY) == "0"
    s = Series(2, {(1, 0): ONE, (0, 1): Scalar(-1)})
    assert format_series(s, XY) == "x - y"
    s = Series(2, {(1, 0): Scalar(-1)})
    assert format_series(s, XY) == "-x"


def test_format_coefficient_one_elision():
    s = Series(2, {(2, 1): ONE, (0, 3): Scalar(Fraction(1, 2))})
    assert format_series(s, XY) == "x^2*y + 1/2*y^3"


def test_format_gaussian_always_parenthesized():
    s = Series(2, {(2, 1): IMAG})
    assert format_series(s, XY) == "(0+1*i)*x^2*y"
    s = Series(2, {(1, 1): Scalar(Fraction(-3, 2), Fraction(1, 3))})
    assert format_series(s, XY) == "(-3/2+1/3*i)*x*y"


def test_format_descending_grlex_term_order():
    # leading term first, ties broken lexicographically
    s = Series(2, {(0, 3): ONE, (1, 0): ONE, (2, 0): ONE, (1, 1): ONE})
    assert format_series(s, XY) == "y^3 + x^2 + x*y + x"


def test_round_trip_random_series():
    rng = random.Random(8128)
    names = {2: ("x", "y"), 3: ("x", "y", "z")}
    for trial in range(400):
        nvars = rng.choice([2, 3])
        gaussian = trial % 3 == 0
        s = random_series(rng, nvars, 9, gaussian=gaussian, max_terms=6)
        s = Series(nvars, s.terms)  # drop the truncation marker
        text = format_series(s, names[nvars])
        back = parse_expression(text, names[nvars])
        assert back == s, text


def test_round_trip_is_canonical():
    # printing is a normal form: parse(print(s)) prints identically
    rng = random.Random(11)
    for _ in range(50):
        s = random_series(rng, 2, 7, gaussian=True, max_terms=5)
        s = Series(2, s.terms)
        once = format_series(s, XY)
        twice = format_series(parse_expression(once, XY), XY)
        assert once == twice


def _format_series_by_fractions(s, names):
    """The printer as it read the Fraction part ``re`` of each coefficient."""
    if s.is_zero():
        return "0"
    chunks = []
    for exps, coeff in s.sorted_terms():
        mono = _format_monomial(exps, names)
        if coeff.is_rational():
            negative = coeff.re < 0
            magnitude = -coeff.re if negative else coeff.re
            if not mono:
                body = format_fraction(magnitude)
            elif magnitude == 1:
                body = mono
            else:
                body = f"{format_fraction(magnitude)}*{mono}"
            sign = "-" if negative else "+"
        else:
            wrapped = f"({format_scalar(coeff)})"
            body = f"{wrapped}*{mono}" if mono else wrapped
            sign = "+"
        if not chunks:
            chunks.append(f"-{body}" if sign == "-" else body)
        else:
            chunks.append(f" {'-' if sign == '-' else '+'} {body}")
    return "".join(chunks)


def test_format_from_the_triple_matches_the_fraction_form():
    rng = random.Random(5150)
    units = [ONE, -ONE, Scalar(Fraction(-1, 3)), Scalar(7), IMAG]
    for trial in range(300):
        nvars = rng.choice([2, 3])
        names = ("x", "y", "z")[:nvars]
        s = random_series(rng, nvars, 7, gaussian=trial % 3 == 0, max_terms=6)
        # constants and unit coefficients exercise the elided forms
        s = s + Series(nvars, {(0,) * nvars: rng.choice(units)}, s.trunc)
        s = s + Series(nvars, {(1,) * nvars: rng.choice(units)}, s.trunc)
        assert format_series(s, names) == _format_series_by_fractions(s, names)


def test_names_are_checked_once_per_name_list():
    from dulac.exprs import _check_name_tuples

    names = ["p", "q"]
    s = parse_expression("p^2 - 3*q", names)
    _check_name_tuples.cache_clear()
    for _ in range(100):
        assert format_series(s, names) == "p^2 - 3*q"
    assert _check_name_tuples.cache_info().misses == 1
    # an invalid list is refused on every call, from both functions
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid name '2y'"):
            format_series(s, ["p", "2y"])
        with pytest.raises(ValueError, match="invalid name '2y'"):
            parse_expression("p", ["p", "2y"])
    with pytest.raises(ValueError, match=r"invalid name \['q'\]"):
        format_series(s, ["p", ["q"]])
    with pytest.raises(ValueError, match="both variable and parameter"):
        parse_expression("p", names, {"q": ONE})


# One grammar for numbers: each text as a problem-file number and as the
# body of a parenthesized coefficient; None marks a refusal.
_NUMBERS = [
    ("1 2", None),
    ("1--2*i", None),
    ("1+-2*i", None),
    ("3*i", Scalar(0, 3)),
    ("-1/2*i", Scalar(0, Fraction(-1, 2))),
    (" 1 / 2 ", Scalar(Fraction(1, 2))),
    ("1/0", None),
    ("1.5", None),
    ("0+1*i", IMAG),
    ("9" * 4301, None),
    ("9" * 4300, Scalar(10**4300 - 1)),
    ("", None),
    ("+7", Scalar(7)),
    ("-6/4", Scalar(Fraction(-3, 2))),
    ("1-1/2*i", Scalar(1, Fraction(-1, 2))),
    ("-2 * i", Scalar(0, -2)),
    ("1/2*i+1", None),
    ("i", None),
    ("3*x", None),
    ("1+2", None),
    ("1+2*i)", None),
    ("(1)", None),
]


@pytest.mark.parametrize("text, value", _NUMBERS, ids=lambda v: repr(v)[:12])
def test_numbers_read_as_parenthesized_coefficients(text, value):
    if value is None:
        with pytest.raises(ExprSyntaxError):
            parse_scalar(text)
        with pytest.raises(ExprSyntaxError):
            parse_expression(f"({text})*x", ["x"])
    else:
        assert parse_scalar(text) == value
        assert parse_expression(f"({text})*x", ["x"]).terms == {(1,): value}
    # a rational is a number without an imaginary part
    if value is None or not value.is_rational():
        with pytest.raises(ExprSyntaxError):
            parse_fraction(text)
    else:
        assert parse_fraction(text) == value.re

