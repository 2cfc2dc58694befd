"""The textual expression language: parsing and canonical printing.

Grammar (whitespace-insensitive); the numbers of a problem file follow it
too, each text read whole by :func:`parse_fraction` (a signed ``rational``),
:func:`parse_scalar` (a ``gaussian``) or :func:`parse_weight` (rationals)::

    expr     := [ '+' | '-' ] term { ( '+' | '-' ) term }
    term     := factor { '*' factor }
    factor   := '(' gaussian ')' | rational | IDENT [ '^' INT ]
    gaussian := [ '+' | '-' ] rational [ '*' 'i' | ( '+' | '-' ) rational '*' 'i' ]
    rational := INT [ '/' INT ]

Identifiers name either declared variables or named rational parameters
bound by the caller (so a file can say ``beta*x^3`` with ``beta = 1``).
The identifier ``i`` is reserved: the imaginary unit is only legal
inside a parenthesized coefficient such as ``(0+1*i)`` or ``(3*i)``,
which keeps the printed form unambiguous.

The printer is canonical — terms in descending graded-lexicographic
order, unit coefficients elided, Gaussian coefficients always
parenthesized — and everything it prints parses back to an equal
series.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ExprSyntaxError
from .field import IMAG, ONE, ZERO, Scalar, Weight, _decimal, _reduced, format_scalar
from .poly import Exponent, Series

__all__ = ["parse_expression", "format_series",
           "parse_fraction", "parse_scalar", "parse_weight"]

_EXPONENT_CAP = 10**6


class _Token(NamedTuple):
    kind: str  # "number" | "ident" | one of "+-*/^()" | "end"
    text: str
    line: int
    col: int


_WORD = re.compile(r"\w+")  # letters, digits and '_', as str.isalnum and '_'


def _is_name(name) -> bool:
    """Whether ``name`` is a string that reads as one identifier token: a
    letter or '_', then letters, digits or '_'.  Variable, parameter and
    ideal names all follow this rule, and so does the tokenizer."""
    return (isinstance(name, str) and (name[:1].isalpha() or name[:1] == "_")
            and _WORD.fullmatch(name) is not None)


def _tokenize(src: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            tokens.append(_Token("number", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = _WORD.match(src, i).end()
            tokens.append(_Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(
        self,
        tokens: List[_Token],
        variables: Sequence[str],
        parameters: Dict[str, Scalar],
        trunc: Optional[int],
    ):
        self.tokens = tokens
        self.pos = 0
        self.variables = {name: k for k, name in enumerate(variables)}
        self.nvars = len(variables)
        self.parameters = parameters
        self.trunc = trunc

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None) -> ExprSyntaxError:
        tok = tok or self.peek()
        return ExprSyntaxError(message, tok.line, tok.col)

    # -- grammar ---------------------------------------------------------

    def parse(self) -> Series:
        total = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise self.fail(
                f"unexpected {tok.text!r}; expected '+', '-' or the end "
                "of the expression",
                tok,
            )
        return total

    def expr(self) -> Series:
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.advance().kind == "-" else 1
        total = self.term() * sign
        while self.peek().kind in "+-":
            op = self.advance().kind
            piece = self.term()
            total = total - piece if op == "-" else total + piece
        return total

    def term(self) -> Series:
        coeff, exps = self.factor(ONE, [0] * self.nvars)
        while self.peek().kind == "*":
            self.advance()
            coeff, exps = self.factor(coeff, exps)
        return Series(self.nvars, {tuple(exps): coeff}, self.trunc)

    def factor(self, coeff: Scalar, exps: List[int]):
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            value = self.gaussian()
            closing = self.advance()
            if closing.kind != ")":
                raise self.fail("expected ')'", closing)
            return coeff * value, exps
        if tok.kind == "number":
            return coeff * self.rational(signed=False), exps
        if tok.kind == "ident":
            self.advance()
            power = 1
            if self.peek().kind == "^":
                caret = self.advance()
                power = self.exponent(caret)
            if tok.text in self.variables:
                exps = list(exps)
                exps[self.variables[tok.text]] += power
                return coeff, exps
            if tok.text in self.parameters:
                return coeff * self.parameters[tok.text] ** power, exps
            if tok.text == "i":
                raise self.fail(
                    "the imaginary unit is only valid inside a parenthesized "
                    "coefficient such as (0+1*i)",
                    tok,
                )
            raise self.fail(f"unknown identifier {tok.text!r}", tok)
        raise self.fail(
            f"unexpected {tok.text!r}; expected a coefficient, a variable "
            "or '('",
            tok,
        )

    def integer(self, tok: _Token) -> int:
        """The value of a number token; a literal beyond the interpreter's
        limit on int-from-str conversion is a syntax error at the token."""
        try:
            return int(tok.text)
        except ValueError:
            raise self.fail(
                f"number literal of {len(tok.text)} digits is too long", tok
            ) from None

    def exponent(self, caret: _Token) -> int:
        tok = self.peek()
        if tok.kind != "number":
            raise self.fail("expected an integer exponent after '^'", caret)
        self.advance()
        value = self.integer(tok)
        if value > _EXPONENT_CAP:
            raise self.fail(f"exponent {value} exceeds the cap {_EXPONENT_CAP}", tok)
        return value

    def rational(self, signed: bool) -> Scalar:
        sign = 1
        if signed and self.peek().kind in "+-":
            sign = -1 if self.advance().kind == "-" else 1
        tok = self.advance()
        if tok.kind != "number":
            raise self.fail("expected a number", tok)
        numerator = self.integer(tok)
        denominator = 1
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.advance()
            if den_tok.kind != "number":
                raise self.fail("expected a denominator after '/'", den_tok)
            denominator = self.integer(den_tok)
            if denominator == 0:
                raise self.fail("zero denominator", den_tok)
        return _reduced(sign * numerator, 0, denominator)

    def gaussian(self) -> Scalar:
        real = self.rational(signed=True)
        kind = self.peek().kind
        if kind == "*":  # the pure-imaginary form r/s*i
            real, imag = ZERO, real
        elif kind in "+-":
            self.advance()
            imag = self.rational(signed=False) * (-1 if kind == "-" else 1)
        else:
            return real
        star = self.advance()
        if star.kind != "*":
            raise self.fail("expected '*' before the imaginary unit", star)
        unit = self.advance()
        if unit.kind != "ident" or unit.text != "i":
            raise self.fail("expected the imaginary unit 'i'", unit)
        return real + IMAG * imag

    def finish(self, value):
        """``value``, once it is all of the input."""
        tok = self.peek()
        if tok.kind != "end":
            raise self.fail(f"unexpected {tok.text!r}", tok)
        return value


def parse_expression(
    src: str,
    variables: Sequence[str],
    parameters: Optional[Dict[str, Scalar]] = None,
    trunc_order: Optional[int] = None,
) -> Series:
    """Parse one expression over the named variables into a Series.

    ``parameters`` binds extra identifiers to fixed scalars.  Errors
    carry 1-based line and column positions.
    """
    names = list(variables)
    params = dict(parameters or {})
    _check_names(names, params)
    if not src.strip():
        raise ExprSyntaxError("empty expression", 1, 1)
    parser = _Parser(_tokenize(src), names, params, trunc_order)
    return parser.parse()


def _number_parser(text: str) -> _Parser:
    if not isinstance(text, str):
        raise ValueError(f"invalid rational {text!r}: not a string")
    return _Parser(_tokenize(text), (), {}, None)


def parse_fraction(text: str) -> Fraction:
    """Parse a signed rational ``p`` or ``p/q``; errors carry positions."""
    parser = _number_parser(text)
    return parser.finish(parser.rational(signed=True)).re


def parse_scalar(text: str) -> Scalar:
    """Parse a Gaussian rational such as ``p/q``, ``p/q+r/s*i`` or
    ``r/s*i``: the body of a parenthesized coefficient."""
    parser = _number_parser(text)
    return parser.finish(parser.gaussian())


def parse_weight(values: Sequence[str]) -> Weight:
    """Parse a JSON array of rational strings."""
    return Weight(parse_fraction(v) for v in values)


def _check_names(names: Iterable[str], params: Iterable[str] = ()) -> None:
    """Raise ValueError unless the variable and parameter names are valid
    and distinct; each distinct pair of name lists is checked once."""
    key = (tuple(names), tuple(params))
    try:
        _check_name_tuples(*key)
    except TypeError:  # an unhashable name, which the check refuses uncached
        _check_name_tuples.__wrapped__(*key)


@functools.lru_cache(maxsize=64)
def _check_name_tuples(names: Tuple[str, ...], params: Tuple[str, ...]) -> None:
    for name in names + params:
        if not _is_name(name):
            raise ValueError(f"invalid name {name!r}: not an identifier")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    clash = set(names) & set(params)
    if clash:
        raise ValueError(f"names used as both variable and parameter: {sorted(clash)}")
    if "i" in names or "i" in params:
        raise ValueError("the name 'i' is reserved for the imaginary unit")


def _format_monomial(exps: Exponent, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_series(s: Series, names: Sequence[str]) -> str:
    """Canonical text form; ``parse_expression`` inverts it exactly."""
    if len(names) != s.nvars:
        raise ValueError("name count does not match the variable count")
    _check_names(names)
    if s.is_zero():
        return "0"
    chunks: List[str] = []
    for exps, coeff in s.sorted_terms():
        mono = _format_monomial(exps, names)
        a, b, d = coeff.as_gaussian_ratio()
        if not b:
            # with no imaginary part, the canonical a/d is in lowest terms
            negative = a < 0
            magnitude = _decimal(abs(a)) if d == 1 else f"{_decimal(abs(a))}/{_decimal(d)}"
            if not mono:
                body = magnitude
            elif abs(a) == 1 and d == 1:
                body = mono
            else:
                body = f"{magnitude}*{mono}"
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
