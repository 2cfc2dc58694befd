"""Exact coefficient arithmetic: Gaussian rationals and rational weight vectors.

Everything in this package is computed over Q(i).  A :class:`Scalar` stores
the value ``(a + b*i) / d`` as three Python integers in canonical form
(``d > 0``, ``gcd(a, b, d) == 1``), kept canonical with one gcd per
operation (two smaller ones for a sum with unequal denominators); its
parts ``re``/``im`` are `fractions.Fraction` values derived from that
triple on access, and ``as_gaussian_ratio`` returns the triple itself.
A :class:`Weight` is a vector in Q^d over some fixed
Q-linearly independent basis; weights track eigenvalue combinations
exactly even when the eigenvalues are kept symbolic, and can be embedded
back into Q(i) when concrete basis values are available.  A weight is a
value: the weights of monomials are computed in :mod:`dulac.poly` over
integer numerators, not by vector arithmetic on weights.

Serialization uses the plain-text forms ``p/q`` for rationals and
``p/q+r/s*i`` for Gaussian rationals; weights serialize as JSON arrays of
rational strings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import BudgetError

__all__ = [
    "Scalar",
    "Weight",
    "RationalLike",
    "ZERO",
    "ONE",
    "IMAG",
    "weight_embed",
    "weights_from_scalars",
    "format_fraction",
    "parse_fraction",
    "format_scalar",
    "parse_scalar",
    "format_weight",
    "parse_weight",
]

RationalLike = Union[int, Fraction]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Scalar:
    """A Gaussian rational ``(a + b*i) / d`` in canonical form.

    The value is held as three integers with ``d > 0`` and
    ``gcd(a, b, d) == 1``, so every value has exactly one triple and
    equality is an integer compare.  The real and imaginary parts
    ``re = a/d`` and ``im = b/d`` are read-only `Fraction` properties
    derived from the triple.  Instances are immutable and hashable;
    arithmetic is exact.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        re = _as_fraction(re)
        im = _as_fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # Over d = lcm(q, s) the triple is already canonical: a prime that
        # divides d to its full power in q cannot divide p, likewise for s.
        d = q // gcd(q, s) * s
        _set_a(self, p * (d // q))
        _set_b(self, r * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def as_gaussian_ratio(self) -> tuple:
        """The canonical triple ``(a, b, d)`` of ``(a + b*i) / d``."""
        return self._a, self._b, self._d

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_rational(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    # -- ring operations -----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return (
                self._a == other._a and self._b == other._b and self._d == other._d
            )
        if isinstance(other, (int, Fraction)):
            return (
                not self._b
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __add__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _add(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _add(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _add(other._a, other._b, other._d, -self._a, -self._b, self._d)

    def __neg__(self) -> "Scalar":
        return _new(-self._a, -self._b, self._d)

    def __mul__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _mul(self._a, self._b, self._d, other._a, other._b, other._d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; zero has none."""
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of the zero scalar")
            return _new(d, 0, a) if a > 0 else _new(-d, 0, -a)
        # 1 / ((a + b i)/d) = d (a - b i) / (a^2 + b^2)
        return _reduced(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            raise TypeError("scalar exponent must be an integer")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if not self._b:
            # gcd(a, d) == 1 carries over to every power.
            return _new(self._a ** exponent, 0, self._d ** exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- structure maps -------------------------------------------------

    def magnitude_squared(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_scalar(self)


_set_a = Scalar._a.__set__
_set_b = Scalar._b.__set__
_set_d = Scalar._d.__set__
_object_new = object.__new__


def _new(a: int, b: int, d: int) -> Scalar:
    """A Scalar from a triple that is already canonical."""
    s = _object_new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _reduced(a: int, b: int, d: int) -> Scalar:
    """A Scalar from any triple with ``d > 0``."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _new(a, b, d)


def _add(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> Scalar:
    if d1 == d2:
        if d1 == 1:
            return _new(a1 + a2, b1 + b2, 1)
        return _reduced(a1 + a2, b1 + b2, d1)
    # As in Fraction.__add__: with g = gcd(d1, d2), only primes of g can
    # divide all of the result, so the remaining gcd is taken against g.
    g = gcd(d1, d2)
    if g == 1:
        return _new(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s = d1 // g
    t = d2 // g
    a = a1 * t + a2 * s
    b = b1 * t + b2 * s
    h = gcd(a, b, g)
    if h == 1:
        return _new(a, b, s * d2)
    return _new(a // h, b // h, s * (d2 // h))


def _mul(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> Scalar:
    if not b1 and not b2:
        a = a1 * a2
        d = d1 * d2
        if d == 1:
            return _new(a, 0, 1)
        g = gcd(a, d)
        if g == 1:
            return _new(a, 0, d)
        return _new(a // g, 0, d // g)
    return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def _coerce(value):
    if isinstance(value, (int, Fraction)):
        return _new(value.numerator, 0, value.denominator)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
IMAG = Scalar(0, 1)


class Weight:
    """A rational vector in Q^d over an abstract Q-linearly independent basis.

    Monomial weights and eigenvalues live here.  A weight is built from
    its coordinates, compared and hashed on them, and printed; the
    monomial weights themselves come from :func:`dulac.poly.weight` and
    :func:`dulac.poly.weight_decompose`.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[RationalLike]):
        object.__setattr__(
            self, "coords", tuple(_as_fraction(c) for c in coords)
        )

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, Weight):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Weight(({', '.join(str(c) for c in self.coords)}))"

    def __str__(self) -> str:
        return format_weight(self)


def weight_embed(w: Weight, basis_values: Sequence[Scalar]) -> Scalar:
    """Evaluate a weight against concrete basis values: sum of c_k * b_k."""
    if len(basis_values) != w.dim:
        raise ValueError("basis length does not match weight dimension")
    total = ZERO
    for c, b in zip(w.coords, basis_values):
        if c:
            total = total + b * c
    return total


def weights_from_scalars(values: Sequence[Scalar]):
    """Represent concrete eigenvalues as weights over the basis (1,) or (1, i).

    Returns ``(weights, embedding)`` where embedding holds the basis values
    so that ``weight_embed(w_k, embedding) == values[k]``.  All-rational
    inputs use the one-dimensional basis (1); otherwise (1, i) is used,
    which is Q-linearly independent, so distinct weights always embed to
    distinct scalars.
    """
    if all(v.is_rational() for v in values):
        return tuple(Weight((v.re,)) for v in values), (ONE,)
    weights = tuple(Weight((v.re, v.im)) for v in values)
    return weights, (ONE, IMAG)


# -- plain-text serialization ------------------------------------------


def format_fraction(value: Fraction) -> str:
    value = _as_fraction(value)
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def parse_fraction(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with integer parts; no decimals or exponents."""
    if not isinstance(text, str):
        raise ValueError(f"invalid rational {text!r}: not a string")
    s = text.strip()
    body = s[1:] if s[:1] in "+-" else s
    num, slash, den = body.partition("/")
    if not num.isdigit() or (slash and not den.isdigit()):
        raise ValueError(f"invalid rational {text!r}: expected INT or INT/INT")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"invalid rational {text!r}: zero denominator") from None


def _decimal(n: int) -> str:
    """``str(n)``, or a :class:`BudgetError` when n has more digits than
    the interpreter converts (``sys.set_int_max_str_digits``); the limit
    guards against quadratic-time conversion and stays in place."""
    try:
        return str(n)
    except ValueError:
        raise BudgetError(
            f"a {n.bit_length()}-bit integer exceeds the int-to-str digit limit"
        ) from None


def _format_ratio(n: int, d: int) -> str:
    """``n/d`` in lowest terms for d > 0, or the bare integer."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"


def format_scalar(value: Scalar) -> str:
    """Canonical text form: bare rational, or ``re+im*i`` / ``re-im*i``.
    Each part a/d and b/d is reduced from the integer triple directly."""
    a, b, d = value._a, value._b, value._d
    if not b:
        return _format_ratio(a, d)
    sign = "+" if b > 0 else "-"
    return f"{_format_ratio(a, d)}{sign}{_format_ratio(abs(b), d)}*i"


def parse_scalar(text: str) -> Scalar:
    """Parse ``p/q``, ``p/q+r/s*i`` or ``p/q-r/s*i`` (whitespace tolerated)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    if s.endswith("*i"):
        body = s[:-2]
        # Split at the last +/- that is not the leading sign.
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                split = k
                break
        if split == -1:
            return Scalar(0, parse_fraction(body))
        re_part = parse_fraction(body[:split])
        im_text = body[split:]
        im_part = parse_fraction(im_text[1:])
        if im_text[0] == "-":
            im_part = -im_part
        return Scalar(re_part, im_part)
    return Scalar(parse_fraction(s))


def format_weight(w: Weight) -> str:
    """Compact form: a bare rational for d = 1, else ``[c1, c2, ...]``."""
    if w.dim == 1:
        return format_fraction(w.coords[0])
    return "[" + ", ".join(format_fraction(c) for c in w.coords) + "]"


def parse_weight(values: Sequence[str]) -> Weight:
    """Parse a JSON array of rational strings."""
    return Weight(parse_fraction(v) for v in values)
