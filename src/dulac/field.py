"""Exact coefficient arithmetic: Gaussian rationals and rational weight vectors.

Everything in this package is computed over Q(i).  A :class:`Scalar` stores
its real and imaginary parts as `fractions.Fraction`, which keeps every
value in canonical reduced form automatically.  A :class:`Weight` is a
vector in Q^d over some fixed Q-linearly independent basis; weights track
eigenvalue combinations exactly even when the eigenvalues are kept
symbolic, and can be embedded back into Q(i) when concrete basis values
are available.

Serialization uses the plain-text forms ``p/q`` for rationals and
``p/q+r/s*i`` for Gaussian rationals; weights serialize as JSON arrays of
rational strings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

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
    """A Gaussian rational ``re + im*i`` in canonical form.

    Instances are immutable and hashable; arithmetic is exact.  The
    canonical form (coprime numerator/denominator, positive denominator)
    is maintained by `Fraction` itself, so construction is idempotent.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_rational(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- ring operations -----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; zero has none."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero scalar")
        if not self.im:
            return Scalar(1 / self.re)
        norm = self.re * self.re + self.im * self.im
        return Scalar(self.re / norm, -self.im / norm)

    def __truediv__(self, other) -> "Scalar":
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

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def magnitude_squared(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_scalar(self)


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
IMAG = Scalar(0, 1)


class Weight:
    """A rational vector in Q^d over an abstract Q-linearly independent basis.

    Monomial weights and eigenvalues live here.  Addition and rational
    scaling are the only vector operations needed; equality and hashing
    are defined on the exact coordinates.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[RationalLike]):
        object.__setattr__(
            self, "coords", tuple(_as_fraction(c) for c in coords)
        )

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @classmethod
    def zero(cls, dim: int) -> "Weight":
        return cls((Fraction(0),) * dim)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, Weight):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("weight dimensions differ")
        return Weight(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("weight dimensions differ")
        return Weight(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Weight":
        return Weight(-c for c in self.coords)

    def scale(self, factor: RationalLike) -> "Weight":
        factor = _as_fraction(factor)
        return Weight(factor * c for c in self.coords)

    def sort_key(self):
        return self.coords

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
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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


def format_scalar(value: Scalar) -> str:
    """Canonical text form: bare rational, or ``re+im*i`` / ``re-im*i``."""
    if not value.im:
        return format_fraction(value.re)
    sign = "+" if value.im > 0 else "-"
    return f"{format_fraction(value.re)}{sign}{format_fraction(abs(value.im))}*i"


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
