"""Tests for exact scalars, weight vectors, and their text forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac.field import (
    IMAG,
    ONE,
    ZERO,
    Scalar,
    Weight,
    format_fraction,
    format_scalar,
    format_weight,
    parse_fraction,
    parse_scalar,
    parse_weight,
    weight_embed,
    weights_from_scalars,
)


def test_scalar_basic_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(3))
    b = Scalar(Fraction(-2), Fraction(1, 3))
    assert a + b == Scalar(Fraction(-3, 2), Fraction(10, 3))
    assert a - b == Scalar(Fraction(5, 2), Fraction(8, 3))
    # (1/2 + 3i)(-2 + i/3) = -1 - i - 6i + i^2 = -2 - 35i/6 ... compute directly
    prod = a * b
    assert prod.re == Fraction(1, 2) * Fraction(-2) - Fraction(3) * Fraction(1, 3)
    assert prod.im == Fraction(1, 2) * Fraction(1, 3) + Fraction(3) * Fraction(-2)


def test_scalar_division_and_inverse():
    a = Scalar(3, 4)
    assert a * a.inverse() == ONE
    assert (a / a) == ONE
    assert Scalar(1) / Scalar(0, 1) == Scalar(0, -1)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_scalar_powers():
    assert IMAG ** 2 == Scalar(-1)
    assert IMAG ** 0 == ONE
    assert Scalar(2) ** -2 == Scalar(Fraction(1, 4))
    assert (Scalar(1, 1) ** 2) == Scalar(0, 2)


def test_scalar_predicates():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert Scalar(5).is_rational()
    assert not IMAG.is_rational()
    assert Scalar(3, 4).magnitude_squared() == 25


def test_scalar_mixed_coercion():
    assert Scalar(2) + 1 == Scalar(3)
    assert 1 - Scalar(2) == Scalar(-1)
    assert Scalar(2) * Fraction(1, 2) == ONE
    assert 2 / Scalar(4) == Scalar(Fraction(1, 2))


def test_format_parse_scalar_round_trip():
    rng = random.Random(2024)
    for _ in range(300):
        re = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        im = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        s = Scalar(re, im) if rng.random() < 0.5 else Scalar(re)
        assert parse_scalar(format_scalar(s)) == s


def test_scalar_text_forms():
    assert format_scalar(Scalar(Fraction(3, 2))) == "3/2"
    assert format_scalar(Scalar(-2)) == "-2"
    assert format_scalar(Scalar(1, 1)) == "1+1*i"
    assert format_scalar(Scalar(0, Fraction(-1, 3))) == "0-1/3*i"
    assert parse_scalar("0+1*i") == IMAG
    assert parse_scalar("-5/4") == Scalar(Fraction(-5, 4))


def test_parse_scalar_rejects_garbage():
    for bad in ["", "1//2", "2+i", "1+2j", "x"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_fraction_text_forms():
    assert format_fraction(Fraction(-7, 3)) == "-7/3"
    assert format_fraction(Fraction(4)) == "4"
    assert parse_fraction("9/6") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_fraction("1.5")


def test_weights_from_scalars_rational():
    weights, embedding = weights_from_scalars([Scalar(1), Scalar(3)])
    assert embedding == (ONE,)
    assert all(w.dim == 1 for w in weights)
    assert weight_embed(weights[0], embedding) == Scalar(1)
    assert weight_embed(weights[1], embedding) == Scalar(3)


def test_weights_from_scalars_gaussian():
    values = [Scalar(0, 1), Scalar(0, -1), Scalar(2)]
    weights, embedding = weights_from_scalars(values)
    assert embedding == (ONE, IMAG)
    assert [weight_embed(w, embedding) for w in weights] == values
    assert weights == (Weight((0, 1)), Weight((0, -1)), Weight((2, 0)))


def test_format_parse_weight():
    w = Weight((Fraction(1, 2), Fraction(-3)))
    assert format_weight(w) == "[1/2, -3]"
    assert parse_weight(["1/2", "-3"]) == w
    scalar_like = Weight((Fraction(5),))
    assert format_weight(scalar_like) == "5"


# -- oracle: the integer-triple kernel against a pair of Fractions -------------


class _FractionPair:
    """Reference Gaussian rational: real and imaginary part as `Fraction`."""

    def __init__(self, re, im=Fraction(0)):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return _FractionPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _FractionPair(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _FractionPair(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self):
        return _FractionPair(-self.re, -self.im)

    def magnitude_squared(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        norm = self.magnitude_squared()
        return _FractionPair(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, exponent):
        base = self.inverse() if exponent < 0 else self
        result = _FractionPair(1)
        for _ in range(abs(exponent)):
            result = result * base
        return result


_WIDE = 2**64
_numerators = st.one_of(
    st.just(0),
    st.integers(-12, 12),
    st.integers(_WIDE, _WIDE**2),
    st.integers(-(_WIDE**2), -_WIDE),
)
_denominators = st.one_of(
    st.just(1), st.integers(1, 12), st.integers(_WIDE, _WIDE**2)
)
_rationals = st.builds(Fraction, _numerators, _denominators)
_parts = st.tuples(_rationals, st.one_of(st.just(Fraction(0)), _rationals))
_operands = st.one_of(st.integers(-12, 12), st.integers(_WIDE, _WIDE**2), _rationals)


def _agrees(value, ref):
    """Same value, and the same canonical triple as a freshly built Scalar."""
    assert isinstance(value, Scalar)
    assert type(value.re) is Fraction and type(value.im) is Fraction
    assert (value.re, value.im) == (ref.re, ref.im)
    fresh = Scalar(ref.re, ref.im)
    assert value == fresh and hash(value) == hash(fresh)


@settings(derandomize=True, deadline=None, max_examples=250)
@given(x=_parts, y=_parts, k=_operands, e=st.integers(-4, 5))
def test_scalar_matches_fraction_pair_reference(x, y, k, e):
    s, t = Scalar(*x), Scalar(*y)
    r, q = _FractionPair(*x), _FractionPair(*y)
    kr = _FractionPair(k)

    _agrees(s, r)
    _agrees(s + t, r + q)
    _agrees(s - t, r - q)
    _agrees(s * t, r * q)
    _agrees(-s, -r)
    assert s.magnitude_squared() == r.magnitude_squared()
    assert type(s.magnitude_squared()) is Fraction

    # Mixed int / Fraction operands on both sides.
    _agrees(s + k, r + kr)
    _agrees(k + s, kr + r)
    _agrees(s - k, r - kr)
    _agrees(k - s, kr - r)
    _agrees(s * k, r * kr)
    _agrees(k * s, kr * r)
    if k:
        _agrees(s / k, r / kr)
    assert (Scalar(k) == k) and (Scalar(k) + 0 == Scalar(Fraction(k)))

    if t.is_zero():
        with pytest.raises(ZeroDivisionError):
            t.inverse()
        with pytest.raises(ZeroDivisionError):
            s / t
        with pytest.raises(ZeroDivisionError):
            k / t
    else:
        _agrees(t.inverse(), q.inverse())
        _agrees(s / t, r / q)
        _agrees(k / t, kr / q)
        # Equal values reached by different routes are one triple.
        assert (s * t) / t == s and hash((s * t) / t) == hash(s)
        assert t * t.inverse() == ONE

    if s.is_zero() and e < 0:
        with pytest.raises(ZeroDivisionError):
            s ** e
    else:
        _agrees(s ** e, r ** e)


def _format_scalar_by_fractions(value):
    """The formatter as it read the Fraction parts ``re``/``im``."""
    if not value.im:
        return format_fraction(value.re)
    sign = "+" if value.im > 0 else "-"
    return f"{format_fraction(value.re)}{sign}{format_fraction(abs(value.im))}*i"


def test_format_scalar_from_the_triple_matches_the_fraction_form():
    rng = random.Random(4242)

    def part():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 30))

    samples = [ZERO, ONE, IMAG, -IMAG, Scalar(-7), Scalar(0, Fraction(-5, 6)),
               Scalar(Fraction(1, 2), Fraction(1, 3)), Scalar(Fraction(-3, 4), 5)]
    for _ in range(400):
        kind = rng.randrange(5)
        if kind == 0:
            value = Scalar(rng.randint(-50, 50))
        elif kind == 1:
            value = Scalar(part())
        elif kind == 2:
            value = Scalar(0, part())
        else:
            # Gaussian, the parts usually over unequal denominators
            value = Scalar(part(), part())
        samples.append(value)
    assert any(s.re.denominator != s.im.denominator for s in samples if s.re and s.im)
    for value in samples:
        assert format_scalar(value) == _format_scalar_by_fractions(value)
