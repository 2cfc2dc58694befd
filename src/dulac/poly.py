"""Sparse truncated multivariate power series and the Lie calculus on them.

A :class:`Series` represents an element of K[[x]]/<x>^N when
``trunc_order`` is an integer ``N``, and then never stores a monomial of
total degree >= N; ``trunc_order=None`` marks an exact polynomial.
Binary operations work modulo the smaller of the two truncation ideals,
which is the finest claim the inputs support.

A monomial x^e in n variables is stored under the integer key(e) =
sum_j e_j*u_j = |e|*B^n + sum_j e_j*B^(n-1-j), with u_j = B^n +
B^(n-1-j) and a base B above every exponent.  Integer order on the keys
is then grlex order (``grlex_key``), the degree is ``key // B^n``, and
adding two keys multiplies the monomials (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors",
CASC 2007).  The packing data (n, B, B^n, (B^(n-1-j))_j, (u_j)_j) form a
ring shared by every series with the same n and B.  A series truncated
at N uses B = N + 1, so R_N has one packing, which the ideal code in
:mod:`dulac.ideals` shares; an exact polynomial of degree d is built
with B = max(2, d + 1).

The coefficients are Gaussian integers over one denominator per series,
the layout of FLINT's ``fmpq_poly``: the coefficient of the monomial
packed as k is (re[k] + im[k]*i) / d, with two dicts of Python ints over
the same keys (``im`` is empty for a real series) and d > 0.  Every
series is canonical: gcd(d, every numerator) == 1 and no stored
numerator is zero, so equal values in one ring have equal storage.
Every sum, product and linear combination of series is one call of the
kernel ``_dot``, which computes sum_k a_k*b_k for series a_k and factors
b_k that are series or Gaussian rationals (p + q*i)/e.  It accumulates
every product into one numerator dict over the lcm of the product
denominators and runs one zero filter and one gcd on the result.  The
result is truncated at the smallest order of its factors (and of an
optional cap); a truncated result uses B = trunc + 1, and an exact one
the largest base a product needs: B_a + B_b - 1 for a series factor and
B_a for a rational one.  Likewise every grouping of a series' terms is
one pass of ``_split`` over the packed keys, by degree (``_graded``) or
by monomial weight (:func:`weight_decompose`), with each part made
canonical once.  :class:`~dulac.field.Scalar` values and
exponent tuples appear only at the boundary: the constructor,
:attr:`Series.terms`, :meth:`Series.sorted_terms`,
:meth:`Series.coefficient` and :meth:`Series.leading_coefficient`, and
the private pair ``_scalar_terms``/``_scalar_series`` through which
:mod:`dulac.ideals` moves between series and its ``Scalar`` rows.

Derivations along vector fields with no constant term map <x>^N into
itself, so the Lie derivative, Lie bracket and composition below are all
well defined on the quotient and keep the truncation order of their
arguments.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import linalg
from .errors import CompositionError, TruncationError
from .field import (
    ONE,
    ZERO,
    Scalar,
    Weight,
    _new,
    _reduced,
    weights_from_scalars,
)

Exponent = Tuple[int, ...]
# (n, B, B^n, (B^(n-1-j))_j, (u_j)_j): the packing of monomials in n
# variables whose exponents all lie below B
_Ring = Tuple[int, int, int, Tuple[int, ...], Tuple[int, ...]]
# numerators keyed by packed monomials
_Nums = Dict[int, int]
# the rational factors 1 and -1 as _dot takes them
_PLUS = (1, 0, 1)
_MINUS = (-1, 0, 1)

__all__ = [
    "Exponent",
    "Series",
    "VectorField",
    "grlex_key",
    "weight",
    "weight_decompose",
    "lie_derivative",
    "lie_bracket",
    "compose",
    "linear_components",
    "matvec_series",
]


def grlex_key(e: Exponent):
    """Graded lexicographic sort key (higher key = larger monomial)."""
    return (sum(e), e)


def _unit(j: int, n: int) -> Exponent:
    """The exponent of the variable x_j among n variables."""
    return (0,) * j + (1,) + (0,) * (n - j - 1)


def _min_trunc(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@lru_cache(maxsize=None)
def _ring(nvars: int, base: int) -> _Ring:
    """The packing of monomials in nvars variables with exponents below
    base; one shared tuple per (nvars, base).  A process uses few: B is a
    truncation order plus one or follows the degrees of exact inputs."""
    top = base ** nvars
    pows = tuple(base ** (nvars - 1 - j) for j in range(nvars))
    return (nvars, base, top, pows, tuple(top + p for p in pows))


@lru_cache(maxsize=None)
def _degree_keys(nvars: int, order: int) -> Tuple[Tuple[int, ...], ...]:
    """keys[k]: the packed keys of the degree-k monomials in
    ``_ring(nvars, order + 1)``, descending, for k = 0..order."""
    units = _ring(nvars, order + 1)[4]
    keys = [(0,)]
    for _ in range(order):
        keys.append(tuple(sorted({s + u for s in keys[-1] for u in units}, reverse=True)))
    return tuple(keys)


def _unpack(key: int, ring: _Ring) -> Exponent:
    """The exponent packed as ``key`` in ``ring``."""
    base = ring[1]
    return tuple(key // p % base for p in ring[3])


def _numerators(terms: Dict[int, Scalar]) -> Tuple[_Nums, _Nums, int]:
    """(re, im, d) of nonzero Scalar terms over their least common
    denominator.  That form is already canonical: a prime p of d divides
    some term's own denominator to its full power in d, and that term's
    numerators are not both divisible by p."""
    ratios = {k: c.as_gaussian_ratio() for k, c in terms.items()}
    d = 1
    for _, _, e in ratios.values():
        if d % e:
            d = d // gcd(d, e) * e
    re: _Nums = {}
    im: _Nums = {}
    for k, (a, b, e) in ratios.items():
        f = d // e
        if a:
            re[k] = a * f
        if b:
            im[k] = b * f
    return re, im, d


def _scalar_terms(s: "Series") -> Dict[int, Scalar]:
    """The terms of s as a dict from packed keys to Scalars."""
    re, im, d = s._re, s._im, s._d
    if not im:
        if d == 1:
            return {k: _new(a, 0, 1) for k, a in re.items()}
        return {k: _reduced(a, 0, d) for k, a in re.items()}
    out = {k: _reduced(a, im.get(k, 0), d) for k, a in re.items()}
    for k, b in im.items():
        if k not in re:
            out[k] = _reduced(0, b, d)
    return out


def _scalar_series(
    ring: _Ring, terms: Dict[int, Scalar], trunc: Optional[int]
) -> "Series":
    """The series of nonzero Scalar terms already packed in ``ring``, with
    every degree below trunc and B = trunc + 1 for a truncated series."""
    return _wrap(ring, *_numerators(terms), trunc)


def _repack(s: "Series", ring: _Ring, trunc: Optional[int]) -> Tuple[_Nums, _Nums]:
    """The numerators (re, im) of s keyed in ``ring``, without the terms of
    degree >= trunc; the denominator stays s._d, and the content may no
    longer be 1 after the cut.  Every kept exponent must lie below the
    ring's base.  Returns s's own dicts when nothing changes, so callers
    must not mutate the result."""
    re, im = s._re, s._im
    _, base, top, pows, _ = s._r
    if trunc is not None and (s.trunc is None or s.trunc > trunc):
        cap = trunc * top
        re = {k: v for k, v in re.items() if k < cap}
        if im:
            im = {k: v for k, v in im.items() if k < cap}
    if base == ring[1]:
        return re, im
    units = ring[4]
    re = {sum(k // p % base * u for p, u in zip(pows, units)): v for k, v in re.items()}
    if im:
        im = {sum(k // p % base * u for p, u in zip(pows, units)): v for k, v in im.items()}
    return re, im


def _triples(re: _Nums, im: _Nums):
    """(key, re, im) for every term of a Gaussian series."""
    get_re, get_im = re.get, im.get
    return [(k, get_re(k, 0), get_im(k, 0)) for k in re.keys() | im.keys()]


def _convolve(left: _Nums, right: _Nums, cap, f: int, out: _Nums) -> None:
    """Add f times the integer product of two real numerator dicts to out,
    keeping the keys below cap; zero entries stay in."""
    # A pair is dropped exactly when its key sum reaches trunc*B^n: a
    # kept pair has degree below trunc < B, so no exponent carries; a
    # dropped one has a key sum of at least degree*B^n.  With the right
    # keys ascending, the first such pair ends a row.
    pairs = sorted(right.items())
    get = out.get
    for e1, c1 in left.items():
        c1 *= f
        room = cap - e1
        for e2, c2 in pairs:
            if e2 >= room:
                break
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2


def _convolve_gaussian(
    left: Tuple[_Nums, _Nums], right: Tuple[_Nums, _Nums], cap, f: int,
    out_re: _Nums, out_im: _Nums,
) -> None:
    """Add f times the product of two Gaussian numerator pairs to (out_re,
    out_im) in one loop over (key, re, im) triples, keeping the keys below
    cap; zero entries stay in."""
    pairs = sorted(_triples(*right))
    get_re, get_im = out_re.get, out_im.get
    for e1, a1, b1 in _triples(*left):
        a1 *= f
        b1 *= f
        room = cap - e1
        for e2, a2, b2 in pairs:
            if e2 >= room:
                break
            e = e1 + e2
            out_re[e] = get_re(e, 0) + a1 * a2 - b1 * b2
            out_im[e] = get_im(e, 0) + a1 * b2 + b1 * a2


def _dot(nvars: int, pairs, trunc: Optional[int]) -> "Series":
    """sum_k a_k * b_k for series a_k in nvars variables and factors b_k,
    each a series or a Gaussian rational triple (p, q, e) = (p + q*i)/e,
    modulo the smallest truncation order among trunc and the factors.

    Every product is accumulated into one pair of numerator dicts over
    the lcm of the product denominators, and the result is made canonical
    once.  A truncated result uses B = trunc + 1; an exact one the largest
    base a product needs, B_a + B_b - 1 for a series factor and B_a for a
    rational one, or 2 for an empty sum."""
    base = 2
    den = 1
    dens = []
    # _min_trunc and max inlined: this loop runs once per pair
    for a, b in pairs:
        if a.nvars != nvars:
            raise ValueError("variable counts differ")
        if trunc is None or a.trunc is not None and a.trunc < trunc:
            trunc = a.trunc
        if isinstance(b, Series):
            if b.nvars != nvars:
                raise ValueError("variable counts differ")
            if trunc is None or b.trunc is not None and b.trunc < trunc:
                trunc = b.trunc
            k, d = a._r[1] + b._r[1] - 1, a._d * b._d
        else:
            k, d = a._r[1], a._d * b[2]
        if k > base:
            base = k
        dens.append(d)
        if den % d:
            den = lcm(den, d)
    ring = _ring(nvars, base if trunc is None else trunc + 1)
    cap = inf if trunc is None else trunc * ring[2]
    re: _Nums = {}
    im: _Nums = {}
    get_re, get_im = re.get, im.get
    for (a, b), d in zip(pairs, dens):
        f = den // d
        left = _repack(a, ring, trunc)
        if isinstance(b, Series):
            right = _repack(b, ring, trunc)
            if left[1] or right[1]:
                _convolve_gaussian(left, right, cap, f, re, im)
            else:
                _convolve(left[0], right[0], cap, f, re)
            continue
        p, q = b[0] * f, b[1] * f
        a_re, a_im = left
        for k, v in a_re.items():
            re[k] = get_re(k, 0) + v * p
        for k, v in a_im.items():
            im[k] = get_im(k, 0) + v * p
        if q:
            for k, v in a_re.items():
                im[k] = get_im(k, 0) + v * q
            for k, v in a_im.items():
                re[k] = get_re(k, 0) - v * q
    return _canonical(ring, re, im, den, trunc)


class Series:
    """Sparse exact series, optionally truncated at a fixed order.

    The terms are held packed over one denominator (see the module
    docstring): ``_re`` and ``_im`` map packed keys in the ring ``_r`` to
    the nonzero integer numerators of the real and imaginary parts, and
    ``_d`` is the positive denominator, coprime to all of them.  The
    ring's base is ``trunc + 1`` for a truncated series and above every
    exponent for an exact one.  :attr:`terms` gives the coefficients as
    Scalars keyed by exponent tuples.
    """

    __slots__ = ("nvars", "trunc", "_re", "_im", "_d", "_r")

    def __init__(
        self,
        nvars: int,
        terms: Optional[Dict[Exponent, Scalar]] = None,
        trunc: Optional[int] = None,
    ):
        if trunc is not None and trunc < 1:
            raise ValueError("truncation order must be a positive integer")
        clean: Dict[Exponent, Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent length does not match nvars")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                if coeff.is_zero():
                    continue
                if trunc is not None and sum(exps) >= trunc:
                    continue
                clean[exps] = coeff
        if trunc is None:
            base = max(2, max(map(sum, clean), default=0) + 1)
        else:
            base = trunc + 1
        ring = _ring(nvars, base)
        units = ring[4]
        packed = {sum(map(mul, e, units)): c for e, c in clean.items()}
        _set(self, ring, *_numerators(packed), trunc)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, trunc: Optional[int] = None) -> "Series":
        if trunc is not None and trunc < 1:
            raise ValueError("truncation order must be a positive integer")
        return _wrap(_ring(nvars, 2 if trunc is None else trunc + 1), {}, {}, 1, trunc)

    @classmethod
    def constant(cls, value, nvars: int, trunc: Optional[int] = None) -> "Series":
        c = value if isinstance(value, Scalar) else Scalar(value)
        return cls(nvars, {(0,) * nvars: c}, trunc)

    @classmethod
    def variable(cls, index: int, nvars: int, trunc: Optional[int] = None) -> "Series":
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        return cls(nvars, {_unit(index, nvars): ONE}, trunc)

    @classmethod
    def monomial(
        cls,
        exps: Exponent,
        coeff=1,
        trunc: Optional[int] = None,
    ) -> "Series":
        c = coeff if isinstance(coeff, Scalar) else Scalar(coeff)
        return cls(len(exps), {tuple(exps): c}, trunc)

    # -- inspection -------------------------------------------------------

    def _keys(self):
        """The packed keys of the stored terms."""
        return self._re.keys() | self._im.keys() if self._im else self._re

    def _coefficient_at(self, key: int) -> Scalar:
        a, b = self._re.get(key, 0), self._im.get(key, 0)
        return _reduced(a, b, self._d) if a or b else ZERO

    @property
    def terms(self) -> Dict[Exponent, Scalar]:
        """The terms keyed by exponent tuples: a fresh dict on each access."""
        ring = self._r
        return {_unpack(k, ring): c for k, c in _scalar_terms(self).items()}

    def is_zero(self) -> bool:
        return not self._re and not self._im

    def __bool__(self) -> bool:
        return bool(self._re) or bool(self._im)

    def degree(self) -> Optional[int]:
        """Largest stored total degree, or None for the zero series."""
        if self.is_zero():
            return None
        return max(self._keys()) // self._r[2]

    def min_degree(self) -> Optional[int]:
        if self.is_zero():
            return None
        return min(self._keys()) // self._r[2]

    def constant_term(self) -> Scalar:
        return self._coefficient_at(0)

    def coefficient(self, exps: Exponent) -> Scalar:
        """The coefficient of x^exps; ZERO for an exponent this series
        cannot hold (wrong length, a negative entry, or an entry at or
        above the ring's base), so no other key is read by accident."""
        n, base, _, _, units = self._r
        exps = tuple(exps)
        if len(exps) != n or any(e < 0 or e >= base for e in exps):
            return ZERO
        return self._coefficient_at(sum(map(mul, exps, units)))

    def sorted_terms(self):
        """Terms as (exponent, coefficient) in descending grlex order,
        leading monomial first."""
        ring, terms = self._r, _scalar_terms(self)
        return [(_unpack(k, ring), terms[k]) for k in sorted(terms, reverse=True)]

    def leading_coefficient(self) -> Scalar:
        if self.is_zero():
            return ZERO
        return self._coefficient_at(max(self._keys()))

    def monic(self) -> "Series":
        lc = self.leading_coefficient()
        if lc.is_zero() or lc == ONE:
            return self
        return self * lc.inverse()

    def truncate(self, order: int) -> "Series":
        """View this series modulo <x>^order (order must not exceed what is
        known); the series itself when order is its truncation order."""
        if order == self.trunc:
            return self
        if order < 1:
            raise ValueError("truncation order must be a positive integer")
        if self.trunc is not None and order > self.trunc:
            raise TruncationError(
                f"cannot extend truncation order {self.trunc} to {order}"
            )
        ring = _ring(self.nvars, order + 1)
        re, im = _repack(self, ring, order)
        if len(re) + len(im) == len(self._re) + len(self._im):
            return _wrap(ring, re, im, self._d, order)  # no term dropped
        return _canonical(ring, re, im, self._d, order)

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other) -> bool:
        # Mathematical equality of the stored representatives; the
        # truncation flag is bookkeeping, not part of the value.
        if not isinstance(other, Series):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        if self._r[1] == other._r[1]:
            return (
                self._d == other._d
                and self._re == other._re
                and self._im == other._im
            )
        return self.terms == other.terms

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return _dot(self.nvars, [(self, _PLUS), (other, _PLUS)], None)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return _dot(self.nvars, [(self, _PLUS), (other, _MINUS)], None)

    def __neg__(self) -> "Series":
        return _dot(self.nvars, [(self, _MINUS)], None)

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            if isinstance(other, Scalar):
                other = other.as_gaussian_ratio()
            elif isinstance(other, (int, Fraction)):
                other = (other.numerator, 0, other.denominator)
            else:
                return NotImplemented
        return _dot(self.nvars, [(self, other)], None)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Series":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a nonnegative integer")
        result = Series.constant(ONE, self.nvars, self.trunc)
        for _ in range(exponent):
            result = result * self
        return result

    def __repr__(self) -> str:
        if self.is_zero():
            body = "0"
        else:
            body = " + ".join(
                f"{c}*x^{e}" for e, c in self.sorted_terms()
            )
        tag = "" if self.trunc is None else f" mod <x>^{self.trunc}"
        return f"<Series {body}{tag}>"


_object_new = object.__new__
_set_nvars = Series.nvars.__set__
_set_trunc = Series.trunc.__set__
_set_re = Series._re.__set__
_set_im = Series._im.__set__
_set_d = Series._d.__set__
_set_r = Series._r.__set__


def _wrap(ring: _Ring, re: _Nums, im: _Nums, d: int, trunc: Optional[int]) -> Series:
    """A series from canonical numerators, not re-checked: every key packs
    an exponent below the ring's base, every numerator is nonzero, d > 0
    is coprime to all of them, every degree lies below trunc, and a
    truncated series uses the ring of base trunc + 1.  The dicts become
    the series' own and are never mutated afterwards."""
    s = _object_new(Series)
    _set(s, ring, re, im, d, trunc)
    return s


def _set(s: Series, ring: _Ring, re: _Nums, im: _Nums, d: int, trunc: Optional[int]):
    _set_nvars(s, ring[0])
    _set_trunc(s, trunc)
    _set_re(s, re)
    _set_im(s, im)
    _set_d(s, d)
    _set_r(s, ring)


def _canonical(ring: _Ring, re: _Nums, im: _Nums, d: int, trunc: Optional[int]) -> Series:
    """Like :func:`_wrap`, but the numerators may hold zeros and share a
    content with d > 0: the zeros are dropped and the content divided
    out with one gcd."""
    if 0 in re.values():
        re = {k: v for k, v in re.items() if v}
    if 0 in im.values():
        im = {k: v for k, v in im.items() if v}
    if d != 1:
        g = gcd(d, *re.values(), *im.values())
        if g != 1:
            re = {k: v // g for k, v in re.items()}
            if im:
                im = {k: v // g for k, v in im.items()}
            d //= g
    s = _object_new(Series)
    _set(s, ring, re, im, d, trunc)
    return s


def _derive(nums: _Nums, p: int, base: int, u: int, cap=inf) -> _Nums:
    """Each numerator with a key below cap times its exponent digit at
    place value p, moved down one in that variable (key - u); terms
    without it are dropped."""
    out: _Nums = {}
    for e, v in nums.items():
        k = e // p % base
        if k and e < cap:
            out[e - u] = v * k
    return out


def _partial(s: Series, j: int, cap=inf) -> Series:
    """d/dx_j applied to the stored terms whose packed keys lie below cap.

    The result is only used inside products with zero-constant-term
    factors, where the final truncation restores a sound claim; it keeps
    the argument's truncation marker for that reason.
    """
    _, base, _, pows, units = s._r
    p, u = pows[j], units[j]
    im = _derive(s._im, p, base, u, cap) if s._im else {}
    return _canonical(s._r, _derive(s._re, p, base, u, cap), im, s._d, s.trunc)


def _split(s: Series, label, sort_key=None) -> Dict[object, Series]:
    """The parts of s whose packed keys share a ``label(key)``, keyed by
    label in ``sorted(labels, key=sort_key)`` order: one pass over its
    terms, each part made canonical once."""
    re: Dict[object, _Nums] = {}
    im: Dict[object, _Nums] = {}
    for k, v in s._re.items():
        re.setdefault(label(k), {})[k] = v
    for k, v in s._im.items():
        im.setdefault(label(k), {})[k] = v
    return {w: _canonical(s._r, re.get(w, {}), im.get(w, {}), s._d, s.trunc)
            for w in sorted(re.keys() | im.keys(), key=sort_key)}


def _graded(s: Series) -> Dict[int, Series]:
    """The homogeneous parts of s keyed by degree in ascending order; only
    the degrees that hold a term appear."""
    return _split(s, s._r[2].__rfloordiv__)


# -- weights ---------------------------------------------------------------


def weight(exps: Exponent, eigenvalues: Sequence[Weight]) -> Weight:
    """Weight of a monomial: the eigenvalue combination sum_j e_j * lambda_j."""
    if len(exps) != len(eigenvalues):
        raise ValueError("exponent length does not match eigenvalue count")
    total = Weight.zero(eigenvalues[0].dim)
    for e, lam in zip(exps, eigenvalues):
        if e:
            total = total + lam.scale(e)
    return total


def weight_decompose(s: Series, eigenvalues: Sequence[Weight]) -> Dict[Weight, Series]:
    """The weight-homogeneous parts of a series keyed by monomial weight,
    in ascending :meth:`Weight.sort_key` order."""
    if len(eigenvalues) != s.nvars:
        raise ValueError("eigenvalue count does not match variable count")
    ring = s._r
    return _split(s, lambda k: weight(_unpack(k, ring), eigenvalues), Weight.sort_key)


# -- derivations ------------------------------------------------------------

FieldLike = Union["VectorField", Sequence[Series]]


def _components(f: FieldLike) -> Tuple[Series, ...]:
    if isinstance(f, VectorField):
        return f.components
    return tuple(f)


def lie_derivative(f: FieldLike, s: Series) -> Series:
    """Directional derivative Dpsi . f along a zero-constant-term field."""
    comps = _components(f)
    if len(comps) != s.nvars:
        raise ValueError("field dimension does not match variable count")
    trunc = s.trunc
    for c in comps:
        if not c.constant_term().is_zero():
            raise CompositionError(
                "lie derivative requires a field with no constant term"
            )
        trunc = _min_trunc(trunc, c.trunc)
    pairs = []
    for j, comp in enumerate(comps):
        if comp:
            d = _partial(s, j)
            if d:
                pairs.append((d, comp))
    return _dot(s.nvars, pairs, trunc)


def lie_bracket(f: FieldLike, g: FieldLike) -> Tuple[Series, ...]:
    """Componentwise [f, g] = Dg . f - Df . g."""
    fc = _components(f)
    gc = _components(g)
    if len(fc) != len(gc):
        raise ValueError("field dimensions differ")
    return tuple(lie_derivative(fc, gi) - lie_derivative(gc, fi)
                 for fi, gi in zip(fc, gc))


def _image(
    key: int, ring: _Ring, subs: Tuple[Series, ...], images: Dict[int, Series]
) -> Series:
    """The image of the monomial packed as ``key`` in ``ring`` under
    x_j -> subs[j], memoized in ``images``: the image of x^e / x_j, for the
    last variable x_j of x^e (the lowest nonzero base-B digit), times
    subs[j].  A loop walks down to the nearest memoized divisor."""
    _, base, _, pows, units = ring
    chain = []
    got = images.get(key)
    while got is None:
        j = len(pows) - 1
        while not key // pows[j] % base:
            j -= 1
        chain.append((key, j))
        key -= units[j]
        got = images.get(key)
    for key, j in reversed(chain):
        got = got * subs[j]
        images[key] = got
    return got


def compose(s: Series, subs: Sequence[Series]) -> Series:
    """Substitute subs[j] for x_j; each substituted series needs a zero
    constant term so the result stays in the local ring."""
    return _compose_all((s,), subs)[0]


def _compose_all(series: Sequence[Series], subs: Sequence[Series]) -> List[Series]:
    """:func:`compose` of each series under one ``subs``.  The images of
    the monomials are memoized per ring and truncation order, so series
    that share both share the images of their common monomials."""
    subs = tuple(subs)
    for s in series:
        if len(subs) != s.nvars:
            raise ValueError("substitution length does not match variable count")
    if not subs:
        raise ValueError("cannot compose a series in zero variables")
    target_nvars = subs[0].nvars
    subs_trunc = None
    for h in subs:
        if h.nvars != target_nvars:
            raise ValueError("substituted series must share one variable set")
        if not h.constant_term().is_zero():
            raise CompositionError("substituted series has a nonzero constant term")
        subs_trunc = _min_trunc(subs_trunc, h.trunc)
    tables: Dict[tuple, Dict[int, Series]] = {}
    out = []
    for s in series:
        trunc = _min_trunc(s.trunc, subs_trunc)
        images = tables.setdefault((s._r, trunc), {0: Series.constant(ONE, target_nvars, trunc)})
        s_re, s_im = s._re, s._im
        pairs = [(_image(k, s._r, subs, images), (s_re.get(k, 0), s_im.get(k, 0), s._d))
                 for k in s._keys()]
        out.append(_dot(target_nvars, pairs, trunc))
    return out


def matvec_series(matrix: linalg.ExactMatrix, vec: Sequence[Series]) -> List[Series]:
    """Matrix of scalars times a vector of series, one ``_dot`` per row; a
    zero row gives the zero series at the truncation order of vec[0]."""
    if len(vec) != matrix.ncols:
        raise ValueError("vector length does not match matrix width")
    nvars = vec[0].nvars
    out = []
    for row in matrix.rows():
        pairs = [(s, c.as_gaussian_ratio()) for s, c in zip(vec, row) if c]
        out.append(_dot(nvars, pairs, None) if pairs else Series.zero(nvars, vec[0].trunc))
    return out


def linear_components(matrix, trunc: Optional[int] = None) -> Tuple[Series, ...]:
    """Components of the linear field x -> M x: row i is sum_j M[i, j] x_j."""
    n = matrix.nrows
    return tuple(
        Series(n, {_unit(j, n): matrix[i, j] for j in range(n)}, trunc)
        for i in range(n)
    )


# -- vector fields -----------------------------------------------------------


class VectorField:
    """A formal vector field with a stationary point at the origin.

    Carries its components together with the exact Jordan-Chevalley data
    of the linear part, one checked :class:`~dulac.linalg.ChevalleyPair`
    ``chevalley`` whose ``linear`` matrix S + N equals the degree-1
    terms.  ``eigenvalues`` holds the pair's eigenvalues as
    :class:`Weight` vectors, and ``embedding`` the concrete basis values
    that embed those weights into Q(i) (:func:`weights_from_scalars`).
    """

    __slots__ = ("components", "chevalley", "eigenvalues", "embedding")

    def __init__(self, components: Sequence[Series], chevalley: linalg.ChevalleyPair):
        components = tuple(components)
        n = len(components)
        if n == 0:
            raise ValueError("a vector field needs at least one component")
        for comp in components:
            if comp.nvars != n:
                raise ValueError("component variable count does not match dimension")
            if not comp.constant_term().is_zero():
                raise ValueError("vector field must vanish at the origin")
        linear = chevalley.linear
        if linear.nrows != n or linear.ncols != n:
            raise ValueError("linear part has the wrong shape")
        for i, comp in enumerate(components):
            for j in range(n):
                if comp.coefficient(_unit(j, n)) != linear[i, j]:
                    raise ValueError(
                        "degree-1 terms of the components disagree with the linear part"
                    )
        if len(chevalley.eigenvalues) != n:
            raise ValueError("need one eigenvalue per dimension")
        eigenvalues, embedding = weights_from_scalars(chevalley.eigenvalues)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "chevalley", chevalley)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "embedding", embedding)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    @classmethod
    def from_components(cls, components: Sequence[Series]) -> "VectorField":
        """Build a field from its components, deriving all linear data.

        The linear part is read off the degree-1 terms and decomposed
        exactly; raises
        :class:`~dulac.errors.UnsupportedSpectrumError` when its
        characteristic polynomial does not split over Q(i).
        """
        components = tuple(components)
        n = len(components)
        rows = []
        for comp in components:
            if comp.nvars != n:
                raise ValueError("component variable count does not match dimension")
            rows.append([comp.coefficient(_unit(j, n)) for j in range(n)])
        pair = linalg.jordan_chevalley(linalg.ExactMatrix.from_rows(rows))
        return cls(components, pair)

    # -- derived views ---------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.components)

    @property
    def trunc_order(self) -> Optional[int]:
        t = None
        for comp in self.components:
            t = _min_trunc(t, comp.trunc)
        return t

    def semisimple_components(self) -> Tuple[Series, ...]:
        """Components of the linear field B_s x (exact polynomials)."""
        return linear_components(self.chevalley.semisimple)

    def g_components(self, order: Optional[int] = None) -> Tuple[Series, ...]:
        """f minus its semisimple linear part, modulo <x>^order when an
        order is given: the operand of L_g."""
        comps = self.components if order is None else [c.truncate(order) for c in self.components]
        return tuple(comp - bs for comp, bs in zip(comps, self.semisimple_components()))

    def truncate(self, order: int) -> "VectorField":
        """This field modulo <x>^order; itself when no component changes."""
        comps = tuple(c.truncate(order) for c in self.components)
        if all(a is b for a, b in zip(comps, self.components)):
            return self
        return VectorField(comps, self.chevalley)

    def __repr__(self) -> str:
        return f"<VectorField dim={self.nvars} trunc={self.trunc_order}>"
