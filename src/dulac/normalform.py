"""Normalization of truncated vector fields at a stationary point.

A field is in normal form when it commutes with the semisimple part of
its own linearization: ``[f, B_s x] = 0`` at the working truncation
order.  :func:`normalize` removes every non-resonant term degree by
degree with near-identity substitutions x -> x + h_k, h_k homogeneous of
degree k, solving the homological equation (D + ad_N) h_k = F_k in the
basis that diagonalizes B_s.  There D multiplies the term x^e of
component i by c(e, i) = sum_j e_j*lambda_j - lambda_i, and ad_N is the
Lie bracket [N y, .] with the nilpotent linear field.  It keeps each
eigenspace of D, so on the non-resonant terms h_k is the finite series
sum_m (-D^-1 ad_N)^m D^-1 F_k, one loop for every eigenvalue at once
(Murdock, *Normal Forms and Unfoldings for Local Dynamical
Systems*, ch. 4).  Resonant terms, where c = 0, are left in place, i.e.
the normalized field keeps exactly the resonant terms it must.  Each
substitution is a Taylor sum cut at the last degree that can survive the
truncation, as in the truncated composition of Brent and Kung ("Fast
algorithms for manipulating formal power series", J. ACM 25, 1978); its
powers h^alpha are shared by the field and the transformation.  The
components are held split into homogeneous parts, and the new components
g solve ``(I + Dh_k) g = f(x + h_k)`` one degree at a time, since Dh_k
raises degrees by k - 1.  Degrees that hold no term are skipped.

All transformations are composed and returned, so the conjugacy identity
``Dh(x) . normalized(x) = f(h(x))`` holds exactly modulo the truncation
ideal and can be rechecked via :func:`conjugacy_residual`.  Every
derivative taken here is a ``lie_derivative`` or ``lie_bracket`` of
:mod:`dulac.poly`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import TruncationError
from .field import Scalar, Weight, _new, weights_from_scalars
from .poly import (
    Exponent,
    Series,
    VectorField,
    _PLUS,
    _canonical,
    _compose_all,
    _dot,
    _graded,
    _partial,
    _triples,
    _unpack,
    _weight_numerators,
    compose,
    lie_bracket,
    lie_derivative,
    linear_components,
    matvec_series,
    weight,
)

__all__ = [
    "NormalFormResult",
    "is_resonant",
    "is_pdnf",
    "normalize",
    "conjugacy_residual",
    "lg_nilpotency_bound",
]


def is_resonant(alpha: Exponent, index: int, eigenvalues: Sequence[Weight]) -> bool:
    """Whether the monomial x^alpha in component ``index`` is resonant,
    i.e. its weight equals the component's eigenvalue.  Only meaningful
    for degree >= 2 monomials."""
    if sum(alpha) < 2:
        raise ValueError("resonance is defined for monomials of degree >= 2")
    if not 0 <= index < len(eigenvalues):
        raise ValueError("component index out of range")
    return weight(alpha, eigenvalues) == eigenvalues[index]


def is_pdnf(f: VectorField, order: Optional[int] = None) -> Tuple[bool, Tuple[Series, ...]]:
    """Check [f, B_s x] = 0 modulo <x>^order, by default at the field's
    own truncation order.

    Returns ``(flag, residual)`` with the exact bracket residual, which is
    the zero vector precisely when the field is in normal form.  The
    truncated components are bracketed directly; no field is built.
    """
    comps = f.components if order is None else [c.truncate(order) for c in f.components]
    residual = lie_bracket(comps, f.semisimple_components())
    return not any(residual), residual


@dataclass(frozen=True)
class NormalFormResult:
    """Outcome of :func:`normalize`.

    ``transformation`` is the near-identity substitution h with
    ``Dh . normalized = f o h`` modulo the truncation ideal.
    """

    normalized: VectorField
    transformation: Tuple[Series, ...]
    trunc_order: int


def _shift(s: Series, h: Sequence[Series], powers: Dict[tuple, Series]) -> Series:
    """s(x + h) by Taylor's formula, the sum of d^alpha s * h^alpha / alpha!,
    modulo the truncation order N of s.

    The multi-indices alpha are walked as nondecreasing tuples of variable
    indices; a child tuple appends j >= its parent's last index and derives
    d^alpha s from its parent's.  ``powers`` maps each tuple to h^alpha,
    built from its parent's power on first use, so every series shifted by
    the same h shares them.  With k the lowest degree of h, a term of
    d^alpha s of degree d contributes at degrees >= d + k*|alpha| only, so
    a child at depth a keeps the terms of degree below N - k*a: it is
    derived from its parent's terms of degree <= N - k*a, and the walk ends
    at the first depth where N - k*a <= 0.  No power is formed past that
    depth or where d^alpha s is zero.  The bound holds for every k >= 1,
    linear terms of h included.
    """
    k = min((p.min_degree() for p in h if p), default=1)
    room = inf if s.trunc is None else s.trunc
    pairs = [(s, _PLUS)]
    # (alpha, the multiplicity of its last index, d^alpha s / alpha!)
    frontier = [((), 0, s)]
    while frontier and room > k:
        room -= k  # N - k*|alpha| for the children derived now
        cap = (room + 1) * s._r[2]
        grown = []
        for alpha, run, d in frontier:
            last = alpha[-1] if alpha else 0
            for j in range(last, s.nvars):
                dj = _partial(d, j, cap)
                if dj.is_zero():
                    continue
                m = run + 1 if j == last else 1
                if m > 1:
                    dj = dj * _new(1, 0, m)
                child = alpha + (j,)
                pj = powers.get(child)
                if pj is None:
                    pj = powers[child] = powers[alpha] * h[j] if alpha else h[j]
                if pj.is_zero():
                    continue
                pairs.append((dj, pj))
                grown.append((child, m, dj))
        frontier = grown
    return _dot(s.nvars, pairs, s.trunc)


def _conjugate_components(
    components: Sequence[Series], t: linalg.ExactMatrix, t_inv: linalg.ExactMatrix, trunc
) -> List[Series]:
    """Components of T^-1 f(T y) for a linear change of coordinates T.  The
    components of several fields may follow one another; all of them share
    one table of monomial images."""
    n = t.nrows
    composed = _compose_all(components, linear_components(t, trunc))
    return [u for i in range(0, len(composed), n)
            for u in matvec_series(t_inv, composed[i:i + n])]


def _inverse_weights(lam: Sequence[Scalar]):
    """D^-1 for the diagonal part D of the homological operator, applied
    to one component: ``invert(s, i)`` divides each term x^e of s by
    c(e, i) = sum_j e_j*lambda_j - lambda_i and drops the resonant terms,
    where c = 0.  That c is the weight of e with its i-th entry lowered
    by one, and ``poly._weight_numerators`` gives it over the basis (1, i)
    of :func:`~dulac.field.weights_from_scalars` as c = (p + q*i) / den
    for integers p and q (q = 0 for a real spectrum), so 1/c =
    den*(p - q*i) / (p^2 + q^2), reduced with one gcd to a canonical
    Gaussian triple.  Each triple is computed once per packed key and
    component, so every series passed must share one ring."""
    den, num = _weight_numerators(weights_from_scalars(lam)[0])
    memo: List[dict] = [{} for _ in lam]

    def invert(s: Series, i: int) -> Series:
        ring = s._r
        cache = memo[i]
        scaled = []
        for k, x, y in _triples(s._re, s._im):
            r = cache.get(k)
            if r is None:
                exps = list(_unpack(k, ring))
                exps[i] -= 1
                p, q = (*num(exps), 0)[:2]
                norm = p * p + q * q
                g = gcd(den * p, den * q, norm)
                r = cache[k] = (den * p // g, -den * q // g, norm // g) if norm else ()
            if r:
                a, b, e = r
                scaled.append((k, x * a - y * b, x * b + y * a, e))
        common = lcm(*(e for _, _, _, e in scaled))
        re, im = {}, {}
        for k, u, v, e in scaled:
            re[k] = u * (common // e)
            if v:
                im[k] = v * (common // e)
        return _canonical(s._r, re, im, s._d * common, s.trunc)

    return invert


def _homological_solution(
    parts: Sequence[Series], invert, nil_comps: Sequence[Series]
) -> List[Series]:
    """The h without resonant terms that solves (D + ad_N) h = the
    non-resonant part of the homogeneous ``parts``, with ``invert`` as
    from :func:`_inverse_weights`.  ad_N u = Du . (N y) - N u is the Lie
    bracket [N y, u] with the linear field whose components are
    ``nil_comps``.  It keeps every eigenspace of D, so it commutes with
    D^-1 and h = sum_m (-D^-1 ad_N)^m D^-1 parts, a finite sum since ad_N
    is nilpotent on each homogeneous degree."""
    h = term = [invert(p, i) for i, p in enumerate(parts)]
    if not any(nil_comps):
        return h
    for _ in range(len(parts) * (parts[0].trunc + 1) ** len(parts)):
        term = [invert(-u, i) for i, u in enumerate(lie_bracket(nil_comps, term))]
        if not any(term):
            return h
        h = [a + b for a, b in zip(h, term)]
    raise ArithmeticError("homological inversion did not terminate")


def normalize(f: VectorField) -> NormalFormResult:
    """Remove all non-resonant terms of degree 2..N-1, N the field's
    truncation order.

    The field must carry a truncation order: normalization is a
    statement modulo the truncation ideal.  Works for any linear part
    whose spectrum lies in Q(i); a non-diagonal semisimple part is handled
    by conjugating with the stored diagonalizer and its inverse and
    mapping the result back, so the returned data live in the original
    coordinates.  Normalization keeps the linear part, so the normalized
    field carries f's checked :class:`~dulac.linalg.ChevalleyPair` itself.

    The components are kept as homogeneous parts by degree, and the loop
    steps from one degree that holds a term to the next, so a linear
    field at a huge order does no work per degree.  At degree k, h_k
    comes from :func:`_homological_solution`: D^-1 divides each term by
    its weight difference c(e, i), computed in integers once per monomial
    and component in this call, and the ad_N rounds (Lie brackets with
    the nilpotent linear field) run only when it is nonzero.  The field
    and the accumulated transformation are then shifted by x -> x + h_k
    with :func:`_shift`, all 2n series sharing one table of powers
    h^alpha; each shifted component is split into its parts in one pass,
    and the Jacobian factor ``(I + Dh_k)^-1`` is applied by the triangular
    recursion ``g_d = F_d - Dh_k g_(d-k+1)`` on them.  The changes of
    coordinates into and out of the diagonalizing basis share one table
    of monomial images per direction.
    """
    m_order = f.trunc_order
    if m_order is None:
        raise TruncationError("normalize requires a truncation order")
    comps = [c.truncate(m_order) for c in f.components]
    nvars = f.nvars

    pair = f.chevalley
    diagonal_already = pair.semisimple.is_diagonal()
    if diagonal_already:
        nil = pair.nilpotent
    else:
        t, t_inv = pair.diagonalizer, pair.diagonalizer_inverse
        comps = _conjugate_components(comps, t, t_inv, m_order)
        nil = t_inv * pair.nilpotent * t

    nil_comps = linear_components(nil, m_order)
    transform = [Series.variable(i, nvars, m_order) for i in range(nvars)]
    zero = Series.zero(nvars, m_order)
    graded = [_graded(c) for c in comps]

    invert = _inverse_weights(pair.eigenvalues)
    degree = 1
    while True:
        # the next degree that holds a term: an empty one would give h = 0
        degree = min((d for g in graded for d, p in g.items() if d > degree and p),
                     default=None)
        if degree is None:
            break
        parts = [g.get(degree, zero) for g in graded]
        h_vec = _homological_solution(parts, invert, nil_comps)
        if not any(h_vec):
            continue
        # (I + Dh) g = F with F = f(x + h), one homogeneous degree at a time
        # the Jacobian of -h_k, so that each g_d below is one sum
        jac = [[_partial(h_i, k) for k in range(nvars)] for h_i in [-h for h in h_vec]]
        powers: Dict[tuple, Series] = {}
        graded = [_graded(_shift(_dot(nvars, [(p, _PLUS) for p in g.values()], m_order),
                                 h_vec, powers))
                  for g in graded]
        for d in range(degree, m_order):
            low = [g.get(d - degree + 1) for g in graded]
            for i, g in enumerate(graded):
                pairs = [(jac[i][k], low[k]) for k in range(nvars) if jac[i][k] and low[k]]
                if pairs:
                    g[d] = _dot(nvars, [(g.get(d, zero), _PLUS), *pairs], m_order)
        transform = [_shift(t_i, h_vec, powers) for t_i in transform]
    comps = [_dot(nvars, [(p, _PLUS) for p in g.values()], m_order) for g in graded]

    if not diagonal_already:
        back = _conjugate_components(comps + transform, t_inv, t, m_order)
        comps, transform = back[:nvars], back[nvars:]

    return NormalFormResult(VectorField(comps, pair), tuple(transform), m_order)


def conjugacy_residual(f: VectorField, result: NormalFormResult) -> Tuple[Series, ...]:
    """Dh . normalized - f o h, which must vanish modulo the truncation ideal."""
    h = result.transformation
    norm_comps = result.normalized.components
    out = []
    for h_i, f_i in zip(h, f.truncate(result.trunc_order).components):
        lhs = lie_derivative(norm_comps, h_i)
        rhs = compose(f_i, h)
        out.append(lhs - rhs)
    return tuple(out)


def lg_nilpotency_bound(f: VectorField, order: int) -> int:
    """A derived upper bound for the nilpotency index of L_g on R_order,
    g = f - B_s x for f in normal form.

    Write L_g = L_{B_n} + R where R collects the degree-raising parts
    (each nonlinear homogeneous term raises degree by at least one).  A
    length-L word with at least order-1 raising letters lands in the
    truncation ideal; otherwise some run of L_{B_n} letters has length at
    least (L-order+2)/(order-1), and L_{B_n} is nilpotent of index at
    most (order-1)*(iota-1)+1 on each represented homogeneous component,
    where iota is the nilpotency index of the matrix B_n.  The bound
    below makes every word vanish.
    """
    nil = f.chevalley.nilpotent
    iota = 1
    power = nil
    while not power.is_zero():
        iota += 1
        power = power * nil
    nu_max = (order - 1) * (iota - 1) + 1
    return (order - 1) * nu_max + order - 1
