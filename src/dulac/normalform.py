"""Normalization of truncated vector fields at a stationary point.

A field is in normal form when it commutes with the semisimple part of
its own linearization: ``[f, B_s x] = 0`` at the working truncation
order.  :func:`normalize` removes every non-resonant term degree by
degree with near-identity substitutions x -> x + h_k, h_k homogeneous of
degree k, inverting the homological operator on each nonzero eigenspace
through a terminating Neumann series (the nilpotent summand of the
operator is nilpotent on every homogeneous component).  Resonant kernel
directions are projected to zero, i.e. the normalized field keeps exactly
the resonant terms it must.  Each substitution is a finite Taylor sum,
and the new components g solve ``(I + Dh_k) g = f(x + h_k)`` one degree
at a time, since Dh_k raises degrees by k - 1.

All transformations are composed and returned, so the conjugacy identity
``Dh(x) . normalized(x) = f(h(x))`` holds exactly modulo the truncation
ideal and can be rechecked via :func:`conjugacy_residual`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import NotNormalFormError, TruncationError
from .field import Scalar, Weight, _new, _times_int
from .poly import (
    Exponent,
    Series,
    VectorField,
    _partial,
    compose,
    lie_bracket,
    lie_derivative,
    linear_components,
    weight,
)

__all__ = [
    "NormalFormResult",
    "is_resonant",
    "is_pdnf",
    "normalize",
    "conjugacy_residual",
    "lg_nilpotency_index",
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
    """Check [f, B_s x] = 0 at the given (or the field's) truncation order.

    Returns ``(flag, residual)`` with the exact bracket residual, which is
    the zero vector precisely when the field is in normal form.
    """
    work = f if order is None else f.truncate(order)
    residual = lie_bracket(work.components, work.semisimple_components())
    return all(r.is_zero() for r in residual), tuple(residual)


@dataclass(frozen=True)
class NormalFormResult:
    """Outcome of :func:`normalize`.

    ``transformation`` is the near-identity substitution h with
    ``Dh . normalized = f o h`` modulo the truncation ideal.
    """

    normalized: VectorField
    transformation: Tuple[Series, ...]
    trunc_order: int


def _shift(s: Series, h: Sequence[Series]) -> Series:
    """s(x + h) by Taylor's formula, the sum of d^alpha s * h^alpha / alpha!.

    The multi-indices alpha are walked as nondecreasing tuples of variable
    indices; a child tuple appends j >= its parent's last index and derives
    both factors from its parent's.  With no term of h below degree 2,
    h^alpha vanishes modulo the truncation ideal once |alpha| is large,
    which ends the walk.
    """
    total = s
    # (last index, its multiplicity in alpha, d^alpha s / alpha!, h^alpha)
    frontier = [(0, 0, s, None)]
    while frontier:
        grown = []
        for last, run, d, p in frontier:
            for j in range(last, s.nvars):
                m = run + 1 if j == last else 1
                dj = _partial(d, j) if m == 1 else _partial(d, j) * _new(1, 0, m)
                pj = h[j] if p is None else p * h[j]
                if dj.is_zero() or pj.is_zero():
                    continue
                total = total + dj * pj
                grown.append((j, m, dj, pj))
        frontier = grown
    return total


def _conjugate_components(
    components: Sequence[Series], t: linalg.ExactMatrix, t_inv: linalg.ExactMatrix, trunc
) -> List[Series]:
    """Components of T^-1 f(T y) for a linear change of coordinates T."""
    subs = linear_components(t, trunc)
    composed = [compose(c, subs) for c in components]
    return linalg.matvec_series(t_inv, composed)


def _ad_nilpotent(
    nil: linalg.ExactMatrix, nil_comps: Sequence[Series], vec: List[Series]
) -> List[Series]:
    """[B_n y, u] = Du . (B_n y) - B_n u on a vector of series, where
    ``nil_comps`` are the components of the linear field B_n y."""
    part1 = [lie_derivative(nil_comps, u) for u in vec]
    part2 = linalg.matvec_series(nil, vec)
    return [a - b for a, b in zip(part1, part2)]


def normalize(f: VectorField, order: Optional[int] = None) -> NormalFormResult:
    """Remove all non-resonant terms of degree 2..order-1.

    The field must carry a truncation order (or one must be supplied):
    normalization is a statement modulo the truncation ideal.  Works for
    any linear part whose spectrum lies in Q(i); a non-diagonal
    semisimple part is handled by conjugating with the stored
    diagonalizer and mapping the result back, so the returned data live
    in the original coordinates.

    At degree k the field and the accumulated transformation are shifted
    by x -> x + h_k with :func:`_shift`, and the Jacobian factor
    ``(I + Dh_k)^-1`` is applied by the triangular recursion
    ``g_d = F_d - Dh_k g_(d-k+1)`` on homogeneous parts.
    """
    m_order = order if order is not None else f.trunc_order
    if m_order is None:
        raise TruncationError("normalize requires a truncation order")
    work_field = f.truncate(m_order)
    nvars = f.nvars
    lam = f.eigenvalue_scalars()

    diagonal_already = f.semisimple_is_diagonal()
    if diagonal_already:
        comps = list(work_field.components)
        nil = f.nilpotent
    else:
        t = f.diagonalizer
        t_inv = linalg.inverse(t)
        comps = _conjugate_components(work_field.components, t, t_inv, m_order)
        nil = t_inv * f.nilpotent * t

    nil_comps = linear_components(nil, m_order)
    transform = [Series.variable(i, nvars, m_order) for i in range(nvars)]

    for degree in range(2, m_order):
        parts = [c.homogeneous_part(degree) for c in comps]
        if all(p.is_zero() for p in parts):
            continue
        # Terms are grouped by their homological eigenvalue c, a canonical
        # (hashable) Scalar; the groups are walked in first-seen order, and
        # any order gives the same h_k, since its sums are exact.
        groups: Dict[Scalar, List[Dict[Exponent, Scalar]]] = {}
        for i, part in enumerate(parts):
            for exps, coeff in part.terms.items():
                c = -lam[i]
                for k, e in enumerate(exps):
                    if e:
                        c = c + _times_int(lam[k], e)
                if c.is_zero():
                    continue  # resonant: stays
                bucket = groups.setdefault(c, [dict() for _ in range(nvars)])
                bucket[i][exps] = coeff
        if not groups:
            continue
        h_vec = [Series.zero(nvars, m_order) for _ in range(nvars)]
        for c, bucket in groups.items():
            c_inv = c.inverse()
            minus_c_inv = -c_inv
            term = [Series(nvars, terms, m_order) * c_inv for terms in bucket]
            guard = 0
            while any(not t_i.is_zero() for t_i in term):
                h_vec = [h + t_i for h, t_i in zip(h_vec, term)]
                term = [
                    t_i * minus_c_inv
                    for t_i in _ad_nilpotent(nil, nil_comps, term)
                ]
                guard += 1
                if guard > nvars * (degree + 2) ** nvars + 4:
                    raise ArithmeticError(
                        "homological inversion did not terminate"
                    )
        # (I + Dh) g = F with F = f(x + h), one homogeneous degree at a time
        jac = [[_partial(h_i, k) for k in range(nvars)] for h_i in h_vec]
        shifted = [_shift(c, h_vec) for c in comps]
        solved = [[c.homogeneous_part(d) for c in shifted] for d in range(m_order)]
        for d in range(degree, m_order):
            low = solved[d - degree + 1]
            for i in range(nvars):
                for k in range(nvars):
                    if jac[i][k] and low[k]:
                        solved[d][i] = solved[d][i] - jac[i][k] * low[k]
        comps = [sum((part[i] for part in solved), Series.zero(nvars, m_order))
                 for i in range(nvars)]
        transform = [_shift(t_i, h_vec) for t_i in transform]

    if not diagonal_already:
        comps = _conjugate_components(comps, t_inv, t, m_order)
        inv_subs = linear_components(t_inv, m_order)
        transform = linalg.matvec_series(
            t, [compose(t_i, inv_subs) for t_i in transform]
        )

    normalized = VectorField(
        comps,
        f.linear,
        f.semisimple,
        f.nilpotent,
        f.eigenvalues,
        f.embedding,
        f.diagonalizer,
    )
    return NormalFormResult(normalized, tuple(transform), m_order)


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
    """A derived upper bound for :func:`lg_nilpotency_index`.

    Write L_g = L_{B_n} + R where R collects the degree-raising parts
    (each nonlinear homogeneous term raises degree by at least one).  A
    length-L word with at least order-1 raising letters lands in the
    truncation ideal; otherwise some run of L_{B_n} letters has length at
    least (L-order+2)/(order-1), and L_{B_n} is nilpotent of index at
    most (order-1)*(iota-1)+1 on each represented homogeneous component,
    where iota is the nilpotency index of the matrix B_n.  The bound
    below makes every word vanish.
    """
    iota = 1
    power = f.nilpotent
    while not power.is_zero():
        iota += 1
        power = power * f.nilpotent
    nu_max = (order - 1) * (iota - 1) + 1
    return (order - 1) * nu_max + order - 1


def lg_nilpotency_index(
    f: VectorField, phi: Series, order: Optional[int] = None
) -> int:
    """The smallest l with L_g^(l)(phi) = 0 modulo the truncation ideal,
    where g = f - B_s x and f is required to be in normal form."""
    n_order = order
    if n_order is None:
        n_order = phi.trunc if phi.trunc is not None else f.trunc_order
    if n_order is None:
        raise TruncationError("nilpotency index requires a truncation order")
    ok, residual = is_pdnf(f, min(n_order, f.trunc_order) if f.trunc_order else n_order)
    if not ok:
        raise NotNormalFormError(
            "field is not in normal form; L_g need not be nilpotent", residual
        )
    g = tuple(c.truncate(n_order) if c.trunc is None or c.trunc > n_order else c
              for c in f.g_components())
    psi = phi.truncate(n_order) if phi.trunc is None or phi.trunc > n_order else phi
    bound = lg_nilpotency_bound(f, n_order)
    count = 0
    while not psi.is_zero():
        psi = lie_derivative(g, psi)
        count += 1
        if count > bound:
            raise ArithmeticError(
                "nilpotency bound exceeded; the field data are inconsistent"
            )
    return count
