"""Tests for sparse series arithmetic, weights, Lie calculus, composition."""

import ast
import os
import random
from fractions import Fraction
from math import gcd, inf
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac import poly
from dulac.errors import CompositionError, TruncationError
from dulac.field import ONE, ZERO, Scalar, Weight, weights_from_scalars
from dulac.linalg import ExactMatrix
from dulac.poly import (
    Series,
    VectorField,
    _PLUS,
    _compose_all,
    _dot,
    _graded,
    _partial,
    _ring,
    _scalar_terms,
    compose,
    grlex_key,
    lie_bracket,
    lie_derivative,
    matvec_series,
    weight,
    weight_decompose,
)

X = (1, 0)
Y = (0, 1)


def _s(terms, trunc=None, nvars=2):
    return Series(nvars, {e: Scalar(c) for e, c in terms.items()}, trunc)


def test_series_canonical_form_drops_zero_and_truncated():
    s = Series(2, {(0, 0): Scalar(0), (3, 1): Scalar(5), (1, 0): Scalar(2)}, 4)
    # (3,1) has degree 4 >= trunc, so only x survives alongside nothing else
    assert s.terms == {(1, 0): Scalar(2)}
    assert s.trunc == 4


def test_series_equality_ignores_truncation_marker():
    assert _s({X: 1}, 5) == _s({X: 1}, 9)
    assert _s({X: 1}) != _s({Y: 1})


def test_series_addition_and_scaling():
    a = _s({X: 1, (2, 0): 3})
    b = _s({X: -1, Y: 2})
    assert a + b == _s({(2, 0): 3, Y: 2})
    assert a - a == Series.zero(2)
    assert a * Scalar(2) == _s({X: 2, (2, 0): 6})
    assert a * Fraction(1, 3) == _s({X: Fraction(1, 3), (2, 0): 1})
    # an operand that is not a coefficient raises TypeError
    for other in (1.5, "2", None):
        with pytest.raises(TypeError):
            a * other
        with pytest.raises(TypeError):
            other * a


def test_series_multiplication_truncates_to_finest():
    a = _s({X: 1}, 3)
    b = _s({(2, 0): 1}, 5)
    prod = a * b
    assert prod.trunc == 3
    assert prod.is_zero()  # x * x^2 = x^3 dies at trunc 3
    exact = _s({X: 1}) * _s({(2, 0): 1})
    assert exact == _s({(3, 0): 1})
    assert exact.trunc is None


def test_series_power():
    base = _s({X: 1, Y: 1})
    assert base ** 2 == _s({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert base ** 0 == Series.constant(Scalar(1), 2)


def test_series_degrees_and_parts():
    s = _s({Y: 2, (3, 0): 1, (1, 2): -4}, 5)
    assert s.min_degree() == 1
    assert s.degree() == 3
    assert list(_graded(s)) == [1, 3]
    assert _graded(s)[3] == _s({(3, 0): 1, (1, 2): -4})


def test_series_truncate_only_coarsens():
    s = _s({X: 1, (3, 0): 1}, 6)
    cut = s.truncate(3)
    assert cut == _s({X: 1})
    assert cut.trunc == 3
    with pytest.raises(TruncationError):
        cut.truncate(6)


def test_truncate_to_the_same_order_is_the_series_itself():
    s = _s({X: 1, (3, 0): 2, (1, 2): 5}, 6)
    assert s.truncate(6) is s
    cut = s.truncate(3)
    assert cut.terms == {X: Scalar(1)} and cut.trunc == 3
    assert cut == Series(2, s.terms, 3)
    with pytest.raises(ValueError):
        _s({X: 1}).truncate(0)


def test_leading_data_grlex():
    s = _s({(2, 1): 3, (0, 3): 5, X: 7})
    # grlex: both degree-3 monomials beat x; (2,1) > (0,3) in grlex
    assert s.sorted_terms()[0][0] == (2, 1)
    assert s.leading_coefficient() == Scalar(3)
    assert s.monic().leading_coefficient() == Scalar(1)


def test_grlex_key_orders_by_degree_first():
    assert grlex_key((0, 3)) < grlex_key((2, 2))
    assert grlex_key((1, 1)) > grlex_key((0, 2))


def _ref_weight(exps, eigenvalues):
    """sum_j e_j*lambda_j summed coordinate by coordinate in Fractions,
    sharing no code with ``poly``'s integer numerators."""
    coords = [Fraction(0)] * eigenvalues[0].dim
    for e, lam in zip(exps, eigenvalues):
        for t, c in enumerate(lam.coords):
            coords[t] += Fraction(e) * c
    return Weight(coords)


def test_weight_of_exponent():
    weights, _ = weights_from_scalars([Scalar(1), Scalar(3)])
    assert weight((3, 0), weights) == Weight((3,)) == _ref_weight((3, 0), weights)
    assert weight((3, 0), weights) == weights[1]  # 3*1 == 3


def test_weight_decompose_reconstructs():
    rng = random.Random(77)
    weights, _ = weights_from_scalars([Scalar(1), Scalar(-2), Scalar(2)])
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            terms[e] = Scalar(rng.randint(-5, 5))
        s = Series(3, terms, 7)
        dec = weight_decompose(s, weights)
        total = Series.zero(3, 7)
        seen = set()
        for w, component in dec.items():
            assert w not in seen
            seen.add(w)
            for exps in component.terms:
                assert _ref_weight(exps, weights) == w
            total = total + component
        assert total == s


def test_lie_derivative_product_rule():
    rng = random.Random(3)
    f = [
        _s({X: 1, (2, 0): 2}, 6),
        _s({Y: 3, (1, 1): -1}, 6),
    ]
    for _ in range(25):
        a_terms = {tuple(rng.randint(0, 2) for _ in range(2)): Scalar(rng.randint(-3, 3))}
        b_terms = {tuple(rng.randint(0, 2) for _ in range(2)): Scalar(rng.randint(-3, 3))}
        a = Series(2, a_terms, 6)
        b = Series(2, b_terms, 6)
        left = lie_derivative(f, a * b)
        right = lie_derivative(f, a) * b + a * lie_derivative(f, b)
        assert left == right


def test_lie_derivative_linear_diag_multiplies_by_weight():
    f = [_s({X: 1}, 8), _s({Y: 3}, 8)]
    psi = _s({(3, 0): 1, (0, 2): 1}, 8)
    out = lie_derivative(f, psi)
    assert out == _s({(3, 0): 3, (0, 2): 6})


def test_lie_derivative_rejects_constant_terms_in_field():
    bad = [_s({(0, 0): 1}, 5), _s({Y: 1}, 5)]
    with pytest.raises(CompositionError):
        lie_derivative(bad, _s({X: 1}, 5))


def test_lie_bracket_antisymmetry_and_jacobi():
    rng = random.Random(9)

    def rand_field():
        comps = []
        for i in range(2):
            terms = {tuple(1 if k == i else 0 for k in range(2)): Scalar(1)}
            for _ in range(rng.randint(0, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(2))
                if sum(e) >= 1:
                    terms[e] = Scalar(rng.randint(-2, 2))
            comps.append(Series(2, {k: v for k, v in terms.items() if not v.is_zero()}, 5))
        return comps

    for _ in range(10):
        f, g, h = rand_field(), rand_field(), rand_field()
        fg = lie_bracket(f, g)
        gf = lie_bracket(g, f)
        assert all((a + b).is_zero() for a, b in zip(fg, gf))
        jac1 = lie_bracket(f, lie_bracket(g, h))
        jac2 = lie_bracket(g, lie_bracket(h, f))
        jac3 = lie_bracket(h, lie_bracket(f, g))
        assert all((a + b + c).is_zero() for a, b, c in zip(jac1, jac2, jac3))


def test_compose_with_identity_is_identity():
    s = _s({(2, 1): 4, X: 1}, 6)
    identity = [Series.variable(i, 2, 6) for i in range(2)]
    assert compose(s, identity) == s


def test_compose_simple_substitution():
    # substitute x -> x + y^2 into x^2
    s = _s({(2, 0): 1}, 6)
    subs = [_s({X: 1, (0, 2): 1}, 6), Series.variable(1, 2, 6)]
    assert compose(s, subs) == _s({(2, 0): 1, (1, 2): 2, (0, 4): 1})


def test_compose_builds_images_of_any_degree():
    # the image of y^1500 is built from those of its divisors, far past the
    # interpreter's recursion limit; the other monomials walk down to
    # divisors already memoized
    s = _s({(0, 3): 1, (0, 1500): 1, (1, 1499): 1}, 1501)
    subs = [_s({X: 1, Y: 1}, 1501), _s({Y: 2}, 1501)]
    assert compose(s, subs) == _s(
        {(0, 3): 8, (0, 1500): 2 ** 1500 + 2 ** 1499, (1, 1499): 2 ** 1499}, 1501
    )


def test_compose_rejects_nonzero_constant_term():
    s = _s({X: 1}, 5)
    subs = [_s({(0, 0): 1, X: 1}, 5), Series.variable(1, 2, 5)]
    with pytest.raises(CompositionError):
        compose(s, subs)


def test_compose_associates_with_lie_derivative_pullback():
    # chain rule: L_{phi^* f}(psi o phi) = (L_f psi) o phi, phi a shear
    f = [_s({X: 1, (0, 2): 1}, 6), _s({Y: 2}, 6)]
    psi = _s({(1, 1): 1}, 6)
    phi = [_s({X: 1, Y: 1}, 6), _s({Y: 1}, 6)]
    # phi^* f = Dphi^{-1} (f o phi) = (x - y + y^2, 2y), computed by hand
    pulled = [_s({X: 1, Y: -1, (0, 2): 1}, 6), _s({Y: 2}, 6)]
    lhs = lie_derivative(pulled, compose(psi, phi))
    rhs = compose(lie_derivative(f, psi), phi)
    assert lhs == rhs


def _compose_by_powers(s, subs):
    """``compose`` as it was: a cache of powers of each substituted series,
    one product per variable of each monomial, and the terms summed
    series by series.  The reference for the one-image-per-monomial
    version."""
    target_nvars = subs[0].nvars
    trunc = s.trunc
    for h in subs:
        if h.trunc is not None:
            trunc = h.trunc if trunc is None else min(trunc, h.trunc)
    powers = {j: [Series.constant(1, target_nvars, trunc)] for j in range(s.nvars)}

    def power(j, k):
        cache = powers[j]
        while len(cache) <= k:
            cache.append(cache[-1] * subs[j])
        return cache[k]

    total = Series.zero(target_nvars, trunc)
    for e, c in s.terms.items():
        term = Series.constant(c, target_nvars, trunc)
        for j, k in enumerate(e):
            if k:
                term = term * power(j, k)
        total = total + term
    return total


def test_compose_matches_the_power_cache_reference():
    rng = random.Random(3313)

    def poly(nvars, trunc, gaussian, min_degree, max_degree):
        top = max_degree if trunc is None else min(max_degree, trunc - 1)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = [0] * nvars
            for _ in range(rng.randint(min_degree, top)):
                exps[rng.randrange(nvars)] += 1
            re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if gaussian else 0
            terms[tuple(exps)] = Scalar(re, im)
        return Series(nvars, terms, trunc)

    for case in range(150):
        source, target = rng.randint(1, 3), rng.randint(1, 3)
        gaussian = rng.random() < 0.5
        truncs = [None, 2, 3, 4, 6]
        s = poly(source, rng.choice(truncs), gaussian, 0, 4)
        # even cases substitute linear series, odd cases nonlinear ones
        subs = [
            poly(target, rng.choice(truncs), gaussian, 1, 1 if case % 2 == 0 else 3)
            for _ in range(source)
        ]
        got = compose(s, subs)
        want = _compose_by_powers(s, subs)
        assert got == want
        assert got.trunc == want.trunc


def _series_of(nvars, truncs, min_degree=0):
    exponents = st.tuples(*[st.integers(0, 3)] * nvars).filter(
        lambda e: sum(e) >= min_degree
    )
    coeffs = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
    return st.builds(
        Series, st.just(nvars), st.dictionaries(exponents, coeffs, max_size=5), truncs
    )


def _assert_canonical(r):
    for e, c in r.terms.items():
        assert len(e) == r.nvars and min(e) >= 0
        assert not c.is_zero()
        assert r.trunc is None or sum(e) < r.trunc
    assert r == Series(r.nvars, r.terms, r.trunc)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_series_results_are_canonical_under_mixed_truncations(data, nvars):
    any_trunc = st.sampled_from([None, 2, 3, 4, 5])
    a = data.draw(_series_of(nvars, any_trunc))
    b = data.draw(_series_of(nvars, any_trunc))
    # a copy of a at another truncation makes cancellations likely
    a_cut = Series(nvars, a.terms, data.draw(any_trunc))
    c = data.draw(st.sampled_from([Scalar(0), Scalar(-1), Scalar(2, 1), 3]))
    j = data.draw(st.integers(0, nvars - 1))
    # bounded truncations keep composition small
    field = data.draw(st.lists(
        _series_of(nvars, st.sampled_from([2, 3, 4]), min_degree=1),
        min_size=nvars, max_size=nvars,
    ))
    results = [
        a + b, a - b, a - a_cut, a * b, -a, a * c, c * a,
        *_graded(a).values(), _partial(a, j),
        lie_derivative(field, a), compose(a, field),
    ]
    for r in results:
        _assert_canonical(r)


def test_vector_field_from_components_diagonal():
    f = VectorField.from_components([
        _s({X: 1, (0, 2): 5}, 6),
        _s({Y: 3}, 6),
    ])
    assert f.nvars == 2
    assert f.trunc_order == 6
    assert f.chevalley.semisimple.is_diagonal()
    assert f.chevalley.eigenvalues == (Scalar(1), Scalar(3))
    gs = f.g_components()
    assert gs[0] == _s({(0, 2): 5})
    assert gs[1].is_zero()
    # modulo <x>^order: y^2 survives order 3, not order 2
    g3 = f.g_components(3)
    assert g3[0] == _s({(0, 2): 5}, 3) and g3[0].trunc == 3 and g3[1].is_zero()
    assert all(g.is_zero() and g.trunc == 2 for g in f.g_components(2))


def test_vector_field_chevalley_split_on_jordan_block():
    f = VectorField.from_components([
        _s({X: 2, Y: 1}, 5),
        _s({Y: 2}, 5),
    ])
    assert f.chevalley.semisimple.is_diagonal()
    assert not f.chevalley.nilpotent.is_zero()
    assert f.chevalley.eigenvalues == (Scalar(2), Scalar(2))
    semi = f.semisimple_components()
    assert semi[0] == _s({X: 2})


def test_vector_field_truncate():
    f = VectorField.from_components([
        _s({X: 1, (3, 0): 1}, 6),
        _s({Y: 1}, 6),
    ])
    cut = f.truncate(3)
    assert cut.trunc_order == 3
    assert cut.components[0] == _s({X: 1})
    assert cut.chevalley is f.chevalley
    # at its own order no component changes, so nothing is rebuilt
    assert f.truncate(f.trunc_order) is f
    assert cut.truncate(3) is cut
    exact = VectorField.from_components([_s({X: 1}), _s({Y: 1})])
    assert exact.truncate(3) is not exact
    assert exact.truncate(3).trunc_order == 3


def test_vector_field_requires_matching_linear_part():
    from dulac.linalg import ChevalleyPair, ExactMatrix

    good = VectorField.from_components([_s({X: 1}, 4), _s({Y: 3}, 4)])
    two = ExactMatrix.diagonal([Scalar(2), Scalar(2)])
    one = ExactMatrix.identity(2)
    other = ChevalleyPair(two, two - two, (Scalar(2), Scalar(2)), one, one)
    with pytest.raises(ValueError, match="degree-1 terms .* disagree with the linear part"):
        VectorField(good.components, other)
    assert VectorField(good.components, good.chevalley).chevalley is good.chevalley


# -- the packed kernel against tuple-keyed arithmetic ------------------------
#
# A series is a pair (terms keyed by exponent tuples, trunc): the storage
# Series used before its terms were packed.  Each function below is the
# corresponding Series operation as it was on that storage.


def _ref_min(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _ref_clean(terms, trunc):
    return {
        e: c for e, c in terms.items()
        if not c.is_zero() and (trunc is None or sum(e) < trunc)
    }


def _ref_add(a, b):
    trunc = _ref_min(a[1], b[1])
    terms = dict(a[0])
    for e, c in b[0].items():
        terms[e] = terms[e] + c if e in terms else c
    return _ref_clean(terms, trunc), trunc


def _ref_mul(a, b):
    trunc = _ref_min(a[1], b[1])
    terms = {}
    for e1, c1 in a[0].items():
        for e2, c2 in b[0].items():
            e = tuple(map(add, e1, e2))
            terms[e] = terms[e] + c1 * c2 if e in terms else c1 * c2
    return _ref_clean(terms, trunc), trunc


def _ref_partial(a, j):
    terms = {
        e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j] for e, c in a[0].items() if e[j]
    }
    return terms, a[1]


def _ref_homogeneous_part(a, k):
    return {e: c for e, c in a[0].items() if sum(e) == k}, a[1]


def _ref_truncate(a, order):
    return _ref_clean(a[0], order), order


def _ref_sorted_terms(a):
    return sorted(a[0].items(), key=lambda t: grlex_key(t[0]), reverse=True)


def _ref_weight_decompose(a, eigenvalues):
    buckets = {}
    for e, c in a[0].items():
        buckets.setdefault(_ref_weight(e, eigenvalues), {})[e] = c
    return [(w, (buckets[w], a[1])) for w in sorted(buckets, key=lambda w: w.coords)]


# Eigenvalues with 1-, 2- and 3-dimensional weights for up to four
# variables, chosen so that distinct monomials share a weight: x_0^2 and
# x_1, x_0 and x_2 (first list); x_0 and x_1, x_0*x_1 and x_2 (second);
# x_0*x_1 and x_2 (third).
_REF_EIGENVALUES = [
    [Weight((c,)) for c in (1, 2, 1, Fraction(-1, 2))],
    [Weight(c) for c in ((1, 0), (1, 0), (2, 0), (0, Fraction(1, 3)))],
    [Weight(c) for c in ((1, 0, -1), (0, 1, 1), (1, 1, 0), (0, 0, 2))],
]


def _ref_compose(a, subs, target_nvars):
    trunc = a[1]
    for h in subs:
        trunc = _ref_min(trunc, h[1])
    total = ({}, trunc)
    for e, c in a[0].items():
        term = ({(0,) * target_nvars: c}, trunc)
        for j, k in enumerate(e):
            for _ in range(k):
                term = _ref_mul(term, subs[j])
        total = _ref_add(total, term)
    return total


def _ref(s):
    return s.terms, s.trunc


def _assert_matches(got, want):
    assert got.terms == want[0]
    assert got.trunc == want[1]


def _random_terms(rng, nvars, degree, gaussian, min_degree=0):
    """Up to five terms of degree min_degree..degree, always including
    x_0^degree, so exact products reach exponents beyond both bases."""
    terms = {(degree,) + (0,) * (nvars - 1): Scalar(rng.randint(1, 3))}
    for _ in range(rng.randint(0, 4)):
        exps = [0] * nvars
        for _ in range(rng.randint(min_degree, degree)):
            exps[rng.randrange(nvars)] += 1
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if gaussian else 0
        terms[tuple(exps)] = Scalar(re, im)
    return terms


def _kernel_pairs():
    """Seeded operand pairs: equal truncations, mixed truncations, exact
    times truncated and exact times exact, n = 1..4, rational and
    Gaussian coefficients."""
    rng = random.Random(907)
    kinds = ["equal", "mixed", "exact-truncated", "exact-exact"]
    for case in range(240):
        nvars = 1 + case % 4
        kind = kinds[case // 4 % 4]
        gaussian = case % 3 == 0
        if kind == "equal":
            truncs = [rng.randint(1, 7)] * 2
        elif kind == "mixed":
            truncs = rng.sample(range(1, 8), 2)
        elif kind == "exact-truncated":
            truncs = [None, rng.randint(1, 7)]
            rng.shuffle(truncs)
        else:
            truncs = [None, None]
        a, b = (
            Series(nvars, _random_terms(rng, nvars, rng.randint(0, 5), gaussian), t)
            for t in truncs
        )
        yield rng, nvars, a, b


def test_packed_kernel_matches_the_tuple_keyed_reference():
    for rng, nvars, a, b in _kernel_pairs():
        _assert_matches(a + b, _ref_add(_ref(a), _ref(b)))
        _assert_matches(a - b, _ref_add(_ref(a), _ref(-b)))
        _assert_matches(a * b, _ref_mul(_ref(a), _ref(b)))
        # results of mixed rings as operands again
        _assert_matches((a * b) * a, _ref_mul(_ref_mul(_ref(a), _ref(b)), _ref(a)))
        _assert_matches((a + b) * b, _ref_mul(_ref_add(_ref(a), _ref(b)), _ref(b)))
        for s in (a, b, a * b):
            for j in range(nvars):
                _assert_matches(_partial(s, j), _ref_partial(_ref(s), j))
            top = 6 if s.trunc is None else s.trunc - 1
            for k, part in _graded(s).items():
                _assert_matches(part, _ref_homogeneous_part(_ref(s), k))
            for eigenvalues in _REF_EIGENVALUES:
                parts = weight_decompose(s, eigenvalues[:nvars])
                want = _ref_weight_decompose(_ref(s), eigenvalues[:nvars])
                assert list(parts) == [w for w, _ in want]
                for part, (_, ref_part) in zip(parts.values(), want):
                    _assert_matches(part, ref_part)
            order = rng.randint(1, top + 1)
            _assert_matches(s.truncate(order), _ref_truncate(_ref(s), order))
            assert s.sorted_terms() == _ref_sorted_terms(_ref(s))
            assert [e for e, _ in s.sorted_terms()] == sorted(
                s.terms, key=grlex_key, reverse=True
            )
            if s:
                assert s.degree() == max(map(sum, s.terms))
                assert s.min_degree() == min(map(sum, s.terms))


def _symbolic_spectrum(draw, nvars, dim):
    """Eigenvalues with coordinates p/q, |p| <= 30 and q <= 30; each one
    after the first is fresh or a small integer combination of earlier
    ones, so that distinct monomials share weights."""
    coord = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))
    spectrum = []
    for j in range(nvars):
        if j and draw(st.booleans()):
            factors = draw(st.lists(st.integers(-2, 2), min_size=j, max_size=j))
            coords = [sum(f * lam.coords[t] for f, lam in zip(factors, spectrum))
                      for t in range(dim)]
        else:
            coords = draw(st.lists(coord, min_size=dim, max_size=dim))
        spectrum.append(Weight(coords))
    return spectrum


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), nvars=st.integers(1, 4), dim=st.integers(1, 3),
       gaussian=st.booleans())
def test_weight_split_matches_the_fraction_oracle(data, nvars, dim, gaussian):
    spectrum = _symbolic_spectrum(data.draw, nvars, dim)
    exponents = st.tuples(*[st.integers(0, 4)] * nvars)
    part = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 30))
    coeffs = st.builds(Scalar, part, part if gaussian else st.just(0))
    s = Series(nvars, data.draw(st.dictionaries(exponents, coeffs, max_size=12)),
               data.draw(st.sampled_from([None, 3, 5, 9])))
    parts = weight_decompose(s, spectrum)
    want = _ref_weight_decompose(_ref(s), spectrum)
    assert list(parts) == [w for w, _ in want]
    for got, (_, ref_part) in zip(parts.values(), want):
        _assert_matches(got, ref_part)
    rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))
    exps = data.draw(st.tuples(*[rational] * nvars))
    assert weight(exps, spectrum) == _ref_weight(exps, spectrum)


def test_weight_refuses_mixed_dimensions():
    with pytest.raises(ValueError, match="dimensions differ"):
        weight((1, 1), [Weight((1,)), Weight((1, 2))])


def test_packed_compose_matches_the_tuple_keyed_reference():
    rng = random.Random(1201)
    truncs = [None, 1, 2, 3, 4, 5]
    for case in range(120):
        source, target = 1 + case % 4, rng.randint(1, 4)
        gaussian = case % 3 == 0
        s = Series(source, _random_terms(rng, source, rng.randint(0, 3), gaussian),
                   rng.choice(truncs))
        subs = [
            Series(target, _random_terms(rng, target, rng.randint(1, 2), gaussian,
                                         min_degree=1), rng.choice(truncs))
            for _ in range(source)
        ]
        _assert_matches(
            compose(s, subs), _ref_compose(_ref(s), [_ref(h) for h in subs], target)
        )


def test_coefficient_outside_the_ring_is_zero():
    # exact, degree 2: base B = 3
    s = Series(2, {(0, 0): ONE, (1, 0): Scalar(2), (1, 1): Scalar(3)})
    base = s._r[1]
    assert base == 3
    assert s.coefficient((1, 0)) == Scalar(2)
    assert s.coefficient([1, 1]) == Scalar(3)
    for exps in [(0, base), (base, 0), (-1, 0), (1, -1), (1,), (1, 0, 0), (1, 0, 5)]:
        assert s.coefficient(exps) == ZERO
    # in three variables these exponents pack to the keys of stored terms
    for base, exps, alias in [(2, (-1, 3, -2), (0, 0, 0)), (3, (-2, 2, 3), (2, 0, 0))]:
        ring = _ring(3, base)
        assert sum(map(lambda e, u: e * u, exps, ring[4])) == sum(
            map(lambda e, u: e * u, alias, ring[4])
        )
        t = Series(3, {alias: Scalar(7), (0, 0, base - 1): ONE})
        assert t._r is ring
        assert t.coefficient(alias) == Scalar(7)
        assert t.coefficient(exps) == ZERO


def test_equality_across_rings():
    p = Series(2, {(2, 0): Scalar(1), (0, 1): Scalar(-2)})
    far = p.truncate(40)
    assert far._r[1] != p._r[1]
    assert p == far and far == p
    assert p != Series(2, {(2, 0): Scalar(1)}, 40)
    # a cancelling exact sum keeps the base of its larger operand
    q = Series(2, {(3, 0): ONE, (0, 1): ONE}) + Series(2, {(3, 0): -ONE})
    fresh = Series(2, {(0, 1): ONE})
    assert q._r[1] != fresh._r[1]
    assert q == fresh


def test_traced_series_methods_stay_on_the_class():
    # perfbench/tracer.py wraps these attributes on the Series class; a
    # name that moved elsewhere would silently drop out of the trace
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    methods = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "METHODS" for t in node.targets)
    )
    names = [attr for layer, cls, attr in methods if (layer, cls) == ("poly", "Series")]
    assert names
    for name in names:
        assert name in Series.__dict__, name


# -- numerators over one denominator -------------------------------------------


def _assert_numerators_canonical(s):
    """d > 0, gcd(d, every numerator) == 1, no stored zero."""
    assert s._d > 0
    assert 0 not in s._re.values() and 0 not in s._im.values()
    assert gcd(s._d, *s._re.values(), *s._im.values()) == 1


def _storage(s):
    return s._r, s._re, s._im, s._d


_gaussian_coeffs = st.builds(
    Scalar,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.one_of(st.just(0), st.fractions(min_value=-4, max_value=4, max_denominator=6)),
)


def _series_with(nvars, truncs, shared_denominator, min_degree=0):
    """Series with Gaussian coefficients, their parts either over free
    denominators or over one drawn denominator shared by every term."""
    exponents = st.tuples(*[st.integers(0, 3)] * nvars).filter(
        lambda e: sum(e) >= min_degree
    )
    if shared_denominator is None:
        coeffs = _gaussian_coeffs
    else:
        coeffs = st.builds(
            lambda a, b: Scalar(Fraction(a, shared_denominator),
                                Fraction(b, shared_denominator)),
            st.integers(-6, 6), st.integers(-6, 6),
        )
    return st.builds(
        Series, st.just(nvars), st.dictionaries(exponents, coeffs, max_size=6), truncs
    )


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_kernel_results_have_canonical_numerators(data, nvars):
    any_trunc = st.sampled_from([None, 2, 3, 4, 5])
    shared = data.draw(st.sampled_from([None, 2, 6, 12]))
    a = data.draw(_series_with(nvars, any_trunc, shared))
    b = data.draw(_series_with(nvars, any_trunc, shared))
    c = data.draw(st.sampled_from(
        [Scalar(0), Scalar(-1), Scalar(Fraction(2, 3)), Scalar(0, Fraction(-3, 4)),
         Scalar(Fraction(1, 6), 2), 6, -4, Fraction(-5, 2)]
    ))
    j = data.draw(st.integers(0, nvars - 1))
    order = data.draw(st.integers(1, a.trunc or 6))
    field = data.draw(st.lists(
        _series_with(nvars, st.sampled_from([2, 3, 4]), shared, min_degree=1),
        min_size=nvars, max_size=nvars,
    ))
    results = [
        a + b, a - b, a - a, a * b, a * a, -a, a * c, c * a,
        *_graded(a).values(), a.truncate(order), _partial(a, j),
        lie_derivative(field, a), compose(a, field), a.monic(),
    ]
    for r in results:
        _assert_numerators_canonical(r)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), nvars=st.integers(1, 3), trunc=st.sampled_from([2, 3, 4, 5]))
def test_equal_values_built_by_different_routes_have_equal_storage(data, nvars, trunc):
    # one truncation order, so every operand and result shares one ring
    shared = data.draw(st.sampled_from([None, 2, 6]))
    a, b, c = (
        data.draw(_series_with(nvars, st.just(trunc), shared)) for _ in range(3)
    )
    assert _storage((a * b) * c) == _storage(a * (b * c))
    assert _storage((a + b) - b) == _storage(a)
    assert _storage(a * c + b * c) == _storage((a + b) * c)
    order = data.draw(st.integers(1, trunc))
    rebuilt = Series(
        nvars, {e: v for e, v in a.terms.items() if sum(e) < order}, order
    )
    assert _storage(a.truncate(order)) == _storage(rebuilt)
    for k, part in _graded(a).items():
        rebuilt = Series(nvars, {e: v for e, v in a.terms.items() if sum(e) == k}, trunc)
        assert _storage(part) == _storage(rebuilt)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_graded_parts_rejoin_to_the_series(data, nvars):
    shared = data.draw(st.sampled_from([None, 2, 6]))
    s = data.draw(_series_with(nvars, st.sampled_from([None, 2, 4, 6]), shared))
    parts = _graded(s)
    assert list(parts) == sorted({sum(e) for e in s.terms})
    for d, part in parts.items():
        _assert_numerators_canonical(part)
        assert part == Series(nvars, {e: c for e, c in s.terms.items() if sum(e) == d})
        assert part._r is s._r and part.trunc == s.trunc
    # a zero part, as normalize's triangular recursion can leave, adds nothing
    parts = [*parts.values(), Series.zero(nvars, s.trunc)]
    joined = _dot(nvars, [(part, _PLUS) for part in parts], s.trunc)
    _assert_numerators_canonical(joined)
    assert _storage(joined) == _storage(s) and joined.trunc == s.trunc


def test_partial_divides_inside_its_one_canonicalization():
    # d/dx_j s / m in one step is the derivative times 1/m, storage included,
    # below a degree cap and without one
    rng = random.Random(4106)
    for case in range(48):
        nvars, gaussian = 1 + case % 3, case % 2 == 1
        trunc = rng.choice([None, 3, 5, 7])
        terms = _random_terms(rng, nvars, rng.randint(1, 5 if trunc is None else trunc - 1),
                              gaussian)
        s = Series(nvars, terms, trunc) * Fraction(rng.choice([1, 2, 6]), rng.randint(1, 3))
        for j in range(nvars):
            for cap in (inf, rng.randint(1, 6) * s._r[2]):
                for m in range(1, 5):
                    got = _partial(s, j, cap, m)
                    want = _partial(s, j, cap) * Fraction(1, m)
                    _assert_numerators_canonical(got)
                    assert _storage(got) == _storage(want) and got.trunc == s.trunc


@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data(), nvars=st.integers(1, 3), target=st.integers(1, 3))
def test_compose_all_matches_compose_on_each_series(data, nvars, target):
    # exact and truncated series in several rings, some sharing one
    series = data.draw(st.lists(
        _series_with(nvars, st.sampled_from([None, 2, 3, 5]), None), min_size=1, max_size=4
    ))
    subs = [data.draw(_series_with(target, st.sampled_from([2, 3, 5]), None, min_degree=1))
            for _ in range(nvars)]
    for s, got in zip(series, _compose_all(series, subs)):
        want = _compose_by_powers(s, subs)
        assert got == want and got.trunc == want.trunc
        assert _storage(got) == _storage(compose(s, subs))


def test_compose_all_keeps_the_input_errors():
    x, y = Series.variable(0, 2, 5), Series.variable(1, 2, 5)
    for run in (lambda s, subs: compose(s, subs), lambda s, subs: _compose_all([x, s], subs)):
        with pytest.raises(ValueError, match="substitution length"):
            run(Series.variable(0, 3, 5), [x, y])
        with pytest.raises(ValueError, match="one variable set"):
            run(x, [x, Series.variable(0, 3, 5)])
        with pytest.raises(CompositionError):
            run(x, [x + Series.constant(1, 2, 5), y])
    with pytest.raises(ValueError, match="zero variables"):
        compose(Series.zero(0, 5), [])


def _scalar_product_reference(a, b):
    """The product on Scalar coefficients as the packed kernel computed it
    before the numerators: (ring, trunc, {packed key: Scalar})."""
    trunc = _ref_min(a.trunc, b.trunc)
    if trunc is not None:
        base = trunc + 1
    else:
        base = a._r[1] + b._r[1] - 1
    ring = _ring(a.nvars, base)

    def packed(s):
        return {
            sum(map(mul, e, ring[4])): c
            for e, c in s.terms.items()
            if trunc is None or sum(e) < trunc
        }

    cap = inf if trunc is None else trunc * ring[2]
    right = sorted(packed(b).items())
    terms = {}
    for e1, c1 in packed(a).items():
        room = cap - e1
        for e2, c2 in right:
            if e2 >= room:
                break
            e = e1 + e2
            prod = c1 * c2
            acc = terms.get(e)
            if acc is None:
                terms[e] = prod
            else:
                total = acc + prod
                if total.is_zero():
                    del terms[e]
                else:
                    terms[e] = total
    return ring, trunc, terms


def _random_coefficient(rng, denominator, gaussian):
    def part():
        return Fraction(rng.randint(-5, 5), denominator or rng.randint(1, 7))

    return Scalar(part(), part() if gaussian else 0)


def _product_pairs():
    """Seeded operand pairs with Gaussian coefficients over coprime or
    shared denominators, and products that cancel, in part or to zero."""
    rng = random.Random(2718)
    truncs = [None, 2, 3, 4, 6]
    for case in range(300):
        nvars = 1 + case % 3
        gaussian = case % 4 != 0
        denominator = [None, 6, 1, 35][case // 4 % 4]
        trunc_a, trunc_b = rng.choice(truncs), rng.choice(truncs)
        a, b = (
            Series(nvars, {
                tuple(rng.randint(0, 3) for _ in range(nvars)):
                    _random_coefficient(rng, denominator, gaussian)
                for _ in range(rng.randint(0, 6))
            }, t)
            for t in (trunc_a, trunc_b)
        )
        yield a, b
    x, y = Series.variable(0, 2), Series.variable(1, 2)
    i = Scalar(0, 1)
    # (x + y)(x - y) and (x + iy)(x - iy): the mixed terms cancel
    yield x + y, x - y
    yield x + y * i, x - y * i
    yield (x + y * i) * Scalar(Fraction(1, 3)), (x - y * i) * Scalar(Fraction(3, 2))
    # every product term lands at or above the truncation order
    yield (x * x * Scalar(Fraction(2, 5), 1)).truncate(3), x.truncate(3) * i
    yield (x + y).truncate(2), (x * y * Scalar(0, Fraction(1, 7))).truncate(3)


def test_numerator_product_matches_the_scalar_product():
    seen_zero = 0
    for a, b in _product_pairs():
        ring, trunc, want = _scalar_product_reference(a, b)
        got = a * b
        assert got._r is ring and got.trunc == trunc
        assert _scalar_terms(got) == want
        _assert_numerators_canonical(got)
        seen_zero += not want
    assert seen_zero >= 2


# -- the kernel _dot against the tuple-keyed product loop ----------------------


def _ref_dot(nvars, pairs, trunc):
    """sum_k a_k * b_k on tuple-keyed terms, a rational factor taken as a
    constant exact series."""
    total = ({}, trunc)
    for a, b in pairs:
        factor = ({(0,) * nvars: b}, None) if isinstance(b, Scalar) else b
        total = _ref_add(total, _ref_mul(a, factor))
    return total


def _triple_scalar(p, q, e):
    return Scalar(Fraction(p, e), Fraction(q, e))


def _negated(s):
    return Series(s.nvars, {e: -c for e, c in s.terms.items()}, s.trunc)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_dot_matches_the_tuple_keyed_product_loop(data, nvars):
    any_trunc = st.sampled_from([None, None, 2, 3, 4, 6])
    shared = data.draw(st.sampled_from([None, 2, 6]))
    triples = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6))
    pairs = []
    for _ in range(data.draw(st.integers(0, 4))):
        a = data.draw(_series_with(nvars, any_trunc, shared))
        if data.draw(st.booleans()):
            b = data.draw(_series_with(nvars, any_trunc, shared))
            cancel = _negated(b)
        else:
            b = data.draw(triples)
            cancel = (-b[0], -b[1], b[2])
        pairs.append((a, b))
        if data.draw(st.integers(0, 3)) == 0:
            pairs.append((a, cancel))  # this pair's product cancels to zero
    trunc = data.draw(any_trunc)
    got = _dot(nvars, pairs, trunc)
    want = _ref_dot(
        nvars,
        [(_ref(a), _ref(b) if isinstance(b, Series) else _triple_scalar(*b)) for a, b in pairs],
        trunc,
    )
    _assert_matches(got, want)
    _assert_numerators_canonical(got)
    if got.trunc is not None:
        base = got.trunc + 1
    else:
        base = max([2] + [a._r[1] + (b._r[1] - 1 if isinstance(b, Series) else 0)
                          for a, b in pairs])
    assert got._r is _ring(nvars, base)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_lie_derivative_and_matvec_match_the_product_loop(data, nvars):
    any_trunc = st.sampled_from([None, 2, 3, 4, 6])
    shared = data.draw(st.sampled_from([None, 2, 6]))
    s = data.draw(_series_with(nvars, any_trunc, shared))
    field = [data.draw(_series_with(nvars, any_trunc, shared, min_degree=1))
             for _ in range(nvars)]
    trunc = s.trunc
    for comp in field:
        trunc = _ref_min(trunc, comp.trunc)
    want = _ref_dot(
        nvars, [(_ref_partial(_ref(s), j), _ref(comp)) for j, comp in enumerate(field)], trunc
    )
    _assert_matches(lie_derivative(field, s), want)

    entries = st.sampled_from([Scalar(0), Scalar(1), Scalar(-2), Scalar(Fraction(1, 3), -1),
                               Scalar(0, Fraction(5, 2))])
    rows = data.draw(st.integers(1, 3))
    matrix = ExactMatrix([[data.draw(entries) for _ in field] for _ in range(rows)])
    for row, got in zip(matrix.rows(), matvec_series(matrix, field)):
        pairs = [(_ref(comp), c) for comp, c in zip(field, row) if c]
        _assert_matches(got, _ref_dot(nvars, pairs, None) if pairs else ({}, field[0].trunc))
        _assert_numerators_canonical(got)


def _count_canonical(monkeypatch):
    calls = []
    original = poly._canonical
    monkeypatch.setattr(
        poly, "_canonical", lambda *args: calls.append(1) or original(*args)
    )
    return calls


def test_sums_of_products_make_one_canonical_per_result(monkeypatch):
    n, order = 3, 6
    x = [Series.variable(j, n, order) for j in range(n)]
    half = Scalar(Fraction(1, 2), 1)
    field = [x[0] * half + x[1] * x[2], x[1] * 3 + x[0] * x[0], x[2] * half + x[0] * x[1]]
    s = x[0] * x[1] * half + x[2] * x[2] * x[0] + x[1] ** 3
    calls = _count_canonical(monkeypatch)
    lie_derivative(field, s)
    assert len(calls) == n + 1  # n partials and one sum
    calls.clear()
    lie_derivative([field[0], Series.zero(n, order), field[2]], s)
    assert len(calls) == n  # no partial along a zero component
    matrix = ExactMatrix([[half, Scalar(2), Scalar(-1)],
                          [Scalar(0, 1), Scalar(Fraction(1, 3)), half],
                          [Scalar(5), Scalar(0), Scalar(1, 1)]])
    calls.clear()
    matvec_series(matrix, field)
    assert len(calls) == matrix.nrows
