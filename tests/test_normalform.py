"""Tests for resonance detection, normal-form checks, and normalization."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac import linalg, normalform, poly
from dulac.errors import NotNormalFormError, TruncationError
from dulac.field import Scalar, weights_from_scalars
from dulac.ideals import IdealHandle, lf_extract_semiinvariants
from dulac.linalg import ExactMatrix, inverse
from dulac.normalform import (
    _conjugate_components,
    _homological_solution,
    _inverse_weights,
    _shift,
    conjugacy_residual,
    is_pdnf,
    is_resonant,
    lg_nilpotency_bound,
    normalize,
)
from dulac.poly import (
    Series,
    VectorField,
    _partial,
    compose,
    lie_bracket,
    lie_derivative,
    linear_components,
    matvec_series,
)

from _gen import (
    diagonalized_components,
    field_with_linear_part,
    homogeneous_part,
    pdnf_field,
    random_exponent,
    random_scalar,
    random_series,
    splitting_linear_part,
)

X = (1, 0)
Y = (0, 1)


def _s(terms, trunc=None, nvars=2):
    return Series(nvars, {e: Scalar(c) for e, c in terms.items()}, trunc)


def _field(*component_terms, trunc):
    return VectorField.from_components(
        [_s(t, trunc, nvars=len(component_terms)) for t in component_terms]
    )


def test_is_resonant_basic():
    weights, _ = weights_from_scalars([Scalar(1), Scalar(3)])
    # w(3,0) = 3 = lambda_y: resonant in component 1 only
    assert is_resonant((3, 0), 1, weights)
    assert not is_resonant((3, 0), 0, weights)
    # w(2,0) = 2 matches nothing
    assert not is_resonant((2, 0), 0, weights)
    assert not is_resonant((2, 0), 1, weights)
    # w(1,1) = 4; w(4,0) = 4; neither is an eigenvalue
    assert not is_resonant((1, 1), 1, weights)


def test_is_resonant_rejects_low_degree_and_bad_index():
    weights, _ = weights_from_scalars([Scalar(1), Scalar(3)])
    with pytest.raises(ValueError):
        is_resonant((1, 0), 0, weights)
    with pytest.raises(ValueError):
        is_resonant((2, 1), 5, weights)


def test_is_pdnf_reports_bracket_residual():
    f = _field({X: 1}, {Y: 2, (3, 0): 1}, trunc=6)
    ok, residual = is_pdnf(f)
    assert not ok
    # [f, B_s x] = (0, -x^3) for this field
    assert residual[0].is_zero()
    assert residual[1] == _s({(3, 0): -1})
    # modulo <x>^3 the offending x^3 is gone; the residual is read there
    ok, residual = is_pdnf(f, 3)
    assert ok and all(r.trunc == 3 for r in residual)


def test_is_pdnf_accepts_resonant_field():
    f = _field({X: 1}, {Y: 3, (3, 0): 7}, trunc=8)
    ok, residual = is_pdnf(f)
    assert ok
    assert all(r.is_zero() for r in residual)


def test_is_pdnf_with_admissible_nilpotent_part():
    # B = [[2,1],[0,2]]: the nilpotent part commutes with B_s = 2I
    f = _field({X: 2, Y: 1}, {Y: 2}, trunc=5)
    ok, _ = is_pdnf(f)
    assert ok


def _sympy_number(c):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator)


def _sympy_pdnf_residual(f, xs):
    """[f, B_s x]_i = sum_j S_ij f_j - sum_j (d f_i / d x_j) (S x)_j in sympy,
    as one {exponent: coefficient} dict per component, cut below the order."""
    n, order = f.nvars, f.trunc_order
    s = [[_sympy_number(f.chevalley.semisimple[i, j]) for j in range(n)] for i in range(n)]
    comps = [sum(_sympy_number(c) * sympy.prod(x**k for x, k in zip(xs, e))
                 for e, c in comp.terms.items()) for comp in f.components]
    sx = [sum(s[j][k] * xs[k] for k in range(n)) for j in range(n)]
    out = []
    for i in range(n):
        expr = sympy.expand(sum(s[i][j] * comps[j] - sympy.diff(comps[i], xs[j]) * sx[j]
                                for j in range(n)))
        terms = sympy.Poly(expr, *xs).as_dict() if expr != 0 else {}
        out.append({e: c for e, c in terms.items() if sum(e) < order and c != 0})
    return out


def test_is_pdnf_residual_matches_a_sympy_bracket():
    # seeded PDNF fields, and the same fields with one non-resonant term
    # of degree >= 2 added: is_pdnf's residual against [f, B_s x] in sympy
    rng = random.Random(8086)
    broken = 0
    for case in range(10):
        n, order = 2 + case % 2, rng.randint(4, 6)
        f = pdnf_field(rng, n, order)
        lam = f.chevalley.eigenvalues
        fields = [f]
        for _ in range(20):
            i, exps = rng.randrange(n), random_exponent(rng, n, rng.randint(2, order - 1))
            if sum((lam[j] * e for j, e in enumerate(exps)), Scalar(0)) != lam[i]:
                comps = list(f.components)
                comps[i] = comps[i] + Series.monomial(
                    exps, random_scalar(rng, gaussian=True) or Scalar(1), order)
                fields.append(VectorField(comps, f.chevalley))
                broken += 1
                break
        xs = sympy.symbols(f"x0:{n}")
        for g, want_ok in zip(fields, (True, False)):
            ok, residual = is_pdnf(g)
            want = _sympy_pdnf_residual(g, xs)
            assert ok is want_ok is not any(want)
            for r, w in zip(residual, want):
                assert {e: _sympy_number(c) for e, c in r.terms.items()} == w
    assert broken >= 8


def test_normalize_removes_nonresonant_keeps_resonant():
    f = _field({X: 1}, {Y: 3, (2, 0): 1, (3, 0): 1}, trunc=6)
    result = normalize(f)
    assert [c for c in result.normalized.components] == [
        _s({X: 1}),
        _s({Y: 3, (3, 0): 1}),
    ]
    assert result.transformation[0] == _s({X: 1})
    assert result.transformation[1] == _s({Y: 1, (2, 0): -1})


def test_normalize_conjugacy_identity_exact():
    f = _field({X: 1}, {Y: 3, (2, 0): 1, (3, 0): 1, (1, 1): -2}, trunc=7)
    result = normalize(f)
    residuals = conjugacy_residual(f, result)
    assert all(r.is_zero() for r in residuals)


def test_normalize_is_idempotent_on_normal_fields():
    rng = random.Random(101)
    for _ in range(10):
        f = pdnf_field(rng, rng.choice([2, 3]), rng.choice([4, 5]))
        result = normalize(f)
        assert tuple(result.normalized.components) == tuple(f.components)
        identity = tuple(
            Series.variable(i, f.nvars, f.trunc_order) for i in range(f.nvars)
        )
        assert tuple(result.transformation) == identity


def test_normalize_jordan_block_linearizes():
    f = _field({X: 2, Y: 1, (0, 2): 1}, {Y: 2, (2, 0): 3}, trunc=6)
    result = normalize(f)
    assert result.normalized.components[0] == _s({X: 2, Y: 1})
    assert result.normalized.components[1] == _s({Y: 2})
    assert all(r.is_zero() for r in conjugacy_residual(f, result))


def test_normalize_handles_non_diagonal_semisimple_part():
    f = _field({Y: -1, (2, 0): 1}, {X: 1, (1, 1): 1}, trunc=6)
    assert not f.chevalley.semisimple.is_diagonal()
    result = normalize(f)
    ok, _ = is_pdnf(result.normalized)
    assert ok
    assert all(r.is_zero() for r in conjugacy_residual(f, result))
    assert result.normalized.chevalley.linear == f.chevalley.linear
    for i in range(2):
        assert homogeneous_part(result.transformation[i], 1) == Series.variable(i, 2, 6)


def test_normalize_requires_truncation_order():
    comps = [Series(2, {X: Scalar(1)}), Series(2, {Y: Scalar(2)})]
    f = VectorField.from_components(comps)
    with pytest.raises(TruncationError):
        normalize(f)
    result = normalize(f.truncate(4))
    assert result.trunc_order == 4


def test_normalized_fields_commute_with_semisimple_part():
    rng = random.Random(55)
    for _ in range(15):
        n = rng.choice([2, 3])
        order = rng.choice([4, 5])
        linear = splitting_linear_part(rng, n)
        f = field_with_linear_part(rng, linear, order)
        result = normalize(f)
        bracket = lie_bracket(
            result.normalized.components, result.normalized.semisimple_components()
        )
        assert all(b.is_zero() for b in bracket)


def _maximal(order):
    return IdealHandle([_s({X: 1}, order), _s({Y: 1}, order)], order)


def test_lg_nilpotency_index_golden_value():
    # the nilpotency index of L_g on phi is extraction's block count m:
    # L_g psi = x^3 + 2*x^3*y and L_g^2 psi = 2*x^6, which vanishes modulo
    # <x>^6 but not modulo <x>^8
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    psi = _s({(3, 0): 1, Y: 1, (0, 2): 1}, 8)
    for order, m in ((8, 3), (6, 2)):
        _, (cert,) = lf_extract_semiinvariants(_maximal(order), f, [psi])
        assert cert.block_count == m
        assert cert.matrix.nrows == 2 * m


def test_lg_nilpotency_index_builds_no_field(monkeypatch):
    # the normal-form check brackets the truncated components: no field is
    # built, also at an order coarser than the field's
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    psi = _s({(3, 0): 1, Y: 1, (0, 2): 1}, 8)
    built = []
    init = VectorField.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(VectorField, "__init__", counting)
    assert lf_extract_semiinvariants(_maximal(8), f, [psi])[1][0].block_count == 3
    assert lf_extract_semiinvariants(_maximal(6), f, [psi])[1][0].block_count == 2
    assert built == []


def test_lg_nilpotency_index_rejects_non_normal_field():
    # the block count is read only along a field in normal form; the
    # refusal carries is_pdnf's residual [f, B_s x] = (0, -x^3)
    f = _field({X: 1}, {Y: 2, (3, 0): 1}, trunc=6)
    psi = _s({Y: 1}, 6)
    with pytest.raises(NotNormalFormError) as info:
        lf_extract_semiinvariants(_maximal(6), f, [psi])
    assert str(info.value) == "the field must be in normal form for weight extraction"
    assert info.value.residual == is_pdnf(f, 6)[1]
    assert info.value.residual == (Series.zero(2, 6), _s({(3, 0): -1}, 6))


def test_lg_nilpotency_bound_grows_with_nilpotent_depth():
    # purely semisimple: iota = 1, nu_max = 1, bound = (N-1)*1 + N-1
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=6)
    assert lg_nilpotency_bound(f, 6) == 10
    # one Jordan block: iota = 2, nu_max = (N-1)*1 + 1 = 6, bound = (N-1)*6 + N-1
    jordan = _field({X: 2, Y: 1}, {Y: 2}, trunc=6)
    assert lg_nilpotency_bound(jordan, 6) == 35


def test_normalize_diagonalized_output_matches_direct_diagonal_run():
    # conjugating the problem by the diagonalizer commutes with normalize
    rng = random.Random(88)
    f = _field({Y: -1}, {X: 1, (2, 0): 1, (1, 1): 1}, trunc=5)
    result = normalize(f)
    comps_d = diagonalized_components(f, result.normalized.components)
    # in the diagonal basis every surviving monomial must be resonant
    for i, comp in enumerate(comps_d):
        for exps in comp.terms:
            if sum(exps) >= 2:
                assert is_resonant(exps, i, f.eigenvalues)


def _varied_fields(seed, count, orders):
    """Seeded fields of every linear kind: diagonal, Jordan and
    non-diagonal semisimple, with rational or Gaussian coefficients."""
    rng = random.Random(seed)
    fields = []
    for index in range(count):
        n = rng.choice([2, 3])
        linear = splitting_linear_part(rng, n)
        fields.append(
            field_with_linear_part(
                rng, linear, rng.choice(orders), max_terms=5, gaussian=index % 2 == 1
            )
        )
    return fields


def _kind(f):
    if not f.chevalley.semisimple.is_diagonal():
        return "non-diagonal"
    return "diagonal" if f.chevalley.nilpotent.is_zero() else "jordan"


def _neumann_step(comps, transform, h, order):
    """The degree step as first written: compose with x + h, then apply
    sum_j (-Dh)^j as a matrix of series."""
    n = len(h)
    phi = [Series.variable(i, n, order) + h_i for i, h_i in enumerate(h)]
    composed = [compose(c, phi) for c in comps]
    minus_jac = [[-_partial(h_i, k) for k in range(n)] for h_i in h]

    def matmul(a, b):
        return [
            [sum((a[i][j] * b[j][k] for j in range(n)), Series.zero(n, order))
             for k in range(n)]
            for i in range(n)
        ]

    one, zero = Series.constant(1, n, order), Series.zero(n, order)
    neumann = [[one if i == k else zero for k in range(n)] for i in range(n)]
    power = minus_jac
    while any(entry for row in power for entry in row):
        neumann = [[a + b for a, b in zip(r, q)] for r, q in zip(neumann, power)]
        power = matmul(power, minus_jac)
    new = [sum((row[k] * composed[k] for k in range(n)), zero) for row in neumann]
    return new, [compose(t_i, phi) for t_i in transform]


def _ad_nilpotent(nil, nil_comps, vec):
    """[N y, u] = Du . (N y) - N u by its formula: a Lie derivative along
    the components of N y, minus a matrix-vector product."""
    part1 = [lie_derivative(nil_comps, u) for u in vec]
    part2 = matvec_series(nil, vec)
    return [a - b for a, b in zip(part1, part2)]


def test_ad_nilpotent_is_the_lie_bracket_with_the_nilpotent_field():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.choice([2, 3])
        order = rng.randint(3, 7)
        nil = ExactMatrix.from_rows(
            [[random_scalar(rng, gaussian=True) if j > i else Scalar(0) for j in range(n)]
             for i in range(n)]
        )
        nil_comps = linear_components(nil, order)
        vec = [random_series(rng, n, order, gaussian=True, min_degree=1) for _ in range(n)]
        assert list(lie_bracket(nil_comps, vec)) == _ad_nilpotent(nil, nil_comps, vec)


def _reference_normalize(f):
    order, n = f.trunc_order, f.nvars
    pair = f.chevalley
    lam = pair.eigenvalues
    diagonal = pair.semisimple.is_diagonal()
    if diagonal:
        comps, nil = list(f.components), pair.nilpotent
    else:
        t = pair.diagonalizer
        t_inv = inverse(t)
        comps = _conjugate_components(f.components, t, t_inv, order)
        nil = t_inv * pair.nilpotent * t
    nil_comps = linear_components(nil, order)
    transform = [Series.variable(i, n, order) for i in range(n)]
    for degree in range(2, order):
        groups = {}
        for i, comp in enumerate(comps):
            for e, c in homogeneous_part(comp, degree).terms.items():
                mu = sum((lam[k] * e_k for k, e_k in enumerate(e)), -lam[i])
                if not mu.is_zero():
                    groups.setdefault(mu, [{} for _ in range(n)])[i][e] = c
        if not groups:
            continue
        h = [Series.zero(n, order)] * n
        for mu, buckets in groups.items():
            mu_inv = mu.inverse()
            term = [Series(n, b, order) * mu_inv for b in buckets]
            while any(term):
                h = [a + b for a, b in zip(h, term)]
                term = [u * -mu_inv for u in _ad_nilpotent(nil, nil_comps, term)]
        comps, transform = _neumann_step(comps, transform, h, order)
    if not diagonal:
        comps = _conjugate_components(comps, t_inv, t, order)
        back = linear_components(t_inv, order)
        transform = matvec_series(t, [compose(t_i, back) for t_i in transform])
    return tuple(comps), tuple(transform)


def test_normalize_matches_the_compose_and_neumann_degree_step():
    fields = _varied_fields(2024, 40, range(4, 9))
    assert {_kind(f) for f in fields} == {"diagonal", "jordan", "non-diagonal"}
    for f in fields:
        result = normalize(f)
        comps, transform = _reference_normalize(f)
        assert result.normalized.components == comps
        assert result.transformation == transform


def test_normalize_conjugacy_holds_in_sympy():
    # Dh . normalized = f(h) modulo <x>^N, in sympy's sparse polynomials
    for f in _varied_fields(77, 10, range(4, 7)):
        result = normalize(f)
        order = result.trunc_order
        ring, *xs = sympy.polys.rings.ring(f"x0:{f.nvars}", sympy.QQ_I)

        def to_ring(s):
            return ring({
                e: sympy.QQ_I(sympy.Rational(c.re), sympy.Rational(c.im))
                for e, c in s.terms.items()
            })

        def below_order(p):
            return ring({m: c for m, c in p.items() if sum(m) < order})

        g = [to_ring(c) for c in result.normalized.components]
        h = [to_ring(c) for c in result.transformation]
        for h_i, f_i in zip(h, map(to_ring, f.components)):
            f_at_h = ring.zero
            for exps, c in f_i.items():
                term = ring({(0,) * f.nvars: c})
                for h_j, k in zip(h, exps):
                    for _ in range(k):
                        term = below_order(term * h_j)
                f_at_h += term
            lhs = sum((h_i.diff(x) * g_j for x, g_j in zip(xs, g)), ring.zero)
            assert all(sum(m) >= order for m in (lhs - f_at_h).monoms())


# -- the termwise homological inversion and the shared Taylor powers ---------


def _gaussian_field(*component_terms, trunc):
    n = len(component_terms)
    return VectorField.from_components(
        [Series(n, {e: Scalar(*c) for e, c in t.items()}, trunc) for t in component_terms]
    )


X3, Y3, Z3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
HOMOLOGICAL_FIELDS = {
    # one 3x3 Jordan block: ad_N needs several rounds per degree
    "jordan-3x3": lambda: _field(
        {X3: 2, Y3: 1, (2, 0, 0): 1, (0, 1, 1): -2, (0, 0, 3): 3},
        {Y3: 2, Z3: 1, (1, 1, 0): 5, (0, 0, 2): 1},
        {Z3: 2, (2, 0, 0): -1, (1, 1, 1): 4},
        trunc=5,
    ),
    # a rotation with Gaussian coefficients; +-i make x*y*x-type terms resonant
    "gaussian-non-diagonal": lambda: _gaussian_field(
        {Y: (-1,), (2, 0): (1, 2), (1, 1): (0, -1), (2, 1): (3, 1), (0, 3): (1, 0)},
        {X: (1,), (0, 2): (2, -1), (1, 2): (1, 1), (3, 0): (0, 1)},
        trunc=6,
    ),
    # spectrum (1, 2, 3): x^2 -> y, x*y -> z and x^3 -> z are resonant
    "diagonal-resonant": lambda: _field(
        {X3: 1, (0, 1, 1): 2, (1, 1, 0): 1},
        {Y3: 2, (2, 0, 0): 3, (0, 2, 0): -1, (0, 0, 3): 1},
        {Z3: 3, (1, 1, 0): 1, (3, 0, 0): -2, (2, 0, 0): 1, (1, 0, 2): 1},
        trunc=5,
    ),
}


@pytest.mark.parametrize("kind", sorted(HOMOLOGICAL_FIELDS))
def test_homological_solution_inverts_the_operator_termwise(kind, monkeypatch):
    f = HOMOLOGICAL_FIELDS[kind]()
    n, order = f.nvars, f.trunc_order
    pair = f.chevalley
    if pair.semisimple.is_diagonal():
        comps, nil = list(f.components), pair.nilpotent
    else:
        t, t_inv = pair.diagonalizer, pair.diagonalizer_inverse
        comps = _conjugate_components(f.components, t, t_inv, order)
        nil = t_inv * pair.nilpotent * t
    lam = pair.eigenvalues
    diag_comps = linear_components(ExactMatrix.diagonal(lam), order)
    nil_comps = linear_components(nil, order)
    rounds = []
    monkeypatch.setattr(
        normalform, "lie_bracket", lambda *a: rounds.append(1) or lie_bracket(*a)
    )
    invert = _inverse_weights(lam)
    most_rounds, resonant_seen, solved = 0, False, False
    for degree in range(2, order):
        parts = [homogeneous_part(c, degree) for c in comps]
        rounds.clear()
        h = _homological_solution(parts, invert, nil_comps)
        most_rounds = max(most_rounds, len(rounds))
        nonresonant = [
            Series(n, {e: c for e, c in p.terms.items()
                       if not is_resonant(e, i, f.eigenvalues)}, order)
            for i, p in enumerate(parts)
        ]
        resonant_seen |= nonresonant != parts
        solved |= any(h)
        # D u = [S y, u] for the diagonal S, computed as a Lie bracket
        d_h = [lie_derivative(diag_comps, h_i) - h_i * lam_i for h_i, lam_i in zip(h, lam)]
        ad_h = _ad_nilpotent(nil, nil_comps, h)
        assert [a + b for a, b in zip(d_h, ad_h)] == nonresonant
        for i, h_i in enumerate(h):
            assert not any(is_resonant(e, i, f.eigenvalues) for e in h_i.terms)
    assert solved
    if kind == "jordan-3x3":
        assert most_rounds >= 3
    else:  # N = 0: one D^-1 pass per degree, no ad_N round
        assert resonant_seen and nil.is_zero() and most_rounds == 0


def _scalar_inverse_weight(s, i, lam):
    """``invert(s, i)`` as first written: c(e, i) as a sum of Scalar
    products, inverted as a Scalar."""
    terms = {}
    for e, coeff in s.terms.items():
        c = sum((lam_j * e_j for lam_j, e_j in zip(lam, e)), -lam[i])
        if c:
            terms[e] = coeff * c.inverse()
    return Series(s.nvars, terms, s.trunc)


@pytest.mark.parametrize("seed", range(4))
def test_integer_inverse_weights_match_the_scalar_route(seed):
    rng = random.Random(seed)
    n, order = 3, 7
    a, b = random_scalar(rng, True), random_scalar(rng, True)
    a = a if a else Scalar(Fraction(1, 3), Fraction(-1, 2))
    # lambda_2 = 2*lambda_0 + lambda_1: x^2*y in component 2 is resonant,
    # and a zero eigenvalue with rational a makes more keys resonant
    lam = [a, b, a * 2 + b] if seed % 2 else [a, Scalar(0), Scalar(Fraction(5, 6), 2)]
    invert = _inverse_weights(lam)
    resonant = 0
    for degree in range(order):
        for _ in range(6):
            s = Series(n, {random_exponent(rng, n, degree): random_scalar(rng, True)
                           for _ in range(3)}, order)
            for i in range(n):
                want = _scalar_inverse_weight(s, i, lam)
                resonant += len(want.terms) < len(s.terms)
                assert invert(s, i) == want
                assert invert(s, i) == want  # from the memo
    whole = Series(n, {(2, 1, 0): Scalar(1), (1, 0, 0): Scalar(Fraction(2, 3), 1)}, order)
    assert invert(whole, 2) == _scalar_inverse_weight(whole, 2, lam)
    assert resonant and (not seed % 2 or invert(whole, 2).coefficient((2, 1, 0)) == 0)


# -- the degree cut in _shift -------------------------------------------------


def _homogeneous(rng, n, degree, order):
    """A random Gaussian series whose terms all have the given degree."""
    terms = {random_exponent(rng, n, degree): random_scalar(rng, True) for _ in range(3)}
    return Series(n, terms, order)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field_first", [True, False])
def test_shift_with_shared_powers_matches_compose(n, field_first):
    # h homogeneous of every degree k = 1..N-1 with a zero component, of
    # mixed degrees from 1, 2 and 3 up, and zero: the degree cut must lose
    # no term for any lowest degree k, linear terms of h included
    rng = random.Random(40 + n)
    order = 6
    zero = Series.zero(n, order)
    cases = []
    for k in range(1, order):
        h = [_homogeneous(rng, n, k, order) for _ in range(n)]
        h[rng.randrange(n)] = zero
        cases.append(h)
    for low in (1, 2, 2, 3):
        cases.append([random_series(rng, n, order, gaussian=True, max_terms=3,
                                    min_degree=low) for _ in range(n)])
    cases.append([zero] * n)
    formed = 0
    for h in cases:
        field = [random_series(rng, n, order, gaussian=True, min_degree=1)
                 for _ in range(n)]
        transform = [Series.variable(i, n, order)
                     + random_series(rng, n, order, max_terms=3, min_degree=2)
                     for i in range(n)]
        series = field + transform if field_first else transform + field
        powers = {}
        shifted = [_shift(s, h, powers) for s in series]
        phi = [Series.variable(i, n, order) + h_i for i, h_i in enumerate(h)]
        assert shifted == [compose(s, phi) for s in series]
        formed += len(powers)
    assert formed


def _oracle_terms(n, order, min_degree):
    exponents = st.tuples(*[st.integers(0, order - 1)] * n).filter(
        lambda e: min_degree <= sum(e) < order
    )
    coeffs = st.builds(
        lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
        st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4),
    )
    return st.dictionaries(exponents, coeffs, max_size=4)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), n=st.sampled_from([2, 3]), order=st.integers(2, 6))
def test_shift_matches_a_sympy_expansion(data, n, order):
    # s(x + h) expanded in full by sympy, then cut below degree N
    s = Series(n, data.draw(_oracle_terms(n, order, 0)), order)
    h = [Series(n, data.draw(_oracle_terms(n, order, 1)), order) for _ in range(n)]
    ring, *xs = sympy.polys.rings.ring(f"x0:{n}", sympy.QQ_I)

    def to_ring(u):
        return ring({e: sympy.QQ_I(sympy.Rational(c.re), sympy.Rational(c.im))
                     for e, c in u.terms.items()})

    hs = [x + to_ring(h_j) for x, h_j in zip(xs, h)]
    expanded = ring.zero
    for e, c in to_ring(s).items():
        term = ring({(0,) * n: c})
        for x_plus_h, k in zip(hs, e):
            term *= x_plus_h ** k
        expanded += term
    want = ring({e: c for e, c in expanded.items() if sum(e) < order})
    assert to_ring(_shift(s, h, {})) == want


def _cut_work(monkeypatch, f, cut=True):
    """(calls, terms in, terms kept) of the capped ``_derive`` calls, the
    ones made by _shift, while normalizing f; ``cut=False`` ignores the
    caps."""
    counts = [0, 0, 0]
    derive = poly._derive

    def counting(nums, p, base, u, cap=float("inf")):
        out = derive(nums, p, base, u, cap if cut else float("inf"))
        if cap != float("inf"):
            counts[0] += 1
            counts[1] += len(nums)
            counts[2] += len(out)
        return out

    monkeypatch.setattr(poly, "_derive", counting)
    result = normalize(f)
    monkeypatch.undo()
    return counts, result


def test_shift_keeps_only_the_terms_that_can_survive(monkeypatch):
    # a 3x3 Jordan block at N = 6; without the caps the same walk keeps
    # 1,189 derivative terms, and the 1,035 more only reach degrees >= N
    jordan = HOMOLOGICAL_FIELDS["jordan-3x3"]().components
    f = VectorField.from_components([Series(3, c.terms, 6) for c in jordan])
    cut, result = _cut_work(monkeypatch, f)
    uncut, reference = _cut_work(monkeypatch, f, cut=False)
    assert result.normalized.components == reference.normalized.components
    assert result.transformation == reference.transformation
    assert cut == [96, 1870, 154]
    assert uncut[2] == 1189


def test_diagonalizer_inverse_is_carried_and_normalize_inverts_nothing(monkeypatch):
    diagonal = _field({X: 1, (2, 0): 1}, {Y: 3, (1, 1): 2}, trunc=5)
    rotation = _field({Y: -1, (2, 0): 1}, {X: 1, (1, 1): 1}, trunc=5)
    sheared = HOMOLOGICAL_FIELDS["gaussian-non-diagonal"]()
    pair = diagonal.chevalley
    assert pair.diagonalizer == pair.diagonalizer_inverse == ExactMatrix.identity(2)
    for f in (diagonal, rotation, sheared):
        pair = f.chevalley
        assert pair.diagonalizer * pair.diagonalizer_inverse == ExactMatrix.identity(2)
        assert f.truncate(4).chevalley is pair
    calls = []
    monkeypatch.setattr(linalg, "inverse", lambda m: calls.append(m) or inverse(m))
    for f in (diagonal, rotation, sheared):
        assert normalize(f).normalized.chevalley is f.chevalley
    assert calls == []
