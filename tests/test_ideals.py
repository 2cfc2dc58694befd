"""Tests for truncated Groebner bases, invariance, and extraction."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac.errors import (
    CertificateError,
    HypothesisError,
    NotDiagonalError,
    NotInvariantError,
    NotNormalFormError,
    TruncationError,
)
from dulac.exprs import format_series, parse_expression
from dulac.field import IMAG, ONE, ZERO, Scalar, Weight, weights_from_scalars
from dulac.ideals import (
    IdealHandle,
    ReducedBasis,
    close_under_lie,
    extract_semiinvariants,
    groebner,
    is_invariant,
    lf_extract_semiinvariants,
    single_resonance_primes,
    _rn_dimension,
    _verify_certificate,
)
from dulac.linalg import _insert_row
from dulac.normalform import lg_nilpotency_bound, normalize
from dulac.poly import (
    Series,
    VectorField,
    _degree_keys,
    _ring,
    _scalar_terms,
    _unpack,
    grlex_key,
    lie_derivative,
    matvec_series,
    weight,
    weight_decompose,
)

from _gen import (
    field_with_linear_part,
    iter_exponents,
    pdnf_field,
    random_exponent,
    random_scalar,
    random_series,
    scrambled_generators,
    splitting_linear_part,
    weight_homogeneous_generators,
)

X = (1, 0)
Y = (0, 1)


def _s(terms, trunc=None, nvars=2):
    return Series(nvars, {e: Scalar(c) for e, c in terms.items()}, trunc)


def _field(*component_terms, trunc):
    return VectorField.from_components(
        [_s(t, trunc, nvars=len(component_terms)) for t in component_terms]
    )


def _maximal(order):
    """<x, y>: invariant along every field vanishing at 0, so extraction
    from it reaches the checks on the field and the member."""
    return IdealHandle([_s({X: 1}, order), _s({Y: 1}, order)], order)


# -- groebner ------------------------------------------------------------------


def test_groebner_coordinate_ideal():
    basis = groebner([_s({X: 1}, 4), _s({Y: 1}, 4)], 4)
    assert [p.terms for p in basis.polys] == [{X: ONE}, {Y: ONE}]
    assert basis.monomials == ()


def test_groebner_golden_pair_is_already_reduced():
    gens = [_s({(3, 0): 1, Y: 1}, 8), _s({(0, 2): 1}, 8)]
    basis = groebner(gens, 8)
    assert [dict(p.terms) for p in basis.polys] == [
        {(3, 0): ONE, Y: ONE},
        {(0, 2): ONE},
    ]
    assert basis.monomials == ()


def test_groebner_needs_polynomial_monomial_pairs():
    # x^2 y + y at order 4: multiplying by x^2 shows y is in the ideal
    # up to degree-4 noise, so the reduced basis collapses to {y} and the
    # only degree-4 monomial not under a leading term is x^4.
    basis = groebner([_s({(2, 1): 1, Y: 1}, 4)], 4)
    assert [dict(p.terms) for p in basis.polys] == [{Y: ONE}]
    assert basis.monomials == ((4, 0),)


def test_groebner_output_independent_of_presentation():
    rng = random.Random(63)
    for _ in range(20):
        nvars = rng.choice([2, 3])
        order = rng.choice([4, 5])
        gens = [
            random_series(rng, nvars, order, max_terms=3, min_degree=1)
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        one = groebner(gens, order)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [g * Scalar(Fraction(rng.choice([2, 3, -1]), 1)) for g in shuffled]
        two = groebner(scaled, order)
        assert one.polys == two.polys
        assert one.monomials == two.monomials


def test_groebner_buchberger_closure_property():
    # every S-polynomial of the reduced basis reduces to zero
    rng = random.Random(17)
    for _ in range(10):
        gens = [
            random_series(rng, 2, 5, max_terms=3, min_degree=1) for _ in range(2)
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        handle = IdealHandle(gens, 5)
        polys = handle.reduced_basis
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                a, b = polys[i], polys[j]
                la, lb = (max(p.terms, key=grlex_key) for p in (a, b))
                lcm = tuple(max(p, q) for p, q in zip(la, lb))
                if sum(lcm) >= 5:
                    continue
                ma = Series.monomial(
                    tuple(l - p for l, p in zip(lcm, la)),
                    b.leading_coefficient(),
                    5,
                )
                mb = Series.monomial(
                    tuple(l - p for l, p in zip(lcm, lb)),
                    a.leading_coefficient(),
                    5,
                )
                spoly = a * ma - b * mb
                assert handle.normal_form(spoly).is_zero()


def test_groebner_empty_and_zero_input():
    basis = groebner([], 3, nvars=2)
    assert basis.polys == ()
    assert len(basis.monomials) == 4  # all degree-3 monomials in 2 variables
    basis = groebner([Series.zero(2, 3)], 3)
    assert basis.polys == ()


def test_groebner_at_order_one_and_its_input_checks():
    # R_1 holds the constants only: x is zero there, and both degree-1
    # monomials belong to the basis
    basis = groebner([_s({X: 1}, 1)], 1)
    assert basis.polys == ()
    assert basis.monomials == (X, Y)
    with pytest.raises(ValueError):
        groebner([], 0, nvars=2)
    with pytest.raises(ValueError):
        groebner([_s({X: 1}, 4), Series.variable(0, 3, 4)], 4)
    with pytest.raises(ValueError):
        groebner([_s({X: 1}, 4)], 4, nvars=3)


def test_groebner_unit_ideal():
    one = Series.constant(Scalar(1), 2, 4)
    basis = groebner([one], 4)
    assert [dict(p.terms) for p in basis.polys] == [{(0, 0): ONE}]
    assert basis.monomials == ()


def _sympy_instances():
    rng = random.Random(1811)
    for _ in range(40):
        nvars = rng.choice([2, 3])
        order = rng.randint(4, 7)
        gens = [
            random_series(rng, nvars, order, max_terms=3, min_degree=1)
            for _ in range(rng.randint(1, 3))
        ]
        psis = [random_series(rng, nvars, order, max_terms=6) for _ in range(3)]
        yield nvars, order, gens, psis
    for order in range(10, 15):
        g = Series(3, {(2, 0, 0): ONE, (0, 1, 0): ONE}, order)
        psis = [random_series(rng, 3, order, max_terms=6) for _ in range(3)]
        yield 3, order, [g], psis


def test_groebner_and_normal_form_match_sympy():
    # sympy's grlex with x0 > x1 > ... is dulac's grlex_key order.  The
    # reduced basis of <gens> + <x>^N splits into polynomials below degree
    # N and degree-N monomials (a degree-N element is a monomial, since
    # every degree-N monomial is a member).
    def terms_of(p):
        return {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms() if c}

    def grlex(e):
        return (sum(e), e)

    def lead(terms):
        return max(terms, key=grlex)

    for nvars, order, gens, psis in _sympy_instances():
        syms = sympy.symbols(f"x0:{nvars}")

        def to_sympy(s):
            return sympy.Poly(
                sum(
                    sympy.Rational(c.re.numerator, c.re.denominator)
                    * sympy.prod(x**k for x, k in zip(syms, e))
                    for e, c in s.terms.items()
                ),
                *syms, domain="QQ",
            )

        top = [
            sympy.prod(x**k for x, k in zip(syms, e))
            for e in itertools.product(range(order + 1), repeat=nvars)
            if sum(e) == order
        ]
        oracle = sympy.groebner(
            [to_sympy(g) for g in gens] + top, *syms, order="grlex", domain="QQ"
        )
        want = [terms_of(p) for p in oracle.polys]
        want_polys = sorted(
            (t for t in want if sum(lead(t)) < order),
            key=lambda t: grlex(lead(t)), reverse=True,
        )
        want_monos = sorted(
            (lead(t) for t in want if sum(lead(t)) == order),
            key=grlex, reverse=True,
        )
        assert all(len(t) == 1 for t in want if sum(lead(t)) == order)

        basis = groebner(gens, order, nvars=nvars)
        assert [{e: c.re for e, c in p.terms.items()} for p in basis.polys] == want_polys
        assert list(basis.monomials) == want_monos

        handle = IdealHandle(gens, order, nvars=nvars)
        for psi in psis:
            _, remainder = oracle.reduce(to_sympy(psi))
            got = handle.normal_form(psi)
            assert {e: c.re for e, c in got.terms.items()} == terms_of(remainder)


def _packed_key(e, units):
    return sum(k * u for k, u in zip(e, units))


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_packed_monomials_round_trip_in_grlex_order(nvars):
    # every exponent of degree <= N, so the degree-N ones with a single
    # exponent equal to N are included
    for order in range(1, 7):
        ring = _ring(nvars, order + 1)
        units = ring[4]
        exps = [e for k in range(order + 1) for e in iter_exponents(nvars, k)]
        keys = [_packed_key(e, units) for e in exps]
        assert [_unpack(key, ring) for key in keys] == exps
        assert len(set(keys)) == len(keys)
        assert [_unpack(key, ring) for key in sorted(keys)] == sorted(
            exps, key=grlex_key
        )
        for a, b in itertools.combinations(exps, 2):
            ab = tuple(x + y for x, y in zip(a, b))
            if sum(ab) <= order:
                assert _packed_key(a, units) + _packed_key(b, units) == _packed_key(ab, units)


def _tuple_groebner(gens, order, nvars):
    """``groebner`` with its echelon form keyed by exponent tuples, as it
    was before the packed keys: the reference for them.  Returns
    (polys, monomials, tails, substitute), the last for normal forms."""

    def subtract(acc, c, tail):
        for e, v in tail.items():
            prev = acc.get(e)
            val = -c * v if prev is None else prev - c * v
            if val.is_zero():
                acc.pop(e, None)
            else:
                acc[e] = val

    def substitute(terms, tails):
        out = {e: c for e, c in terms.items() if e not in tails}
        for e, c in terms.items():
            if e in tails:
                subtract(out, c, tails[e])
        return out

    generators = []
    for g in gens:
        terms = [(e, sum(e), c) for e, c in g.truncate(order).terms.items()]
        if terms:
            generators.append((min(d for _, d, _ in terms), terms))
    tails = {}
    for k in reversed(range(order)):
        for shift in iter_exponents(nvars, k):
            for low, terms in generators:
                if low + k >= order:
                    continue
                row = {
                    tuple(a + b for a, b in zip(e, shift)): c
                    for e, d, c in terms
                    if d + k < order
                }
                while row:
                    lm = max(row, key=grlex_key)
                    c = row.pop(lm)
                    if lm not in tails:
                        inv = c.inverse()
                        tails[lm] = {e: v * inv for e, v in row.items()}
                        break
                    subtract(row, c, tails[lm])
    for m in sorted(tails, key=grlex_key):
        tails[m] = substitute(tails[m], tails)

    def minimal(m):
        return not any(
            m[:i] + (m[i] - 1,) + m[i + 1:] in tails for i in range(nvars) if m[i]
        )

    polys = tuple(
        Series(nvars, {m: ONE, **tails[m]}, order)
        for m in sorted(tails, key=grlex_key, reverse=True)
        if minimal(m)
    )
    monomials = tuple(m for m in iter_exponents(nvars, order) if minimal(m))
    return polys, monomials, tails, substitute


def _packed_echelon_instances():
    rng = random.Random(2607)
    top_order = {1: 20, 2: 20, 3: 12, 4: 7}
    for nvars, high in top_order.items():
        for order in [k for k in range(2, high + 1) for _ in range(2)]:
            gaussian = rng.random() < 0.5
            gens = [
                random_series(rng, nvars, order, gaussian, max_terms=4,
                              min_degree=1 if rng.random() < 0.9 else 0)
                for _ in range(rng.randint(1, 3))
            ]
            # a term just below the truncation
            edge = dict(gens[0].terms)
            edge[random_exponent(rng, nvars, order - 1)] = random_scalar(rng, gaussian)
            gens[0] = Series(nvars, edge, order)
            yield nvars, order, gaussian, gens
        order = rng.randint(2, high)
        yield nvars, order, False, []
        yield nvars, order, False, [Series.zero(nvars, order)]
        yield nvars, order, True, [
            Series.constant(Scalar(2, 1), nvars, order),
            random_series(rng, nvars, order, True, min_degree=1),
        ]


def test_packed_echelon_form_matches_the_tuple_keyed_reference():
    rng = random.Random(5)
    for nvars, order, gaussian, gens in _packed_echelon_instances():
        want_polys, want_monomials, want_tails, substitute = _tuple_groebner(
            gens, order, nvars
        )
        basis = groebner(gens, order, nvars=nvars)
        assert len(basis.polys) == len(want_polys)
        for got, want in zip(basis.polys, want_polys):
            assert got.terms == want.terms and got.trunc == want.trunc
        assert basis.monomials == want_monomials
        ring = _ring(nvars, order + 1)
        tails = basis.reduce_tails(basis.tails)
        assert not basis.unreduced
        assert {
            _unpack(m, ring): {_unpack(e, ring): c for e, c in tail.items()}
            for m, tail in tails.items()
        } == want_tails
        handle = IdealHandle(gens, order, nvars=nvars)
        for _ in range(3):
            psi = random_series(rng, nvars, order, gaussian, max_terms=8)
            got = handle.normal_form(psi)
            assert got.terms == substitute(psi.terms, want_tails)
            assert got.trunc == order


def _shiftwise_tails(gens, order, nvars):
    """The raw echelon form of whole shift rows, the reference for the
    suffix walk of ``groebner``: one row dict per truncated shift x^a*g
    on packed keys, shifts of high degree first, each inserted by
    ``linalg._insert_row``."""
    top = _ring(nvars, order + 1)[2]
    keyed = [
        [(e, e // top, c) for e, c in _scalar_terms(g.truncate(order)).items()]
        for g in gens
    ]
    shifts = _degree_keys(nvars, order)
    tails = {}
    for k in reversed(range(order)):
        for shift in shifts[k]:
            for terms in keyed:
                _insert_row(tails, {e + shift: c for e, d, c in terms if d + k < order})
    return tails


def _catalog_ideals():
    """Each catalog template at the lowest order the ideal_basis workload
    draws for it, once with a rational and once with a Gaussian non-unit
    leading coefficient."""
    rng = random.Random(23)
    for template, order in zip(CATALOG_TEMPLATES, CATALOG_LOWEST_ORDERS):
        for lead_coeff, gaussian in ((Scalar(Fraction(-3, 2)), False), (Scalar(2, -3), True)):
            gens = []
            for lead, *rest in template:
                terms = {lead: lead_coeff}
                for e in rest:
                    terms[e] = random_scalar(rng, gaussian)
                    while terms[e].is_zero():
                        terms[e] = random_scalar(rng, gaussian)
                gens.append(Series(3, terms, order))
            yield 3, order, gaussian, gens


def test_groebner_stores_the_raw_tails_of_whole_shift_rows():
    # Lazy reduction starts from the raw rows, so these pin every later
    # reduced tail and normal form as well.
    cases = itertools.chain(_packed_echelon_instances(), _catalog_ideals())
    for nvars, order, _, gens in cases:
        basis = groebner(gens, order, nvars=nvars)
        raw = _shiftwise_tails(gens, order, nvars)
        assert {m: raw[m] for m in basis.unreduced} == {
            m: basis.tails[m] for m in basis.unreduced
        }
        # groebner reduced the tails the minimal pivots reach; so does raw
        ReducedBasis((), (), raw, set(raw)).reduce_tails(basis.tails.keys() - basis.unreduced)
        assert raw == basis.tails


def test_only_shifts_that_meet_a_nonempty_tail_reach_insert_row(monkeypatch):
    import dulac.ideals as ideals_module

    calls = []

    def counting(tails, row):
        calls.append(max(row))
        return _insert_row(tails, row)

    monkeypatch.setattr(ideals_module, "_insert_row", counting)
    # the first ideal_basis shape: every collision meets a monomial pivot
    # (inserting each shift whole made 455 calls)
    order = 14
    g = Series(3, {(2, 0, 0): ONE, (0, 1, 0): Scalar(Fraction(-5, 7))}, order)
    assert len(groebner([g], order).tails) == 455
    assert calls == []
    # the shapes of the lazy-tail test meet nonempty tails too
    names = ("x", "y", "z")
    gens = [parse_expression(g, names, trunc_order=10) for g in ("x*y + z", "x^2 - 2/3*y")]
    groebner(gens, 10)
    assert calls


def _reduced_count(basis):
    return len(basis.tails) - len(basis.unreduced)


def test_lazy_tails_do_not_depend_on_the_query_order():
    names = ("x", "y", "z")
    gens = [parse_expression(g, names, trunc_order=10) for g in ("x*y + z", "x^2 - 2/3*y")]
    order = 10
    # pivots spread over all degrees, deepest first: a high pivot reaches
    # a long chain of raw tails, a low one almost none
    pivots = sorted(groebner(gens, order).tails, reverse=True)
    ring = _ring(3, order + 1)
    psis = [
        Series(3, {_unpack(m, ring): Scalar(k + 1), (0, 0, 1): ONE}, order)
        for k, m in enumerate(pivots[:3] + pivots[3::len(pivots) // 8])
    ]
    deep_first = IdealHandle(gens, order)
    shallow_first = IdealHandle(gens, order)
    first = [deep_first.normal_form(psi) for psi in psis]
    # the deepest query leaves most pivots raw, and repeats are no-ops
    basis = deep_first._ensure_basis()
    assert 0 < len(basis.unreduced) < len(basis.tails)
    assert [deep_first.normal_form(psi) for psi in psis] == first
    second = [shallow_first.normal_form(psi) for psi in reversed(psis)][::-1]
    assert first == second
    tails = [h._ensure_basis().reduce_tails(h._ensure_basis().tails)
             for h in (deep_first, shallow_first)]
    assert tails[0] == tails[1]
    assert all(not h._ensure_basis().unreduced for h in (deep_first, shallow_first))
    # a fresh handle reduced in one go agrees too
    fresh = groebner(gens, order)
    assert fresh.reduce_tails(fresh.tails) == tails[0]


def test_is_invariant_reduces_a_small_share_of_the_pivots():
    # the first ideal_basis shape: the queries reach few of the 455 pivots
    order = 14
    g = Series(3, {(2, 0, 0): ONE, (0, 1, 0): Scalar(Fraction(-5, 7))}, order)
    handle = IdealHandle([g], order)
    f = _field({(1, 0, 0): 1}, {(0, 1, 0): 2}, {(0, 0, 1): 3}, trunc=order)
    assert is_invariant(handle, f) == (True, None)
    basis = handle._ensure_basis()
    assert len(basis.tails) == 455
    assert 0 < _reduced_count(basis) <= len(basis.tails) // 10
    bent = _field({(1, 0, 0): 1, (0, 1, 1): 1}, {(0, 1, 0): 2}, {(0, 0, 1): 3}, trunc=order)
    invariant, witness = is_invariant(handle, bent)
    assert not invariant and not witness[1].is_zero()
    assert _reduced_count(handle._ensure_basis()) <= len(basis.tails) // 10


def _eager_groebner(monkeypatch):
    """Patch ``groebner`` to back-substitute every tail before it returns,
    as the echelon form did before tails were reduced on demand."""
    import dulac.ideals as ideals_module

    lazy = ideals_module.groebner

    def eager(*args, **kwargs):
        basis = lazy(*args, **kwargs)
        basis.reduce_tails(basis.tails)
        return basis

    monkeypatch.setattr(ideals_module, "groebner", eager)


def test_closure_and_extraction_with_a_nilpotent_part_match_the_eager_pass(monkeypatch):
    names = ("x", "y", "z")
    order = 7
    f = VectorField.from_components([
        parse_expression(c, names, trunc_order=order)
        for c in ("2*x + y", "2*y", "4*z + 3*x*y - y^2")
    ])
    seed = parse_expression("x^2 - 2*z + y^3", names, trunc_order=order)

    def report():
        closed = close_under_lie(IdealHandle([seed], order), f)
        _, (cert,) = lf_extract_semiinvariants(closed, f, [seed])
        components = cert.solution[:len(cert.weights)]
        return (
            [format_series(p, names) for p in closed.reduced_basis],
            [format_series(c, names) for c in components],
            cert.block_count, cert.matrix.nrows, cert.determinant,
            [format_series(s, names) for s in cert.solution],
        )

    lazy = report()
    assert lazy == (
        ["x*z^3", "z^4", "x^2 - 2*z", "x*y", "y^2", "y*z"], ["x^2 - 2*z", "y^3"],
        3, 6, Scalar(-512),
        ["x^2 - 2*z", "y^3", "-4*x*y + 2*y^2", "0", "-4*y^2", "0"],
    )
    _eager_groebner(monkeypatch)
    assert report() == lazy


def test_rn_dimension_counts_the_monomials_below_the_order():
    for nvars in range(1, 5):
        for order in range(1, 13):
            count = sum(len(list(iter_exponents(nvars, k))) for k in range(order))
            assert _rn_dimension(nvars, order) == count


# The ideal templates of the ideal_basis benchmark workload: per generator,
# the leading monomial (coefficient 1) and the monomials with a drawn one.
CATALOG_TEMPLATES = [
    [[(2, 0, 0), (0, 1, 0)]],
    [[(1, 0, 1), (0, 1, 0)]],
    [[(1, 1, 0), (0, 0, 1)]],
    [[(1, 1, 0), (0, 0, 1)], [(2, 0, 0), (0, 1, 0)]],
    [[(0, 1, 2), (2, 0, 0)]],
    [[(2, 1, 0), (0, 0, 2)]],
    [[(2, 0, 0), (0, 1, 0), (0, 0, 2)]],
]
# The lowest truncation order the workload draws for each template.
CATALOG_LOWEST_ORDERS = [14, 12, 12, 10, 14, 10, 12]

_ratios = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4)
)


def _sympy_poly(terms, syms):
    return sympy.Poly(
        sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.prod(x**k for x, k in zip(syms, e)))
            for e, c in terms.items()
        ),
        *syms, domain="QQ",
    )


@settings(derandomize=True, deadline=None, max_examples=16)
@given(data=st.data())
def test_normal_form_and_is_invariant_match_sympy_on_the_catalog_shapes(data):
    # Several queries on one handle, so later ones read tails that earlier
    # ones reduced; the oracle reduces by sympy's grlex Groebner basis of
    # the generators plus every degree-N monomial.
    template = data.draw(st.sampled_from(CATALOG_TEMPLATES))
    order = data.draw(st.integers(8, 12))
    gens = [
        {lead: Fraction(1), **{e: data.draw(_ratios) for e in rest}}
        for lead, *rest in template
    ]
    exponent = st.tuples(*[st.integers(0, order // 2)] * 3)
    psis = data.draw(st.lists(
        st.dictionaries(exponent, _ratios, min_size=1, max_size=6), min_size=3, max_size=5
    ))
    # a diagonal field under which every generator is weight-homogeneous
    # leaves the ideal invariant; one quadratic term usually breaks that
    homogeneous = [
        lams for lams in itertools.product([-3, -2, -1, 1, 2, 3], repeat=3)
        if all(len({sum(a * b for a, b in zip(lams, e)) for e in t}) == 1 for t in template)
    ]
    spectrum = data.draw(st.sampled_from(homogeneous))
    field = [{e: Fraction(lam)} for e, lam in zip([(1, 0, 0), (0, 1, 0), (0, 0, 1)], spectrum)]
    if data.draw(st.booleans()):
        field[data.draw(st.integers(0, 2))][(0, 1, 1)] = data.draw(_ratios)

    syms = sympy.symbols("x0:3")
    top = [sympy.prod(x**k for x, k in zip(syms, e)) for e in iter_exponents(3, order)]
    oracle = sympy.groebner(
        [_sympy_poly(g, syms) for g in gens] + top, *syms, order="grlex", domain="QQ"
    )

    def want(poly):
        _, remainder = oracle.reduce(poly)
        return {e: Fraction(int(c.p), int(c.q)) for e, c in remainder.terms() if c}

    def series(terms):
        return Series(3, {e: Scalar(c) for e, c in terms.items()}, order)

    def got(s):
        return {e: c.re for e, c in s.terms.items()}

    handle = IdealHandle([series(g) for g in gens], order)
    for psi in psis:
        assert got(handle.normal_form(series(psi))) == want(_sympy_poly(psi, syms))
    images = []
    for g in gens:
        poly = _sympy_poly(g, syms)
        images.append(want(sum(
            (_sympy_poly(f, syms) * poly.diff(x) for f, x in zip(field, syms)),
            sympy.Poly(0, *syms, domain="QQ"),
        )))
    failing = [(g, image) for g, image in zip(gens, images) if image]
    invariant, witness = is_invariant(
        handle, VectorField.from_components([series(f) for f in field])
    )
    assert invariant == (not failing)
    if failing:
        assert (got(witness[0]), got(witness[1])) == failing[0]


# -- membership ----------------------------------------------------------------


def test_member_detects_combinations():
    g1 = _s({(3, 0): 1, Y: 1}, 8)
    g2 = _s({(0, 2): 1}, 8)
    handle = IdealHandle([g1, g2], 8)
    q1 = _s({(1, 1): 2, X: -1}, 8)
    q2 = _s({(2, 0): 1, (0, 0): 5}, 8)
    combo = q1 * g1 + q2 * g2
    assert handle.member(combo)
    assert not handle.member(_s({Y: 1}, 8))
    assert not handle.member(_s({X: 1, (0, 3): 2}, 8))


def test_member_requires_compatible_truncation():
    handle = IdealHandle([_s({X: 1}, 6)], 6)
    with pytest.raises(TruncationError):
        handle.member(_s({(2, 0): 1}, 4))
    # exact polynomials are fine
    assert handle.member(_s({(2, 0): 1}))


_COARSE_CALLS = {
    # a field known only modulo <x>^4 against an ideal at order 6
    "is_invariant": lambda ideal, f4, f6: is_invariant(ideal, f4),
    "close_under_lie": lambda ideal, f4, f6: close_under_lie(ideal, f4),
    # extraction from one member: along a coarse field, and of a coarse member
    "extract_from_member field": lambda ideal, f4, f6: lf_extract_semiinvariants(
        ideal, f4, [ideal.generators[0]]
    ),
    # a series known only modulo <x>^4 viewed at order 6
    "IdealHandle generator": lambda ideal, f4, f6: IdealHandle([_s({X: 1}, 4)], 6),
    "normal_form": lambda ideal, f4, f6: ideal.normal_form(_s({(2, 0): 1}, 4)),
    "extract_from_member phi": lambda ideal, f4, f6: lf_extract_semiinvariants(
        _maximal(6), f6, [_s({(3, 0): 1, Y: 1}, 4)]
    ),
}


@pytest.mark.parametrize("call", sorted(_COARSE_CALLS))
def test_inputs_coarser_than_the_ideal_raise_truncation_error(call):
    f4 = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=4)
    f6 = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=6)
    ideal = IdealHandle([_s({(3, 0): 1, Y: 1}, 6), _s({(0, 2): 1}, 6)], 6)
    with pytest.raises(TruncationError):
        _COARSE_CALLS[call](ideal, f4, f6)


def test_member_sees_through_truncation_units():
    # y(1+y) = -x^3 + (x^3 + y + y^2), so y ~ unit * x^3 modulo the ideal
    # and y^3 is a member once degree-8 noise is discarded.
    psi = _s({(3, 0): 1, Y: 1, (0, 2): 1}, 8)
    handle = IdealHandle([psi], 8)
    assert handle.member(_s({(0, 3): 1}, 8))
    assert not handle.member(_s({(0, 2): 1}, 8))


def test_normal_form_is_linear_and_idempotent():
    rng = random.Random(29)
    handle = IdealHandle(
        [_s({(2, 0): 1, Y: 1}, 6), _s({(1, 1): 1}, 6)], 6
    )
    for _ in range(20):
        a = random_series(rng, 2, 6, max_terms=4)
        b = random_series(rng, 2, 6, max_terms=4)
        c = Scalar(rng.randint(-3, 3))
        nf = handle.normal_form
        assert nf(a + b * c) == nf(a) + nf(b) * c
        assert nf(nf(a)) == nf(a)
        assert nf(a - nf(a)).is_zero()


def test_with_extra_extends_ideal():
    handle = IdealHandle([_s({(0, 2): 1}, 6)], 6)
    bigger = handle.with_extra([_s({X: 1}, 6)])
    assert bigger.member(_s({(1, 1): 3}, 6))
    assert not handle.member(_s({(1, 1): 3}, 6))


# -- invariance ----------------------------------------------------------------


def test_is_invariant_golden_seed_pair_fails_with_witness():
    # L_f(x^3 + y) = 4x^3 + 3y reduces to -y, which is not in the ideal.
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    handle = IdealHandle([_s({(3, 0): 1, Y: 1}, 8), _s({(0, 2): 1}, 8)], 8)
    invariant, witness = is_invariant(handle, f)
    assert not invariant
    generator, residue = witness
    assert residue == _s({Y: -1})


def test_is_invariant_closed_ideal_passes():
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    handle = IdealHandle([_s({(3, 0): 1}, 8), _s({Y: 1}, 8)], 8)
    invariant, witness = is_invariant(handle, f)
    assert invariant
    assert witness is None


def test_is_invariant_coordinate_ideals_under_diagonal_fields():
    rng = random.Random(97)
    for _ in range(10):
        n = rng.choice([2, 3])
        f = pdnf_field(rng, n, 5, allow_nilpotent=False)
        # a coordinate hyperplane ideal <x_i> is invariant iff every term of
        # f_i is divisible by x_i; diagonal linear part guarantees the
        # degree-1 term is, and resonant terms may or may not be.
        for i in range(n):
            gen = Series.variable(i, n, 5)
            handle = IdealHandle([gen], 5)
            expected = all(e[i] >= 1 for e in f.components[i].terms)
            assert is_invariant(handle, f)[0] == expected


def test_close_under_lie_reaches_fixpoint():
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    handle = IdealHandle([_s({(3, 0): 1, Y: 1, (0, 2): 1}, 8)], 8)
    closed = close_under_lie(handle, f)
    invariant, _ = is_invariant(closed, f)
    assert invariant
    # closure contains the seed
    assert closed.member(_s({(3, 0): 1, Y: 1, (0, 2): 1}, 8))
    # the closure collapsed to <x^3, y>
    assert [dict(p.terms) for p in closed.reduced_basis] == [
        {(3, 0): ONE},
        {Y: ONE},
    ]


def test_close_under_lie_is_identity_on_invariant_ideals():
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    handle = IdealHandle([_s({(3, 0): 1}, 8), _s({Y: 1}, 8)], 8)
    closed = close_under_lie(handle, f)
    assert closed.reduced_basis == handle.reduced_basis


@pytest.mark.parametrize("nvars", [1, 2])
def test_close_under_lie_in_r1_stops_after_one_round(nvars):
    # R_1 holds only constants, which every field kills, and dim R_1 = 1:
    # the round bound must still admit the one round that sees it stable
    ideal = IdealHandle([Series.constant(ONE, nvars, 1)], 1, nvars)
    closed = close_under_lie(ideal, [Series.zero(nvars, 1)] * nvars)
    assert closed.reduced_basis == (Series.constant(ONE, nvars, 1),)


def test_closures_along_normalized_fields_are_semisimple_invariant():
    # The paper's theorem as an oracle: along a field in normal form, every
    # invariant ideal is also invariant under the semisimple part B_s.
    rng = random.Random(2003)
    proper = 0
    for case in range(40):
        n = rng.choice([2, 3])
        order = rng.choice([4, 5])
        linear = splitting_linear_part(rng, n)
        f = field_with_linear_part(rng, linear, order, max_terms=3, gaussian=case % 4 == 0)
        g = normalize(f).normalized
        seeds = [
            random_series(rng, n, order, max_terms=3, min_degree=1)
            for _ in range(rng.randint(1, 2))
        ]
        closed = close_under_lie(IdealHandle(seeds, order, n), g)
        invariant, witness = is_invariant(closed, g.semisimple_components())
        assert invariant, witness
        if not all(closed.member(Series.variable(j, n, order)) for j in range(n)):
            proper += 1
    # most closures are not the maximal ideal, so the oracle is not vacuous
    assert proper >= 20


def test_closing_the_weight_components_gives_the_closure_of_the_seeds():
    # The paper's theorem again, as `dulac extract --close` uses it: along a
    # field in normal form the closure of the seeds holds their weight
    # components, so closing the components gives the same ideal, and the
    # reduced basis is unique.
    rng = random.Random(2105)
    split = 0
    for _ in range(40):
        n = rng.choice([2, 3])
        order = rng.choice([4, 5, 6])
        f = pdnf_field(rng, n, order)
        seeds = [
            random_series(rng, n, order, max_terms=4, min_degree=1)
            for _ in range(rng.randint(1, 2))
        ]
        components = [c for g in seeds for c in weight_decompose(g, f.eigenvalues).values()]
        seed_ideal = IdealHandle(seeds, order, n)
        component_ideal = IdealHandle(components, order, n)
        rounds = close_under_lie(seed_ideal, f)
        direct = close_under_lie(component_ideal, f)
        assert direct.reduced_basis == rounds.reduced_basis
        assert direct.truncation_monomials == rounds.truncation_monomials
        split += seed_ideal.reduced_basis != component_ideal.reduced_basis
    # a quarter of the seed ideals do not hold their own components, so
    # the closure does real work there
    assert split >= 8


# -- extraction ----------------------------------------------------------------


def test_extract_semiinvariants_weight_components():
    weights, embedding = weights_from_scalars([Scalar(1), Scalar(3)])
    gens = [_s({(3, 0): 1, Y: 1, (0, 2): 2}, 8)]
    handle = IdealHandle(
        [_s({(3, 0): 1, Y: 1}, 8), _s({(0, 2): 1}, 8), gens[0]], 8
    )
    out, certs = extract_semiinvariants(handle, weights, embedding)
    assert [dict(g.terms) for g in out] == [
        {(3, 0): ONE, Y: ONE},
        {(0, 2): ONE},
    ]
    assert certs is not None and len(certs) >= 1
    # diag(lambda) has g = 0: one block, the weight components themselves
    assert [c.block_count for c in certs] == [1] * len(certs)
    assert all(c.matrix.nrows == len(c.weights) for c in certs)
    cert = certs[-1]
    # replay the certificate: W u = rhs
    for i in range(cert.matrix.nrows):
        acc = Series.zero(2, 8)
        for j in range(cert.matrix.ncols):
            acc = acc + cert.solution[j] * cert.matrix[i, j]
        assert acc == cert.rhs[i]


def test_extract_semiinvariants_embeds_one_dimensional_weights_as_given():
    # one variable, weight 1 embedded as 2: the derivation is 2*x*d/dx
    handle = IdealHandle([_s({(2,): 1, (3,): 1}, 5, nvars=1)], 5)
    out, certs = extract_semiinvariants(handle, [Weight((Fraction(1),))], [Scalar(2)])
    assert [dict(g.terms) for g in out] == [{(3,): ONE}, {(2,): ONE}]
    assert [cert.nodes for cert in certs] == [(Scalar(4), Scalar(6))]


def test_extract_semiinvariants_requires_invariance():
    weights, embedding = weights_from_scalars([Scalar(1), Scalar(3)])
    handle = IdealHandle([_s({(3, 0): 1, Y: 1, (0, 2): 2}, 8)], 8)
    with pytest.raises(NotInvariantError):
        extract_semiinvariants(handle, weights, embedding)


def test_extract_semiinvariants_gaussian_spectrum():
    values = [Scalar(0, 1), Scalar(0, -1)]
    weights, embedding = weights_from_scalars(values)
    assert embedding == (ONE, IMAG)
    # x*y has weight 0; x^2 has weight 2i: generators are weight homogeneous
    handle = IdealHandle([_s({(1, 1): 1}, 6), _s({(2, 0): 1}, 6)], 6)
    out, certs = extract_semiinvariants(handle, weights, embedding)
    for g in out:
        dec = weight_decompose(g, weights)
        assert len(dec) == 1
        assert handle.member(g)


def test_extract_semiinvariants_symbolic_mode():
    w1 = Weight((Fraction(1), Fraction(0)))
    w2 = Weight((Fraction(0), Fraction(1)))
    handle = IdealHandle(
        [_s({(2, 0): 1}, 5), _s({(1, 1): 1}, 5), _s({(2, 0): 1, (1, 1): 3}, 5)],
        5,
    )
    out, certs = extract_semiinvariants(handle, [w1, w2], None)
    assert certs is None
    assert [dict(g.terms) for g in out] == [
        {(2, 0): ONE},
        {(1, 1): ONE},
    ]
    # one variable with a two-dimensional weight
    single = IdealHandle([_s({(2,): 1, (3,): 1}, 5, nvars=1)], 5)
    out, certs = extract_semiinvariants(single, [Weight((1, 2))], None)
    assert certs is None and [dict(g.terms) for g in out] == [{(3,): ONE}, {(2,): ONE}]


def test_symbolic_invariance_keeps_the_generator_major_witness():
    # D_0 (first weight coordinates) fixes g1 and moves g2; D_1 moves g1
    # only.  Generators come first, so the witness is g1's D_1 image.
    names = ("x", "y", "z")
    weights = [Weight((1, 0)), Weight((1, 0)), Weight((0, 1))]
    g1, g2 = (parse_expression(t, names, trunc_order=5) for t in ("x*z + y*z^2", "x + y^2"))
    handle = IdealHandle([g1, g2], 5)

    def image(g, k):  # L_{D_k} g by its formula, term by term
        return Series(3, {e: c * Scalar(weight(e, weights).coords[k])
                          for e, c in g.terms.items()}, g.trunc)

    assert not handle.normal_form(image(g2, 0)).is_zero()
    assert handle.normal_form(image(g1, 0)).is_zero()
    with pytest.raises(NotInvariantError) as info:
        extract_semiinvariants(handle, weights, None)
    generator, residue = info.value.witness
    assert generator == g1
    assert residue == handle.normal_form(image(g1, 1)) != Series.zero(3, 5)


def _lg_walk(f, phi, order):
    """The smallest l with L_g^l(phi) = 0 modulo <x>^order, g = f - B_s x:
    L_g iterated on phi itself, not on its weight components."""
    g = [c.truncate(order) - s for c, s in zip(f.components, f.semisimple_components())]
    psi, count = phi.truncate(order), 0
    while not psi.is_zero():
        psi = lie_derivative(g, psi)
        count += 1
    return count


def test_block_count_is_the_nilpotency_index_on_random_normal_fields():
    rng = random.Random(1818)
    counts = set()
    for _ in range(25):
        n = rng.choice([2, 3])
        order = rng.choice([4, 5, 6])
        f = pdnf_field(rng, n, order)
        seed = random_series(rng, n, order, max_terms=4, min_degree=1)
        closed = close_under_lie(IdealHandle([seed], order), f)
        _, certs = lf_extract_semiinvariants(closed, f, (seed,) + closed.reduced_basis)
        for cert in certs:
            assert cert.block_count == _lg_walk(f, cert.source, order)
            counts.add(cert.block_count)
    assert max(counts) >= 3


def test_block_count_is_bounded_on_random_normal_fields():
    rng = random.Random(202)
    for _ in range(20):
        n = rng.choice([2, 3])
        order = rng.choice([4, 5, 6])
        f = pdnf_field(rng, n, order)
        psi = random_series(rng, n, order, max_terms=4, min_degree=1)
        if psi.is_zero():
            continue
        # the maximal ideal is invariant along every field vanishing at 0
        maximal = IdealHandle([Series.variable(j, n, order) for j in range(n)], order)
        _, (cert,) = lf_extract_semiinvariants(maximal, f, [psi])
        assert 1 <= cert.block_count <= lg_nilpotency_bound(f, order)


def _scalar_matvec(matrix, vec):
    """matrix * vec on the Scalar terms of vec, with no series arithmetic."""
    out = []
    for row in matrix.rows():
        acc = {}
        for c, s in zip(row, vec):
            for e, v in s.terms.items():
                acc[e] = acc.get(e, ZERO) + c * v
        out.append({e: v for e, v in acc.items() if not v.is_zero()})
    return out


def test_certificate_replay_holds_on_a_scalar_product_loop():
    # _certify builds the rhs with lie_derivative and _verify_certificate
    # replays it with matvec_series, and both are sums of poly._dot; this
    # product loop is the route that shares nothing with either.
    rng = random.Random(1913)
    replayed = 0
    for _ in range(12):
        n = rng.choice([2, 3])
        order = rng.choice([4, 5, 6])
        f = pdnf_field(rng, n, order)
        seed = random_series(rng, n, order, gaussian=True, max_terms=4, min_degree=1)
        closed = close_under_lie(IdealHandle([seed], order), f)
        _, certs = lf_extract_semiinvariants(closed, f, (seed,) + closed.reduced_basis)
        for cert in certs:
            got = _scalar_matvec(cert.matrix, cert.solution)
            assert got == [want.terms for want in cert.rhs]
            replayed += cert.block_count > 1
    assert replayed >= 10


def test_extract_from_member_golden():
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    closed = IdealHandle([_s({(3, 0): 1}, 8), _s({Y: 1}, 8)], 8)
    psi = _s({(3, 0): 1, Y: 1, (0, 2): 1}, 8)
    generators, (cert,) = lf_extract_semiinvariants(closed, f, [psi])
    components = cert.solution[:len(cert.weights)]
    assert [dict(c.terms) for c in components] == [
        {(3, 0): ONE, Y: ONE},
        {(0, 2): ONE},
    ]
    assert generators == components
    assert cert.block_count == 3
    assert cert.matrix.nrows == 6
    assert abs(cert.determinant.re) == 19683
    # the first block of the solution is the weight decomposition itself
    dec = weight_decompose(psi, f.eigenvalues)
    assert list(cert.solution[:2]) == list(dec.values())


def test_extract_from_member_rejects_non_members():
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    closed = IdealHandle([_s({(3, 0): 1}, 8), _s({Y: 1}, 8)], 8)
    with pytest.raises(NotInvariantError) as info:
        lf_extract_semiinvariants(closed, f, [_s({X: 1}, 8)])
    assert str(info.value) == "the series is not a member of the ideal"


def test_extract_from_member_rejects_non_normal_fields():
    f = _field({X: 1}, {Y: 2, (3, 0): 1}, trunc=6)
    with pytest.raises(NotNormalFormError):
        lf_extract_semiinvariants(_maximal(6), f, [_s({Y: 1}, 6)])


def test_extract_from_member_rejects_non_diagonal_semisimple():
    f = _field({Y: -1}, {X: 1}, trunc=6)
    with pytest.raises(NotDiagonalError):
        lf_extract_semiinvariants(_maximal(6), f, [_s({(1, 1): 1}, 6)])


def test_extract_from_member_zero_series():
    f = _field({X: 1}, {Y: 3}, trunc=6)
    handle = IdealHandle([_s({Y: 1}, 6)], 6)
    assert lf_extract_semiinvariants(handle, f, [Series.zero(2, 6)]) == ((), ())


def test_lf_extraction_checks_the_field_once_for_all_members(monkeypatch):
    import dulac.ideals as ideals_module

    calls = []
    check = ideals_module.is_pdnf

    def counting(f, order):
        calls.append(order)
        return check(f, order)

    monkeypatch.setattr(ideals_module, "is_pdnf", counting)
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    closed = IdealHandle([_s({(3, 0): 1}, 8), _s({Y: 1}, 8)], 8)
    members = [_s({(3, 0): 1, Y: 1, (0, 2): 1}, 8), _s({(1, 1): 2}, 8)]
    generators, certificates = lf_extract_semiinvariants(closed, f, members)
    assert calls == [8]
    assert len(certificates) == 2
    assert [format_series(g, ("x", "y")) for g in generators] == [
        "x^3 + y", "x*y", "y^2",
    ]


def test_lf_extraction_checks_invariance_before_the_field():
    # (x, 2y + x^3) is not in normal form, and <y> is not invariant along it
    f = _field({X: 1}, {Y: 2, (3, 0): 1}, trunc=6)
    with pytest.raises(NotInvariantError) as info:
        lf_extract_semiinvariants(IdealHandle([_s({Y: 1}, 6)], 6), f, [_s({Y: 1}, 6)])
    assert str(info.value).startswith("the ideal is not invariant along the field")
    # with no member there is nothing to extract, and the field goes unchecked
    assert lf_extract_semiinvariants(_maximal(6), f, []) == ((), ())
    assert lf_extract_semiinvariants(_maximal(6), f, iter(())) == ((), ())
    # a zero member still needs a field in normal form
    with pytest.raises(NotNormalFormError):
        lf_extract_semiinvariants(_maximal(6), f, [Series.zero(2, 6)])


def _readme_certificate():
    names = ("x", "y")
    f = VectorField.from_components([
        parse_expression("x", names, trunc_order=8),
        parse_expression("3*y + x^3", names, trunc_order=8),
    ])
    psi = parse_expression("x^3 + y + y^2", names, trunc_order=8)
    closed = close_under_lie(IdealHandle([psi], 8), f)
    _, (cert,) = lf_extract_semiinvariants(closed, f, [psi])
    return closed, cert


def _replace(seq, k, value):
    out = list(seq)
    out[k] = value
    return out


def _sympy_determinant(matrix):
    sm = sympy.Matrix(
        matrix.nrows, matrix.ncols,
        lambda i, j: sympy.Rational(matrix[i, j].re) + sympy.I * sympy.Rational(matrix[i, j].im),
    )
    det = sympy.expand(sm.det())
    return Scalar(Fraction(str(sympy.re(det))), Fraction(str(sympy.im(det))))


def _replay(ideal, cert, nodes=None, rhs=None, solution=None):
    return _verify_certificate(
        ideal,
        cert.nodes if nodes is None else nodes,
        cert.block_count,
        cert.rhs if rhs is None else rhs,
        cert.solution if solution is None else solution,
    )


def test_certificate_replay_accepts_the_issued_certificate():
    closed, cert = _readme_certificate()
    matrix, det = _replay(closed, cert)
    assert matrix == cert.matrix
    assert det == cert.determinant == _sympy_determinant(cert.matrix)
    assert det == Scalar(-19683)


def test_certificate_replay_rejects_a_tampered_solution_entry():
    closed, cert = _readme_certificate()
    y = _s({Y: 1}, 8)
    # still a member, so only the matrix identity can catch it
    for k in (0, len(cert.solution) - 1):
        tampered = _replace(cert.solution, k, cert.solution[k] + y)
        assert all(closed.member(e) for e in tampered)
        with pytest.raises(CertificateError, match="does not reproduce"):
            _replay(closed, cert, solution=tampered)


def test_certificate_replay_rejects_a_tampered_rhs_entry():
    closed, cert = _readme_certificate()
    tampered = _replace(cert.rhs, 2, cert.rhs[2] + _s({(3, 0): 1}, 8))
    with pytest.raises(CertificateError, match="does not reproduce"):
        _replay(closed, cert, rhs=tampered)


def test_certificate_replay_names_the_source_when_an_rhs_entry_leaves_the_ideal():
    closed, cert = _readme_certificate()
    smaller = IdealHandle([_s({Y: 1}, 8)], 8)
    assert not smaller.member(cert.rhs[0])
    with pytest.raises(NotInvariantError, match="left the ideal") as caught:
        _replay(smaller, cert)
    assert caught.value.witness == (cert.rhs[0], smaller.normal_form(cert.rhs[0]))


def test_certificate_replay_rejects_a_tampered_matrix_entry():
    closed, cert = _readme_certificate()
    # a changed node that stays distinct changes the matrix, not its
    # invertibility, so the replay is what fails
    for k in range(len(cert.nodes)):
        nodes = _replace(cert.nodes, k, cert.nodes[k] + ONE)
        assert len(set(nodes)) == len(nodes)
        with pytest.raises(CertificateError, match="does not reproduce"):
            _replay(closed, cert, nodes=nodes)


def test_certificate_replay_rejects_a_singular_matrix():
    closed, cert = _readme_certificate()
    # Repeated nodes: the closed-form determinant vanishes, and the replay
    # refuses them before the matrix builder, which raises ValueError on
    # them, is reached.
    for k in range(len(cert.nodes)):
        nodes = [cert.nodes[k]] * len(cert.nodes)
        with pytest.raises(CertificateError, match="singular"):
            _replay(closed, cert, nodes=nodes)


def test_extract_semiinvariants_gaussian_embedding_certificate():
    weights, embedding = weights_from_scalars([IMAG, -IMAG])
    # x^2 + x*y mixes the weights 2i and 0; the ideal is spanned by
    # weight-homogeneous members, so it is invariant under diag(i, -i).
    mixed = _s({(2, 0): 1, (1, 1): 1}, 6)
    handle = IdealHandle([mixed, _s({(2, 0): 1}, 6)], 6)
    out, certs = extract_semiinvariants(handle, weights, embedding)
    assert [dict(g.terms) for g in out] == [{(2, 0): ONE}, {(1, 1): ONE}]
    cert = certs[0]
    assert cert.source == mixed
    assert sorted(cert.nodes, key=str) == sorted([Scalar(0, 2), Scalar(0)], key=str)
    assert cert.determinant.magnitude_squared() == 4
    assert list(cert.solution) == list(weight_decompose(mixed, weights).values())
    assert matvec_series(cert.matrix, cert.solution) == list(cert.rhs)
    assert _replay(handle, cert) == (cert.matrix, cert.determinant)


def test_lf_extract_semiinvariants_golden():
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    closed = IdealHandle([_s({(3, 0): 1}, 8), _s({Y: 1}, 8)], 8)
    gens, certs = lf_extract_semiinvariants(closed, f, closed.generators)
    assert [dict(g.terms) for g in gens] == [{(3, 0): ONE}, {Y: ONE}]
    assert len(certs) == 2
    for cert in certs:
        # matrix * solution reproduces the recorded right-hand side
        for i in range(cert.matrix.nrows):
            acc = Series.zero(2, 8)
            for j in range(cert.matrix.ncols):
                acc = acc + cert.solution[j] * cert.matrix[i, j]
            assert acc == cert.rhs[i]


def test_lf_extract_semiinvariants_requires_invariant_ideal():
    f = _field({X: 1}, {Y: 3, (3, 0): 1}, trunc=8)
    seed = IdealHandle([_s({(3, 0): 1, Y: 1}, 8), _s({(0, 2): 1}, 8)], 8)
    with pytest.raises(NotInvariantError) as info:
        lf_extract_semiinvariants(seed, f, seed.generators)
    assert info.value.witness is not None


def test_lf_extract_semiinvariants_from_seed_members():
    # The README example: the closure is <x^3, y>, and extracting from the
    # seed psi instead gives what `dulac extract --close` reports.
    names = ("x", "y")
    f = VectorField.from_components([
        parse_expression("x", names, trunc_order=8),
        parse_expression("3*y + x^3", names, trunc_order=8),
    ])
    psi = parse_expression("x^3 + y + y^2", names, trunc_order=8)
    closed = close_under_lie(IdealHandle([psi], 8), f)
    gens, certs = lf_extract_semiinvariants(closed, f, [psi])
    assert [format_series(g, names) for g in gens] == ["x^3 + y", "y^2"]
    assert [cert.source for cert in certs] == [psi]
    # a zero member has no components and no certificate
    _, certs = lf_extract_semiinvariants(closed, f, [psi, Series.zero(2, 8)])
    assert [cert.source for cert in certs] == [psi]
    from_closure, _ = lf_extract_semiinvariants(closed, f, closed.generators)
    assert [format_series(g, names) for g in from_closure] == [
        "x^2*y^2", "x^3 + y", "y^3", "y^2", "y",
    ]


def test_extraction_generators_monic_and_sorted():
    rng = random.Random(404)
    weights, embedding = weights_from_scalars([Scalar(1), Scalar(-2)])
    gens = weight_homogeneous_generators(rng, weights, 2, 6, 3)
    mixed = scrambled_generators(rng, gens)
    handle = IdealHandle(mixed, 6)
    out, _ = extract_semiinvariants(handle, weights, embedding)
    for g in out:
        assert g.leading_coefficient() == ONE
    keys = [tuple(sorted(g.terms)) for g in out]
    assert len(set(keys)) == len(keys)


# -- single resonance ----------------------------------------------------------


def _symbolic_basis(n):
    out = []
    for i in range(n):
        coords = [Fraction(0)] * n
        coords[i] = Fraction(1)
        out.append(Weight(tuple(coords)))
    return out


def test_single_resonance_candidates_all_subsets():
    basis = _symbolic_basis(2)
    lam3 = Weight((Fraction(-1), Fraction(-2)))  # -lambda_1 - 2*lambda_2
    candidates, report = single_resonance_primes(
        basis + [lam3], [Fraction(-1), Fraction(-2)]
    )
    assert len(candidates) == 7
    assert candidates[0] == (0,)
    assert candidates[-1] == (0, 1, 2)
    assert report["independent"] is True
    assert report["relation_holds"] is True
    assert report["candidate_count"] == 7


def test_single_resonance_rejects_positive_alpha():
    basis = _symbolic_basis(1)
    for alpha in (Fraction(2), Fraction(1, 2)):
        with pytest.raises(HypothesisError, match="nonpositive"):
            single_resonance_primes(basis + [Weight((alpha,))], [alpha])


def test_single_resonance_rejects_dependent_leading_eigenvalues():
    with pytest.raises(HypothesisError):
        single_resonance_primes(
            [Weight((1, 0)), Weight((2, 0)), Weight((-3, 0))],
            [Fraction(-1), Fraction(-1)],
        )


def test_single_resonance_rejects_broken_relation():
    basis = _symbolic_basis(2)
    with pytest.raises(HypothesisError, match="resonance relation"):
        single_resonance_primes(
            basis + [basis[0]], [Fraction(-1), Fraction(-1)]
        )
    # a last eigenvalue independent of the leading ones breaks the relation
    with pytest.raises(HypothesisError, match="resonance relation"):
        single_resonance_primes(_symbolic_basis(3), [Fraction(-1), Fraction(-1)])
    # two eigenvalues: the relation lambda_2 = alpha*lambda_1 is checked too
    with pytest.raises(HypothesisError, match="resonance relation"):
        single_resonance_primes([basis[0], Weight((2, 0))], [Fraction(-1)])


def test_single_resonance_wrong_arity():
    basis = _symbolic_basis(2)
    with pytest.raises(ValueError):
        single_resonance_primes(basis, [Fraction(-1), Fraction(-1)])
