"""Acceptance gate: one test per advertised guarantee.

Each test prints a single PASS line with its wall-clock time so a verbose
run reads as a checklist.  All arithmetic is exact; the only tolerances
are the stated time budgets.
"""

import itertools
import random
import time
from fractions import Fraction

from dulac.cli import main as cli_main
from dulac.errors import HypothesisError
from dulac.field import Scalar, Weight, weights_from_scalars
from dulac.exprs import format_series, parse_expression
from dulac.ideals import (
    IdealHandle,
    close_under_lie,
    extract_semiinvariants,
    is_invariant,
    lf_extract_semiinvariants,
    single_resonance_primes,
)
from dulac.linalg import confluent_vandermonde_matrix, determinant
from dulac.normalform import (
    conjugacy_residual,
    is_pdnf,
    is_resonant,
    lg_nilpotency_bound,
    normalize,
)
from dulac.poly import (
    Series,
    VectorField,
    lie_derivative,
    weight_decompose,
)

from _gen import (
    diagonalized_components,
    field_with_linear_part,
    pdnf_field,
    random_series,
    scrambled_generators,
    splitting_linear_part,
    weight_homogeneous_generators,
)


def _report(number, detail, started):
    print(f"PASS criterion {number}: {detail} ({time.monotonic() - started:.2f}s)")


def _series(text, trunc=8, names=("x", "y")):
    return parse_expression(text, names, trunc_order=trunc)


GOLDEN_MATRIX = [
    [1, 1, 0, 0, 0, 0],
    [3, 6, 1, 1, 0, 0],
    [9, 36, 6, 12, 1, 1],
    [27, 216, 27, 108, 9, 18],
    [81, 1296, 108, 864, 54, 216],
    [243, 7776, 405, 6480, 270, 2160],
]


def test_criterion_1_golden_example():
    started = time.monotonic()
    f = VectorField.from_components(
        [_series("x"), _series("3*y + x^3")]
    )
    psi = _series("x^3 + y + y^2")

    # the nilpotent remainder g = f - B_s x annihilates psi in three steps
    g = f.g_components()
    assert [format_series(c, ("x", "y")) for c in g] == ["0", "x^3"]
    assert lie_derivative(g, psi) == _series("x^3 + 2*x^3*y")
    twice = lie_derivative(g, lie_derivative(g, psi))
    assert twice == _series("2*x^6")
    assert lie_derivative(g, twice).is_zero()
    assert lie_derivative(g, lie_derivative(g, twice)).is_zero()

    closed = close_under_lie(IdealHandle([psi], 8), f)
    assert [format_series(p, ("x", "y")) for p in closed.reduced_basis] == [
        "x^3",
        "y",
    ]
    generators, (cert,) = lf_extract_semiinvariants(closed, f, [psi])
    components = cert.solution[:len(cert.weights)]
    assert [format_series(s, ("x", "y")) for s in components] == ["x^3 + y", "y^2"]
    assert generators == components
    assert cert.matrix.nrows == 6 and cert.block_count == 3
    rows = [[int(cert.matrix[i, j].re) for j in range(6)] for i in range(6)]
    assert rows == GOLDEN_MATRIX
    assert abs(cert.determinant.re) == 19683
    assert 19683 == 3**9

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, "golden example reproduced exactly, matrix and |det| = 3^9", started)


def test_criterion_2_confluent_vandermonde_sweep():
    started = time.monotonic()
    values = list(range(-5, 6))
    checked = 0
    for q in range(1, 5):
        for nodes in itertools.combinations(values, q):
            for m in range(1, 5):
                matrix = confluent_vandermonde_matrix(
                    [Scalar(v) for v in nodes], m
                )
                det = determinant(matrix)
                assert not det.is_zero()
                oracle = Fraction(1)
                for i in range(q):
                    for j in range(i + 1, q):
                        oracle *= abs(
                            Fraction(nodes[j]) - Fraction(nodes[i])
                        ) ** (m * m)
                assert abs(det.re) == oracle and det.im == 0
                checked += 1
    assert checked == 561 * 4
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(2, f"{checked} confluent Vandermonde dets match the product formula", started)


def _suite3_instances(count=200):
    rng = random.Random(31337)
    out = []
    while len(out) < count:
        n = rng.choice([2, 3])
        order = rng.choice([4, 5, 6])
        f = pdnf_field(rng, n, order)
        gens = [
            random_series(rng, n, order, max_terms=3, min_degree=1)
            for _ in range(rng.randint(1, 2))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        closed = close_under_lie(IdealHandle(gens, order), f)
        out.append((f, closed, order))
    return out


def test_criterion_3_lf_closure_implies_linear_invariance():
    started = time.monotonic()
    instances = _suite3_instances()
    for f, closed, _ in instances:
        ok, witness = is_invariant(closed, f)
        assert ok, witness
        ok, witness = is_invariant(closed, f.semisimple_components())
        assert ok, witness
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(3, f"{len(instances)} L_f-closed ideals invariant under B_s x", started)


def test_criterion_4_extraction_from_invariant_ideals():
    started = time.monotonic()
    rng = random.Random(271828)
    done = 0
    while done < 200:
        n = rng.choice([2, 3])
        order = rng.choice([4, 5, 6])
        gaussian = rng.random() < 0.25
        spectrum = [
            Scalar(rng.randint(-3, 3), rng.randint(-2, 2) if gaussian else 0)
            for _ in range(n)
        ]
        weights, embedding = weights_from_scalars(spectrum)
        gens = weight_homogeneous_generators(
            rng, weights, n, order, rng.randint(1, 3), gaussian=gaussian
        )
        if not gens:
            continue
        handle = IdealHandle(scrambled_generators(rng, gens), order)
        extracted, _ = extract_semiinvariants(handle, weights, embedding)
        assert extracted, "extraction may not drop a nonzero invariant ideal"
        for g in extracted:
            decomposition = weight_decompose(g, weights)
            assert len(decomposition) == 1  # weight homogeneous
            assert handle.member(g)  # verified member
        # two-sided generation equivalence at the truncation
        back = IdealHandle(list(extracted), order)
        assert all(back.member(g) for g in handle.generators)
        assert handle.reduced_basis == back.reduced_basis
        done += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(4, f"{done} invariant ideals regenerated by weight-homogeneous parts", started)


def test_criterion_5_normalization_conjugacy_and_resonance():
    started = time.monotonic()
    rng = random.Random(16180)
    done = 0
    while done < 100:
        n = rng.choice([2, 3])
        order = rng.choice([4, 5, 6])
        linear = splitting_linear_part(rng, n)
        f = field_with_linear_part(rng, linear, order + 1)
        result = normalize(f)
        ok, residual = is_pdnf(result.normalized)
        assert ok, residual
        assert all(r.is_zero() for r in conjugacy_residual(f, result))
        # in the diagonalizing coordinates only resonant monomials survive
        comps = diagonalized_components(f, result.normalized.components)
        for index, comp in enumerate(comps):
            for exps in comp.terms:
                if sum(exps) >= 2:
                    assert is_resonant(exps, index, f.eigenvalues)
        done += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(5, f"{done} fields normalized: conjugate, normal, resonant-only", started)


def test_criterion_6_derivative_degree_shift_and_nilpotency_bound():
    started = time.monotonic()
    rng = random.Random(2718)
    # homogeneous fields of degree j shift monomial degree by exactly j - 1
    for _ in range(200):
        n = rng.choice([2, 3])
        j = rng.randint(2, 4)
        components = []
        for _ in range(n):
            comp = Series.zero(n, 8)
            for exps in _degree_exponents(n, j):
                if rng.random() < 0.4:
                    comp = comp + Series.monomial(exps, Scalar(rng.randint(-2, 2)), 8)
            components.append(comp)
        if all(c.is_zero() for c in components):
            continue
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(exps) == 0:
            continue
        m = Series.monomial(exps, Scalar(1), 8)
        image = lie_derivative(components, m)
        if not image.is_zero():
            degree = image.degree()
            assert degree == sum(exps) + j - 1
            assert degree > sum(exps)
    # the block count of an extraction, the nilpotency index of L_g on its
    # member, respects the derived bound
    for f, closed, order in _suite3_instances():
        bound = lg_nilpotency_bound(f, order)
        _, certs = lf_extract_semiinvariants(closed, f, closed.generators)
        assert len(certs) == len(closed.generators)
        for cert in certs:
            assert 1 <= cert.block_count <= bound
    _report(6, "degree shifts and nilpotency indices within the derived bound", started)


def _degree_exponents(nvars, degree):
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree + 1):
        for rest in _degree_exponents(nvars - 1, degree - head):
            yield (head,) + rest


def test_criterion_7_single_resonance_enumeration(tmp_path, capsys):
    started = time.monotonic()
    n = 3
    basis = []
    for i in range(n - 1):
        coords = [Fraction(0)] * (n - 1)
        coords[i] = Fraction(1)
        basis.append(Weight(tuple(coords)))
    alpha = [Fraction(-1), Fraction(-2)]
    last = basis[0].scale(alpha[0]) + basis[1].scale(alpha[1])
    candidates, report = single_resonance_primes(basis + [last], alpha)
    expected = set()
    for r in range(1, n + 1):
        expected.update(itertools.combinations(range(n), r))
    assert set(candidates) == expected
    assert len(candidates) == 2**n - 1
    assert report["candidate_count"] == 7

    try:
        single_resonance_primes(
            [basis[0], basis[0].scale(2)], [Fraction(2)]
        )
        raise AssertionError("positive exponents must be rejected")
    except HypothesisError:
        pass

    # the CLI front end turns the same violation into exit code 3
    bad = tmp_path / "positive.json"
    bad.write_text(
        '{"variables": ["x", "y"], "field_mode": "symbolic",'
        ' "eigenvalues": [["1"], ["2"]], "resonance": ["2"]}'
    )
    code = cli_main(["resonance", str(bad)])
    capsys.readouterr()
    assert code == 3
    _report(7, "2^n - 1 candidate primes listed, bad hypotheses exit 3", started)


def test_criterion_8_round_trip_1000_series():
    started = time.monotonic()
    rng = random.Random(997)
    names = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}
    for trial in range(1000):
        nvars = rng.choice([1, 2, 3])
        s = random_series(
            rng, nvars, 9, gaussian=trial % 4 == 0, max_terms=6
        )
        s = Series(nvars, s.terms)
        assert parse_expression(format_series(s, names[nvars]), names[nvars]) == s
    _report(8, "1000 print/parse round trips are exact", started)
