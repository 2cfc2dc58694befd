"""Tests for exact matrices: elimination, spectra, Chevalley splitting."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from dulac import linalg
from dulac.errors import SingularMatrixError, UnsupportedSpectrumError
from dulac.field import IMAG, ONE, Scalar
from dulac.linalg import (
    ChevalleyPair,
    ExactMatrix,
    _confluent_vandermonde_determinant,
    charpoly,
    confluent_vandermonde_matrix,
    gaussian_roots,
    inverse,
    jordan_chevalley,
    kernel_basis,
    rank,
)


def _rand_matrix(rng, n, span=5, gaussian=False):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if gaussian and rng.random() < 0.3:
                row.append(Scalar(rng.randint(-span, span), rng.randint(-span, span)))
            else:
                row.append(Scalar(rng.randint(-span, span)))
        rows.append(row)
    return ExactMatrix.from_rows(rows)


def _to_sympy(m):
    return sympy.Matrix(
        m.nrows,
        m.ncols,
        lambda i, j: sympy.Rational(m[i, j].re) + sympy.I * sympy.Rational(m[i, j].im),
    )


def test_matrix_construction_and_indexing():
    m = ExactMatrix.from_rows([[1, 2], [Fraction(1, 2), 0]])
    assert m[0, 1] == Scalar(2)
    assert m[1, 0] == Scalar(Fraction(1, 2))
    assert m.rows()[0] == (Scalar(1), Scalar(2))
    assert ExactMatrix.identity(2) == ExactMatrix.diagonal([Scalar(1), Scalar(1)])
    assert ExactMatrix.from_rows([[0] * 3] * 2).is_zero()


def test_matrix_algebra():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert a + b == ExactMatrix.from_rows([[1, 3], [4, 4]])
    assert (a - a).is_zero()
    assert a * b == ExactMatrix.from_rows([[2, 1], [4, 3]])
    assert a * Scalar(2) == ExactMatrix.from_rows([[2, 4], [6, 8]])
    assert a.trace() == Scalar(5)
    assert a * ExactMatrix.from_rows([[1], [1]]) == ExactMatrix.from_rows([[3], [7]])


def _closed_form_against_sympy(nodes, m):
    got = _confluent_vandermonde_determinant(nodes, m)
    want = sympy.expand(_to_sympy(confluent_vandermonde_matrix(nodes, m)).det())
    assert sympy.Rational(got.re) + sympy.I * sympy.Rational(got.im) == want
    return got


def _distinct_nodes(rng, q, gaussian):
    nodes = []
    while len(nodes) < q:
        im = rng.randint(-3, 3) if gaussian else 0
        z = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 2)), im)
        if z not in nodes:
            nodes.append(z)
    return nodes


def test_determinant_against_sympy():
    # the certificate determinant is a closed form, so sympy's elimination
    # of the built matrix is the independent route
    rng = random.Random(42)
    for gaussian in (False, True):
        for q in range(1, 9):
            for m in range(1, 8 // q + 1):
                assert not _closed_form_against_sympy(_distinct_nodes(rng, q, gaussian), m).is_zero()
    # ascending rational nodes make the product positive, so the sign is
    # that of the block-by-block column order, C(m,2)*C(q,2) inversions
    for q, m, sign in ((2, 2, -1), (4, 2, 1), (3, 2, -1), (3, 1, 1)):
        nodes = sorted(_distinct_nodes(rng, q, False), key=lambda z: z.re)
        product = ONE
        for i in range(q):
            for j in range(i + 1, q):
                product = product * (nodes[j] - nodes[i]) ** (m * m)
        assert _closed_form_against_sympy(nodes, m) == product * sign


def test_determinant_of_known_matrices():
    det = _confluent_vandermonde_determinant
    # one node: unit lower triangular
    assert det([Scalar(5)], 3) == ONE
    assert det([Scalar(1), Scalar(2), Scalar(4)], 1) == Scalar(6)
    # the golden certificate: nodes 3 and 6 with three blocks, an odd order
    assert det([Scalar(3), Scalar(6)], 3) == Scalar(-(3 ** 9))
    assert det([IMAG, -IMAG], 1) == Scalar(0, -2)
    # repeated nodes, which the matrix builder refuses
    assert det([Scalar(2), Scalar(2)], 1).is_zero()
    assert det([Scalar(1), IMAG, Scalar(1)], 2).is_zero()


def test_rank_and_kernel():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2
    basis = kernel_basis(m)
    assert len(basis) == 1
    vec = basis[0]
    assert (m * ExactMatrix([[v] for v in vec])).is_zero()
    assert rank(ExactMatrix.identity(3)) == 3
    assert kernel_basis(ExactMatrix.identity(3)) == []


def test_inverse_round_trip():
    rng = random.Random(7)
    done = 0
    while done < 20:
        m = _rand_matrix(rng, rng.randint(1, 4), gaussian=rng.random() < 0.3)
        if rank(m) < m.nrows:
            continue
        assert m * inverse(m) == ExactMatrix.identity(m.nrows)
        done += 1


def test_inverse_singular_reports_rank():
    m = ExactMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as info:
        inverse(m)
    assert info.value.rank == 1


def _rand_entry(rng, gaussian):
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if gaussian and rng.random() < 0.5:
        return Scalar(re, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return Scalar(re)


def _from_sympy(value):
    re, im = value.as_real_imag()
    return Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _rand_rows(rng, nrows, ncols, gaussian):
    return [[_rand_entry(rng, gaussian) for _ in range(ncols)] for _ in range(nrows)]


def test_elimination_matches_sympy():
    # rank, inverse and kernel_basis read one reduced echelon form; sympy's
    # nullspace is built from the free columns of the same unique RREF, so
    # the kernel bases must agree exactly, not just span the same space.
    rng = random.Random(2024)
    for square, gaussian, deficient in itertools.product((True, False), repeat=3):
        for _ in range(6):
            nrows = rng.randint(1, 4)
            ncols = nrows if square else rng.choice([c for c in range(1, 5) if c != nrows])
            full = min(nrows, ncols)
            if not deficient:
                m = ExactMatrix(_rand_rows(rng, nrows, ncols, gaussian))
            elif full == 1:
                m = ExactMatrix.from_rows([[0] * ncols] * nrows)
            else:
                # a product through a narrower middle dimension
                inner = rng.randint(1, full - 1)
                m = ExactMatrix(_rand_rows(rng, nrows, inner, gaussian)) * ExactMatrix(
                    _rand_rows(rng, inner, ncols, gaussian)
                )
            sm = _to_sympy(m)
            want_rank = sm.rank()
            assert (want_rank < full) == deficient
            assert rank(m) == want_rank
            assert kernel_basis(m) == [
                tuple(_from_sympy(v) for v in vec) for vec in sm.nullspace()
            ]
            if not square:
                continue
            if deficient:
                with pytest.raises(SingularMatrixError) as info:
                    inverse(m)
                assert info.value.rank == want_rank
            else:
                want = sm.inv()
                assert inverse(m) == ExactMatrix(
                    [[_from_sympy(want[i, j]) for j in range(ncols)] for i in range(nrows)]
                )
    # every permutation matrix: the inverse is the transpose
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            p = ExactMatrix.from_rows([[int(j == perm[i]) for j in range(n)] for i in range(n)])
            p_t = ExactMatrix.from_rows([[int(i == perm[j]) for j in range(n)] for i in range(n)])
            assert inverse(p) == p_t
    # one row is a combination of two others and vanishes only once the
    # rows before it are subtracted
    for gaussian in (False, True) * 6:
        n = rng.randint(3, 5)
        rows = _rand_rows(rng, n, n, gaussian)
        a, b = _rand_entry(rng, gaussian) or ONE, _rand_entry(rng, gaussian) or ONE
        combo = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        if not any(combo):
            continue
        rows[rng.randint(2, n - 1)] = combo
        m = ExactMatrix(rows)
        assert rank(m) == _to_sympy(m).rank() < n


def test_charpoly_matches_sympy():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, n, span=3)
        coeffs = charpoly(m)  # ascending [a0, ..., an], monic
        lam = sympy.Symbol("lam")
        want = sympy.Poly(_to_sympy(m).charpoly(lam).as_expr(), lam).all_coeffs()
        got = [sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for c in coeffs]
        assert got == [sympy.nsimplify(w) for w in reversed(want)]


def test_gaussian_roots_rational_and_imaginary():
    # coefficients ascending: (z - 2)(z + 3) = -6 + z + z^2
    roots = dict(gaussian_roots([Scalar(-6), Scalar(1), Scalar(1)]))
    assert roots == {Scalar(2): 1, Scalar(-3): 1}
    # z^2 + 1 = (z - i)(z + i)
    roots = dict(gaussian_roots([Scalar(1), Scalar(0), Scalar(1)]))
    assert roots == {IMAG: 1, -IMAG: 1}
    # repeated root: (z - 1)^2 = 1 - 2z + z^2
    roots = dict(gaussian_roots([Scalar(1), Scalar(-2), Scalar(1)]))
    assert roots == {Scalar(1): 2}


def test_gaussian_roots_with_gaussian_rational_roots():
    # (t - 1/2)(t - 1/3 - 2i/3)^2, ascending coefficients
    half, mu = Scalar(Fraction(1, 2)), Scalar(Fraction(1, 3), Fraction(2, 3))
    coeffs = [ONE]
    for root in (half, mu, mu):
        shifted = [Scalar(0)] + coeffs
        coeffs = [a - root * b for a, b in zip(shifted, coeffs + [Scalar(0)])]
    assert coeffs[-1] == ONE and coeffs[0] == -half * mu * mu
    assert gaussian_roots(coeffs) == [(mu, 2), (half, 1)]


def test_gaussian_roots_rejects_non_split():
    with pytest.raises(UnsupportedSpectrumError):
        gaussian_roots([Scalar(-2), Scalar(0), Scalar(1)])  # z^2 = 2


def test_jordan_chevalley_properties():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        # build from known data, then conjugate: guaranteed split spectrum
        diag = [Scalar(rng.randint(-3, 3)) for _ in range(n)]
        rows = [[Scalar(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = diag[i]
        for i in range(n):
            for j in range(i + 1, n):
                if diag[i] == diag[j] and rng.random() < 0.5:
                    rows[i][j] = Scalar(rng.randint(-2, 2))
        m = ExactMatrix.from_rows(rows)
        pair = jordan_chevalley(m)
        s, nil = pair.semisimple, pair.nilpotent
        assert s + nil == m
        assert s * nil == nil * s
        power = nil
        for _ in range(n):
            power = power * nil
        assert power.is_zero()
        # the semisimple part of an upper-triangular matrix keeps the diagonal
        assert all(s[i, i] == diag[i] for i in range(n))


def test_jordan_chevalley_of_conjugated_jordan_forms():
    # S of P J P^-1 is P diag(J) P^-1 by uniqueness, for any invertible P.
    rng = random.Random(37)
    shapes = [[(1, 2)], [(2, 1), (3, 1)], [(-1, 2), (2, 1)], [(1, 1), (1, 1), (4, 1)],
              [(2, 3)], [(0, 1), (5, 2)]]
    for blocks in shapes * 3:
        gaussian = rng.random() < 0.5
        lams = [Scalar(lam, rng.randint(-2, 2) if gaussian else 0) for lam, _ in blocks]
        diag = [lam for lam, (_, size) in zip(lams, blocks) for _ in range(size)]
        n = len(diag)
        j_rows = [[diag[i] if i == k else Scalar(0) for k in range(n)] for i in range(n)]
        start = 0
        for _, size in blocks:
            for i in range(start, start + size - 1):
                j_rows[i][i + 1] = ONE
            start += size
        while True:
            p = ExactMatrix(_rand_rows(rng, n, n, gaussian))
            if rank(p) == n:
                break
        p_inv = inverse(p)
        pair = jordan_chevalley(p * ExactMatrix(j_rows) * p_inv)
        assert pair.semisimple == p * ExactMatrix.diagonal(diag) * p_inv
        assert pair.nilpotent == p * (ExactMatrix(j_rows) - ExactMatrix.diagonal(diag)) * p_inv
        d = pair.diagonalizer
        assert inverse(d) * pair.semisimple * d == ExactMatrix.diagonal(pair.eigenvalues)
        assert sorted(map(str, pair.eigenvalues)) == sorted(map(str, diag))


def _rand_triangular(rng, n, gaussian, commuting):
    # Repeated diagonal entries come from a pool of two values.  They stay
    # small: the charpoly route's root search grows with their size.  A
    # scalar matrix is redrawn, since no conjugation moves it off the
    # triangular route.
    pool = [
        Scalar(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])),
               rng.randint(-1, 1) if gaussian else 0)
        for _ in range(2)
    ]
    while True:
        diag = [rng.choice(pool) for _ in range(n)]
        rows = [[diag[i] if i == j else Scalar(0) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if (diag[i] == diag[j] or not commuting) and rng.random() < 0.7:
                    rows[i][j] = _rand_entry(rng, gaussian)
        m = ExactMatrix(rows)
        if m != ExactMatrix.identity(n) * diag[0]:
            return ExactMatrix(list(zip(*rows))) if rng.random() < 0.5 else m


def _rand_unimodular(rng, n):
    # Unit lower times unit upper triangular: determinant 1, dense.
    lower = [[Scalar(1) if i == j else Scalar(rng.choice([-2, -1, 1, 2])) if j < i
              else Scalar(0) for j in range(n)] for i in range(n)]
    upper = [[Scalar(1) if i == j else Scalar(rng.choice([-2, -1, 1, 2])) if j > i
              else Scalar(0) for j in range(n)] for i in range(n)]
    return ExactMatrix(lower) * ExactMatrix(upper)


def test_jordan_chevalley_triangular_route_matches_charpoly_route(monkeypatch):
    # A triangular A skips charpoly; Q A Q^-1 for a dense unimodular Q
    # takes it.  Both routes must give the same S and N (mapped back by Q)
    # and the same spectrum; on A itself, the general route must return
    # the very same pair, diagonalizer and eigenvalue order included.
    charpolys = []
    real_charpoly = linalg.charpoly
    monkeypatch.setattr(
        linalg, "charpoly", lambda m: charpolys.append(m) or real_charpoly(m)
    )
    rng = random.Random(77)
    cases = []
    for k in range(48):
        n = 2 + k % 3
        a = _rand_triangular(rng, n, gaussian=k % 2 == 1, commuting=k % 4 < 2)
        pair = jordan_chevalley(a)
        assert not charpolys
        while True:
            q = _rand_unimodular(rng, n)
            q_inv = inverse(q)
            conjugated = jordan_chevalley(q * a * q_inv)
            if charpolys:
                break
        charpolys.clear()
        assert pair.semisimple == q_inv * conjugated.semisimple * q
        assert pair.nilpotent == q_inv * conjugated.nilpotent * q
        assert sorted(map(str, pair.eigenvalues)) == sorted(
            map(str, conjugated.eigenvalues)
        )
        cases.append((a, pair))
    # Both the commuting shortcut and the eigenspace loop were exercised,
    # the latter with repeated eigenvalues as well.
    assert any(p.semisimple.is_diagonal() for _, p in cases)
    assert any(
        not p.semisimple.is_diagonal() and len(set(p.eigenvalues)) < a.nrows
        for a, p in cases
    )
    monkeypatch.setattr(linalg, "_triangular_spectrum", lambda m: None)
    for a, pair in cases:
        assert jordan_chevalley(a) == pair


def test_jordan_chevalley_of_triangular_with_distinct_eigenvalues():
    m = ExactMatrix.from_rows([[1, 1], [0, 2]])
    pair = jordan_chevalley(m)
    assert pair.semisimple == m
    assert pair.nilpotent.is_zero()
    assert pair.eigenvalues == (Scalar(1), Scalar(2))
    assert pair.diagonalizer == ExactMatrix.from_rows([[1, 1], [0, 1]])


def test_chevalley_pair_rejects_parts_that_do_not_split():
    one = ExactMatrix.identity(2)
    shear = ExactMatrix.from_rows([[0, 1], [0, 0]])
    spread = ExactMatrix.diagonal([Scalar(1), Scalar(2)])
    with pytest.raises(ArithmeticError, match="computed parts do not commute"):
        ChevalleyPair(spread, shear, (Scalar(1), Scalar(2)), one, one)
    with pytest.raises(ArithmeticError, match="computed nilpotent part is not nilpotent"):
        ChevalleyPair(one, one, (ONE, ONE), one, one)
    assert ChevalleyPair(one, shear, (ONE, ONE), one, one).linear == one + shear


def test_jordan_chevalley_of_rotation_block():
    m = ExactMatrix.from_rows([[2, -3], [3, 2]])
    pair = jordan_chevalley(m)
    assert pair.nilpotent.is_zero()
    assert pair.semisimple == m
    assert set(pair.eigenvalues) == {Scalar(2, 3), Scalar(2, -3)}


def test_vandermonde_matrix_and_determinant():
    nodes = [Scalar(1), Scalar(2), Scalar(4)]
    v = confluent_vandermonde_matrix(nodes, 1)
    assert v.nrows == 3
    for i in range(3):
        for j in range(3):
            assert v[i, j] == nodes[j] ** i
    det = _confluent_vandermonde_determinant(nodes, 1)
    assert det == Scalar((2 - 1) * (4 - 1) * (4 - 2))
    with pytest.raises(ValueError):
        confluent_vandermonde_matrix([Scalar(1), Scalar(1)], 1)


def test_confluent_vandermonde_small_case():
    # single node v with multiplicity 2: rows (1,0), (v,1)
    w = confluent_vandermonde_matrix([Scalar(5)], 2)
    assert w.rows() == (
        (Scalar(1), Scalar(0)),
        (Scalar(5), Scalar(1)),
    )
    assert _confluent_vandermonde_determinant([Scalar(5)], 2) == ONE

