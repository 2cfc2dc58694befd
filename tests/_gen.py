"""Seeded builders for the randomized suites: fields, ideals, spectra."""

import itertools
import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from dulac.field import Scalar, Weight
from dulac.linalg import ExactMatrix, inverse
from dulac.poly import Series, VectorField, compose, matvec_series, weight


def iter_exponents(nvars: int, total: int):
    """All exponent tuples of the given total degree, first variable
    heaviest: a sorted multiset of variable indices is a monomial, and
    ascending multisets give descending exponent tuples."""
    for combo in itertools.combinations_with_replacement(range(nvars), total):
        yield tuple(combo.count(j) for j in range(nvars))


def homogeneous_part(s: Series, k: int) -> Series:
    """The degree-k terms of s, rebuilt from its public terms."""
    return Series(s.nvars, {e: c for e, c in s.terms.items() if sum(e) == k}, s.trunc)


def random_fraction(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def random_scalar(rng: random.Random, gaussian: bool = False, span: int = 4) -> Scalar:
    if gaussian and rng.random() < 0.5:
        return Scalar(random_fraction(rng, span), random_fraction(rng, span))
    return Scalar(random_fraction(rng, span))


def random_exponent(rng: random.Random, nvars: int, degree: int) -> Tuple[int, ...]:
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_series(
    rng: random.Random,
    nvars: int,
    trunc: int,
    gaussian: bool = False,
    max_terms: int = 5,
    min_degree: int = 0,
) -> Series:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(min_degree, trunc - 1)
        coeff = random_scalar(rng, gaussian)
        if not coeff.is_zero():
            terms[random_exponent(rng, nvars, degree)] = coeff
    return Series(nvars, terms, trunc)


def unimodular_matrix(rng: random.Random, n: int, shears: int = 3) -> ExactMatrix:
    """A random integer matrix with determinant +-1 (product of shears)."""
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    return ExactMatrix.from_rows(rows)


def _diag_weights(spectrum: Sequence[int]) -> List[Weight]:
    from dulac.field import weights_from_scalars

    weights, _ = weights_from_scalars([Scalar(s) for s in spectrum])
    return list(weights)


def resonant_exponents(
    eigenvalues: Sequence[Weight], nvars: int, degree: int, index: int
) -> List[Tuple[int, ...]]:
    """All exponents of the given total degree with weight equal to
    ``eigenvalues[index]``."""
    out = []
    for exps in iter_exponents(nvars, degree):
        if weight(exps, eigenvalues) == eigenvalues[index]:
            out.append(exps)
    return out


def admissible_nilpotent(
    rng: random.Random, spectrum: Sequence[int], density: float = 0.5
) -> List[List[Fraction]]:
    """Strictly upper-triangular entries allowed only where eigenvalues agree,
    so the result commutes with diag(spectrum)."""
    n = len(spectrum)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if spectrum[i] == spectrum[j] and rng.random() < density:
                rows[i][j] = Fraction(rng.choice([-2, -1, 1, 2]))
    return rows


def pdnf_field(
    rng: random.Random,
    n: int,
    order: int,
    allow_nilpotent: bool = True,
    max_extra_terms: int = 4,
) -> VectorField:
    """A field already in normal form: diagonal semisimple part with a small
    integer spectrum, an admissible nilpotent part, and a handful of resonant
    higher-order terms."""
    spectrum = [rng.randint(-3, 3) for _ in range(n)]
    if allow_nilpotent and rng.random() < 0.4 and n >= 2:
        # Force a repeated eigenvalue so the nilpotent part can act.
        spectrum[rng.randrange(n - 1) + 1] = spectrum[0]
    weights = _diag_weights(spectrum)
    nil = (
        admissible_nilpotent(rng, spectrum)
        if allow_nilpotent
        else [[Fraction(0)] * n for _ in range(n)]
    )
    comps = []
    for i in range(n):
        terms = {}
        e_i = tuple(1 if k == i else 0 for k in range(n))
        terms[e_i] = Scalar(spectrum[i])
        for j in range(n):
            if nil[i][j]:
                e_j = tuple(1 if k == j else 0 for k in range(n))
                terms[e_j] = terms.get(e_j, Scalar(0)) + Scalar(nil[i][j])
        comps.append(dict(terms))
    # Sprinkle resonant monomials of degree >= 2.
    candidates = []
    for degree in range(2, order):
        for i in range(n):
            for exps in resonant_exponents(weights, n, degree, i):
                candidates.append((i, exps))
    rng.shuffle(candidates)
    for i, exps in candidates[: rng.randint(0, max_extra_terms)]:
        coeff = random_scalar(rng)
        if not coeff.is_zero():
            comps[i][exps] = comps[i].get(exps, Scalar(0)) + coeff
    series = [Series(n, t, order) for t in comps]
    return VectorField.from_components(series)


def weight_homogeneous_generators(
    rng: random.Random,
    weights: Sequence[Weight],
    nvars: int,
    order: int,
    count: int,
    gaussian: bool = False,
) -> List[Series]:
    """Polynomials whose monomials all share one weight, hence eigenvectors
    of the semisimple derivation."""
    gens = []
    for _ in range(count):
        degree = rng.randint(1, order - 1)
        seed = random_exponent(rng, nvars, degree)
        matching = [
            e
            for e in iter_exponents(nvars, degree)
            if weight(e, weights) == weight(seed, weights)
        ]
        terms = {}
        for exps in rng.sample(matching, min(len(matching), rng.randint(1, 3))):
            coeff = random_scalar(rng, gaussian)
            if not coeff.is_zero():
                terms[exps] = coeff
        terms.setdefault(seed, Scalar(1))
        gens.append(Series(nvars, terms, order))
    return gens


def scrambled_generators(
    rng: random.Random, gens: Sequence[Series]
) -> List[Series]:
    """Mix generators by an invertible upper-triangular integer combination,
    preserving the ideal they span."""
    mixed = []
    for i, g in enumerate(gens):
        total = g
        for j in range(i + 1, len(gens)):
            if rng.random() < 0.5:
                total = total + gens[j] * Scalar(rng.choice([1, -1, 2]))
        mixed.append(total)
    return mixed


def splitting_linear_part(
    rng: random.Random, n: int, conjugate: bool = True
) -> ExactMatrix:
    """A rational matrix whose spectrum splits over Q(i): block-diagonal
    pieces (rational Jordan cells and 2x2 rotation blocks), optionally
    conjugated by a unimodular integer matrix."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    i = 0
    while i < n:
        if n - i >= 2 and rng.random() < 0.4:
            a, b = rng.randint(-2, 2), rng.choice([-2, -1, 1, 2])
            rows[i][i] = Fraction(a)
            rows[i][i + 1] = Fraction(-b)
            rows[i + 1][i] = Fraction(b)
            rows[i + 1][i + 1] = Fraction(a)
            i += 2
        else:
            lam = rng.randint(-3, 3)
            rows[i][i] = Fraction(lam)
            if i > 0 and rows[i - 1][i - 1] == lam and rng.random() < 0.5:
                rows[i - 1][i] = Fraction(1)
            i += 1
    matrix = ExactMatrix.from_rows(rows)
    if conjugate and rng.random() < 0.6:
        t = unimodular_matrix(rng, n)
        matrix = t * matrix * inverse(t)
    return matrix


def field_with_linear_part(
    rng: random.Random,
    linear: ExactMatrix,
    order: int,
    max_terms: int = 4,
    gaussian: bool = False,
) -> VectorField:
    n = linear.nrows
    comps = []
    for i in range(n):
        terms = {}
        for j in range(n):
            value = linear[i, j]
            if not value.is_zero():
                e_j = tuple(1 if k == j else 0 for k in range(n))
                terms[e_j] = value
        for _ in range(rng.randint(0, max_terms)):
            degree = rng.randint(2, order - 1)
            coeff = random_scalar(rng, gaussian)
            if not coeff.is_zero():
                exps = random_exponent(rng, n, degree)
                terms[exps] = terms.get(exps, Scalar(0)) + coeff
        comps.append(Series(n, terms, order))
    return VectorField.from_components(comps)


def diagonalized_components(field: VectorField, components) -> List[Series]:
    """Rewrite component series in the basis that diagonalizes the
    semisimple linear part."""
    t = field.chevalley.diagonalizer
    n = field.nvars
    trunc = components[0].trunc
    variables = [Series.variable(i, n, trunc) for i in range(n)]
    ty = matvec_series(t, variables)
    substituted = [compose(c, ty) for c in components]
    return list(matvec_series(inverse(t), substituted))
