"""Seeded problem files for the three benchmark workloads.

Every workload is a catalog of slots.  A slot fixes the structure of a
problem (dimension, truncation order, linear part, which monomials carry
coefficients), drawn once from the slot number; each slot has
``VARIANTS`` problems that differ in their coefficients.  A run with seed
``s`` takes one variant of every slot, so all runs do the same mix of
work, which keeps their timings comparable, while different seeds hold
different problems.  The expected exit code and report digest of every
catalog problem are recorded in ``expected/<workload>.json`` by
``record.py``.

Why these three: ``normalize`` is the measured hot spot (normal forms,
``compose`` and the scalar field, no ideal code); ``ideal_basis`` spends
its time building Groebner bases (ideal writes) and calls no ``compose``
and no Vandermonde solve; ``extract`` closes an ideal, then queries one
basis many times (ideal reads), solves confluent Vandermonde systems and
prints the largest reports.  Each optimization of one layer thus has a
workload that exercises it and one that bypasses it.

Problem files are built with ``random`` and ``fractions`` only: the
program under test receives the generated inputs and nothing else.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

NAMES = ("x", "y", "z")
VARIANTS = 4

Exps = Tuple[int, ...]


# -- text helpers ----------------------------------------------------------


def _frac(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _monomial(exps: Exps, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def expression(terms: Dict[Exps, Fraction], names: Sequence[str]) -> str:
    """Render exponent -> rational terms, highest degree first."""
    chunks = []
    for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = terms[exps]
        if coeff == 0:
            continue
        mono = _monomial(exps, names)
        magnitude = abs(coeff)
        if not mono:
            body = _frac(magnitude)
        elif magnitude == 1:
            body = mono
        else:
            body = f"{_frac(magnitude)}*{mono}"
        sign = "-" if coeff < 0 else "+"
        if chunks:
            chunks.append(f" {sign} {body}")
        else:
            chunks.append(f"-{body}" if sign == "-" else body)
    return "".join(chunks) or "0"


def dump(problem: dict) -> str:
    return json.dumps(problem, indent=1, sort_keys=True) + "\n"


# -- random pieces ---------------------------------------------------------


def _fraction(rng: random.Random, span: int = 4) -> Fraction:
    value = Fraction(0)
    while value == 0:
        value = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    return value


def _exponent(rng: random.Random, n: int, degree: int) -> Exps:
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _unit(n: int, i: int) -> Exps:
    return tuple(1 if k == i else 0 for k in range(n))


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _shear_conjugate(rng: random.Random, m):
    """T m T^-1 for a product T of two integer shears, so det T = 1."""
    n = len(m)
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice([-1, 1]))
        t = [[Fraction(int(r == s)) for s in range(n)] for r in range(n)]
        t_inv = [row[:] for row in t]
        t[i][j] = c
        t_inv[i][j] = -c
        m = _matmul(_matmul(t, m), t_inv)
    return m


# Every builder below takes two generators: ``shape`` draws the slot's
# structure and ``coeff`` the variant's coefficients.

# -- normalize ---------------------------------------------------------------

# (n, trunc_order, linear part, nonlinear terms per component; the t-th
# has degree 2 + t, so every field has quadratic terms).  Linear
# parts: "diag" distinct eigenvalues, "jordan" a 2x2 Jordan cell, "rot" a
# 2x2 rotation block (Gaussian mode), "conj" a diagonal part conjugated by
# integer shears, "conjrot" a rotation block conjugated the same way.
# "rot", "conj" and "conjrot" have a non-diagonal semisimple part.
NORMALIZE_SHAPES = [
    (2, 7, "diag", 2),
    (2, 8, "rot", 2),
    (3, 6, "diag", 1),
    (2, 6, "conjrot", 2),
    (3, 6, "jordan", 1),
    (2, 8, "jordan", 2),
    (3, 6, "conj", 1),
    (2, 8, "conj", 2),
    (2, 8, "rot", 2),
    (2, 7, "rot", 2),
]


def _linear_part(rng: random.Random, n: int, kind: str):
    m = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    if kind in ("rot", "conjrot"):
        a, b = rng.randint(-2, 2), rng.choice([-2, -1, 1, 2])
        m[0][0] = m[1][1] = Fraction(a)
        m[0][1], m[1][0] = Fraction(-b), Fraction(b)
        start = 2
    elif kind == "jordan":
        m[0][0] = m[1][1] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        m[0][1] = Fraction(1)
        start = 2
    values = rng.sample([-3, -2, -1, 1, 2, 3], n)
    for i in range(start, n):
        m[i][i] = Fraction(values[i])
    if kind in ("conj", "conjrot"):
        m = _shear_conjugate(rng, m)
    return m


def normalize_problem(shape: random.Random, coeff: random.Random, spec) -> dict:
    n, order, kind, terms_per = spec
    names = NAMES[:n]
    linear = _linear_part(shape, n, kind)
    components = []
    for i in range(n):
        terms = {_unit(n, j): linear[i][j] for j in range(n) if linear[i][j]}
        for t in range(terms_per):
            exps = _exponent(shape, n, 2 + t)
            terms[exps] = terms.get(exps, Fraction(0)) + _fraction(coeff)
        components.append(expression(terms, names))
    return {
        "variables": list(names),
        "field_mode": "gaussian" if "rot" in kind else "rational",
        "vector_field": components,
        "trunc_order": order,
    }


# -- ideal_basis -------------------------------------------------------------

# (truncation order range, generators).  Each slot draws its order from
# the range, so costs spread evenly instead of bunching by shape and the
# latency percentiles do not sit on a gap.  Each generator is a degree-2
# or -3 leading monomial plus a lower-degree tail whose terms get random
# coefficients: the <x^2 + y> shape, whose tail meets the degree-N
# truncation monomials in many pairs.  Exponents, leading monomial first.
IDEAL_SHAPES = [
    ((14, 18), [[(2, 0, 0), (0, 1, 0)]]),
    ((12, 16), [[(1, 0, 1), (0, 1, 0)]]),
    ((14, 17), [[(1, 1, 0), (0, 0, 1)]]),
    ((10, 14), [[(1, 1, 0), (0, 0, 1)], [(2, 0, 0), (0, 1, 0)]]),
    ((14, 18), [[(2, 0, 0), (0, 1, 0)]]),
    ((14, 17), [[(0, 1, 2), (2, 0, 0)]]),
    ((12, 16), [[(1, 0, 1), (0, 1, 0)]]),
    ((10, 14), [[(2, 1, 0), (0, 0, 2)]]),
    ((12, 15), [[(2, 0, 0), (0, 1, 0), (0, 0, 2)]]),
    ((12, 16), [[(1, 1, 0), (0, 0, 1)]]),
]


def _homogeneous_spectra(templates) -> List[Tuple[int, ...]]:
    """Diagonal spectra under which every template is weight-homogeneous."""
    out = []
    for values in itertools.product([-3, -2, -1, 1, 2, 3], repeat=3):
        if all(
            len({sum(v * e for v, e in zip(values, exps)) for exps in t}) == 1
            for t in templates
        ):
            out.append(values)
    return out


def ideal_basis_problem(shape: random.Random, coeff: random.Random, spec) -> dict:
    """Half the slots get a linear field that leaves the ideal invariant
    (exit 0); the rest a field with one quadratic term that does not
    (exit 4)."""
    orders, templates = spec
    order = shape.randint(*orders)
    n = 3
    names = NAMES[:n]
    if shape.random() < 0.5:
        values = shape.choice(_homogeneous_spectra(templates))
        bent = None
    else:
        values = shape.sample([-3, -2, -1, 1, 2, 3], n)
        bent = shape.randrange(n)
    components = []
    for i in range(n):
        terms = {_unit(n, i): Fraction(values[i])}
        if i == bent:
            terms[_exponent(shape, n, 2)] = _fraction(coeff, 2)
        components.append(expression(terms, names))
    gens = []
    for lead, *tail in templates:
        terms = {lead: Fraction(1)}
        for exps in tail:
            terms[exps] = _fraction(coeff, 3)
        gens.append(expression(terms, names))
    return {
        "variables": list(names),
        "field_mode": "rational",
        "vector_field": components,
        "ideals": {"I": gens},
        "trunc_order": order,
    }


# -- extract -----------------------------------------------------------------

# (n, trunc_order, repeated eigenvalue with a nilpotent part, seed count).
EXTRACT_SHAPES = [
    (2, 8, False, 1),
    (2, 8, True, 1),
    (3, 6, False, 1),
    (2, 8, False, 2),
    (3, 6, True, 1),
    (2, 8, True, 2),
    (3, 6, False, 2),
    (2, 8, False, 1),
    (2, 8, True, 1),
    (3, 6, True, 2),
]


def _iter_exponents(n: int, degree: int):
    if n == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _iter_exponents(n - 1, degree - first):
            yield (first,) + rest


def extract_problem(shape: random.Random, coeff: random.Random, spec) -> dict:
    """A field in Poincare-Dulac normal form plus a seed ideal."""
    n, order, nilpotent, seeds = spec
    names = NAMES[:n]
    spectrum = shape.sample([-3, -2, -1, 1, 2, 3], n)
    if nilpotent:
        spectrum[1] = spectrum[0]
    components = [{_unit(n, i): Fraction(spectrum[i])} for i in range(n)]
    if nilpotent:
        components[0][_unit(n, 1)] = Fraction(coeff.choice([-2, -1, 1, 2]))
    resonant = []
    for degree in range(2, order):
        for exps in _iter_exponents(n, degree):
            weight = sum(s * e for s, e in zip(spectrum, exps))
            resonant.extend((i, exps) for i in range(n) if weight == spectrum[i])
    shape.shuffle(resonant)
    for i, exps in resonant[: shape.randint(1, 3)]:
        components[i][exps] = _fraction(coeff)
    gens = []
    for _ in range(seeds):
        terms: Dict[Exps, Fraction] = {}
        for _ in range(shape.randint(2, 3)):
            terms[_exponent(shape, n, shape.randint(1, 3))] = _fraction(coeff, 3)
        gens.append(expression(terms, names))
    return {
        "variables": list(names),
        "field_mode": "rational",
        "vector_field": [expression(c, names) for c in components],
        "ideals": {"I": gens},
        "trunc_order": order,
    }


# -- catalog -----------------------------------------------------------------


class Workload:
    """A catalog of problems and the CLI arguments that run each one."""

    def __init__(self, name: str, argv: List[str], shapes, build, repeats: int):
        self.name = name
        self.argv = argv  # CLI arguments, with PROBLEM where the path goes
        self.shapes = shapes
        self.build = build
        self.slots = len(shapes) * repeats

    def problem(self, slot: int, variant: int) -> str:
        """The file text of one catalog problem."""
        shape = random.Random(f"{self.name}:{slot}")
        coeff = random.Random(f"{self.name}:{slot}:{variant}")
        return dump(self.build(shape, coeff, self.shapes[slot % len(self.shapes)]))

    def select(self, seed: int) -> List[Tuple[str, str]]:
        """The run's problems as (catalog id, file text), one per slot."""
        rng = random.Random(f"{self.name}:run:{seed}")
        picked = []
        for slot in range(self.slots):
            variant = rng.randrange(VARIANTS)
            picked.append((f"{slot}/{variant}", self.problem(slot, variant)))
        return picked

    def command(self, path: str) -> List[str]:
        return [path if a == "PROBLEM" else a for a in self.argv]


WORKLOADS = {
    "normalize": Workload(
        "normalize", ["normalize", "PROBLEM"], NORMALIZE_SHAPES, normalize_problem, 10
    ),
    "ideal_basis": Workload(
        "ideal_basis",
        ["invariance", "PROBLEM", "--basis"],
        IDEAL_SHAPES,
        ideal_basis_problem,
        10,
    ),
    "extract": Workload(
        "extract", ["extract", "PROBLEM", "--close"], EXTRACT_SHAPES, extract_problem, 30
    ),
}
