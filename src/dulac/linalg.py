"""Exact linear algebra over the Gaussian rationals.

Everything here is exact, and the Jordan-Chevalley decomposition is
assembled from kernel bases of the generalized eigenspaces.
A triangular matrix reads its eigenvalues off the diagonal.  Otherwise,
eigenvalue extraction enumerates Gaussian-integer root candidates of the
integerized characteristic polynomial, which finds every root in Q(i)
when the polynomial splits there and reports an unsupported spectrum
otherwise.  :class:`ChevalleyPair` checks that its parts commute and
that its nilpotent part is nilpotent, so every pair in use is a checked
one.

There is one elimination routine.  Rows are sparse dicts from integer
keys to :class:`~dulac.field.Scalar` entries, and the largest key of a
row is its leading term: ``_insert_row`` reduces a row by its leading
terms against the stored pivots and stores what is left, monic, under a
new pivot, and ``_substitute`` back-substitutes reduced tails.
:func:`rank`, :func:`inverse` and :func:`kernel_basis` read the
back-substituted form and key column j of a matrix as ncols - 1 - j,
while the ideal echelon form of :mod:`dulac.ideals` keys the columns by
packed grlex monomials.  The certificate determinant is a closed form.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import SingularMatrixError, UnsupportedSpectrumError
from .field import ONE, ZERO, Scalar

__all__ = [
    "ExactMatrix",
    "ChevalleyPair",
    "charpoly",
    "gaussian_roots",
    "jordan_chevalley",
    "confluent_vandermonde_matrix",
]


class ExactMatrix:
    """An immutable matrix of :class:`~dulac.field.Scalar` entries."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(entry for entry in row) for row in rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(row) != width for row in rows):
            raise ValueError("rows must be nonempty and of equal length")
        for row in rows:
            for entry in row:
                if not isinstance(entry, Scalar):
                    raise TypeError("matrix entries must be Scalar")
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        return cls(
            [[e if isinstance(e, Scalar) else Scalar(e) for e in row] for row in rows]
        )

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "ExactMatrix":
        n = len(values)
        return cls(
            [[values[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self._rows[i][j]

    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._rows, other._rows)
            ]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-a for a in row] for row in self._rows])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError("matrix shapes are not compatible")
            cols = tuple(zip(*other._rows))
            return ExactMatrix([[_dot(row, col) for col in cols] for row in self._rows])
        if isinstance(other, (Scalar, int, Fraction)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            return ExactMatrix([[a * c for a in row] for row in self._rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self * other
        return NotImplemented

    def trace(self) -> Scalar:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        total = ZERO
        for i in range(self.nrows):
            total = total + self._rows[i][i]
        return total

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self._rows for e in row)

    def is_diagonal(self) -> bool:
        return all(
            self._rows[i][j].is_zero()
            for i in range(self.nrows)
            for j in range(self.ncols)
            if i != j
        )

    def _check_shape(self, other: "ExactMatrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shapes differ")

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self._rows
        )
        return f"<ExactMatrix {self.nrows}x{self.ncols} [{body}]>"


def _dot(row: Sequence[Scalar], col: Sequence[Scalar]) -> Scalar:
    total = ZERO
    for a, b in zip(row, col):
        if a and b:
            total = total + a * b
    return total


# -- elimination --------------------------------------------------------------


Tails = Dict[int, Dict[int, Scalar]]


def _subtract_multiple(
    acc: Dict[int, Scalar], c: Scalar, tail: Dict[int, Scalar]
) -> None:
    """acc -= c * tail, in place, dropping cancelled terms."""
    for e, v in tail.items():
        prev = acc.get(e)
        val = -c * v if prev is None else prev - c * v
        if val.is_zero():
            acc.pop(e, None)
        else:
            acc[e] = val


def _insert_row(tails: Tails, row: Dict[int, Scalar]) -> None:
    """Reduce the row by its leading terms against the stored pivots and
    store what is left, made monic, under its new pivot; a row that
    vanishes stores nothing."""
    while row:
        lm = max(row)
        c = row.pop(lm)
        tail = tails.get(lm)
        if tail is None:
            if c != ONE:
                inv = c.inverse()
                row = {e: v * inv for e, v in row.items()}
            tails[lm] = row
            return
        _subtract_multiple(row, c, tail)


def _substitute(terms: Dict[int, Scalar], tails: Tails) -> Dict[int, Scalar]:
    """Replace every pivot term c*m by -c*tail(m).  When the tails hold
    standard monomials only, so does the result."""
    if tails.keys().isdisjoint(terms):
        return terms
    out = {e: c for e, c in terms.items() if e not in tails}
    for e, c in terms.items():
        tail = tails.get(e)
        if tail is not None:
            _subtract_multiple(out, c, tail)
    return out


def _echelon(matrix: ExactMatrix) -> Tails:
    """The reduced row-echelon form of the matrix, column j keyed
    ncols - 1 - j so that the leftmost column leads: each pivot key maps
    to the tail of its monic row.  A tail term is smaller than its pivot,
    so back-substituting in ascending key order reads reduced tails only
    and leaves the keys of non-pivot columns alone in every tail."""
    last = matrix.ncols - 1
    tails: Tails = {}
    for row in matrix.rows():
        _insert_row(tails, {last - j: e for j, e in enumerate(row) if e})
    for m in sorted(tails):
        tails[m] = _substitute(tails[m], tails)
    return tails


def rank(matrix: ExactMatrix) -> int:
    return len(_echelon(matrix))


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse, read off the reduced echelon form of [A | I]."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = matrix.nrows
    aug = ExactMatrix([row + tuple(ONE if j == i else ZERO for j in range(n))
                       for i, row in enumerate(matrix.rows())])
    tails = _echelon(aug)
    # [A | I] has rank n; A is invertible exactly when all n pivots lie in
    # A, whose columns hold the keys n..2n-1.
    a_rank = sum(1 for key in tails if key >= n)
    if a_rank < n:
        raise SingularMatrixError("matrix is singular", rank=a_rank)
    return ExactMatrix([[tails[2 * n - 1 - i].get(n - 1 - j, ZERO) for j in range(n)]
                        for i in range(n)])


def kernel_basis(matrix: ExactMatrix) -> List[Tuple[Scalar, ...]]:
    """A deterministic basis of the right kernel, from the reduced echelon form."""
    tails = _echelon(matrix)
    last = matrix.ncols - 1
    basis = []
    for fc in range(matrix.ncols):
        if last - fc in tails:
            continue
        vec = [ZERO] * matrix.ncols
        vec[fc] = ONE
        for key, tail in tails.items():
            vec[last - key] = -tail.get(last - fc, ZERO)
        basis.append(tuple(vec))
    return basis


# -- characteristic polynomial & eigenvalues ---------------------------------


def charpoly(matrix: ExactMatrix) -> List[Scalar]:
    """Monic characteristic polynomial, ascending coefficients [a0..an]."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = matrix.nrows
    cs = []
    m = matrix
    for k in range(1, n + 1):
        ck = m.trace() * Fraction(1, k)
        cs.append(ck)
        if k < n:
            m = matrix * (m - ExactMatrix.identity(n) * ck)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    for k, ck in enumerate(cs, start=1):
        coeffs[n - k] = -ck
    return coeffs


def _integer_divisors(n: int) -> List[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gauss_eval(coeffs: List[Tuple[int, int]], z: Tuple[int, int]) -> Tuple[int, int]:
    acc = (0, 0)
    for c in reversed(coeffs):
        acc = _gmul(acc, z)
        acc = (acc[0] + c[0], acc[1] + c[1])
    return acc


def _gauss_deflate(coeffs, root):
    # Divide by (mu - root); exact when root is a root.
    out = [(0, 0)] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        out[k] = carry
        carry = _gmul(carry, root)
        carry = (carry[0] + coeffs[k][0], carry[1] + coeffs[k][1])
    if carry != (0, 0):
        raise ArithmeticError("deflation by a non-root")
    return out


def gaussian_roots(coeffs: Sequence[Scalar]) -> List[Tuple[Scalar, int]]:
    """All roots in Q(i) of a monic polynomial, with multiplicities.

    Raises :class:`~dulac.errors.UnsupportedSpectrumError` unless the
    polynomial splits into linear factors over Q(i).  The search
    integerizes the polynomial so that every Gaussian-rational root
    becomes a Gaussian integer dividing the constant term, then tests the
    finitely many candidates of each admissible norm.
    """
    coeffs = list(coeffs)
    if not coeffs or coeffs[-1] != ONE:
        raise ValueError("expected a monic polynomial")
    n = len(coeffs) - 1
    if n == 0:
        return []
    triples = [c.as_gaussian_ratio() for c in coeffs]
    denom = math.lcm(*(d for _, _, d in triples))
    # Monic: the leading triple is (1, 0, 1), and d divides denom elsewhere.
    scaled = [
        (a * (denom ** (n - k) // d), b * (denom ** (n - k) // d))
        for k, (a, b, d) in enumerate(triples)
    ]
    zero_mult = 0
    while scaled and scaled[0] == (0, 0):
        scaled.pop(0)
        zero_mult += 1
    roots: List[Tuple[Scalar, int]] = []
    if zero_mult:
        roots.append((ZERO, zero_mult))
    if len(scaled) > 1:
        const = scaled[0]
        norm = const[0] * const[0] + const[1] * const[1]
        candidates = set()
        for d in _integer_divisors(norm):
            a = 0
            while a * a <= d:
                b2 = d - a * a
                b = math.isqrt(b2)
                if b * b == b2:
                    for ca, cb in ((a, b), (b, a)):
                        for sa in (ca, -ca):
                            for sb in (cb, -cb):
                                if (sa, sb) != (0, 0):
                                    candidates.add((sa, sb))
                a += 1
        work = scaled
        for cand in sorted(candidates):
            if len(work) <= 1:
                break
            if _gauss_eval(work, cand) != (0, 0):
                continue
            mult = 0
            while len(work) > 1 and _gauss_eval(work, cand) == (0, 0):
                work = _gauss_deflate(work, cand)
                mult += 1
            roots.append(
                (Scalar(Fraction(cand[0], denom), Fraction(cand[1], denom)), mult)
            )
        if len(work) > 1:
            raise UnsupportedSpectrumError(
                "characteristic polynomial does not split over Q(i)"
            )
    roots.sort(key=lambda rm: (rm[0].re, rm[0].im))
    return roots


# -- Jordan-Chevalley ----------------------------------------------------------


@dataclass(frozen=True)
class ChevalleyPair:
    """Jordan-Chevalley data: B = semisimple + nilpotent, both polynomial in B.

    ``eigenvalues`` are those of the semisimple part, in the order of the
    columns of ``diagonalizer``, whose inverse is ``diagonalizer_inverse``.
    Construction checks that the parts commute and that the nilpotent part
    is nilpotent, raising :class:`ArithmeticError` otherwise.
    """

    semisimple: ExactMatrix
    nilpotent: ExactMatrix
    eigenvalues: Tuple[Scalar, ...]
    diagonalizer: ExactMatrix
    diagonalizer_inverse: ExactMatrix

    def __post_init__(self):
        s, nil = self.semisimple, self.nilpotent
        if s * nil != nil * s:
            raise ArithmeticError("computed parts do not commute")
        power = nil
        for _ in range(nil.nrows - 1):
            power = power * nil
        if not power.is_zero():
            raise ArithmeticError("computed nilpotent part is not nilpotent")

    @property
    def linear(self) -> ExactMatrix:
        """The matrix B the pair splits."""
        return self.semisimple + self.nilpotent


def _triangular_spectrum(matrix: ExactMatrix):
    """The eigenvalues of a triangular matrix with their multiplicities,
    read off its diagonal and sorted as :func:`gaussian_roots` sorts its
    roots; None when the matrix is neither upper nor lower triangular."""
    rows = matrix.rows()
    n = len(rows)
    if any(rows[i][j] for i in range(n) for j in range(i)) and any(
        rows[i][j] for i in range(n) for j in range(i + 1, n)
    ):
        return None
    counts = Counter(rows[i][i] for i in range(n))
    return sorted(counts.items(), key=lambda rm: (rm[0].re, rm[0].im))


def jordan_chevalley(matrix: ExactMatrix) -> ChevalleyPair:
    """Exact semisimple/nilpotent splitting of a matrix over Q(i).

    For each eigenvalue lambda of multiplicity m, the kernel basis of
    (A - lambda I)^m spans its generalized eigenspace; with these columns
    as P, the semisimple part is S = P diag(lambda, ...) P^-1.  Each
    generalized eigenspace is also the kernel of S - lambda I, so P is a
    diagonalizer whose columns are eigenspace bases of S, returned with
    the P^-1 computed on the way; for an already-diagonal S both are the
    identity instead and the eigenvalue order follows the diagonal.

    A triangular matrix takes its eigenvalues from its diagonal, with no
    characteristic polynomial or root search, so they may be of any size.
    When diag(A) commutes with the strictly triangular, hence nilpotent,
    rest A - diag(A), that is the pair by uniqueness; otherwise the
    eigenspace construction above runs on the diagonal's spectrum.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("jordan_chevalley of a non-square matrix")
    n = matrix.nrows
    roots = _triangular_spectrum(matrix)
    if roots is None:
        roots = gaussian_roots(charpoly(matrix))
    else:
        diag = [matrix[i, i] for i in range(n)]
        # A diagonal S commutes with N exactly when N_ij = 0 wherever the
        # diagonal entries s_i and s_j differ.
        if all(
            diag[i] == diag[j] or not matrix[i, j]
            for i in range(n)
            for j in range(n)
        ):
            semisimple = ExactMatrix.diagonal(diag)
            one = ExactMatrix.identity(n)
            return ChevalleyPair(semisimple, matrix - semisimple, tuple(diag), one, one)
    columns: List[Tuple[Scalar, ...]] = []
    eigen: List[Scalar] = []
    for lam, mult in roots:
        shifted = matrix - ExactMatrix.identity(n) * lam
        power = shifted
        for _ in range(mult - 1):
            power = power * shifted
        basis = kernel_basis(power)
        if len(basis) != mult:
            raise ArithmeticError("generalized eigenspace dimension mismatch")
        columns.extend(basis)
        eigen.extend([lam] * mult)
    p = ExactMatrix([[columns[j][i] for j in range(n)] for i in range(n)])
    p_inv = inverse(p)
    semisimple = p * ExactMatrix.diagonal(eigen) * p_inv
    nilpotent = matrix - semisimple
    if semisimple.is_diagonal():
        eigenvalues = tuple(semisimple[i, i] for i in range(n))
        p = p_inv = ExactMatrix.identity(n)
    else:
        eigenvalues = tuple(eigen)
    return ChevalleyPair(semisimple, nilpotent, eigenvalues, p, p_inv)


# -- Vandermonde systems -------------------------------------------------------


def confluent_vandermonde_matrix(nodes: Sequence[Scalar], m: int) -> ExactMatrix:
    """Block Vandermonde with binomially scaled derivative blocks.

    Block p (1-based, p <= m) holds entries C(l, p-1) * node^(l-p+1) in row
    l, with the entry defined as zero whenever l < p-1.  With m = 1 this
    is the plain Vandermonde matrix.  The order is q*m for q distinct
    nodes w_1..w_q, and the determinant, computed in closed form by
    ``_confluent_vandermonde_determinant``, is

        (-1)^(C(m,2) * C(q,2)) * prod_{i<j} (w_j - w_i)^(m^2):

    the product is the determinant with the columns node by node (D.
    Kalman, "The generalized Vandermonde matrix", Math. Mag. 57, 1984),
    and the block-by-block order here is C(m,2) * C(q,2) inversions away.
    """
    q = len(nodes)
    if q == 0:
        raise ValueError("need at least one node")
    if m < 1:
        raise ValueError("block count must be positive")
    if len(set(nodes)) != q:
        raise ValueError("vandermonde nodes must be pairwise distinct")
    size = q * m
    powers = [[ONE] for _ in range(q)]
    for k in range(q):
        for _ in range(size):
            powers[k].append(powers[k][-1] * nodes[k])
    rows = []
    for ell in range(size):
        row = []
        for p in range(1, m + 1):
            for k in range(q):
                if ell < p - 1:
                    row.append(ZERO)
                else:
                    row.append(powers[k][ell - p + 1] * math.comb(ell, p - 1))
        rows.append(row)
    return ExactMatrix(rows)


def _confluent_vandermonde_determinant(nodes: Sequence[Scalar], m: int) -> Scalar:
    """The determinant of ``confluent_vandermonde_matrix(nodes, m)`` in
    closed form; zero when two nodes coincide, where that builder refuses."""
    det = ONE
    for i, w in enumerate(nodes):
        for v in nodes[i + 1:]:
            det = det * (v - w)
    det = det ** (m * m)
    q = len(nodes)
    return -det if math.comb(m, 2) * math.comb(q, 2) % 2 else det
