"""Truncated polynomial ideals and semi-invariant extraction.

Every ideal here is really ``I + <x>^N`` for a user-chosen truncation
order N: the quotient-ring device that turns formal power-series
statements into finite computations.  R_N = K[[x]]/<x>^N is a
finite-dimensional vector space, and the ideal is a subspace of it,
spanned by the truncated shifts x^a*g of the generators.  Gaussian
elimination of those shifts, columns ordered by descending grlex,
gives the reduced row-echelon form.  It is unique, and its rows at the
minimal pivots, with the degree-N monomials under no pivot, form the
reduced Groebner basis of the generators together with all degree-N
monomials.  Truncation takes part in the elimination: a polynomial whose
leading term has low-degree tail content can reveal new members
(g = ``x^2*y + y`` at N = 4 yields ``y``: x^2*g is x^2*y modulo degree
4, so y = g - x^2*g is a member).  A shift enters the elimination
through the precomputed monic suffixes of its generator, and most
shifts stop at a fresh pivot or vanish against monomial pivots without
a single subtraction.  Membership is then one pass over the terms:
each pivot term is replaced by its row's reduced tail, which holds
standard monomials only.  Tails are back-substituted on demand: a query
reduces only the pivots its terms reach, so a few membership tests on a
large echelon form touch a small part of it.

On top of the ideal arithmetic sit one invariance pass and the
semi-invariant extraction routines.  The pass, ``_residues``, yields each
generator whose Lie derivative leaves the ideal, with the normal form of
that derivative; :func:`is_invariant`, each round of
:func:`close_under_lie` and the symbolic check all read it.  The two
certified routes check the ideal and the field once, then share one loop
over the members.  The weight components of a
member, and their iterated images under L_g (g = f - B_s x, the
non-semisimple rest of f) up to the first block that vanishes, are
computed directly from the exponents; a (confluent) Vandermonde
certificate then replays them: its determinant is nonzero, so the
solution of matrix * x = rhs is unique, the components reproduce the
iterated Lie derivatives exactly, and every right-hand side and every
component is re-verified by membership.  Every derivative here is a
``lie_derivative`` of :mod:`dulac.poly`.

The echelon form is the one elimination routine of :mod:`dulac.linalg`
(``_insert_row`` and ``_substitute``) on packed monomial keys, called
for the shifts whose leading terms meet a nonempty tail.  The
certificate determinant takes no elimination: it is the closed form of
the confluent Vandermonde matrix the certificate is built on.  The echelon
rows are dicts from those keys to :class:`~dulac.field.Scalar` tails,
while a :class:`~dulac.poly.Series` stores Gaussian-integer numerators
over one denominator.  The two meet at exactly two boundaries, both
through the private pair ``poly._scalar_terms`` (series to Scalar terms) and
``poly._scalar_series`` (Scalar terms to series): the generators
entering :func:`groebner` (and the basis polynomials it returns), and
the input and remainder of :meth:`IdealHandle.normal_form`, which skips
both conversions when no term of the input is a pivot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import linalg
from .errors import (
    CertificateError,
    HypothesisError,
    NotDiagonalError,
    NotInvariantError,
    NotNormalFormError,
)
from .field import ONE, Scalar, Weight, weight_embed
from .linalg import Tails, _insert_row, _substitute
from .normalform import is_pdnf, lg_nilpotency_bound
from .poly import (
    Exponent,
    Series,
    VectorField,
    _components,
    _degree_keys,
    _ring,
    _scalar_series,
    _scalar_terms,
    _unpack,
    grlex_key,
    lie_derivative,
    linear_components,
    matvec_series,
    weight,
    weight_decompose,
)

__all__ = [
    "IdealHandle",
    "ReducedBasis",
    "ExtractionCertificate",
    "groebner",
    "is_invariant",
    "close_under_lie",
    "extract_semiinvariants",
    "lf_extract_semiinvariants",
    "single_resonance_primes",
]


def _generators(
    gens: Iterable[Series], trunc_order: int, nvars: Optional[int]
) -> Tuple[Tuple[Series, ...], int]:
    """The generators viewed in R_N, and their common variable count."""
    if trunc_order < 1:
        raise ValueError("truncation order must be a positive integer")
    out = []
    for g in gens:
        if nvars is None:
            nvars = g.nvars
        elif g.nvars != nvars:
            raise ValueError("generators live in different variable sets")
        out.append(g.truncate(trunc_order))
    if nvars is None:
        raise ValueError("an empty generating set needs an explicit variable count")
    return tuple(out), nvars


class ReducedBasis(NamedTuple):
    """Reduced basis of ``<gens> + <x>^N`` in grlex order.

    ``polys`` are the monic basis polynomials below degree N, largest
    leading monomial first; ``monomials`` are the degree-N monomials that
    no leading monomial divides, in descending grlex order.  ``tails`` is
    the echelon form behind both, keyed like the terms of a series
    truncated at N (the packing of :mod:`dulac.poly`, base N + 1): every
    leading monomial of the ideal below degree N, mapped to the tail of
    its row.  The tails of the pivots in ``unreduced`` are still the raw
    rows of the forward elimination; every other tail is reduced, with
    standard monomials only.  Read tails through :meth:`reduce_tails`.
    """

    polys: Tuple[Series, ...]
    monomials: Tuple[Exponent, ...]
    tails: Tails
    unreduced: Set[int]

    def reduce_tails(self, wanted: Iterable[int]) -> Tails:
        """Reduce the tails of the pivots among ``wanted`` in place and
        return ``tails``.  The raw tails lead, through pivot terms, to
        further unreduced pivots; those are collected with a stack (the
        chains outgrow Python's recursion limit) and substituted in
        ascending order, the step of a full back-substitution pass.  A
        tail term is smaller than its pivot, so each substitution reads
        reduced tails only, and the reduced echelon form is unique: every
        reduced tail is the one a full pass gives."""
        pending = self.unreduced
        if pending.isdisjoint(wanted):
            return self.tails
        tails = self.tails
        stack = list(pending.intersection(wanted))
        reach = set(stack)
        while stack:
            for e in tails[stack.pop()]:
                if e in pending and e not in reach:
                    reach.add(e)
                    stack.append(e)
        for m in sorted(reach):
            tails[m] = _substitute(tails[m], tails)
        pending -= reach
        return tails


def groebner(
    gens: Iterable[Series],
    trunc_order: int,
    nvars: Optional[int] = None,
) -> ReducedBasis:
    """The reduced basis of the generators plus all degree-N monomials,
    read off the reduced row-echelon form of the ideal inside R_N.

    R_N is finite-dimensional, and the image of the ideal in it is the
    K-span of the truncated shifts x^a*g with |a| + mindeg(g) < N (the
    Macaulay-matrix view behind F4).  Each shift is reduced by its
    leading terms against the rows stored so far and kept monic under a
    new pivot if anything is left.  Truncation at degree k cuts a
    generator's highest-degree terms, so every shift of degree k walks a
    tail of one list, computed once per generator: its monic suffixes,
    each the key of a term and the later terms divided by that term's
    coefficient.  A shifted key that is no pivot stores the shifted
    suffix as its tail; a pivot with an empty tail (a monomial of the
    ideal) cancels the lead alone, so the walk goes on to the next
    suffix, and the row vanishes once every term has cancelled so.  Only
    a pivot with a nonempty tail hands the shifted monic suffix to
    :func:`~dulac.linalg._insert_row`.  A row and its scalar multiples
    reduce to the same monic row, so the stored tails are those of
    inserting every shift whole.  The pivots are then the leading
    monomials of the ideal below degree N.  Substituting the rows of
    smaller pivots into a tail leaves standard monomials only; that
    reduced echelon form depends on the ideal alone, not on the order the
    shifts arrived in, and so does everything read off it: the rows at
    the minimal pivots (no ``m - e_i`` among the pivots) are the unique
    reduced basis polynomials, and a degree-N monomial belongs to the
    basis exactly when none of its degree-(N-1) divisors is a pivot.
    Only the minimal pivots are reduced here; the other tails stay raw
    until a query reaches them (:meth:`ReducedBasis.reduce_tails`).

    The echelon form works on the packed keys that series truncated at N
    already hold (:mod:`dulac.poly`: key(e) = |e|*B^n +
    sum_j e_j*B^(n-1-j) with B = N + 1), so a shift is one integer
    addition, grlex order is integer order, and the minimal pivots and
    degree-N monomials are those outside {m + key(x_j) : m a pivot}.
    The basis polynomials are built from their packed rows without
    unpacking; only the degree-N ``monomials`` are unpacked.
    """
    generators, nvars = _generators(gens, trunc_order, nvars)
    ring = _ring(nvars, trunc_order + 1)
    top, units = ring[2], ring[4]
    suffixes = []
    for terms in map(_scalar_terms, generators):
        keys = sorted(terms, reverse=True)
        monic = []
        for i, e in enumerate(keys):
            inv = terms[e].inverse()
            monic.append((e // top, e, {m: terms[m] * inv for m in keys[i + 1:]}))
        suffixes.append(monic)
    shifts = _degree_keys(nvars, trunc_order)
    tails: Tails = {}
    # Shifts of high degree go first: truncation leaves their rows a term
    # or two, most of which land on fresh pivots with empty tails, and the
    # longer rows that come later step over those in the walk below.
    for k in reversed(range(trunc_order)):
        cut = trunc_order - k
        rows = [[(e, s) for d, e, s in monic if d < cut] for monic in suffixes]
        rows = [row for row in rows if row]
        for shift in shifts[k]:
            for row in rows:
                # a row that meets only empty tails, term after term, vanishes
                for e, suffix in row:
                    lead = e + shift
                    tail = tails.get(lead)
                    if tail is None:
                        tails[lead] = {m + shift: v for m, v in suffix.items()}
                    elif tail:
                        shifted = {m + shift: v for m, v in suffix.items()}
                        _insert_row(tails, {lead: ONE, **shifted})
                    else:
                        continue
                    break

    blocked = {m + u for m in tails for u in units}
    minimal = sorted((m for m in tails if m not in blocked), reverse=True)
    basis = ReducedBasis((), (), tails, set(tails))
    basis.reduce_tails(minimal)
    polys = tuple(
        _scalar_series(ring, {m: ONE, **tails[m]}, trunc_order) for m in minimal
    )
    monomials = tuple(
        _unpack(m, ring) for m in shifts[trunc_order] if m not in blocked
    )
    return basis._replace(polys=polys, monomials=monomials)


class IdealHandle:
    """A finitely generated ideal of R_N = K[[x]]/<x>^N.

    Stores the generators (viewed at order N) and computes the reduced
    basis on first use.  Instances are immutable as seen from outside:
    the basis is computed once, and the echelon tails a query reaches are
    reduced on read and memoized, which changes no answer.
    """

    __slots__ = ("generators", "trunc_order", "nvars", "_basis")

    def __init__(
        self,
        generators: Iterable[Series],
        trunc_order: int,
        nvars: Optional[int] = None,
    ):
        gens, nvars = _generators(generators, trunc_order, nvars)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "trunc_order", trunc_order)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("IdealHandle is immutable")

    def _ensure_basis(self) -> ReducedBasis:
        if self._basis is None:
            computed = groebner(self.generators, self.trunc_order, self.nvars)
            object.__setattr__(self, "_basis", computed)
        return self._basis

    @property
    def reduced_basis(self) -> Tuple[Series, ...]:
        return self._ensure_basis().polys

    @property
    def truncation_monomials(self) -> Tuple[Exponent, ...]:
        return self._ensure_basis().monomials

    def normal_form(self, psi: Series) -> Series:
        """The unique remainder of psi modulo the ideal (zero iff member):
        one pass that replaces every pivot term by its reduced tail, after
        reducing the tails of those pivots that are still raw.  A series at
        order N holds the packed keys of ``ReducedBasis.tails``, so nothing
        is packed or unpacked; its coefficients become Scalars only when
        some term is a pivot."""
        if psi.nvars != self.nvars:
            raise ValueError("variable counts differ")
        rep = psi.truncate(self.trunc_order)
        basis = self._ensure_basis()
        keys = rep._keys()
        if basis.tails.keys().isdisjoint(keys):
            return rep
        out = _substitute(_scalar_terms(rep), basis.reduce_tails(keys))
        return _scalar_series(rep._r, out, rep.trunc)

    def member(self, psi: Series) -> bool:
        """Whether psi lies in the ideal (including the truncation part)."""
        return self.normal_form(psi).is_zero()

    def with_extra(self, extra: Iterable[Series]) -> "IdealHandle":
        return IdealHandle(
            tuple(self.generators) + tuple(extra),
            self.trunc_order,
            self.nvars,
        )

    def __repr__(self) -> str:
        return (
            f"<IdealHandle {len(self.generators)} generators "
            f"in R_{self.trunc_order}>"
        )


def _residues(ideal: IdealHandle, f, gens: Iterable[Series]) -> Iterator[Tuple[Series, Series]]:
    """The one invariance pass: ``(g, r)`` for each g of ``gens`` whose Lie
    derivative along f leaves the ideal, r the normal form of L_f g, with
    the components of f cut to the ideal's order."""
    comps = _components(f, ideal.trunc_order)
    for g in gens:
        residue = ideal.normal_form(lie_derivative(comps, g))
        if not residue.is_zero():
            yield g, residue


def _require_invariant(witness, along: str = "under the semisimple derivation") -> None:
    """Refuse an ideal whose invariance pass found a witness."""
    if witness is not None:
        raise NotInvariantError(f"the ideal is not invariant {along}", witness=witness)


def is_invariant(ideal: IdealHandle, f) -> Tuple[bool, Optional[Tuple[Series, Series]]]:
    """Whether the ideal is carried into itself by the derivation along f.

    Checking the generators suffices: the Lie derivative obeys the
    Leibniz rule, so membership of every L_f(generator) propagates to
    every product.  On failure, returns the first item of the invariance
    pass as a witness: a generator and its reduced Lie derivative.
    """
    witness = next(_residues(ideal, f, ideal.generators), None)
    return witness is None, witness


def close_under_lie(ideal: IdealHandle, f) -> IdealHandle:
    """The smallest ideal containing the input that the derivation maps
    into itself: each round adjoins the residues of the invariance pass
    over the reduced basis, until none is left, as R_N's finite dimension
    ensures."""
    current = ideal
    # Each round either stabilizes or strictly enlarges the ideal; the
    # chain is bounded by the dimension of R_N.
    for _ in range(_rn_dimension(ideal.nvars, ideal.trunc_order) + 1):
        fresh = tuple(r for _, r in _residues(current, f, current.reduced_basis))
        if not fresh:
            return current
        current = IdealHandle(current.reduced_basis + fresh, ideal.trunc_order, ideal.nvars)
    raise ArithmeticError("ideal closure failed to stabilize")  # pragma: no cover


def _rn_dimension(nvars: int, order: int) -> int:
    """dim R_order: the number of monomials of degree < order."""
    return math.comb(order + nvars - 1, nvars)


# -- extraction --------------------------------------------------------------


@dataclass(frozen=True)
class ExtractionCertificate:
    """A machine-checkable record of one Vandermonde extraction.

    ``determinant`` is the exact, nonzero determinant of ``matrix``, so
    ``matrix * solution = rhs`` has ``solution`` as its only solution,
    and the identity holds exactly; the rhs entries are the iterated Lie
    derivatives of ``source``; the first ``len(weights)`` solution
    entries are the weight components of ``source``.  All rhs and
    solution entries are verified members of the ideal before the
    certificate is issued.
    """

    matrix: linalg.ExactMatrix
    rhs: Tuple[Series, ...]
    solution: Tuple[Series, ...]
    weights: Tuple[Weight, ...]
    nodes: Tuple[Scalar, ...]
    determinant: Scalar
    block_count: int
    source: Series
    trunc_order: int


def _series_order(s: Series):
    return tuple(
        (grlex_key(e), c.re, c.im) for e, c in s.sorted_terms()
    )


def _collect_generators(pieces: Iterable[Series]) -> Tuple[Series, ...]:
    """Deduplicate up to scaling: each generator is reported monic."""
    unique: List[Series] = []
    for p in pieces:
        if p.is_zero():
            continue
        p = p.monic()
        if all(p != q for q in unique):
            unique.append(p)
    unique.sort(key=_series_order, reverse=True)
    return tuple(unique)


def extract_semiinvariants(
    ideal: IdealHandle,
    eigenvalues: Sequence[Weight],
    embedding: Optional[Sequence[Scalar]] = None,
) -> Tuple[Tuple[Series, ...], Optional[Tuple[ExtractionCertificate, ...]]]:
    """Weight-homogeneous generators of an ideal invariant under the
    semisimple derivation diag(lambda).

    Concrete spectra (one-dimensional weights, or an explicit embedding
    of the weight basis into Q(i)) get the certified loop of
    :func:`lf_extract_semiinvariants` over the generators: the
    weight components, computed directly from the exponents, are the
    solution, and the certificate replays them against the Vandermonde
    matrix on the distinct weights, whose nonzero determinant makes them
    the only solution, with the honestly iterated Lie derivatives as the
    right-hand sides.  Symbolic spectra skip the matrix (its entries
    would live in Q(lambda)) and verify the decomposition componentwise
    instead, returning None for the certificates.
    """
    if len(eigenvalues) != ideal.nvars:
        raise ValueError("eigenvalue count does not match the ideal's variables")
    dim = eigenvalues[0].dim
    if any(w.dim != dim for w in eigenvalues):
        raise ValueError("eigenvalues have mixed weight dimensions")
    if embedding is None and dim == 1:
        embedding = (ONE,)
    if embedding is not None and len(embedding) != dim:
        raise ValueError("embedding length does not match the weight dimension")

    if embedding is None:
        return _extract_symbolic(ideal, eigenvalues), None

    lam = [weight_embed(w, embedding) for w in eigenvalues]
    diag = linear_components(linalg.ExactMatrix.diagonal(lam))
    _require_invariant(is_invariant(ideal, diag)[1])
    # diag(lambda) is its own semisimple part: its g is 0, so every
    # certificate has the one block of the weight components
    no_g = [Series.zero(ideal.nvars, ideal.trunc_order)] * ideal.nvars
    return _extract(ideal, ideal.generators, eigenvalues, embedding, diag, no_g, 1)


def _extract_symbolic(
    ideal: IdealHandle, eigenvalues: Sequence[Weight]
) -> Tuple[Series, ...]:
    """L_{B_s} = sum_k b_k D_k, with D_k the diagonal derivation by the k-th
    weight coordinates; the basis values b_k are Q-linearly independent, so
    the ideal is invariant exactly when it is under every D_k."""
    diagonals = ([Scalar(w.coords[k]) for w in eigenvalues] for k in range(eigenvalues[0].dim))
    derivations = [linear_components(linalg.ExactMatrix.diagonal(d)) for d in diagonals]
    residues = (item for g in ideal.generators for d in derivations
                for item in _residues(ideal, d, (g,)))
    _require_invariant(next(residues, None))
    pieces: List[Series] = []
    for g in ideal.generators:
        for component in weight_decompose(g, eigenvalues).values():
            if not ideal.member(component):
                raise CertificateError(
                    "a weight component failed the membership recheck"
                )
            pieces.append(component)
    return _collect_generators(pieces)


def _verify_certificate(ideal, nodes, m, rhs, solution) -> Tuple[linalg.ExactMatrix, Scalar]:
    """Build the confluent Vandermonde matrix with m blocks on the nodes,
    replay matrix * solution = rhs and recheck every membership.  The
    determinant, in closed form, is checked nonzero before the matrix is
    built: it makes the solution unique, so it is the one an exact solve
    would return.  The matrix and the determinant are returned for the
    certificate."""
    det = linalg._confluent_vandermonde_determinant(nodes, m)
    if det.is_zero():
        raise CertificateError("the certificate matrix is singular")
    matrix = linalg.confluent_vandermonde_matrix(nodes, m)
    product = matvec_series(matrix, solution)
    for got, want in zip(product, rhs):
        if got != want:
            raise CertificateError("matrix * solution does not reproduce the rhs")
    for entry in rhs:
        if not ideal.member(entry):
            raise NotInvariantError(
                "an iterated Lie derivative left the ideal",
                witness=(rhs[0], ideal.normal_form(entry)),
            )
    for entry in solution:
        if not ideal.member(entry):
            raise CertificateError(
                "a solution entry failed the membership recheck"
            )
    return matrix, det


def _certify(ideal, source, eigenvalues, embedding, f_comps, g_comps, cap):
    """The replayed certificate of the weight components of ``source``:
    the solution whose block j holds the j-th L_g images of the weight
    components, block 0 the components themselves, walked until a block
    vanishes, so the block count m is the number of nonzero blocks (at
    most ``cap``); the confluent Vandermonde matrix with m blocks on the
    distinct weights; and the rhs of q*m iterated L_f-derivatives of
    ``source``."""
    dec = weight_decompose(source, eigenvalues)
    weights = tuple(dec)
    q = len(weights)
    nodes = tuple(weight_embed(w, embedding) for w in weights)
    if len(set(nodes)) != q:
        raise ValueError(
            "the embedding collapses distinct weights; "
            "its basis values must be Q-linearly independent"
        )
    solution: List[Series] = []
    block = list(dec.values())
    while any(block):
        if len(solution) == cap * q:
            raise ArithmeticError(
                "nilpotency bound exceeded; the field data are inconsistent"
            )
        solution.extend(block)
        block = [lie_derivative(g_comps, c) for c in block]
    m = len(solution) // q
    rhs: List[Series] = [source]
    for _ in range(q * m - 1):
        rhs.append(lie_derivative(f_comps, rhs[-1]))
    matrix, det = _verify_certificate(ideal, nodes, m, rhs, solution)
    return ExtractionCertificate(
        matrix=matrix,
        rhs=tuple(rhs),
        solution=tuple(solution),
        weights=weights,
        nodes=nodes,
        determinant=det,
        block_count=m,
        source=source,
        trunc_order=ideal.trunc_order,
    )


def _extract(ideal, members, eigenvalues, embedding, f_comps, g_comps, cap):
    """The certified extraction loop of both routes: each member must lie
    in the ideal, each nonzero one gets the replayed certificate of
    :func:`_certify`, and block 0 of every solution, the weight
    components, is returned monic and deduplicated."""
    pieces: List[Series] = []
    certificates: List[ExtractionCertificate] = []
    for phi in members:
        rep = phi.truncate(ideal.trunc_order)
        if not ideal.member(rep):
            raise NotInvariantError(
                "the series is not a member of the ideal",
                witness=(rep, ideal.normal_form(rep)),
            )
        if rep.is_zero():
            continue
        certificate = _certify(ideal, rep, eigenvalues, embedding, f_comps, g_comps, cap)
        certificates.append(certificate)
        pieces.extend(certificate.solution[:len(certificate.weights)])
    return _collect_generators(pieces), tuple(certificates)


def lf_extract_semiinvariants(
    ideal: IdealHandle, f: VectorField, members: Iterable[Series]
) -> Tuple[Tuple[Series, ...], Tuple[ExtractionCertificate, ...]]:
    """Semi-invariant generators from ``members`` of an L_f-invariant
    ideal, for f in normal form.

    The ideal's invariance is checked first.  Given any member, the field
    is then checked once: a diagonal semisimple part, and normal form, so
    that L_g (g = f - B_s x) is nilpotent and keeps each weight space.
    Each member must lie in the ideal and gets the replayed confluent
    Vandermonde certificate of its weight components (:func:`_certify`),
    whose size q*m is the number of distinct weights times the
    nilpotency index of L_g on the member.  Block 0 of the solutions,
    ``cert.solution[:len(cert.weights)]``, is returned monic and
    deduplicated, with one certificate per nonzero member.

    Passing ``ideal.generators`` proves that the ideal is generated by
    weight-homogeneous elements (hence invariant under the semisimple part
    alone).  After ``closed = close_under_lie(seed, f)``, passing the
    seed generators extracts from the original seeds rather than from
    the closure, as ``dulac extract --close`` does.  That command closes
    the weight components of the seeds instead of the seeds: every
    L_f-invariant ideal of a field in normal form is invariant under its
    semisimple part, so the closure of the seeds already holds their
    weight components, and both closures are the same ideal.
    """
    _require_invariant(is_invariant(ideal, f)[1],
                       "along the field (pass --close to close it first)")
    members = list(members)
    if not members:
        return (), ()
    order = ideal.trunc_order
    if not f.chevalley.semisimple.is_diagonal():
        raise NotDiagonalError(
            "extraction indexes weights by position and needs a diagonal "
            "semisimple part; normalize in the diagonalizing basis first"
        )
    ok, residual = is_pdnf(f, order)
    if not ok:
        raise NotNormalFormError(
            "the field must be in normal form for weight extraction", residual
        )
    return _extract(
        ideal, members, f.eigenvalues, f.embedding, _components(f, order),
        f.g_components(order), lg_nilpotency_bound(f, order),
    )


def single_resonance_primes(
    eigenvalues: Sequence[Weight],
    resonance: Sequence[Fraction],
) -> Tuple[Tuple[Tuple[int, ...], ...], Dict[str, object]]:
    """Candidate invariant prime ideals in the single-resonance case.

    Hypotheses (verified, violations raise): the first n-1 eigenvalues
    are Q-linearly independent, and the last one equals the declared
    nonpositive rational combination of them.  Under these, the
    candidates are exactly the 2^n - 1 monomial primes, returned as
    index tuples sorted by size then position.  The enumeration is a
    candidate list, not a primality or completeness proof.
    """
    n = len(eigenvalues)
    if n == 0:
        raise ValueError("need at least one eigenvalue")
    dim = eigenvalues[0].dim
    if any(w.dim != dim for w in eigenvalues):
        raise ValueError("eigenvalues have mixed weight dimensions")
    alphas = [Fraction(a) for a in resonance]
    if len(alphas) != n - 1:
        raise ValueError("need one resonance exponent per leading eigenvalue")
    if any(a > 0 for a in alphas):
        raise HypothesisError(
            "resonance exponents must be nonpositive rationals"
        )
    if n >= 2:
        rows = [[Scalar(c) for c in w.coords] for w in eigenvalues[: n - 1]]
        matrix = linalg.ExactMatrix.from_rows(rows)
        if linalg.rank(matrix) != n - 1:
            raise HypothesisError(
                "the leading eigenvalues are Q-linearly dependent"
            )
        if weight(alphas, eigenvalues[: n - 1]) != eigenvalues[n - 1]:
            raise HypothesisError(
                "the last eigenvalue does not satisfy the declared resonance relation"
            )
    candidates = tuple(
        subset
        for size in range(1, n + 1)
        for subset in itertools.combinations(range(n), size)
    )
    report: Dict[str, object] = {
        "variables": n,
        "independent": True,
        "relation_holds": True,
        "alpha": [str(a) for a in alphas],
        "candidate_count": len(candidates),
    }
    return candidates, report
