"""Command-line interface: problem files in, JSON reports out.

A problem file is a single JSON object::

    {
      "variables": ["x", "y"],
      "field_mode": "rational",          // "rational" | "gaussian" | "symbolic"
      "parameters": {"beta": "1"},       // optional named rationals
      "trunc_order": 8,                  // optional, default 8
      "vector_field": ["x", "3*y + beta*x^3"],
      "eigenvalues": ["1", "3"],         // optional in concrete modes
      "resonance": ["-1", "-2"],         // optional, for `resonance`
      "ideals": {"I": ["x^3 + y + y^2"]}
    }

In symbolic mode the eigenvalues are arrays of rational strings — weight
vectors over an abstract Q-linearly independent basis — and only the
commands that work purely with weights are available.

Exit codes: 0 success, 1 I/O failure, 2 parse or schema error,
3 hypothesis violation, 4 mathematical failure (the report carries the
witness), 5 unsupported spectrum, field shape or mode, 6 resource budget
exceeded (an integer of the report is longer than Python's int-to-str
limit, 4300 digits by default).  Reports are deterministic: same input
file, byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import ideals as ideal_ops
from .errors import (
    BudgetError,
    DulacError,
    ExprSyntaxError,
    HypothesisError,
    NotDiagonalError,
    NotInvariantError,
    NotNormalFormError,
    SchemaError,
    SingularMatrixError,
    UnsupportedSpectrumError,
)
from .exprs import (
    _format_monomial, _is_name, format_series, parse_expression,
    parse_fraction, parse_scalar, parse_weight,
)
from .field import (
    ONE,
    Scalar,
    Weight,
    format_fraction,
    format_scalar,
    format_weight,
    weight_embed,
    weights_from_scalars,
)
from .linalg import ExactMatrix
from .normalform import conjugacy_residual, is_pdnf, normalize
from .poly import Series, VectorField, linear_components, weight_decompose

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_MATH = 4
EXIT_MODE = 5
EXIT_BUDGET = 6

_MODES = ("rational", "gaussian", "symbolic")


class Problem(NamedTuple):
    """A validated problem file."""

    variables: List[str]
    field_mode: str
    parameters: Dict[str, Scalar]
    eigenvalue_scalars: Optional[List[Scalar]]
    eigenvalue_weights: Optional[List[Weight]]
    resonance: Optional[List[Fraction]]
    vector_field: Optional[List[str]]
    ideals: Dict[str, List[str]]
    trunc_order: int


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"problem file is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "problem file must be a JSON object")
    known = {
        "variables",
        "field_mode",
        "parameters",
        "eigenvalues",
        "resonance",
        "vector_field",
        "ideals",
        "trunc_order",
    }
    unknown = sorted(set(raw) - known)
    _require(not unknown, f"unknown problem keys: {unknown}")

    variables = raw.get("variables")
    _require(
        isinstance(variables, list) and variables and
        all(_is_name(v) for v in variables),
        "'variables' must be a nonempty list of identifiers",
    )
    _require(len(set(variables)) == len(variables), "duplicate variable names")
    _require("i" not in variables, "'i' is reserved for the imaginary unit")

    field_mode = raw.get("field_mode", "rational")
    _require(field_mode in _MODES, f"'field_mode' must be one of {_MODES}")

    parameters: Dict[str, Scalar] = {}
    raw_parameters = raw.get("parameters") or {}  # a falsy value means none
    _require(isinstance(raw_parameters, dict), "'parameters' must be a JSON object")
    for name, value in raw_parameters.items():
        _require(_is_name(name) and name != "i", f"bad parameter name {name!r}")
        _require(name not in variables, f"parameter {name!r} shadows a variable")
        try:
            parameters[name] = Scalar(parse_fraction(value))
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"parameter {name!r}: {exc}") from None

    trunc_order = raw.get("trunc_order", 8)
    _require(
        isinstance(trunc_order, int) and not isinstance(trunc_order, bool)
        and trunc_order >= 2,
        "'trunc_order' must be an integer >= 2",
    )

    eigenvalue_scalars: Optional[List[Scalar]] = None
    eigenvalue_weights: Optional[List[Weight]] = None
    eigenvalues = raw.get("eigenvalues")
    if eigenvalues is not None:
        _require(
            isinstance(eigenvalues, list) and len(eigenvalues) == len(variables),
            "'eigenvalues' must list one entry per variable",
        )
        if field_mode == "symbolic":
            weights = []
            for entry in eigenvalues:
                _require(
                    isinstance(entry, list) and entry
                    and all(isinstance(c, str) for c in entry),
                    "symbolic eigenvalues are arrays of rational strings",
                )
                try:
                    weights.append(parse_weight(entry))
                except ValueError as exc:
                    raise SchemaError(f"bad eigenvalue entry: {exc}") from None
            dims = {w.dim for w in weights}
            _require(len(dims) == 1, "eigenvalue weight vectors have mixed lengths")
            eigenvalue_weights = weights
        else:
            scalars = []
            for entry in eigenvalues:
                _require(
                    isinstance(entry, str),
                    "concrete eigenvalues are scalar strings like '1/2' or '0+1*i'",
                )
                try:
                    scalars.append(parse_scalar(entry))
                except ValueError as exc:
                    raise SchemaError(f"bad eigenvalue entry: {exc}") from None
            if field_mode == "rational" and any(not s.is_rational() for s in scalars):
                raise UnsupportedSpectrumError(
                    "imaginary eigenvalues declared in rational mode; "
                    "set field_mode to 'gaussian'"
                )
            eigenvalue_scalars = scalars
    else:
        _require(
            field_mode != "symbolic",
            "symbolic mode requires explicit 'eigenvalues'",
        )

    resonance: Optional[List[Fraction]] = None
    if raw.get("resonance") is not None:
        entries = raw["resonance"]
        _require(
            isinstance(entries, list) and all(isinstance(e, str) for e in entries),
            "'resonance' must be a list of rational strings",
        )
        try:
            resonance = [parse_fraction(e) for e in entries]
        except ValueError as exc:
            raise SchemaError(f"bad resonance entry: {exc}") from None

    vector_field = raw.get("vector_field")
    if vector_field is not None:
        _require(
            isinstance(vector_field, list)
            and len(vector_field) == len(variables)
            and all(isinstance(e, str) for e in vector_field),
            "'vector_field' must list one expression per variable",
        )

    ideals: Dict[str, List[str]] = {}
    raw_ideals = raw.get("ideals") or {}
    _require(isinstance(raw_ideals, dict), "'ideals' must be a JSON object")
    for name, gens in raw_ideals.items():
        _require(_is_name(name), f"bad ideal name {name!r}")
        _require(
            isinstance(gens, list) and all(isinstance(g, str) for g in gens),
            f"ideal {name!r} must be a list of expression strings",
        )
        ideals[name] = list(gens)

    return Problem(
        list(variables),
        field_mode,
        parameters,
        eigenvalue_scalars,
        eigenvalue_weights,
        resonance,
        vector_field,
        ideals,
        trunc_order,
    )


# -- shared helpers ----------------------------------------------------------


def _parse_series(problem: Problem, src: str) -> Series:
    series = parse_expression(src, problem.variables, problem.parameters, problem.trunc_order)
    if problem.field_mode == "rational":
        if any(not c.is_rational() for c in series.terms.values()):
            raise UnsupportedSpectrumError(
                "imaginary coefficients in rational mode; "
                "set field_mode to 'gaussian'"
            )
    return series


def build_field(problem: Problem) -> VectorField:
    if problem.field_mode == "symbolic":
        raise UnsupportedSpectrumError(
            "this command needs a concrete vector field; symbolic mode "
            "supports 'weights', 'extract --semisimple' and 'resonance'"
        )
    if problem.vector_field is None:
        raise SchemaError("the problem file declares no 'vector_field'")
    comps = [_parse_series(problem, src) for src in problem.vector_field]
    for name, comp in zip(problem.variables, comps):
        if not comp.constant_term().is_zero():
            raise SchemaError(
                f"the 'vector_field' component for {name!r} has a nonzero "
                "constant term; the field must vanish at the origin"
            )
    field = VectorField.from_components(comps)
    scalars = field.chevalley.eigenvalues
    if problem.field_mode == "rational" and any(not s.is_rational() for s in scalars):
        raise UnsupportedSpectrumError(
            "the linear part has imaginary eigenvalues; "
            "set field_mode to 'gaussian'"
        )
    if problem.eigenvalue_scalars is not None:
        declared = sorted(problem.eigenvalue_scalars, key=lambda s: (s.re, s.im))
        computed = sorted(scalars, key=lambda s: (s.re, s.im))
        if declared != computed:
            raise SchemaError(
                "declared eigenvalues disagree with the linear part of the "
                "vector field"
            )
    return field


def _weights_for_problem(problem: Problem) -> Tuple[List[Weight], Optional[Tuple[Scalar, ...]]]:
    """Eigenvalues as weights plus a Q(i)-embedding when one exists.  A
    field's own come first, after :func:`build_field` has cross-checked
    any declared ones; a declared list is read by position only without
    a field, so every command gives each variable the same weight.
    Symbolic weights of dimension 1 are rationals and embed as (1,), as
    :func:`weights_from_scalars` embeds rational eigenvalues."""
    if problem.field_mode == "symbolic":
        weights = list(problem.eigenvalue_weights)
        return weights, (ONE,) if weights[0].dim == 1 else None
    if problem.vector_field is None and problem.eigenvalue_scalars is not None:
        weights, embedding = weights_from_scalars(problem.eigenvalue_scalars)
        return list(weights), embedding
    field = build_field(problem)
    if not field.chevalley.semisimple.is_diagonal():
        raise NotDiagonalError(
            "weight operations index eigenvalues by variable position and "
            "need a diagonal semisimple part; normalize in the "
            "diagonalizing basis first"
        )
    return list(field.eigenvalues), field.embedding


def _pick_ideal(problem: Problem, args) -> Tuple[str, List[str]]:
    name = getattr(args, "ideal", None)
    if name is None:
        _require(bool(problem.ideals), "the file defines no ideals")
        _require(
            len(problem.ideals) == 1,
            "the file defines several ideals; pick one with --ideal",
        )
        name = next(iter(problem.ideals))
    _require(name in problem.ideals, f"no ideal named {name!r} in the file")
    return name, problem.ideals[name]


def _build_handle(problem: Problem, exprs: Sequence[str]):
    gens = [_parse_series(problem, src) for src in exprs]
    return ideal_ops.IdealHandle(gens, problem.trunc_order, nvars=len(problem.variables))


def _series_list(items: Sequence[Series], names: Sequence[str]) -> List[str]:
    return [format_series(s, names) for s in items]


def _certificate_json(cert, names: Sequence[str]) -> dict:
    det = cert.determinant
    out = {
        "source": format_series(cert.source, names),
        "weights": [format_weight(w) for w in cert.weights],
        "nodes": [format_scalar(v) for v in cert.nodes],
        "block_count": cert.block_count,
        "size": cert.matrix.nrows,
        "matrix": [
            [format_scalar(cert.matrix[i, j]) for j in range(cert.matrix.ncols)]
            for i in range(cert.matrix.nrows)
        ],
        "rhs": _series_list(cert.rhs, names),
        "solution": _series_list(cert.solution, names),
        "determinant": format_scalar(det),
    }
    if det.is_rational():
        out["abs_determinant"] = format_fraction(abs(det.re))
    else:
        out["abs_determinant_squared"] = format_fraction(det.magnitude_squared())
    out["trunc_order"] = cert.trunc_order
    return out


def _witness_json(witness: Tuple[Series, Series], names: Sequence[str]) -> dict:
    """The witness of a failed invariance check, both for reports and errors."""
    generator, residue = witness
    return {
        "generator": format_series(generator, names),
        "reduced_lie_derivative": format_series(residue, names),
    }


def _base_report(problem: Problem, command: str) -> dict:
    return {
        "command": command,
        "trunc_order": problem.trunc_order,
        "field_mode": problem.field_mode,
        "variables": list(problem.variables),
    }


# -- commands ----------------------------------------------------------------


def cmd_check_pdnf(problem: Problem, args) -> Tuple[dict, int]:
    field = build_field(problem)
    ok, residual = is_pdnf(field)
    report = _base_report(problem, "check-pdnf")
    report["eigenvalues"] = [format_scalar(s) for s in field.chevalley.eigenvalues]
    report["pdnf"] = ok
    report["residual"] = _series_list(residual, problem.variables)
    return report, EXIT_OK if ok else EXIT_MATH


def cmd_normalize(problem: Problem, args) -> Tuple[dict, int]:
    field = build_field(problem)
    result = normalize(field)
    ok, residual = is_pdnf(result.normalized)
    conjugacy = conjugacy_residual(field, result)
    conjugacy_ok = all(r.is_zero() for r in conjugacy)
    report = _base_report(problem, "normalize")
    report["eigenvalues"] = [format_scalar(s) for s in field.chevalley.eigenvalues]
    report["input"] = _series_list(field.components, problem.variables)
    report["normalized"] = _series_list(
        result.normalized.components, problem.variables
    )
    report["transformation"] = _series_list(
        result.transformation, problem.variables
    )
    report["resonant_kernel_choice"] = "zero-projection"
    report["pdnf"] = ok
    report["pdnf_residual"] = _series_list(residual, problem.variables)
    report["conjugacy_holds"] = conjugacy_ok
    ok_all = ok and conjugacy_ok
    return report, EXIT_OK if ok_all else EXIT_MATH


def cmd_weights(problem: Problem, args) -> Tuple[dict, int]:
    name, exprs = _pick_ideal(problem, args)
    index = args.index
    _require(
        0 <= index < len(exprs),
        f"--index {index} out of range for ideal {name!r} "
        f"with {len(exprs)} generators",
    )
    series = _parse_series(problem, exprs[index])
    weights, _ = _weights_for_problem(problem)
    decomposition = weight_decompose(series, weights)
    report = _base_report(problem, "weights")
    report["ideal"] = name
    report["series"] = format_series(series, problem.variables)
    report["eigenvalues"] = [format_weight(w) for w in weights]
    report["weights"] = {
        format_weight(w): format_series(component, problem.variables)
        for w, component in decomposition.items()
    }
    return report, EXIT_OK


def cmd_invariance(problem: Problem, args) -> Tuple[dict, int]:
    name, exprs = _pick_ideal(problem, args)
    handle = _build_handle(problem, exprs)
    field = build_field(problem)
    if args.semisimple:
        derivation = field.semisimple_components()
        derivation_name = "semisimple"
    else:
        derivation = field
        derivation_name = "field"
    invariant, witness = ideal_ops.is_invariant(handle, derivation)
    report = _base_report(problem, "invariance")
    report["ideal"] = name
    report["derivation"] = derivation_name
    report["generators"] = _series_list(handle.generators, problem.variables)
    if args.basis:
        report["basis"] = _series_list(handle.reduced_basis, problem.variables)
        report["truncation_monomials"] = [
            _format_monomial(m, problem.variables) for m in handle.truncation_monomials
        ]
    report["invariant"] = invariant
    report["witness"] = None if witness is None else _witness_json(witness, problem.variables)
    return report, EXIT_OK if invariant else EXIT_MATH


def cmd_extract(problem: Problem, args) -> Tuple[dict, int]:
    name, exprs = _pick_ideal(problem, args)
    handle = _build_handle(problem, exprs)
    seeds = [g for g in handle.generators if not g.is_zero()]
    report = _base_report(problem, "extract")
    report["ideal"] = name
    report["seed_generators"] = _series_list(seeds, problem.variables)

    if args.semisimple:
        weights, embedding = _weights_for_problem(problem)
        work = handle
        if args.close:
            if embedding is None:
                raise UnsupportedSpectrumError(
                    "closure needs a concrete derivation; symbolic mode "
                    "cannot close ideals"
                )
            lam = [weight_embed(w, embedding) for w in weights]
            diag = linear_components(ExactMatrix.diagonal(lam))
            work = ideal_ops.close_under_lie(handle, diag)
            work = work.with_extra(seeds)
        generators, certificates = ideal_ops.extract_semiinvariants(
            work, weights, embedding
        )
        report["route"] = "semisimple"
    else:
        field = build_field(problem)
        work = handle
        if args.close:
            # By the paper's theorem the closure of the seeds along a field in
            # normal form (the only kind extraction accepts) holds their
            # weight components, so it is the closure of those.
            components = [
                c for g in seeds for c in weight_decompose(g, field.eigenvalues).values()
            ]
            work = ideal_ops.close_under_lie(
                ideal_ops.IdealHandle(components, handle.trunc_order, handle.nvars), field
            )
        generators, certificates = ideal_ops.lf_extract_semiinvariants(
            work, field, seeds
        )
        report["route"] = "lie-derivative"

    report["closed"] = bool(args.close)
    report["generators"] = _series_list(generators, problem.variables)
    if args.certificate:
        report["certificates"] = (
            None
            if certificates is None
            else [_certificate_json(c, problem.variables) for c in certificates]
        )
    return report, EXIT_OK


def cmd_resonance(problem: Problem, args) -> Tuple[dict, int]:
    weights, _ = _weights_for_problem(problem)
    _require(
        problem.resonance is not None,
        "the 'resonance' key is required for this command",
    )
    _require(
        len(problem.resonance) == max(len(weights) - 1, 0),
        "'resonance' must list one coefficient per leading eigenvalue",
    )
    candidates, hypothesis = ideal_ops.single_resonance_primes(
        weights, problem.resonance
    )
    report = _base_report(problem, "resonance")
    report["eigenvalues"] = [format_weight(w) for w in weights]
    report["alpha"] = [format_fraction(a) for a in problem.resonance]
    report["hypothesis"] = hypothesis
    report["candidates"] = [
        [problem.variables[i] for i in subset] for subset in candidates
    ]
    report["count"] = len(candidates)
    return report, EXIT_OK


# -- dispatch ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dulac",
        description=(
            "Exact normal forms, invariant ideals and certified "
            "semi-invariant extraction for formal vector fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument(
            "--trunc-order",
            type=int,
            default=None,
            help="override the file's truncation order",
        )
        p.add_argument(
            "--verbose",
            action="store_true",
            help="human-readable summary on stderr",
        )

    p = sub.add_parser("check-pdnf", help="test [f, B_s x] = 0 at truncation")
    common(p)
    p.set_defaults(handler=cmd_check_pdnf)

    p = sub.add_parser("normalize", help="remove all non-resonant terms")
    common(p)
    p.set_defaults(handler=cmd_normalize)

    p = sub.add_parser("weights", help="weight decomposition of a generator")
    common(p)
    p.add_argument("--ideal", default=None, help="ideal name (default: the only one)")
    p.add_argument("--index", type=int, default=0, help="generator index (default 0)")
    p.set_defaults(handler=cmd_weights)

    p = sub.add_parser("invariance", help="is the ideal carried into itself?")
    common(p)
    p.add_argument("--ideal", default=None)
    p.add_argument(
        "--semisimple",
        action="store_true",
        help="use the semisimple linear part instead of the full field",
    )
    p.add_argument("--basis", action="store_true", help="include the reduced basis")
    p.set_defaults(handler=cmd_invariance)

    p = sub.add_parser("extract", help="extract semi-invariant generators")
    common(p)
    p.add_argument("--ideal", default=None)
    p.add_argument(
        "--semisimple",
        action="store_true",
        help="extract along the semisimple derivation only",
    )
    p.add_argument(
        "--close",
        action="store_true",
        help="close the ideal under the derivation first",
    )
    p.add_argument(
        "--certificate",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="include the Vandermonde certificates in the report",
    )
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("resonance", help="single-resonance candidate primes")
    common(p)
    p.set_defaults(handler=cmd_resonance)

    return parser


def _error_payload(exc: Exception, variables: Optional[List[str]]) -> dict:
    payload: dict = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, NotInvariantError) and exc.witness is not None and variables:
        payload["witness"] = _witness_json(exc.witness, variables)
    if isinstance(exc, NotNormalFormError) and exc.residual is not None and variables:
        payload["residual"] = [format_series(r, variables) for r in exc.residual]
    if isinstance(exc, SingularMatrixError):
        payload["rank"] = exc.rank
    return payload


# First match wins; the last row catches everything main handles.
_EXIT_BY_TYPE = (
    ((SchemaError, ExprSyntaxError), EXIT_PARSE),
    (HypothesisError, EXIT_HYPOTHESIS),
    ((UnsupportedSpectrumError, NotDiagonalError), EXIT_MODE),
    (BudgetError, EXIT_BUDGET),
    ((DulacError, ArithmeticError), EXIT_MATH),
)


def _exit_code_for(exc: Exception) -> int:
    return next(code for types, code in _EXIT_BY_TYPE if isinstance(exc, types))


def _emit(report: dict, verbose: bool, code: int) -> None:
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    if verbose:
        summary = report.get("command", "error")
        sys.stderr.write(f"dulac {summary}: exit {code}\n")


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The parser is built once per process, on the first call (not at
    # import); parse_args returns a fresh Namespace each time.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        problem = load_problem(args.problem)
    except OSError as exc:
        sys.stderr.write(f"dulac: cannot read problem file: {exc}\n")
        return EXIT_IO
    except (SchemaError, UnsupportedSpectrumError) as exc:
        code = _exit_code_for(exc)
        _emit({"error": _error_payload(exc, None)}, args.verbose, code)
        return code
    try:
        if args.trunc_order is not None:
            # a rejected override is reported at the file's order
            _require(args.trunc_order >= 2, "--trunc-order must be an integer >= 2")
            problem = problem._replace(trunc_order=args.trunc_order)
        # By name, so a handler replaced on this module is the one called.
        report, code = globals()[args.handler.__name__](problem, args)
    except (DulacError, ArithmeticError) as exc:
        code = _exit_code_for(exc)
        report = _base_report(problem, args.command)
        try:
            report["error"] = _error_payload(exc, problem.variables)
        except BudgetError as budget:  # a witness too long to print
            code = EXIT_BUDGET
            report["error"] = _error_payload(budget, None)
        _emit(report, args.verbose, code)
        return code
    _emit(report, args.verbose, code)
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
