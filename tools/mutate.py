"""Mutation testing scoped to the functions a ``git diff`` touches.

Run from the root of a checkout::

    python3 tools/mutate.py --base HEAD~1 tests/test_ideals.py tests/test_cli.py

Every Python file under ``src/`` that differs from ``--base`` (the working
tree against that revision, as ``git diff`` shows it) is parsed, and each
function or method whose lines overlap a changed hunk is mutated in turn,
one mutation per mutant:

- a comparison is flipped (``<`` to ``>=``, ``==`` to ``!=``, ``in`` to
  ``not in`` and back);
- ``+`` and ``-`` are swapped, also in ``+=`` and ``-=``;
- an integer constant is shifted by one;
- an ``if`` guard is dropped: its test becomes ``True``.

Each mutant is written into a copy of the checkout (``--workdir``, a new
temporary directory by default) and the named test files run there with
``pytest -x -q`` under ``--timeout`` seconds.  A mutant is *killed* when
the tests fail, *survived* when they pass and *timed out* otherwise.  The
unmutated copy runs first and must pass.  Nothing in the checkout itself
is modified.  Survivors are either equivalent mutants or gaps in the tests.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Set, Tuple

FLIPPED = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add}


def changed_lines(base: str, root: str) -> Dict[str, Set[int]]:
    """Per changed ``src/**.py`` file, the new-side line numbers of its hunks."""
    diff = subprocess.run(
        ["git", "diff", "-U0", base, "--", "src"],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout
    lines: Dict[str, Set[int]] = {}
    path = None
    for row in diff.splitlines():
        if row.startswith("+++ "):
            name = row[4:]
            path = name[2:] if name.startswith("b/") and name.endswith(".py") else None
        elif row.startswith("@@") and path:
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", row).groups()
            n = 1 if count is None else int(count)
            # a pure deletion (n = 0) touches the line it follows
            lines.setdefault(path, set()).update(range(int(start), int(start) + max(n, 1)))
    return lines


def touched_functions(tree: ast.Module, lines: Set[int]) -> List[ast.AST]:
    """The outermost functions whose span overlaps the changed lines (a
    nested function is mutated as part of the function around it)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if lines & set(range(first, node.end_lineno + 1)):
                found.append(node)
    nested = {id(n) for f in found for n in ast.walk(f) if n is not f}
    return sorted((f for f in found if id(f) not in nested), key=lambda f: f.lineno)


def mutation_sites(func: ast.AST) -> List[Tuple[ast.AST, str]]:
    """(node, description) for every mutation of the function, in source order."""
    return sorted(_sites(func), key=lambda site: (site[0].lineno, site[0].col_offset))


def _sites(func: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPPED:
                    yield node, f"compare[{i}] {type(op).__name__} -> {FLIPPED[type(op)].__name__}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPPED:
            yield node, f"{type(node.op).__name__} -> {SWAPPED[type(node.op)].__name__}"
        elif (isinstance(node, ast.Constant) and type(node.value) is int):
            yield node, f"constant {node.value} -> {node.value + 1}"
        elif isinstance(node, ast.If):
            yield node, "drop if guard"


def apply(node: ast.AST, description: str) -> None:
    """Mutate ``node`` in place as ``description`` says."""
    if isinstance(node, ast.Compare):
        i = int(description[len("compare["):description.index("]")])
        node.ops[i] = FLIPPED[type(node.ops[i])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = SWAPPED[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.test = ast.Constant(True)


def mutants(source: str, path: str, lines: Set[int]) -> Iterator[Tuple[str, str]]:
    """(label, mutated source) for every mutation of the touched functions."""
    tree = ast.parse(source)
    for func in touched_functions(tree, lines):
        for k in range(len(mutation_sites(func))):
            mutated = copy.deepcopy(tree)
            twin = next(
                n for n in ast.walk(mutated)
                if isinstance(n, type(func)) and n.lineno == func.lineno
            )
            node, description = mutation_sites(twin)[k]
            apply(node, description)
            label = f"{path}:{node.lineno} {func.name}: {description}"
            yield label, ast.unparse(ast.fix_missing_locations(mutated))


def run_tests(root: str, tests: List[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tests", nargs="+", help="test files to run against each mutant")
    parser.add_argument("--base", default="HEAD", help="revision to diff the working tree against")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per test run")
    parser.add_argument("--workdir", help="where to copy the checkout (default: a temp dir)")
    args = parser.parse_args(argv)
    root = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True
    ).stdout.strip()
    work = args.workdir or tempfile.mkdtemp(prefix="mutate-")
    copy_root = os.path.join(work, "checkout")
    shutil.rmtree(copy_root, ignore_errors=True)
    shutil.copytree(root, copy_root, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "_work", "_out"))
    if run_tests(copy_root, args.tests, args.timeout) != "survived":
        print("the unmutated tests do not pass; no mutant was run")
        return 2
    tally: Dict[str, int] = {}
    for path, lines in sorted(changed_lines(args.base, root).items()):
        target = os.path.join(copy_root, path)
        with open(target, encoding="utf-8") as handle:
            original = handle.read()
        try:
            for label, source in mutants(original, path, lines):
                with open(target, "w", encoding="utf-8") as handle:
                    handle.write(source)
                verdict = run_tests(copy_root, args.tests, args.timeout)
                tally[verdict] = tally.get(verdict, 0) + 1
                print(f"{verdict:9} {label}", flush=True)
        finally:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(original)
    print(", ".join(f"{n} {v}" for v, n in sorted(tally.items())) or "no mutants")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
