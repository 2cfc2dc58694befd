"""Byte identity of the benchmark catalog reports.

For each perfbench workload, one fixed variant of every catalog slot is
replayed through ``dulac.cli.main``; the exit code and the sha256 of the
report must match the record in ``perfbench/expected/``.  The problem
texts come from ``perfbench/workloads.py``, which the tests only read
(through ``_gen.catalog_workloads``).
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from dulac import cli
from dulac.ideals import IdealHandle, close_under_lie
from dulac.poly import weight_decompose

from _gen import PERFBENCH, catalog_workloads

VARIANT = 0
WORKLOADS = catalog_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_catalog_reports_are_byte_identical(name, tmp_path):
    workload = WORKLOADS[name]
    with open(os.path.join(PERFBENCH, "expected", f"{name}.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["problems"]
    path = str(tmp_path / "problem.json")
    argv = workload.command(path)
    mismatches = []
    for slot in range(workload.slots):
        text = workload.problem(slot, VARIANT)
        pid = f"{slot}/{VARIANT}"
        assert hashlib.sha256(text.encode()).hexdigest() == expected[pid][0]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if [code, digest] != expected[pid][1:]:
            mismatches.append(pid)
    assert workload.slots == {"normalize": 100, "ideal_basis": 100, "extract": 300}[name]
    assert not mismatches


def test_closing_weight_components_matches_the_rounds_on_the_extract_catalog(tmp_path):
    # `extract --close` closes the weight components of the seeds; on every
    # catalog field (all in normal form) that is the closure of the seeds
    workload = WORKLOADS["extract"]
    path = str(tmp_path / "problem.json")
    for slot in range(workload.slots):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workload.problem(slot, VARIANT))
        problem = cli.load_problem(path)
        field = cli.build_field(problem)
        (exprs,) = problem.ideals.values()
        handle = cli._build_handle(problem, exprs)
        components = [
            c for g in handle.generators for c in weight_decompose(g, field.eigenvalues).values()
        ]
        direct = close_under_lie(IdealHandle(components, handle.trunc_order, handle.nvars), field)
        rounds = close_under_lie(handle, field)
        assert direct.reduced_basis == rounds.reduced_basis, slot
        assert direct.truncation_monomials == rounds.truncation_monomials, slot
