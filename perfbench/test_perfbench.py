"""Tests of the benchmark itself.  Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def dulac():
    return run.load_dulac(ROOT)


def _write(tmp_path, workload, slot, variant):
    path = tmp_path / f"{workload.name}-{slot}-{variant}.json"
    path.write_text(workload.problem(slot, variant))
    return str(path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_recorded_problems(name):
    workload = WORKLOADS[name]
    first, again = workload.select(11), workload.select(11)
    assert first == again
    expected = run.load_expected(workload)
    assert all(expected[pid][0] == run.sha256(text) for pid, text in first)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seeds_give_different_problems(name):
    workload = WORKLOADS[name]
    first, other = workload.select(11), workload.select(12)
    differing = sum(a != b for a, b in zip(first, other))
    assert differing > len(first) // 2


def test_catalog_problem_passes_and_tampering_fails(dulac, tmp_path):
    workload = WORKLOADS["extract"]
    record = run.load_expected(workload)["1/2"]
    code, text, _ = run.run_cli(dulac.cli, workload.command(_write(tmp_path, workload, 1, 2)))
    assert run.check("extract", record, code, text) is None
    assert run.check("extract", record, code, text.replace("1", "2", 1)) == "report digest differs"
    assert run.check("extract", record, 4, text) == "exit 4, expected 0"
    assert run.check("extract", record, "ValueError", text) == "raised ValueError"


def test_verdicts_are_checked_beyond_the_digest():
    assert run.verdict_error("normalize", 0, {"pdnf": True, "conjugacy_holds": False})
    assert run.verdict_error("invariance", 4, {"invariant": True})
    assert run.verdict_error("invariance", 0, {"invariant": True}) is None
    assert run.verdict_error("extract", 0, {"route": "lie-derivative", "certificates": []})


class _Tampering:
    """Stands in for dulac.cli: every third call exits wrongly, every
    third call prints a changed report."""

    def __init__(self, cli):
        self.cli, self.calls = cli, 0

    def main(self, argv):
        self.calls += 1
        code = self.cli.main(argv)
        if self.calls % 3 == 1:
            return code + 1
        if self.calls % 3 == 2:
            sys.stdout.write(" ")
        return code


def test_tampered_reports_and_exit_codes_count_as_failed(dulac, tmp_path, monkeypatch):
    workload = WORKLOADS["extract"]
    monkeypatch.setattr(run, "MIN_CALLS", 6)
    problems = [(f"{s}/0", _write(tmp_path, workload, s, 0)) for s in (1, 5, 10)]
    expected = run.load_expected(workload)
    honest = run.timed_loop(dulac.cli, workload, problems, expected, 0)
    assert honest["failures"] == [] and honest["correct"] == 6
    loop = run.timed_loop(_Tampering(dulac.cli), workload, problems, expected, 0)
    assert len(loop["latencies"]) == 6
    assert loop["correct"] == 2 and len(loop["failures"]) == 4


def test_tracer_counts_every_namespace_and_restores_it(dulac, tmp_path):
    workload = WORKLOADS["normalize"]
    argv = workload.command(_write(tmp_path, workload, 3, 0))
    original = dulac.normalform.compose
    plain = run.run_cli(dulac.cli, argv)
    tracer = Tracer()
    tracer.install(dulac)
    try:
        tracer.problem = "3/0"
        traced = run.run_cli(dulac.cli, argv)
    finally:
        tracer.uninstall()
    assert traced[:2] == plain[:2]
    assert dulac.normalform.compose is original
    for name in run.PREDICTED["normalize"]:
        assert tracer.calls(name) > 0, name
    assert tracer.self_s("normalform.normalize") > 0
    ids = {span[0] for span in tracer.spans}
    assert all(span[1] is None or span[1] in ids for span in tracer.spans)
    assert tracer.spans[-1][3] == "cli.main" and tracer.spans[-1][1] is None


def test_coefficient_bits_skip_exponents_and_names():
    text = '{"a": ["3/1024*x^12*y + 5*x1"], "trunc_order": 99999}'
    assert run.max_coeff_bits(text) == 11
