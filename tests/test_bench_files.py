"""Checks on the committed benchmark records ``BENCH_<pr>.json``.

Each record holds one perfbench result per workload of ``BENCHMARK.json``
(the run's ``meta`` line and its closing result line).  The workload
names, metric names and units are read from ``BENCHMARK.json``, so a
record that drifts from the benchmark's declaration fails here.
"""

import glob
import json
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


BENCHMARK = _load(os.path.join(ROOT, "BENCHMARK.json"))
RECORDS = sorted(
    path for path in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    if re.fullmatch(r"BENCH_\d+\.json", os.path.basename(path))
)


def test_there_are_bench_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_bench_record_matches_the_benchmark(path):
    record = _load(path)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(names) <= set(record), f"missing workloads: {set(names) - set(record)}"
    for name in names:
        entry = record[name]
        meta, result = entry["meta"], entry["result"]
        assert meta["workload"] == name
        assert re.fullmatch(r"[0-9a-f]{40}", meta["git_commit"])
        assert isinstance(meta["src_lines"], int) and meta["src_lines"] > 0
        assert result["failed"] == 0
        assert result["correct"] is True
        metrics = result["metrics"]
        for metric in BENCHMARK["end_to_end"]:
            assert metric["name"] in metrics, f"{name}: no {metric['name']}"
            assert metrics[metric["name"]]["unit"] == metric["unit"]
            assert isinstance(metrics[metric["name"]]["value"], (int, float))
