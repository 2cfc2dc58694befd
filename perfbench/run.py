"""End-to-end benchmark of the dulac command line, with a traced mode.

Run from the root of a checkout::

    python3 perfbench/run.py --workload normalize --seed 1 --seconds 20 --trace 0

The run builds its workload's problem files from the seed (see
``workloads.py``) and feeds them to ``dulac.cli.main`` in this process,
one call at a time, cycling through them until ``--seconds`` have passed
and at least ``MIN_CALLS`` calls are done.  Every report is checked: the
exit code and the sha256 of stdout must match the catalog record in
``expected/``, and the report's own verdict fields must agree.  Before
timing, ``preflight/`` runs every CLI command once on fixed files.

With ``--trace 1`` the run makes one untraced and one traced pass over the
problems instead, reports the per-layer metrics of ``tracer.py``, checks
that both passes print the same bytes, and writes the spans to
``perfbench/_out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when the run
completed, whether or not its checks passed, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_CALLS = 100  # so that at least ten latencies lie beyond p90
SETUP_SPAWNS = 15
OUT_DIR = os.path.join(HERE, "_out")


class Unrunnable(Exception):
    """The checkout cannot run the benchmark; exit 2 without a result."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the program under test -----------------------------------------------


def load_dulac(root: str):
    """Import dulac from ``root/src``, never from anywhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dulac", "cli.py")):
        raise Unrunnable(f"no dulac sources under {src}")
    sys.path.insert(0, src)
    import dulac
    import dulac.cli

    if not os.path.abspath(dulac.__file__).startswith(src + os.sep):
        raise Unrunnable(f"imported dulac from {dulac.__file__}, not {src}")
    return dulac


def run_cli(cli, argv: List[str]) -> Tuple[object, str, float]:
    """One ``main(argv)`` call: (exit code or exception name, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = type(exc).__name__
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def verdict_error(command: str, code, report: dict) -> Optional[str]:
    """Check a report's own claims; None when they hold."""
    if command == "normalize":
        if code != 0 or report.get("pdnf") is not True:
            return "normal form not verified"
        if report.get("conjugacy_holds") is not True:
            return "conjugacy not verified"
    elif command == "extract":
        if code != 0:
            return "extraction failed"
        if report.get("route") == "lie-derivative" and not report.get("certificates"):
            return "extraction without certificates"
    elif command == "invariance":
        if report.get("invariant") is not (code == 0) or code not in (0, 4):
            return "invariance verdict disagrees with the exit code"
    return None


def check(command: str, expected: list, code, text: str) -> Optional[str]:
    """Compare one call with its record [problem sha, exit, report sha]."""
    if not isinstance(code, int):
        return f"raised {code}"
    if code != expected[1]:
        return f"exit {code}, expected {expected[1]}"
    if sha256(text) != expected[2]:
        return "report digest differs"
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    return verdict_error(command, code, report)


def load_expected(workload: Workload) -> Dict[str, list]:
    path = os.path.join(HERE, "expected", f"{workload.name}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["problems"]


def write_problems(workload: Workload, seed: int, work: str) -> List[Tuple[str, str]]:
    """Write the run's problem files; returns (catalog id, path) pairs."""
    expected = load_expected(workload)
    selected = workload.select(seed)
    for pid, text in selected:
        if pid not in expected or expected[pid][0] != sha256(text):
            raise Unrunnable(f"problem {pid} no longer matches its catalog record")
    os.makedirs(work, exist_ok=True)
    problems = []
    for index, (pid, text) in enumerate(selected):
        path = os.path.join(work, f"{index:04d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        problems.append((pid, path))
    return problems


# -- measurements ------------------------------------------------------------


def measure_setup(root: str) -> float:
    """Median seconds from spawning an interpreter to ``import dulac.cli``
    done inside it, the start-up cost every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = "import time, dulac.cli; print(time.monotonic())"
    samples = []
    for _ in range(SETUP_SPAWNS + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, cwd=root, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout) - start)
    return statistics.median(samples[1:])  # the first spawn fills caches


def preflight(cli) -> List[str]:
    """Run every command once on the fixed files; returns the failures."""
    folder = os.path.join(HERE, "preflight")
    with open(os.path.join(folder, "cases.json"), encoding="utf-8") as handle:
        cases = json.load(handle)
    failures = []
    for case in cases:
        argv = [os.path.join(folder, a) if a.endswith(".json") else a for a in case["argv"]]
        code, text, _ = run_cli(cli, argv)
        error = check(argv[0], [None, case["exit"], case["sha256"]], code, text)
        if error:
            failures.append(f"{' '.join(case['argv'])}: {error}")
    return failures


def timed_loop(cli, workload, problems, expected, seconds) -> dict:
    """Closed loop, one client: the next call starts when the last ends."""
    command = workload.argv[0]
    latencies, failures, correct = [], [], 0
    argvs = [workload.command(path) for _, path in problems]
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or len(latencies) < MIN_CALLS:
        pid = problems[index % len(problems)][0]
        code, text, elapsed = run_cli(cli, argvs[index % len(problems)])
        latencies.append(elapsed)
        error = check(command, expected[pid], code, text)
        if error:
            failures.append(f"{pid}: {error}")
        else:
            correct += 1
        index += 1
    wall = time.perf_counter() - start
    return {"latencies": latencies, "failures": failures, "correct": correct, "wall": wall}


def one_pass(cli, workload, problems, tracer=None) -> Tuple[float, List[tuple]]:
    """Each problem once; returns (wall seconds, [(id, code, text)])."""
    outputs = []
    start = time.perf_counter()
    for pid, path in problems:
        if tracer is not None:
            tracer.problem = pid
        code, text, _ = run_cli(cli, workload.command(path))
        outputs.append((pid, code, text))
    return time.perf_counter() - start, outputs


# -- per-layer metrics -------------------------------------------------------

# Counter metrics, "<trace name>.calls" or "<trace name>.self_s"; the
# metrics derived from return values and reports follow in layer_metrics.
COUNTER_METRICS = [
    "cli.main.self_s",
    "cli.load_problem.self_s",
    "cli.build_field.self_s",
    "exprs.parse_expression.calls",
    "exprs.parse_expression.self_s",
    "exprs.format_series.calls",
    "exprs.format_series.self_s",
    "field.scalar_mul.calls",
    "field.scalar_add.calls",
    "field.scalar_inverse.calls",
    "poly.series_mul.calls",
    "poly.series_mul.self_s",
    "poly.compose.calls",
    "poly.compose.self_s",
    "poly.lie_derivative.calls",
    "poly.lie_derivative.self_s",
    "poly.from_components.self_s",
    "poly.weight_decompose.calls",
    "poly.weight_decompose.self_s",
    "linalg.jordan_chevalley.self_s",
    "linalg.inverse.calls",
    "linalg.inverse.self_s",
    "linalg.solve.calls",
    "linalg.solve.self_s",
    "linalg.determinant.calls",
    "linalg.determinant.self_s",
    "normalform.normalize.calls",
    "normalform.normalize.self_s",
    "normalform.conjugacy_residual.self_s",
    "normalform.is_pdnf.self_s",
    "normalform.lg_nilpotency_index.calls",
    "normalform.lg_nilpotency_index.self_s",
    "ideals.groebner.calls",
    "ideals.groebner.self_s",
    "ideals.normal_form.calls",
    "ideals.normal_form.self_s",
    "ideals.is_invariant.self_s",
    "ideals.close_under_lie.calls",
    "ideals.close_under_lie.self_s",
    "ideals.extract_from_member.calls",
    "ideals.extract_from_member.self_s",
]

# Trace names each workload is predicted to call; a zero count means a
# wrapper missed a namespace, and fails the traced run.
PREDICTED = {
    "normalize": [
        "cli.main", "cli.load_problem", "cli.build_field",
        "exprs.parse_expression", "exprs.format_series",
        "field.scalar_mul", "field.scalar_add", "field.scalar_inverse",
        "poly.series_mul", "poly.compose", "poly.lie_derivative",
        "poly.from_components", "linalg.jordan_chevalley", "linalg.inverse",
        "normalform.normalize", "normalform.conjugacy_residual", "normalform.is_pdnf",
    ],
    "ideal_basis": [
        "cli.main", "cli.load_problem", "cli.build_field",
        "exprs.parse_expression", "exprs.format_series",
        "field.scalar_mul", "field.scalar_add", "field.scalar_inverse",
        "poly.series_mul", "poly.lie_derivative", "poly.from_components",
        "linalg.jordan_chevalley", "ideals.groebner", "ideals.normal_form",
        "ideals.is_invariant",
    ],
    "extract": [
        "cli.main", "cli.load_problem", "cli.build_field",
        "exprs.parse_expression", "exprs.format_series",
        "field.scalar_mul", "field.scalar_add", "field.scalar_inverse",
        "poly.series_mul", "poly.lie_derivative", "poly.from_components",
        "poly.weight_decompose", "linalg.jordan_chevalley", "linalg.solve",
        "linalg.determinant", "normalform.is_pdnf", "normalform.lg_nilpotency_index",
        "ideals.groebner", "ideals.normal_form", "ideals.is_invariant",
        "ideals.close_under_lie", "ideals.extract_from_member",
    ],
}

def max_coeff_bits(text: str) -> int:
    """Largest bit length of an integer printed inside a report string,
    except exponents and digits of names: the numerators and denominators
    of coefficients."""
    best = 0
    for value in _strings(json.loads(text)):
        for token in re.findall(r"(?<![\w^])\d+", value):
            best = max(best, int(token).bit_length())
    return best


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)


def vandermonde_size(text: str) -> int:
    """Sum of q*m, the matrix size, over the report's certificates."""
    certificates = json.loads(text).get("certificates") or []
    return sum(c["size"] for c in certificates)


def layer_metrics(tracer: Tracer, outputs, overhead: float) -> Dict[str, dict]:
    metrics = {}
    for metric in COUNTER_METRICS:
        name, field = metric.rsplit(".", 1)
        value = tracer.calls(name) if field == "calls" else tracer.self_s(name)
        metrics[metric] = {"value": value, "unit": "count" if field == "calls" else "s"}
    texts = [text for _, _, text in outputs]
    metrics["field.self_s"] = {"value": tracer.layer_self_s("field"), "unit": "s"}
    metrics["field.max_coeff_bits"] = {
        "value": max(max_coeff_bits(t) for t in texts), "unit": "bits"}
    metrics["linalg.vandermonde_size"] = {
        "value": sum(vandermonde_size(t) for t in texts), "unit": "count"}
    metrics["ideals.basis_size"] = {"value": tracer.basis_size, "unit": "count"}
    metrics["ideals.closure_rounds"] = {"value": tracer.closure_rounds, "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "traced/untraced"}
    return metrics


# -- the run -----------------------------------------------------------------


def metadata(root: str, seed: int) -> dict:
    src = os.path.join(root, "src", "dulac")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as handle:
                lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(root),
        "src_lines": lines,
    }


def git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout when it is itself a git work tree, else None.
    Git may not look for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def timed_run(cli, workload, problems, expected, seconds, root, meta) -> tuple:
    """End-to-end metrics, tracing off: (attempted, failed, notes, metrics)."""
    setup_s = measure_setup(root)
    loop = timed_loop(cli, workload, problems, expected, seconds)
    latencies = loop["latencies"]
    attempted = len(latencies)
    meta["wall_s"] = loop["wall"]
    metrics = {
        "problems_per_s": {"value": loop["correct"] / loop["wall"], "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "latency_p90_s": {
            "value": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "unit": "s",
        },
        "pass_ratio": {"value": loop["correct"] / attempted, "unit": "passed/attempted"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    return attempted, attempted - loop["correct"], loop["failures"], metrics


def traced_run(dulac, workload, problems, expected, meta) -> tuple:
    """Per-layer metrics from one untraced and one traced pass."""
    plain_wall, plain = one_pass(dulac.cli, workload, problems)
    tracer = Tracer()
    tracer.install(dulac)
    try:
        traced_wall, traced = one_pass(dulac.cli, workload, problems, tracer)
    finally:
        tracer.uninstall()
    attempted, failed, notes = 0, 0, []
    for (pid, code, text), (_, t_code, t_text) in zip(plain, traced):
        for got_code, got_text in ((code, text), (t_code, t_text)):
            attempted += 1
            error = check(workload.argv[0], expected[pid], got_code, got_text)
            if error:
                failed += 1
                notes.append(f"{pid}: {error}")
        if (code, text) != (t_code, t_text):
            notes.append(f"{pid}: traced report differs from the untraced one")
    predicted = PREDICTED[workload.name]
    silent = [n for n in predicted if n in tracer.wrapped and not tracer.calls(n)]
    if silent:
        raise Unrunnable(f"predicted calls never traced: {', '.join(silent)}")
    meta.update(untraced_s=plain_wall, traced_s=traced_wall,
                absent=[n for n in predicted if n not in tracer.wrapped])
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{workload.name}-{meta['seed']}.json"), meta)
    return attempted, failed, notes, layer_metrics(tracer, traced, traced_wall / plain_wall)


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    workload = WORKLOADS[name]
    dulac = load_dulac(root)
    work = os.path.join(HERE, "_work", f"{name}-{seed}-{os.getpid()}")
    problems = write_problems(workload, seed, work)
    try:
        expected = load_expected(workload)
        meta = metadata(root, seed)
        meta.update(workload=name, problems=len(problems))
        notes = [f"preflight: {f}" for f in preflight(dulac.cli)]
        if trace:
            outcome = traced_run(dulac, workload, problems, expected, meta)
        else:
            outcome = timed_run(dulac.cli, workload, problems, expected, seconds, root, meta)
    finally:
        for _, path in problems:
            os.remove(path)
        os.rmdir(work)
    attempted, failed, failures, metrics = outcome
    return {"meta": meta, "notes": notes + failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (Unrunnable, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    for note in result["notes"]:
        print("FAIL " + note)
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']} {entry['unit']}")
    print(f"fail_ratio {result['failed'] / result['attempted']} failed/attempted")
    correct = result["failed"] == 0 and not result["notes"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
