"""Record the expected outputs that ``run.py`` checks against.

Run from the root of a checkout of the commit whose outputs are the
reference::

    python3 perfbench/record.py normalize ideal_basis extract preflight

For a workload it runs every catalog problem (every slot, every variant)
and writes ``expected/<workload>.json``: per catalog id, the sha256 of
the problem file, the exit code and the sha256 of the report.  For
``preflight`` it fills in the exit code and report digest of every case
in ``preflight/cases.json``.  A problem whose report contradicts itself,
or that raises, stops the recording: workloads must not fail.
"""

import json
import os
import sys

from run import HERE, load_dulac, run_cli, sha256, verdict_error
from workloads import VARIANTS, WORKLOADS


def record_workload(cli, name: str) -> None:
    workload = WORKLOADS[name]
    work = os.path.join(HERE, "_work", f"record-{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "problem.json")
    problems = {}
    try:
        for slot in range(workload.slots):
            for variant in range(VARIANTS):
                text = workload.problem(slot, variant)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                code, out, _ = run_cli(cli, workload.command(path))
                pid = f"{slot}/{variant}"
                if not isinstance(code, int):
                    raise SystemExit(f"{name} {pid} raised {code}")
                error = verdict_error(workload.argv[0], code, json.loads(out))
                if error:
                    raise SystemExit(f"{name} {pid}: {error}")
                problems[pid] = [sha256(text), code, sha256(out)]
    finally:
        if os.path.exists(path):
            os.remove(path)
        os.rmdir(work)
    write_expected(name, workload.argv, problems)


def write_expected(name: str, argv, problems: dict) -> None:
    """One line per catalog problem, so a changed record shows in a diff."""
    target = os.path.join(HERE, "expected", f"{name}.json")
    os.makedirs(os.path.dirname(target), exist_ok=True)
    rows = ",\n".join(f"  {json.dumps(pid)}: {json.dumps(r)}" for pid, r in problems.items())
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(f'{{"workload": {json.dumps(name)}, "argv": {json.dumps(argv)},\n')
        handle.write(f' "problems": {{\n{rows}\n }}}}\n')


def record_preflight(cli) -> None:
    folder = os.path.join(HERE, "preflight")
    cases_path = os.path.join(folder, "cases.json")
    with open(cases_path, encoding="utf-8") as handle:
        cases = json.load(handle)
    for case in cases:
        argv = [os.path.join(folder, a) if a.endswith(".json") else a for a in case["argv"]]
        code, out, _ = run_cli(cli, argv)
        if not isinstance(code, int):
            raise SystemExit(f"preflight {case['argv']} raised {code}")
        if verdict_error(argv[0], code, json.loads(out)):
            raise SystemExit(f"preflight {case['argv']}: report contradicts itself")
        case["exit"], case["sha256"] = code, sha256(out)
    with open(cases_path, "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1)
        handle.write("\n")


def main(names) -> None:
    cli = load_dulac(os.getcwd()).cli
    for name in names:
        if name == "preflight":
            record_preflight(cli)
        else:
            record_workload(cli, name)
        print(f"recorded {name}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or ["preflight", *WORKLOADS])
