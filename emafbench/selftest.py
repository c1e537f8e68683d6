#!/usr/bin/env python3
"""Smoke-scale self-check of the emaf benchmark.

    python3 emafbench/selftest.py

Runs every workload named in BENCHMARK.json at smoke scale (--smoke, one
second), untraced and traced, through the benchmark's own command, and
checks for each run that:

  - it exits 0 and its last stdout line is a result object with exactly the
    keys correct / attempted / failed / metrics, and correct is true;
  - the metric names and units are exactly BENCHMARK.json's end_to_end
    (untraced) or per_layer (traced) metrics (run.py exits 1 when the
    binary names a metric BENCHMARK.json does not list);
  - every "# phase" line closes, ok + failed = attempted, and the phases add
    up to the result's attempted and failed counts.

Exit code 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASE = re.compile(r"# phase (\S+): attempted=(\d+) (.*)")


def check_run(spec, workload, trace):
    command = spec["command"] + ["--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--smoke"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if run.returncode != 0:
        return [f"exit code {run.returncode}: {run.stderr[-400:]}"]
    lines = run.stdout.strip().splitlines()
    problems = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("result is not correct: " + "; ".join(
            line for line in lines if line.startswith("# INCORRECT")))
    table = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        units = sorted(n for n in set(expected) & set(emitted)
                       if expected[n] != emitted[n])
        problems.append(f"metrics differ: missing {missing}, extra {extra}, "
                        f"units {units}")
    attempted = failed = 0
    for line in lines:
        match = PHASE.match(line)
        if not match:
            continue
        counts = dict(part.split("=") for part in match.group(3).split())
        ok = int(counts.pop("ok"))
        phase_failed = sum(int(v) for v in counts.values())
        phase_attempted = int(match.group(2))
        if ok + phase_failed != phase_attempted:
            problems.append(f"phase {match.group(1)}: ok {ok} + failed "
                            f"{phase_failed} != attempted {phase_attempted}")
        attempted += phase_attempted
        failed += phase_failed
    if attempted == 0:
        problems.append("no phase lines")
    if (attempted, failed) != (result["attempted"], result["failed"]):
        problems.append(f"phases add up to attempted={attempted} "
                        f"failed={failed}, the result says "
                        f"{result['attempted']} / {result['failed']}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
