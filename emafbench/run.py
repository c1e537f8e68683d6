#!/usr/bin/env python3
"""Builds the emaf benchmark from source and runs one workload.

    python3 emafbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run it from the repository root. The first call configures and builds
emafbench/ (which compiles ../src) into .bench_build/; later calls only
re-check the build. Build output goes to stderr; stdout carries the
benchmark's detail lines and, last, its JSON result.

BENCHMARK.json is the one list of metrics. The binary prints every metric
it measured as "name": value; this script reports the end_to_end metrics
(--trace 0) or the per_layer ones (--trace 1) with their units, gives a
per-layer metric the workload does not exercise the value 0, and refuses
a result that names an unknown metric or misses an end-to-end one. The exit
code is the benchmark's, or 1 when the build fails or the result is refused.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = any(os.path.exists(os.path.join(BUILD_DIR, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "emafbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "emafbench")


def traced(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value != "0"
    return False


def report(measured, spec, trace):
    """The result's metrics object, or raises ValueError."""
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - known)
    if unknown:
        raise ValueError(f"unknown metrics {unknown}")
    table = spec["per_layer" if trace else "end_to_end"]
    missing = sorted(m["name"] for m in table if m["name"] not in measured)
    if missing and not trace:
        raise ValueError(f"end-to-end metrics not measured: {missing}")
    return {m["name"]: {"value": measured.get(m["name"], 0),
                        "unit": m["unit"]} for m in table}


def main():
    try:
        with open(SPEC) as handle:
            spec = json.load(handle)
        binary = build()
    except (OSError, ValueError, subprocess.CalledProcessError) as error:
        print(f"emafbench build failed: {error}", file=sys.stderr)
        return 1
    try:
        completed = subprocess.run([binary] + sys.argv[1:], text=True,
                                   stdout=subprocess.PIPE,
                                   timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("emafbench timed out", file=sys.stderr)
        return 1
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        sys.stdout.write(completed.stdout)
        return completed.returncode or 1
    try:
        result = json.loads(lines[-1])
        result["metrics"] = report(result["metrics"], spec,
                                   traced(sys.argv[1:]))
    except (ValueError, KeyError, TypeError) as error:
        print(f"emafbench result refused: {error}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
