#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload plan_batch --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the ndsnn library and the
perfbench binary (Release) into .bench_build, or into $CARGO_TARGET_DIR
when that is set, then runs one seeded workload. Build output goes to
stderr. The binary's stdout passes through; its last line is the result
JSON, checked here against BENCHMARK.json. The exit code is 0 only when
the build, the run, every correctness gate and the result format pass.
With --trace 1 the spans are also written as Chrome trace-event JSON to
<build dir>/traces/<workload>-seed<N>.json.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("train_ndsnn", "plan_batch")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def check_result(line, spec, trace):
    """Return None when `line` is a well-formed result, else the reason."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "attempted < 1"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(wanted):
        return "metric names differ from BENCHMARK.json"
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            return f"metric {name} is not {{value, unit}}"
        if metric["unit"] != wanted[name]:
            return f"metric {name} has unit {metric['unit']}, BENCHMARK.json says {wanted[name]}"
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value \
                or value in (float("inf"), float("-inf")):
            return f"metric {name} is not a finite number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 600:
        return fail("--seconds must be in (0, 600]", 2)

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        return fail("run from the repository root: CMakeLists.txt and src/ are missing", 2)
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return fail("BENCHMARK.json is missing", 2)
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    for step in (["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build, "--target", "perfbench", "-j", jobs]):
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return fail("build timed out", 3)
        if done.returncode != 0:
            return fail(f"build step failed: {' '.join(step)}", 3)

    command = [os.path.join(build, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             check=False, text=True)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = run.stdout.splitlines()
    if not lines:
        return fail(f"{args.workload} printed nothing (exit {run.returncode})", 4)
    for line in lines[:-1]:
        print(line)
    problem = check_result(lines[-1], spec, args.trace)
    if problem:
        return fail(f"malformed result: {problem}", 4)
    print(lines[-1])
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
