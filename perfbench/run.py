#!/usr/bin/env python3
"""Builds and runs the LCA-KP benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick

The first form builds the benchmark (a Cargo package of its own, against
the repository's crates by path) and runs one workload. Its standard
output ends with one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 1` the spans of the run are written under the
Cargo target directory, in `perfbench-traces/`.

`--quick` runs every workload of BENCHMARK.json briefly, untraced and
traced, and fails unless each run passes its correctness gate and prints
exactly the metrics BENCHMARK.json names, with their units.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
QUICK_SECONDS = "1"
QUICK_SEED = "7"


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds the benchmark binary and returns its path, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    command = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", MANIFEST, "--bench", "lcakp",
        "--message-format=json-render-diagnostics",
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            timeout=BUILD_TIMEOUT_S, check=False,
        )
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"run.py: build failed with code {proc.returncode}", file=sys.stderr)
        return None
    for line in proc.stdout.decode().splitlines():
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if (message.get("reason") == "compiler-artifact"
                and message.get("target", {}).get("name") == "lcakp"
                and message.get("executable")):
            return message["executable"]
    print("run.py: build produced no benchmark executable", file=sys.stderr)
    return None


def run(executable, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    command = [
        executable, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--trace-dir", os.path.join(target_dir(), "perfbench-traces"),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE,
            timeout=RUN_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.decode().splitlines()


def result_of(lines):
    """The JSON result on the last line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def quick(executable):
    """Runs every workload briefly in both modes and checks the output."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            code, lines = run(executable, workload, QUICK_SEED, QUICK_SECONDS, trace)
            result = result_of(lines)
            if code != 0 or result is None:
                failures.append(f"{label}: exit {code}, no result line")
                continue
            printed = {name: m.get("unit") for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                wrong = sorted(n for n in printed
                               if n in expected[trace] and printed[n] != expected[trace][n])
                failures.append(f"{label}: missing {missing} extra {extra} wrong units {wrong}")
            if not all(isinstance(m.get("value"), (int, float))
                       for m in result["metrics"].values()):
                failures.append(f"{label}: a metric value is not a number")
            if result["correct"] is not True:
                failed = [line for line in lines if "FAIL" in line]
                failures.append(f"{label}: correctness gate failed {failed}")
            print(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(printed)}")
    for failure in failures:
        print(f"quick: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not args.quick and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required unless --quick is given")

    executable = build()
    if executable is None:
        return 1
    if args.quick:
        return quick(executable)
    code, lines = run(executable, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if code != 0:
        return code
    return 0 if result_of(lines) is not None else 1


if __name__ == "__main__":
    sys.exit(main())
