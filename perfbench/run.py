#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload read_100k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke   # every workload, both modes, small graphs
    python3 perfbench/run.py --test    # the benchmark's own unit tests

Run from the repository root. The benchmark is compiled from source on first
use (Release, fault-injection points off) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. Build output goes to stderr, so the last
line of stdout is the run's JSON result. Exits non-zero without a result
when the build fails, and with the program's own exit code otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures once, then (re)builds `target`; returns its path or None."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    for step in steps:
        # stdout of the build tools goes to our stderr: stdout carries results.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(BUILD_DIR, target)


def commit_id():
    """The git commit when run in a clone, else "unknown"."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_bench(binary, args, capture=False):
    command = [binary, "--scratch", os.path.join(BUILD_DIR, "runs"),
               "--commit", commit_id()] + args
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=capture)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S}s: " + " ".join(args))
        return None


def declared():
    """BENCHMARK.json's workload names and {metric: unit} of each mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_declarations(binary):
    """BENCHMARK.json names exactly the workloads and metrics the program has."""
    listed = subprocess.run([binary, "--list"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    program = {kind: [line.split()[1] for line in listed if line.startswith(kind + " ")]
               for kind in ("workload", "end_to_end", "per_layer")}
    workloads, end_to_end, per_layer = declared()
    ok = True
    for kind, names in (("workload", workloads), ("end_to_end", list(end_to_end)),
                        ("per_layer", list(per_layer))):
        if names != program[kind]:
            log(f"BENCHMARK.json {kind} names differ from the program's: "
                f"{sorted(set(names) ^ set(program[kind]))}")
            ok = False
    return ok


def smoke(binary):
    """Every workload, untraced and traced, on small graphs for 1 s each."""
    workloads, end_to_end, per_layer = declared()
    ok = True
    for workload in workloads:
        for trace in ("0", "1"):
            result = run_bench(binary, ["--workload", workload, "--seed", "1",
                                        "--seconds", "1", "--trace", trace, "--smoke"],
                               capture=True)
            verdict = "timeout"
            if result is not None:
                lines = result.stdout.strip().splitlines()
                parsed = json.loads(lines[-1]) if lines else {}
                units = {name: metric["unit"]
                         for name, metric in parsed.get("metrics", {}).items()}
                want = per_layer if trace == "1" else end_to_end
                good = (result.returncode == 0 and parsed.get("correct") is True
                        and units == want)
                verdict = "ok" if good else f"FAILED (exit {result.returncode})"
                if not good:
                    sys.stderr.write(result.stdout + result.stderr)
            ok = ok and verdict == "ok"
            print(f"smoke {workload} trace={trace}: {verdict}", flush=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    binary = build("perfbench")
    if binary is None:
        return 1
    if args.test:
        test_binary = build("perfbench_test")
        if test_binary is None:
            return 1
        tests = subprocess.run([test_binary], cwd=BUILD_DIR, timeout=600)
        return 0 if tests.returncode == 0 and check_declarations(binary) else 1
    if args.smoke:
        return 0 if smoke(binary) and check_declarations(binary) else 1
    if not args.workload:
        parser.error("--workload is required (or --smoke / --test)")
    result = run_bench(binary, ["--workload", args.workload, "--seed", args.seed,
                                "--seconds", args.seconds, "--trace", args.trace])
    return 1 if result is None else result.returncode


if __name__ == "__main__":
    sys.exit(main())
