#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a freshly produced benchmark JSON against a committed baseline and
fails (exit 1) when any gated metric regressed by more than the allowed
fraction. Two input shapes are understood:

  - bench_parallel_query / bench_cold_start / bench_updates /
    bench_seed_extraction / bench_serve style: a single JSON object; the
    gated metrics are every "queries_per_s" / "updates_per_s" /
    "extractions_per_s" / "ops_per_s" / "achieved_qps" value (higher is
    better) and every "p99_ms" / "p999_ms" value (lower is better) found
    recursively, keyed by the path to it (e.g.
    runs[threads=8].queries_per_s, overall.p99_ms).
  - google-benchmark --benchmark_format=json: gated metrics are each
    benchmark's "queries_per_s" counter keyed by the benchmark name.

Usage:
  check_bench_regression.py --current=NEW.json --baseline=OLD.json
      [--tolerance=0.25]            # max allowed fractional regression
      [--require=PATH:MIN] ...      # absolute floor on a metric, e.g.
                                    #   --require='runs[threads=8].speedup:2.0'
      [--limit=PATH:MAX] ...        # absolute ceiling on a metric, e.g.
                                    #   --limit='overall.p99_ms:250'
Baselines are refreshed by committing a newly generated JSON over the old
one. The gated-metric key sets of the two files must match exactly: a metric
present in the baseline but missing from the current run (or vice versa)
fails the gate with a message naming the drifted keys, because a silently
skipped metric is an ungated metric. Adding or removing benchmark output
therefore requires regenerating the baseline in the same change.
Tail-latency metrics whose enclosing object reports fewer than
MIN_TAIL_SAMPLES samples ("count") are excluded from the relative
comparison — a p99 over a couple dozen samples is one outlier wide — but
remain visible to --require / --limit.

When $GITHUB_STEP_SUMMARY is set (GitHub Actions), a markdown comparison
table is appended to it so the numbers show up on the workflow run page.
"""

import argparse
import json
import os
import sys

# Metrics where bigger numbers are better; a drop beyond tolerance fails.
HIGHER_BETTER = ("queries_per_s", "updates_per_s", "extractions_per_s",
                 "ops_per_s", "achieved_qps", "speedup", "hit_rate",
                 "compression_ratio")
# Metrics where smaller numbers are better; a rise beyond tolerance fails.
LOWER_BETTER = ("p99_ms", "p999_ms", "query_p50_ms")
# A tail percentile over fewer samples than this is dominated by one or two
# outliers; such metrics are excluded from the baseline comparison (but stay
# available to --require / --limit, which encode absolute intent).
MIN_TAIL_SAMPLES = 100


def collect_metrics(node, prefix, out, unstable):
    """Recursively collects gated metrics from a plain benchmark JSON."""
    if isinstance(node, dict):
        count = node.get("count")
        small = isinstance(count, (int, float)) and count < MIN_TAIL_SAMPLES
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if key in HIGHER_BETTER + LOWER_BETTER and \
                    isinstance(value, (int, float)):
                out[path] = float(value)
                if small and key in LOWER_BETTER:
                    unstable.add(path)
            else:
                collect_metrics(value, path, out, unstable)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            label = f"{prefix}[{i}]"
            if isinstance(value, dict) and "threads" in value:
                label = f"{prefix}[threads={value['threads']}]"
            collect_metrics(value, label, out, unstable)


def collect_google_benchmark(doc, out):
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "?")
        if "queries_per_s" in bench:
            out[name + ".queries_per_s"] = float(bench["queries_per_s"])


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = {}
    unstable = set()
    if isinstance(doc, dict) and "benchmarks" in doc and "context" in doc:
        collect_google_benchmark(doc, metrics)
    else:
        collect_metrics(doc, "", metrics, unstable)
    return metrics, unstable


def is_lower_better(path):
    return any(path == key or path.endswith("." + key) for key in LOWER_BETTER)


def is_speedup(path):
    # Machine-relative ratios are gated by --require floors, not compared
    # against the baseline's machine.
    return path == "speedup" or path.endswith(".speedup")


def write_step_summary(rows):
    """Appends a markdown comparison table to $GITHUB_STEP_SUMMARY, if set."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path or not rows:
        return
    with open(summary_path, "a") as f:
        f.write("### Benchmark gate\n\n")
        f.write("| metric | baseline | current | change | status |\n")
        f.write("|---|---:|---:|---:|---|\n")
        for metric, base, cur, change, status in rows:
            f.write(f"| `{metric}` | {base} | {cur} | {change} | {status} |\n")
        f.write("\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--current", required=True)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument("--require", action="append", default=[],
                        help="PATH:MIN absolute floor, checked on --current")
    parser.add_argument("--limit", action="append", default=[],
                        help="PATH:MAX absolute ceiling, checked on --current")
    args = parser.parse_args()

    current, current_unstable = load_metrics(args.current)
    baseline, baseline_unstable = load_metrics(args.baseline)

    failures = []
    summary_rows = []

    # Key drift is fatal in both directions: a baseline metric the current
    # run no longer emits is an ungated regression vector, and a new current
    # metric with no baseline is ungated until the baseline is regenerated.
    missing = sorted(p for p in baseline if p not in current
                     and not is_speedup(p))
    extra = sorted(p for p in current if p not in baseline
                   and not is_speedup(p))
    for path in missing:
        failures.append(
            f"baseline metric {path} missing from current run — if the "
            f"benchmark output changed intentionally, regenerate and commit "
            f"the baseline JSON")
        summary_rows.append((path, f"{baseline[path]:.2f}", "—", "—",
                             "MISSING"))
    for path in extra:
        failures.append(
            f"current metric {path} has no baseline entry — regenerate and "
            f"commit the baseline JSON to gate it")
        summary_rows.append((path, "—", f"{current[path]:.2f}", "—",
                             "NO BASELINE"))

    compared = 0
    for path, base_value in sorted(baseline.items()):
        if is_speedup(path):
            continue  # speedups are gated via --require, not vs baseline
        if path not in current:
            continue  # already reported above as fatal
        if path in current_unstable or path in baseline_unstable:
            print(f"note: {path} has < {MIN_TAIL_SAMPLES} samples (skipped)")
            continue
        cur_value = current[path]
        compared += 1
        if base_value <= 0:
            continue
        change = (cur_value - base_value) / base_value
        status = "ok"
        if is_lower_better(path):
            # Latency-style metric: regression is the value going *up*.
            if change > args.tolerance:
                status = "REGRESSION"
                failures.append(
                    f"{path}: {base_value:.2f} -> {cur_value:.2f} "
                    f"({change * 100:+.1f}% > +{args.tolerance * 100:.0f}%)")
        elif change < -args.tolerance:
            status = "REGRESSION"
            failures.append(
                f"{path}: {base_value:.2f} -> {cur_value:.2f} "
                f"({change * 100:+.1f}% < -{args.tolerance * 100:.0f}%)")
        print(f"{status:>10}  {path}: {base_value:.2f} -> {cur_value:.2f} "
              f"({change * 100:+.1f}%)")
        summary_rows.append((path, f"{base_value:.2f}", f"{cur_value:.2f}",
                             f"{change * 100:+.1f}%", status))

    for requirement in args.require:
        path, _, minimum = requirement.rpartition(":")
        minimum = float(minimum)
        if path not in current:
            failures.append(f"required metric {path} missing from current run")
            continue
        value = current[path]
        ok = value >= minimum
        print(f"{'ok' if ok else 'BELOW FLOOR':>10}  {path}: {value:.2f} "
              f"(floor {minimum:.2f})")
        summary_rows.append((path, f"floor {minimum:.2f}", f"{value:.2f}",
                             "—", "ok" if ok else "BELOW FLOOR"))
        if not ok:
            failures.append(f"{path}: {value:.2f} below required {minimum:.2f}")

    for limit in args.limit:
        path, _, maximum = limit.rpartition(":")
        maximum = float(maximum)
        if path not in current:
            failures.append(f"limited metric {path} missing from current run")
            continue
        value = current[path]
        ok = value <= maximum
        print(f"{'ok' if ok else 'OVER LIMIT':>10}  {path}: {value:.2f} "
              f"(limit {maximum:.2f})")
        summary_rows.append((path, f"limit {maximum:.2f}", f"{value:.2f}",
                             "—", "ok" if ok else "OVER LIMIT"))
        if not ok:
            failures.append(f"{path}: {value:.2f} above limit {maximum:.2f}")

    write_step_summary(summary_rows)
    if compared == 0 and not args.require and not args.limit:
        print("error: no shared metrics between current and baseline")
        return 1
    if failures:
        print("\nbenchmark gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nbenchmark gate passed ({compared} metrics compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
