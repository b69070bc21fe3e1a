#!/usr/bin/env python3
"""Condense Google Benchmark JSON runs into one machine-readable summary.

bench-smoke CI produces raw --benchmark_out JSON per binary; this tool
folds them into a single compact document that trend dashboards (or a
plain `jq`) can consume without knowing Google Benchmark's schema:

  {
    "host": {"cores": ..., "cpu_flags": [...]},
    "benchmarks": {
      "BM_ServeFlow/real_time": {
        "real_time_ns": 123456.0,
        "samples": 3,
        "counters": {"vm_hwm_kb": 181234.0}
      },
      ...
    }
  }

Repetitions of one benchmark are aggregated to the median real_time (and
max of each counter — memory high-water marks only grow, so max is the
honest aggregate). User counters (state.counters[...]) appear as
top-level numeric keys in each benchmark entry and are carried through
verbatim, which is how vm_hwm_kb recorded by bench_flow lands here.

Usage:
  tools/bench_summary.py out.json [more.json ...] --output summary.json
  tools/bench_summary.py build/bench/BENCH_*.json   # prints to stdout
"""

import argparse
import json
import sys

from bench_compare import host_metadata

# Keys that are Google Benchmark bookkeeping, not user counters.
STANDARD_KEYS = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "family_index", "per_family_instance_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "label",
    "error_occurred", "error_message", "big_o", "rms",
}


def collect(paths):
    out = {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for b in data.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            unit = b.get("time_unit", "ns")
            scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
            entry = out.setdefault(
                b["name"], {"real_times": [], "counters": {}})
            entry["real_times"].append(b["real_time"] * scale)
            for key, value in b.items():
                if key in STANDARD_KEYS or not isinstance(
                        value, (int, float)):
                    continue
                entry["counters"].setdefault(key, []).append(float(value))
    return out


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


def summarise(collected):
    benchmarks = {}
    for name, entry in sorted(collected.items()):
        benchmarks[name] = {
            "real_time_ns": median(entry["real_times"]),
            "samples": len(entry["real_times"]),
            "counters": {
                key: max(values)
                for key, values in sorted(entry["counters"].items())
            },
        }
    return {"host": host_metadata(), "benchmarks": benchmarks}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+",
                        help="Google Benchmark --benchmark_out JSON files")
    parser.add_argument("--output", default="-",
                        help="summary destination (default: stdout)")
    args = parser.parse_args()

    collected = collect(args.runs)
    if not collected:
        sys.exit("no iteration entries found in any input "
                 "(wrong files, or aggregate-only runs?)")
    summary = summarise(collected)
    text = json.dumps(summary, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output}: {len(summary['benchmarks'])} "
              "benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
