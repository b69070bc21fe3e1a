#!/usr/bin/env python3
"""Diff two Google Benchmark JSON runs (files or directories) and print a
regression report.

Usage:
  tools/bench_compare.py BEFORE.json AFTER.json [--threshold=0.10]
  tools/bench_compare.py BEFORE_DIR AFTER_DIR
  tools/bench_compare.py baseline.json fresh.json --fail-above 300
  tools/bench_compare.py --stamp RUN.json [RUN2.json ...]

When given directories, files with matching names are compared pairwise
(benchmarks present on only one side are listed, not compared).

--stamp writes a "host" block (core count, SIMD-relevant CPU flags, the
CNY_SIMD build setting from the environment) into each named run JSON and
exits; comparisons surface that block so a diff between runs recorded on
different hosts is visible in the report instead of masquerading as a
code change.

Exit status: 1 when --fail-above PCT is given and any benchmark slowed
down by more than PCT percent (a hard regression gate), or when
--fail-on-regress is set and any benchmark exceeds --threshold; 0
otherwise, so the default invocation can run informationally in CI.
"""

import argparse
import json
import os
import sys


def load_benchmarks(path, agg="median"):
    """(name -> real_time ns, name -> memory counters, host block or None).

    A run recorded with --benchmark_repetitions emits one iteration entry
    per repetition under the same name; they are aggregated per `agg` —
    "median" (default), or "min", the classic noise-robust estimator of a
    benchmark's intrinsic cost (every slowdown source is additive), which
    tight gates (--fail-above on a few percent) need so they measure the
    code, not one unlucky scheduling of it. Single-run files behave as
    before under either setting.

    User counters whose name ends in `_kb` (vm_hwm_kb, rss_kb — memory
    figures recorded via state.counters) are collected separately,
    aggregated to the max across repetitions: a high-water mark only
    grows, so max is the honest figure. They are compared
    informationally, never gated — allocation timing is too
    scheduling-dependent for a hard threshold.
    """
    with open(path) as f:
        data = json.load(f)
    samples = {}
    memory = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
        samples.setdefault(b["name"], []).append(b["real_time"] * scale)
        for key, value in b.items():
            if key.endswith("_kb") and isinstance(value, (int, float)):
                counters = memory.setdefault(b["name"], {})
                counters[key] = max(counters.get(key, 0.0), float(value))
    out = {}
    for name, values in samples.items():
        values.sort()
        if agg == "min":
            out[name] = values[0]
        else:
            mid = len(values) // 2
            if len(values) % 2:
                out[name] = values[mid]
            else:
                out[name] = (values[mid - 1] + values[mid]) / 2.0
    return out, memory, data.get("host")


def host_metadata():
    """The recording host, as much of it as the bench numbers depend on:
    core count, the CPU features the kernel backends dispatch on, and the
    CNY_SIMD build setting (exported by the recording script; benchmarks
    cannot see the CMake cache)."""
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    interesting = ("sse4_2", "avx", "avx2", "fma", "avx512f")
    return {
        "cores": os.cpu_count(),
        "cpu_flags": [fl for fl in interesting if fl in flags],
        "cny_simd": os.environ.get("CNY_SIMD", "unknown"),
    }


def format_host(host):
    flags = "+".join(host.get("cpu_flags", [])) or "none"
    return (f"{host.get('cores', '?')} core(s), flags {flags}, "
            f"CNY_SIMD={host.get('cny_simd', 'unknown')}")


def stamp_files(paths):
    meta = host_metadata()
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        data["host"] = meta
        with open(path, "w") as f:
            json.dump(data, f, indent=2)
            f.write("\n")
        print(f"stamped {path}: {format_host(meta)}")


def print_hosts(before_host, after_host):
    if before_host:
        print(f"host before: {format_host(before_host)}")
    if after_host:
        print(f"host after:  {format_host(after_host)}")
    if before_host and after_host and before_host != after_host:
        print("note: the two runs were recorded on different hosts or "
              "build settings; ratios compare more than the code",
              file=sys.stderr)


def fmt_ns(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.3g} {unit}"
    return f"{ns:.3g} ns"


def compare(before, after, threshold):
    """Returns (rows, regression_count, ratios); rows are printable tuples
    and ratios maps benchmark name -> after/before slowdown factor."""
    rows = []
    regressions = 0
    ratios = {}
    for name in sorted(set(before) | set(after)):
        if name not in after:
            rows.append((name, fmt_ns(before[name]), "-", "removed", ""))
            continue
        if name not in before:
            rows.append((name, "-", fmt_ns(after[name]), "new", ""))
            continue
        b, a = before[name], after[name]
        ratio = a / b if b > 0 else float("inf")
        ratios[name] = ratio
        flag = ""
        if ratio > 1.0 + threshold:
            flag = "REGRESSION"
            regressions += 1
        elif ratio < 1.0 - threshold:
            flag = "improved"
        rows.append((name, fmt_ns(b), fmt_ns(a), f"{ratio:.2f}x", flag))
    return rows, regressions, ratios


def print_table(rows):
    headers = ("benchmark", "before", "after", "ratio", "")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(5)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def print_memory(before_mem, after_mem):
    """Informational memory-counter diff (keys ending _kb); no gating."""
    names = sorted(set(before_mem) | set(after_mem))
    rows = []
    for name in names:
        keys = sorted(set(before_mem.get(name, {})) | set(after_mem.get(name, {})))
        for key in keys:
            b = before_mem.get(name, {}).get(key)
            a = after_mem.get(name, {}).get(key)
            ratio = f"{a / b:.2f}x" if b and a else "-"
            rows.append((f"{name} {key}",
                         f"{b:.0f}" if b is not None else "-",
                         f"{a:.0f}" if a is not None else "-",
                         ratio, ""))
    if rows:
        print("memory (kB, max across repetitions; informational):")
        print_table(rows)


def matching_files(before_dir, after_dir):
    before = {f for f in os.listdir(before_dir) if f.endswith(".json")}
    after = {f for f in os.listdir(after_dir) if f.endswith(".json")}
    for only, side in ((before - after, "before"), (after - before, "after")):
        for f in sorted(only):
            print(f"note: {f} present only in {side}/", file=sys.stderr)
    return sorted(before & after)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="+",
                        help="BEFORE and AFTER (files or directories), or "
                             "with --stamp the run JSONs to annotate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative slowdown that counts as a regression")
    parser.add_argument("--fail-on-regress", action="store_true",
                        help="exit 1 when any regression exceeds the threshold")
    parser.add_argument("--fail-above", type=float, default=None,
                        metavar="PCT",
                        help="hard gate: exit 1 when any benchmark slows "
                             "down by more than PCT percent (independent of "
                             "--threshold, which only affects reporting)")
    parser.add_argument("--stamp", action="store_true",
                        help="write host metadata into each named run JSON "
                             "and exit instead of comparing")
    parser.add_argument("--agg", choices=("median", "min"), default="median",
                        help="aggregate across repeated samples of one "
                             "benchmark: median (default) or min (most "
                             "robust to scheduling noise for tight gates)")
    args = parser.parse_args()

    if args.stamp:
        stamp_files(args.paths)
        return 0
    if len(args.paths) != 2:
        parser.error("comparison takes exactly BEFORE and AFTER")
    before_path, after_path = args.paths

    total_regressions = 0
    all_ratios = {}
    if os.path.isdir(before_path) and os.path.isdir(after_path):
        for name in matching_files(before_path, after_path):
            print(f"== {name}")
            before, before_mem, before_host = load_benchmarks(
                os.path.join(before_path, name), args.agg)
            after, after_mem, after_host = load_benchmarks(
                os.path.join(after_path, name), args.agg)
            print_hosts(before_host, after_host)
            rows, regs, ratios = compare(before, after, args.threshold)
            print_table(rows)
            print_memory(before_mem, after_mem)
            print()
            total_regressions += regs
            for bench, ratio in ratios.items():
                all_ratios[f"{name}:{bench}"] = ratio
    else:
        before, before_mem, before_host = load_benchmarks(
            before_path, args.agg)
        after, after_mem, after_host = load_benchmarks(after_path, args.agg)
        print_hosts(before_host, after_host)
        rows, total_regressions, all_ratios = compare(
            before, after, args.threshold)
        print_table(rows)
        print_memory(before_mem, after_mem)

    if total_regressions:
        print(f"\n{total_regressions} regression(s) beyond "
              f"{args.threshold:.0%}", file=sys.stderr)
        if args.fail_on_regress:
            return 1
    if args.fail_above is not None:
        if not all_ratios:
            # A gate that measured nothing must not pass: a renamed
            # benchmark, a changed --benchmark_filter, or a truncated JSON
            # would otherwise defeat the CI gate silently.
            print("\nFAIL: --fail-above given but no benchmark exists on "
                  "both sides; nothing was gated", file=sys.stderr)
            return 1
        limit = 1.0 + args.fail_above / 100.0
        hard = {n: r for n, r in all_ratios.items() if r > limit}
        if hard:
            print(f"\nFAIL: {len(hard)} benchmark(s) slower than "
                  f"--fail-above {args.fail_above:g}%:", file=sys.stderr)
            for n, r in sorted(hard.items(), key=lambda kv: -kv[1]):
                print(f"  {n}: {r:.2f}x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
