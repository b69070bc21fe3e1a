#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, print its metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload cold_flow|serve_zipf|campaign_sweep \\
      --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the library sources plus
perfbench_bin) in Release under $CARGO_TARGET_DIR (default .bench_build);
later runs only re-check the build. The program sees only inputs generated
from --seed.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
the separate traced run: spans around the benchmark's calls into each
layer, plus the server's and campaign runner's own spans, are summarised
by the unchanged tools/trace_summary.py into the per-layer metrics.
A per-layer metric of a layer the workload does not exercise reads 0.

Every workload reports the same end-to-end metric names; what each name
measures on each workload is in ALIASES below and in BENCHMARK.json.

Output: a human summary (every metric by name and unit, sent / succeeded /
failed counts, the host and build stamp), then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when the build or run fails or an output check fails.
"""

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# End-to-end metric -> what it measures on each workload.
ALIASES = {
    "cold_flow": {
        "main_ms_p50": "flow_cold_ms: cold run_flow at nproc threads",
        "second_ms_p50": "flow_cold_1t_ms: cold run_flow at 1 thread",
        "tail_ms": "tail of the nproc flows",
        "ok_share": "flows whose outputs check out",
    },
    "serve_zipf": {
        "main_ms_p50": "request on an evicted corner (one session warm-up)",
        "second_ms_p50": "ping_us_p50 / 1000 (lo phases)",
        "tail_ms": "serve_lo_ms_tail",
        "ok_share": "serve_hi_slo_share",
    },
    "campaign_sweep": {
        "main_ms_p50": "one cold 64-point pass; campaign_pts_per_s = 64000 / it",
        "second_ms_p50": "campaign_resume_ms: finished re-run",
        "tail_ms": "tail of the re-runs",
        "ok_share": "passes and re-runs whose outputs check out",
    },
}

# Per-layer metric -> (span name in the trace, trace_summary column, scale).
SPAN_METRICS = {
    "yield.solve_ms.uncorrelated": ("yield.solve.uncorrelated", "p50_us", 1e-3),
    "yield.solve_ms.directional": ("yield.solve.directional", "p50_us", 1e-3),
    "yield.solve_ms.aligned1": ("yield.solve.aligned1", "p50_us", 1e-3),
    "yield.solve_ms.aligned2": ("yield.solve.aligned2", "p50_us", 1e-3),
    "yield.circuit_yield_ms": ("yield.circuit_yield", "p50_us", 1e-3),
    "yield.mc_ms": ("yield.mc", "p50_us", 1e-3),
    "yield.mc_1t_ms": ("yield.mc_1t", "p50_us", 1e-3),
    "cnt.pf_scalar_us": ("cnt.pf_truncated", "p50_us", 1.0),
    "service.queue_wait_us_p50": ("queue_wait", "p50_us", 1.0),
    "service.evaluate_us_p50": ("evaluate", "p50_us", 1.0),
    "service.kernel_batch_us_p50": ("kernel_batch", "p50_us", 1.0),
    "service.serialize_us_p50": ("serialize", "p50_us", 1.0),
    "service.session_warm_ms_p50": ("session_warm", "p50_us", 1e-3),
    "service.wire_decode_us": ("service.wire_decode", "p50_us", 1.0),
    "service.wire_encode_us": ("service.wire_encode", "p50_us", 1.0),
    "service.session_warm_ms": ("service.session_acquire", "p50_us", 1e-3),
    "device.interp_build_ms": ("device.enable_interpolation", "p50_us", 1e-3),
    "yield.flow_warm_ms": ("yield.flow_warm", "p50_us", 1e-3),
    "campaign.store_append_us": ("campaign.store_append", "p50_us", 1.0),
    "campaign.compile_ms": ("campaign.compile", "p50_us", 1e-3),
    "campaign.store_load_ms": ("campaign.store_load", "p50_us", 1e-3),
}
# Spans that make up one replay of run_flow's stages (yield.stage_cover).
STAGE_SPANS = (
    "yield.solve.uncorrelated",
    "yield.mc",
    "yield.solve.directional",
    "yield.solve.aligned1",
    "yield.solve.aligned2",
    "layout.align",
)


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds perfbench_bin; returns its path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_bin",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.flush()
                with open(log_path, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench_bin")


def summarize_trace(trace_path, since_us):
    """Runs tools/trace_summary.py --csv; returns {span: row dict}."""
    cmd = [sys.executable, os.path.join(ROOT, "tools", "trace_summary.py"),
           trace_path, "--csv"]
    if since_us is not None:
        cmd += ["--since", str(since_us)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                         text=True).stdout
    return {row["span"]: row for row in csv.DictReader(io.StringIO(out))}


def layer_metrics(spec, report, trace_path):
    """Every per-layer metric of BENCHMARK.json, 0 where not exercised."""
    aux = report.get("aux", {})
    spans = summarize_trace(trace_path, aux.get("since_us"))
    values = dict((name, m["value"]) for name, m in report["metrics"].items())

    def column(span, col):
        row = spans.get(span)
        return float(row[col]) if row else 0.0

    for name, (span, col, scale) in SPAN_METRICS.items():
        values[name] = column(span, col) * scale
    replays = aux.get("replays", 0)
    if replays:
        values["layout.align_ms"] = (
            column("layout.align", "total_us") / replays * 1e-3)
        stage_ms = sum(column(s, "total_us") for s in STAGE_SPANS)
        values["yield.stage_cover"] = (
            stage_ms / replays * 1e-3 / aux["flow_cold_ms"])
    widths = aux.get("batch_widths", 0)
    if widths:
        values["kernels.pf_batch_us_per_width"] = (
            column("kernels.pf_truncated_batch", "p50_us") / widths)
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in spec["per_layer"]
    }


def e2e_metrics(spec, report):
    metrics = {}
    for m in spec["end_to_end"]:
        got = report["metrics"].get(m["name"])
        if got is None:
            sys.exit(f"perfbench: workload did not report {m['name']}")
        metrics[m["name"]] = {"value": float(got["value"]), "unit": m["unit"]}
    return metrics


def main():
    spec = load_benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(build_root, "perfbench"))

    work_dir = os.path.join(build_root, f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--work-dir", work_dir]
        trace_path = os.path.join(work_dir, "trace.jsonl")
        if args.trace:
            cmd += ["--trace-file", trace_path]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {args.workload} exited {proc.returncode}")
        host_line, report_line = proc.stdout.strip().splitlines()[-2:]
        host = json.loads(host_line)
        report = json.loads(report_line)
        if args.trace:
            metrics = layer_metrics(spec, report, trace_path)
        else:
            metrics = e2e_metrics(spec, report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    aliases = ALIASES[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, m in metrics.items():
        alias = aliases.get(name, "")
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']:<6} {alias}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  sent {attempted}  succeeded {attempted - failed}  "
          f"failed {failed}  failed_share {failed / max(1, attempted):.6g}")
    print(json.dumps({"correct": report["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
