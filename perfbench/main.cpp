// perfbench_bin — the measuring half of the repository benchmark
// (perfbench/run.py builds it and turns its output into the result line).
//
//   perfbench_bin --workload cold_flow|serve_zipf|campaign_sweep
//                 --seed N --seconds S --work-dir DIR [--trace-file PATH]
//
// Without --trace-file the run measures the workload's end-to-end metrics
// with tracing off. With it, the run is the traced per-layer run: spans
// from the benchmark's own calls into each layer (plus the server's and
// campaign runner's existing spans) land in PATH for tools/trace_summary.py,
// and the report carries the counters the layers expose.
//
// stdout gets exactly two lines: the host/build stamp and the report JSON.
// Progress goes to stderr. Exit codes: 0 measured (check `correct`),
// 2 usage error, 3 refused (not an optimized NDEBUG build), 4 crashed.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "exec/mc_policy.h"
#include "harness.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench_bin: " << why
            << "\nusage: perfbench_bin --workload NAME --seed N --seconds S"
               " --work-dir DIR [--trace-file PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench_bin: refusing to report numbers from a build "
               "without NDEBUG (configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  perfbench::RunConfig config;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else if (flag == "--trace-file") {
        trace_path = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (config.work_dir.empty()) return usage("--work-dir is required");
  if (!(config.seconds >= 1.0)) return usage("--seconds must be >= 1");
  config.nproc = cny::exec::hardware_threads();

  try {
    if (!trace_path.empty()) {
      config.trace = std::make_shared<cny::obs::TraceSink>(trace_path);
    }
    perfbench::Report report;
    if (config.workload == "cold_flow") {
      perfbench::run_cold_flow(config, report);
    } else if (config.workload == "serve_zipf") {
      perfbench::run_serve_zipf(config, report);
    } else if (config.workload == "campaign_sweep") {
      perfbench::run_campaign_sweep(config, report);
    } else {
      return usage("unknown workload '" + config.workload + "'");
    }
    config.trace.reset();  // closes the trace file before run.py reads it
    std::cout << perfbench::host_stamp_json(config.nproc) << "\n"
              << report.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_bin: " << e.what() << "\n";
    return 4;
  }
  return 0;
}
