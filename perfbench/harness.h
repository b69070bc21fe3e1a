// Shared plumbing of the repository benchmark: the run configuration, the
// result report every workload fills, wall-clock helpers, order statistics,
// the CPU meter and the host/build stamp.
//
// Every time here is std::chrono::steady_clock wall time. No rate is ever
// derived from CPU time; CPU time only feeds exec.cpu_util, which is
// reported as what it is.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `t0`.
[[nodiscard]] double ms_since(Clock::time_point t0);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Working directory for campaign stores and the trace file.
  std::string work_dir;
  /// Non-null in the traced run: every benchmark span and the server's /
  /// runner's own spans land here.
  std::shared_ptr<cny::obs::TraceSink> trace;
  unsigned nproc = 1;

  [[nodiscard]] bool traced() const { return trace != nullptr; }
};

/// Deterministic input generator: the same seed gives the same inputs on
/// every platform (raw 64-bit draws, no library distributions).
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : engine_(seed) {}
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  /// Exponential inter-arrival gap for a Poisson process of `rate` per s.
  double exponential(double rate) {
    return -std::log1p(-uniform()) / rate;
  }
  std::uint64_t next() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

/// Order statistics of one sample set (milliseconds or any unit).
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  /// The highest order statistic with at least 10 samples above it
  /// (the maximum when there are fewer than 21 samples, where that
  /// statistic would fall below the median).
  double tail = 0.0;
  /// Which percentile `tail` is, e.g. 99.5.
  double tail_pct = 100.0;
};

[[nodiscard]] Summary summarize(std::vector<double> values);

/// CPU seconds of this process per (wall second x nproc) over a window.
class CpuMeter {
 public:
  CpuMeter();
  [[nodiscard]] double utilization(unsigned nproc) const;

 private:
  std::uint64_t cpu_ms_0_ = 0;
  Clock::time_point wall_0_;
};

/// One workload run's outcome: counts, correctness failures, and named
/// metrics with units. `aux` carries denominators run.py needs to turn
/// span totals into per-layer metrics; it is not itself a metric.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void aux(const std::string& name, double value);
  /// One attempted operation; a false `ok` counts it as failed.
  void op(bool ok);
  /// A failed output check (counted in `failed` and printed).
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return check_failures_ == 0; }
  [[nodiscard]] std::string json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t check_failures_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, double> aux_;
};

/// Peak resident set (VmHWM) in MiB, read through obs::sample_resources.
[[nodiscard]] double peak_rss_mb();

/// Host and build facts every result is stamped with: nproc, the AVX2 /
/// AVX-512 CPU flags, CNY_SIMD, CNY_OBS and the build type.
[[nodiscard]] std::string host_stamp_json(unsigned nproc);

/// Human-readable progress line on stderr.
void note(const std::string& line);

// Workload entry points (one translation unit each).
void run_cold_flow(const RunConfig& config, Report& report);
void run_serve_zipf(const RunConfig& config, Report& report);
void run_campaign_sweep(const RunConfig& config, Report& report);

}  // namespace perfbench
