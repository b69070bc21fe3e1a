#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "kernels/dispatch.h"
#include "obs/resource.h"
#include "service/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using cny::service::Json;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.p50 = n % 2 == 1 ? values[n / 2]
                     : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  // Below 21 samples the 11th-largest sits under the median: use the max.
  if (n >= 21) {
    s.tail = values[n - 11];
    s.tail_pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    s.tail = values.back();
  }
  return s;
}

namespace {

std::uint64_t cpu_ms() {
  const cny::obs::ResourceUsage usage = cny::obs::sample_resources();
  return usage.cpu_user_ms + usage.cpu_sys_ms;
}

}  // namespace

CpuMeter::CpuMeter() : cpu_ms_0_(cpu_ms()), wall_0_(Clock::now()) {}

double CpuMeter::utilization(unsigned nproc) const {
  const double wall_ms = ms_since(wall_0_);
  const double used = static_cast<double>(cpu_ms() - cpu_ms_0_);
  return wall_ms <= 0.0 ? 0.0 : used / (wall_ms * static_cast<double>(nproc));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  // JSON has no NaN or infinity; an empty sample set must not crash the
  // report, it fails the run.
  check(std::isfinite(value), name + " is not a finite number");
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::aux(const std::string& name, double value) { aux_[name] = value; }

void Report::op(bool ok) {
  attempted_ += 1;
  if (!ok) failed_ += 1;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  check_failures_ += 1;
  failed_ += 1;
  note("CHECK FAILED: " + what);
}

std::string Report::json() const {
  Json metrics = Json::object();
  for (const auto& [name, entry] : metrics_) {
    Json m = Json::object();
    m.set("value", Json::number(entry.first));
    m.set("unit", Json::string(entry.second));
    metrics.set(name, std::move(m));
  }
  Json aux = Json::object();
  for (const auto& [name, value] : aux_) aux.set(name, Json::number(value));
  Json v = Json::object();
  v.set("correct", Json::boolean(correct()));
  v.set("attempted", Json::number(attempted_));
  v.set("failed", Json::number(failed_));
  v.set("metrics", std::move(metrics));
  v.set("aux", std::move(aux));
  return v.dump();
}

double peak_rss_mb() {
  return static_cast<double>(cny::obs::sample_resources().vm_hwm_kb) / 1024.0;
}

std::string host_stamp_json(unsigned nproc) {
  bool avx2 = false;
  bool avx512f = false;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line);
    for (std::string flag; words >> flag;) {
      avx2 = avx2 || flag == "avx2";
      avx512f = avx512f || flag == "avx512f";
    }
    break;
  }
  Json v = Json::object();
  v.set("nproc", Json::number(std::uint64_t{nproc}));
  v.set("cpu_avx2", Json::boolean(avx2));
  v.set("cpu_avx512f", Json::boolean(avx512f));
  v.set("cny_simd", Json::boolean(cny::kernels::simd_compiled()));
  v.set("kernel_backend", Json::string(cny::kernels::backend_name()));
  v.set("cny_obs", Json::boolean(cny::obs::tracing_compiled()));
  v.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  return v.dump();
}

void note(const std::string& line) { std::cerr << line << std::endl; }

}  // namespace perfbench
