// Workload campaign_sweep: a seeded campaign of 64 points (8 yield targets
// x 8 process corners, the corner axis fastest so every chunk interleaves
// corners) on the direct path, with a fresh store file and session cache
// every pass. Each pass is followed by re-runs of the finished campaign
// against its own store. Wire and coalescing are bypassed; session
// warm-ups (the interpolant build on the batched kernel), per-chunk
// grouping and store appends do the work. The re-run takes the store's
// read path where the pass takes its write path.
//
// End-to-end metrics:
//   main_ms_p50   one cold 64-point pass (campaign_pts_per_s = 64000 / it)
//   second_ms_p50 one re-run of the finished campaign (campaign_resume_ms)
//   tail_ms       tail of the re-runs (a pass tail would be the max of ~10
//                 samples, which moved 27 % between runs)
//   ok_share      passes and re-runs whose outputs check out / attempted
//   setup_s       spec generation + compile + opening the store
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "harness.h"
#include "kernels/pf_batch.h"
#include "obs/metrics.h"
#include "service/session_cache.h"
#include "yield/flow.h"

namespace perfbench {

namespace {

using cny::campaign::CampaignSpec;
using cny::campaign::ResultStore;
using cny::obs::Span;

constexpr std::size_t kCorners = 8;
constexpr std::size_t kYields = 8;
constexpr std::size_t kMcSamples = 2000;
constexpr int kResumesPerPass = 10;

CampaignSpec make_spec(std::uint64_t seed) {
  InputRng rng(seed);
  CampaignSpec spec;
  spec.name = "perfbench_sweep";
  spec.base.params.mc_samples = kMcSamples;
  spec.base.params.seed = 1 + rng.next() % 1000000;
  std::ostringstream yields;
  for (std::size_t i = 0; i < kYields; ++i) {
    // Stratified over [0.80, 0.96): the same spread of work every seed.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.5f",
                  0.80 + 0.02 * (static_cast<double>(i) + rng.uniform()));
    yields << (i == 0 ? "" : ",") << buf;
  }
  spec.axes.push_back({"y", "yield", yields.str()});
  // Corner axis last = fastest: p_m from 0.30 to 0.37.
  spec.axes.push_back({"pm", "process.p_metallic", "0.30:0.01:0.37"});
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

struct PassResult {
  double ms = 0.0;
  cny::campaign::CampaignStats stats;
};

/// One cold pass: compile, fresh store, run (fresh session cache inside).
PassResult cold_pass(const CampaignSpec& spec, const std::string& path,
                     std::shared_ptr<cny::obs::TraceSink> trace) {
  std::filesystem::remove(path);
  cny::campaign::RunnerOptions options;
  options.trace_sink = std::move(trace);
  PassResult r;
  const auto t0 = Clock::now();
  const auto points = cny::campaign::compile(spec);
  ResultStore store(path);
  r.stats = cny::campaign::run_campaign(points, store, options);
  r.ms = ms_since(t0);
  return r;
}

/// The finished campaign again, against its own store.
PassResult rerun(const CampaignSpec& spec, const std::string& path) {
  PassResult r;
  const auto t0 = Clock::now();
  const auto points = cny::campaign::compile(spec);
  ResultStore store(path);
  r.stats = cny::campaign::run_campaign(points, store, {});
  r.ms = ms_since(t0);
  return r;
}

bool pass_ok(const PassResult& r) {
  return r.stats.total == kCorners * kYields &&
         r.stats.evaluated == r.stats.total && r.stats.failed == 0;
}

bool rerun_ok(const PassResult& r) {
  return r.stats.evaluated == 0 && r.stats.failed == 0 &&
         r.stats.skipped == r.stats.total;
}

/// One set-up: generate the spec, compile it, open an empty store file.
double timed_setup(const RunConfig& config) {
  const std::string path = config.work_dir + "/setup.jsonl";
  std::filesystem::remove(path);
  const auto t0 = Clock::now();
  const CampaignSpec spec = make_spec(config.seed);
  const auto points = cny::campaign::compile(spec);
  const ResultStore store(path);
  const double s = ms_since(t0) / 1000.0;
  if (points.size() != kCorners * kYields || store.size() != 0) {
    throw std::runtime_error("campaign_sweep: bad set-up");
  }
  return s;
}

void run_e2e(const RunConfig& config, Report& report) {
  const std::string path = config.work_dir + "/sweep.jsonl";
  const CampaignSpec spec = make_spec(config.seed);

  // Every measurement interleaves through the whole run, so each metric
  // samples the same spread of host conditions.
  std::vector<double> setups;
  std::vector<double> passes;
  std::vector<double> reruns;
  std::size_t good = 0;
  std::string reference_bytes;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(config.seconds);
  while (Clock::now() < deadline || passes.size() < 3) {
    for (int i = 0; i < 5; ++i) setups.push_back(timed_setup(config));
    const PassResult pass = cold_pass(spec, path, nullptr);
    const std::string bytes = read_file(path);
    if (reference_bytes.empty()) reference_bytes = bytes;
    const bool ok = pass_ok(pass) && bytes == reference_bytes;
    report.check(pass_ok(pass), "cold pass did not evaluate every point");
    report.check(bytes == reference_bytes,
                 "store bytes differ between passes of the same seed");
    report.op(ok);
    good += ok ? 1 : 0;
    passes.push_back(pass.ms);
    for (int k = 0; k < kResumesPerPass; ++k) {
      const PassResult again = rerun(spec, path);
      const bool same = read_file(path) == reference_bytes;
      report.check(rerun_ok(again), "finished re-run evaluated points");
      report.check(same, "finished re-run changed the store");
      report.op(rerun_ok(again) && same);
      good += rerun_ok(again) && same ? 1 : 0;
      reruns.push_back(again.ms);
    }
  }
  const Summary m = summarize(passes);
  const Summary s = summarize(reruns);
  report.metric("main_ms_p50", m.p50, "ms");
  report.metric("second_ms_p50", s.p50, "ms");
  report.metric("tail_ms", s.tail, "ms");
  report.metric("ok_share",
                static_cast<double>(good) /
                    static_cast<double>(passes.size() + reruns.size()),
                "share");
  report.metric("setup_s", summarize(setups).p50, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  note("campaign_sweep: " + std::to_string(m.n) + " cold passes, " +
       std::to_string(static_cast<double>(kCorners * kYields) * 1000.0 /
                      m.p50) +
       " points/s, slowest pass " + std::to_string(m.tail) + " ms; " +
       std::to_string(s.n) + " re-runs, p50 " + std::to_string(s.p50) +
       " ms, tail (p" + std::to_string(s.tail_pct) + ") " +
       std::to_string(s.tail) + " ms");
}

std::uint64_t global_counter(const char* name) {
  return cny::obs::Registry::global().counter(name).value();
}

void run_traced(const RunConfig& config, Report& report) {
  cny::obs::TraceSink* trace = config.trace.get();
  const std::string path = config.work_dir + "/sweep.jsonl";
  const CampaignSpec spec = make_spec(config.seed);

  // Tracing overhead: cold passes untraced, then with the runner's sink.
  std::vector<double> untraced;
  const CpuMeter cpu;
  for (int i = 0; i < 2; ++i) {
    const PassResult r = cold_pass(spec, path, nullptr);
    report.op(pass_ok(r));
    untraced.push_back(r.ms);
  }
  report.metric("exec.cpu_util", cpu.utilization(config.nproc), "share");
  std::vector<double> traced;
  const std::uint64_t lanes0 = global_counter("kernels.pf_simd_lanes");
  const std::uint64_t widths0 = global_counter("kernels.pf_batch_widths");
  PassResult last;
  for (int i = 0; i < 2; ++i) {
    last = cold_pass(spec, path, config.trace);
    report.op(pass_ok(last));
    traced.push_back(last.ms);
  }
  const double lanes =
      static_cast<double>(global_counter("kernels.pf_simd_lanes") - lanes0);
  const double widths =
      static_cast<double>(global_counter("kernels.pf_batch_widths") - widths0);
  report.metric("kernels.simd_lane_share", widths > 0 ? lanes / widths : 0.0,
                "share");
  report.metric("bench.trace_overhead_share",
                summarize(traced).p50 / summarize(untraced).p50 - 1.0,
                "share");
  report.metric("campaign.sessions_built",
                static_cast<double>(last.stats.sessions_built), "count");
  report.metric("campaign.evaluated", static_cast<double>(last.stats.evaluated),
                "count");

  const auto points = cny::campaign::compile(spec);
  for (int i = 0; i < 20; ++i) {
    Span span(trace, "campaign.compile", "campaign");
    (void)cny::campaign::compile(spec);
  }
  for (int i = 0; i < 20; ++i) {
    Span span(trace, "campaign.store_load", "campaign");
    const ResultStore store(path);
    report.op(store.size() == points.size());
  }
  {
    const ResultStore finished(path);
    const std::string copy = config.work_dir + "/append.jsonl";
    std::filesystem::remove(copy);
    ResultStore fresh(copy);
    for (const auto& record : finished.records()) {
      Span span(trace, "campaign.store_append", "campaign");
      fresh.append(record);
    }
  }

  // Cold session acquires, one per corner, then warm flows on each.
  cny::service::SessionCache cache(kCorners);
  std::vector<std::shared_ptr<const cny::service::Session>> sessions;
  for (std::size_t k = 0; k < kCorners; ++k) {
    Span span(trace, "service.session_acquire", "service");
    sessions.push_back(
        cache.acquire(cny::service::session_key(points[k].request)));
  }
  // The first flow on a session also fills its exact-value memo; time the
  // ones after it, as most campaign points see the session.
  for (std::size_t k = 0; k < kCorners; ++k) {
    const auto& request = points[k].request;
    const auto design = sessions[k]->design(request.design_instances);
    for (int i = 0; i < 3; ++i) {
      Span span(i == 0 ? nullptr : trace, "yield.flow_warm", "yield");
      (void)cny::yield::run_flow(sessions[k]->library(), *design,
                                 sessions[k]->model(), request.params);
    }
  }

  // The interpolant build and the batched kernel on its knots, alone.
  const cny::yield::WminRequest bracket;
  const std::size_t knots = cny::campaign::RunnerOptions{}.interpolant_knots;
  std::vector<double> xs(knots);
  for (std::size_t i = 0; i < knots; ++i) {
    xs[i] = bracket.w_lo *
            std::pow(bracket.w_hi / bracket.w_lo,
                     static_cast<double>(i) / static_cast<double>(knots - 1));
  }
  xs.back() = bracket.w_hi;
  for (std::size_t k = 0; k < 3; ++k) {
    const auto& model = sessions[k]->model();
    const cny::device::FailureModel fresh(model.pitch(), model.process());
    {
      Span span(trace, "device.enable_interpolation", "device");
      fresh.enable_interpolation(bracket.w_lo, bracket.w_hi, knots,
                                 config.nproc);
    }
    Span span(trace, "kernels.pf_truncated_batch", "kernels");
    (void)cny::kernels::pf_truncated_batch(model.pitch(), xs,
                                           model.p_fail_per_cnt());
  }
  report.aux("batch_widths", static_cast<double>(knots));
}

}  // namespace

void run_campaign_sweep(const RunConfig& config, Report& report) {
  if (config.traced()) {
    run_traced(config, report);
  } else {
    run_e2e(config, report);
  }
}

}  // namespace perfbench
