// Workload cold_flow: one caller in a closed loop runs the paper's canonical
// exact flow (nangate45-like library, OpenRISC-like design, Y = 0.90,
// M = 1e8, 20 000 MC samples, 16 streams, interpolant off), each time on a
// fresh FailureModel: first at nproc threads, then at 1 thread.
//
// Service, session cache, interpolant and batched-lane serving do no work
// here, so serving-side changes must leave this workload unchanged.
//
// End-to-end metrics:
//   main_ms_p50   one cold run_flow at nproc threads  (flow_cold_ms)
//   second_ms_p50 the same at 1 thread                (flow_cold_1t_ms)
//   tail_ms       tail of the nproc flows
//   ok_share      flows whose results check out / flows run
//   setup_s       library + design + spectrum generation
//
// The traced run replays run_flow's stages in its order on a fresh model
// through public calls, with a span around each.
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "celllib/generator.h"
#include "cnt/pf_kernel.h"
#include "experiments/paper_params.h"
#include "harness.h"
#include "layout/aligned_active.h"
#include "layout/row_placement.h"
#include "netlist/design_generator.h"
#include "service/protocol.h"
#include "yield/empty_window.h"
#include "yield/flow.h"
#include "yield/row_model.h"

namespace perfbench {

namespace {

using cny::obs::Span;

// Reference W_min (nm) of the canonical flow, in strategy order. The three
// deterministic strategies are seed-independent; DirectionalOnly moves with
// the MC seed, so it gets the MC tolerance.
constexpr double kRefWmin[4] = {158.919452, 128.367666, 99.650381,
                                105.248942};
/// Uncorrelated / aligned W_min tolerance: admits an announced numerics
/// change (e.g. another root finder) that stays within it.
constexpr double kExactTolNm = 1e-3;
/// DirectionalOnly tolerance: covers the 20 000-sample MC spread across
/// seeds (~0.1 nm) with a wide margin.
constexpr double kDirectionalTolNm = 1.0;

constexpr double kChipTransistors = 1e8;

/// The flow's inputs: library, design and the design's width spectrum
/// count-scaled to the chip, as run_flow scales it.
struct Inputs {
  cny::celllib::Library lib;
  cny::netlist::Design design;
  cny::yield::WidthSpectrum spectrum;

  Inputs()
      : lib(cny::celllib::make_nangate45_like()),
        design(cny::netlist::make_openrisc_like(lib)),
        spectrum(cny::yield::scale_spectrum(
            design.width_spectrum(), 1.0,
            kChipTransistors / static_cast<double>(design.n_transistors()))) {}
};

cny::yield::FlowParams canonical_params(std::uint64_t seed) {
  cny::yield::FlowParams p;
  p.yield_desired = 0.90;
  p.chip_transistors = kChipTransistors;
  p.mc_samples = 20000;
  p.mc_streams = 16;
  p.use_interpolant = false;
  p.seed = seed;
  return p;
}

bool wmin_matches_reference(const cny::yield::FlowResult& r,
                            std::string& why) {
  for (std::size_t i = 0; i < 4; ++i) {
    const double tol = i == 1 ? kDirectionalTolNm : kExactTolNm;
    const double got = r.strategies.at(i).w_min;
    if (!(std::fabs(got - kRefWmin[i]) <= tol)) {
      why = std::string(cny::yield::to_string(r.strategies[i].strategy)) +
            " W_min " + std::to_string(got) + " nm vs reference " +
            std::to_string(kRefWmin[i]) + " nm";
      return false;
    }
  }
  return true;
}

/// One cold run_flow; returns its wall time in ms.
double timed_flow(const Inputs& in, cny::yield::FlowParams params,
                  unsigned threads, cny::yield::FlowResult& out,
                  cny::obs::TraceSink* trace) {
  const cny::experiments::PaperParams paper;
  const auto model = paper.failure_model();
  params.n_threads = threads;
  Span span(trace, "bench.flow", "bench");
  const auto t0 = Clock::now();
  out = cny::yield::run_flow(in.lib, in.design, model, params);
  return ms_since(t0);
}

/// One set-up: library, design and chip-scaled spectrum; returns seconds.
double timed_setup() {
  const auto t0 = Clock::now();
  const Inputs in;
  const double s = ms_since(t0) / 1000.0;
  if (in.spectrum.empty()) throw std::runtime_error("cold_flow: no spectrum");
  return s;
}

void run_e2e(const RunConfig& config, Report& report) {
  const Inputs in;
  const auto params = canonical_params(config.seed);

  // Warm-up, untimed: thread-pool start and first-touch page faults are
  // paid once per process, not per flow.
  {
    cny::yield::FlowResult discard;
    (void)timed_flow(in, params, config.nproc, discard, nullptr);
  }

  // Every measurement interleaves through the whole run, so each metric
  // samples the same spread of host conditions.
  std::vector<double> setups;
  std::vector<double> main_ms;
  std::vector<double> second_ms;
  std::size_t good = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(config.seconds);
  while (Clock::now() < deadline || main_ms.size() < 3) {
    for (int i = 0; i < 4; ++i) setups.push_back(timed_setup());
    cny::yield::FlowResult wide;
    cny::yield::FlowResult serial;
    main_ms.push_back(timed_flow(in, params, config.nproc, wide, nullptr));
    second_ms.push_back(timed_flow(in, params, 1, serial, nullptr));
    std::string why;
    const bool same = cny::service::to_json(wide).dump() ==
                      cny::service::to_json(serial).dump();
    report.check(same, "cold flow differs between nproc and 1 thread");
    const bool ref = wmin_matches_reference(wide, why);
    report.check(ref, why);
    report.op(same && ref);
    report.op(same && ref);
    good += (same && ref) ? 2 : 0;
  }
  const Summary m = summarize(main_ms);
  const Summary s = summarize(second_ms);
  report.metric("main_ms_p50", m.p50, "ms");
  report.metric("second_ms_p50", s.p50, "ms");
  report.metric("tail_ms", m.tail, "ms");
  report.metric("ok_share",
                static_cast<double>(good) /
                    static_cast<double>(main_ms.size() + second_ms.size()),
                "share");
  report.metric("setup_s", summarize(setups).p50, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  note("cold_flow: " + std::to_string(m.n) +
       " flows per thread count; nproc tail (p" + std::to_string(m.tail_pct) +
       ") " + std::to_string(m.tail) + " ms; 1-thread tail (p" +
       std::to_string(s.tail_pct) + ") " + std::to_string(s.tail) + " ms");
}

/// The critical-region windows of run_flow's directional probe at `w`.
std::vector<cny::geom::Interval> directional_windows(
    const cny::netlist::Design& design, double w) {
  std::vector<cny::geom::Interval> windows;
  for (const auto& o : cny::layout::window_offsets(design, w)) {
    windows.push_back({o.y, o.y + w});
  }
  return windows;
}

/// run_flow's stages, in its order, on a fresh model, one span each.
/// Returns the four W_min so the caller can check the replay against a
/// real run_flow.
std::vector<double> replay_stages(const Inputs& in,
                                  const cny::yield::FlowParams& params,
                                  unsigned threads, cny::obs::TraceSink* trace,
                                  double& wmin_rounds) {
  using namespace cny;
  const experiments::PaperParams paper;
  const auto model = paper.failure_model();
  const auto solve = [&](double relaxation, const char* span_name) {
    Span span(trace, span_name, "yield");
    yield::WminRequest req;
    req.yield_desired = params.yield_desired;
    req.relaxation = relaxation;
    const auto solved = yield::solve_w_min(in.spectrum, model, req);
    wmin_rounds += solved.iterations;
    return solved;
  };
  const auto align = [&](double w_min, int rows) {
    Span span(trace, "layout.align", "layout");
    layout::AlignOptions options;
    options.w_min = w_min;
    options.rows_per_polarity = rows;
    return layout::align_active(in.lib, options, params.active_spacing);
  };
  yield::RowParams rows;
  rows.l_cnt = params.l_cnt;
  rows.fets_per_um = params.fets_per_um;
  rows.m_min = 1;
  const double mrmin = yield::m_r_min(rows);

  const auto base = solve(1.0, "yield.solve.uncorrelated");
  // Directional probe: the same windows, seed derivation and MC call
  // run_flow's directional_relaxation makes.
  const auto windows = directional_windows(in.design, base.w_min);
  const double p_f = model.p_f(base.w_min);
  const double lambda_s = -std::log(p_f) / base.w_min;
  double p_rf = 0.0;
  {
    Span span(trace, "yield.mc", "yield");
    rng::Xoshiro256 mc_rng(rng::derive_seed(params.seed, 0xF10));
    p_rf = yield::union_conditional_mc(lambda_s, windows, params.mc_samples,
                                       mc_rng, {threads, params.mc_streams})
               .estimate;
  }
  const double dir_relax = yield::relaxation_factor(p_rf, p_f, rows);
  const auto dir = solve(dir_relax, "yield.solve.directional");
  const auto one = solve(mrmin, "yield.solve.aligned1");
  (void)align(one.w_min, 1);
  const auto two = solve(mrmin / 2.0, "yield.solve.aligned2");
  (void)align(two.w_min, 2);
  return {base.w_min, dir.w_min, one.w_min, two.w_min};
}

void run_traced(const RunConfig& config, Report& report) {
  cny::obs::TraceSink* trace = config.trace.get();
  const Inputs in;
  const auto params = canonical_params(config.seed);
  const int flows = std::max(3, static_cast<int>(config.seconds * 0.25 / 0.45));

  // Tracing overhead: the same cold flows, untraced then traced, after an
  // untimed warm-up flow.
  std::vector<double> untraced;
  std::vector<double> traced;
  cny::yield::FlowResult reference;
  (void)timed_flow(in, params, config.nproc, reference, nullptr);
  const CpuMeter cpu;
  for (int i = 0; i < flows; ++i) {
    untraced.push_back(timed_flow(in, params, config.nproc, reference, nullptr));
  }
  report.metric("exec.cpu_util", cpu.utilization(config.nproc), "share");
  for (int i = 0; i < flows; ++i) {
    cny::yield::FlowResult r;
    traced.push_back(timed_flow(in, params, config.nproc, r, trace));
    report.op(true);
  }
  const double base_ms = summarize(untraced).p50;
  report.metric("bench.trace_overhead_share",
                summarize(traced).p50 / base_ms - 1.0, "share");
  report.aux("flow_cold_ms", base_ms);

  // Stage replays, checked against the real run_flow's W_min.
  const int replays = 4;
  double rounds = 0.0;
  for (int i = 0; i < replays; ++i) {
    const auto w = replay_stages(in, params, config.nproc, trace, rounds);
    bool same = true;
    for (std::size_t k = 0; k < 4; ++k) {
      same = same && w[k] == reference.strategies[k].w_min;
    }
    report.check(same, "stage replay W_min differs from run_flow");
    report.op(same);
  }
  report.metric("yield.wmin_rounds", rounds / replays, "count");
  report.aux("replays", replays);

  // The unread verification: circuit_yield at the four W_min, in flow
  // order, on a fresh model (the exact evaluations the flow pays for it).
  const cny::experiments::PaperParams paper;
  for (int i = 0; i < replays; ++i) {
    const auto model = paper.failure_model();
    Span span(trace, "yield.circuit_yield", "yield");
    for (const auto& s : reference.strategies) {
      (void)cny::yield::circuit_yield(in.spectrum, model, s.w_min);
    }
  }

  // The directional MC at 1 thread (same seed, same streams).
  {
    const auto model = paper.failure_model();
    const double w = reference.strategies[0].w_min;
    const auto windows = directional_windows(in.design, w);
    const double lambda_s = -std::log(model.p_f(w)) / w;
    for (int i = 0; i < replays; ++i) {
      Span span(trace, "yield.mc_1t", "yield");
      cny::rng::Xoshiro256 mc_rng(cny::rng::derive_seed(params.seed, 0xF10));
      (void)cny::yield::union_conditional_mc(lambda_s, windows,
                                             params.mc_samples, mc_rng,
                                             {1, params.mc_streams});
    }
  }

  // The scalar p_F kernel over a fixed ladder around the W_min range.
  const auto pitch = paper.pitch();
  const double z = paper.process().p_fail();
  for (double w = 90.0; w <= 170.0; w += 10.0) {
    Span span(trace, "cnt.pf_truncated", "cnt");
    (void)cny::cnt::pf_truncated(pitch, w, z);
  }
}

}  // namespace

void run_cold_flow(const RunConfig& config, Report& report) {
  if (config.traced()) {
    run_traced(config, report);
  } else {
    run_e2e(config, report);
  }
}

}  // namespace perfbench
