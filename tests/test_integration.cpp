// End-to-end integration tests: whole pipelines validated against each
// other at inflated failure probabilities (where brute-force simulation is
// statistically meaningful), exercising the same code paths the paper-scale
// experiments use at 1e-9.
#include <gtest/gtest.h>

#include <cmath>

#include "celllib/generator.h"
#include "cnt/growth.h"
#include "device/failure_model.h"
#include "layout/aligned_active.h"
#include "layout/floorplan.h"
#include "netlist/design_generator.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "util/contracts.h"
#include "yield/circuit_yield.h"
#include "yield/empty_window.h"
#include "yield/flow.h"
#include "yield/monte_carlo.h"
#include "yield/row_model.h"
#include "yield/wmin_solver.h"

namespace {

using namespace cny;

// Inflated regime shared by the scenarios: Poisson pitch, worst processing,
// ~30 nm windows -> per-device failure ~3e-2.
constexpr double kWidth = 30.0;
const cnt::PitchModel& pitch() {
  static const cnt::PitchModel p(4.0, 1.0);
  return p;
}
double lambda_s() { return (1.0 - cnt::fig21_worst().p_fail()) / 4.0; }

TEST(Integration, ChipYieldComposesFromRowModel) {
  // simulate_chip_yield on K rows of aligned windows must agree with
  // eq. 3.1's chip_yield_from_rows fed the analytic p_RF.
  const cnt::DirectionalGrowth growth(pitch(), cnt::fig21_worst(), 200.0e3);
  yield::ChipSpec spec;
  spec.row_windows = std::vector<geom::Interval>(10, {0.0, kWidth});
  spec.n_rows = 6;
  rng::Xoshiro256 rng(701);
  const auto sim = yield::simulate_chip_yield(
      growth, spec, yield::GrowthStyle::Directional, 30000, rng);

  const double p_rf = std::exp(-lambda_s() * kWidth);
  yield::RowParams rows;
  rows.l_cnt = 200.0e3;
  rows.fets_per_um = 1.8;
  rows.m_min = static_cast<std::uint64_t>(6.0 * yield::m_r_min(rows));
  const double analytic = yield::chip_yield_from_rows(p_rf, rows);
  EXPECT_NEAR(sim.chip_yield, analytic, 0.015);
}

TEST(Integration, FloorplanWindowsDriveTheChipSimulator) {
  // Place a real (small) design, take one row's windows scaled down to the
  // inflated regime, and check that the chip simulator's directional p_RF
  // matches the analytic union over the same window set.
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::generate_design("d", lib, 3000, {});
  rng::Xoshiro256 rng(702);
  layout::FloorplanParams fp;
  fp.row_width = 30.0e3;
  const auto plan = layout::place_design(design, 103.0, fp, rng);
  const auto placed = plan.row_windows(0);
  ASSERT_GE(placed.size(), 3u);

  // Shrink the windows to the inflated regime but keep the *offsets* the
  // placement produced.
  std::vector<geom::Interval> windows;
  for (std::size_t i = 0; i < std::min<std::size_t>(placed.size(), 12); ++i) {
    windows.push_back({placed[i].y.lo, placed[i].y.lo + kWidth});
  }

  const cnt::DirectionalGrowth growth(pitch(), cnt::fig21_worst(), 200.0e3);
  yield::ChipSpec spec;
  spec.row_windows = windows;
  spec.n_rows = 1;
  const auto sim = yield::simulate_chip_yield(
      growth, spec, yield::GrowthStyle::Directional, 60000, rng);
  const double exact = yield::poisson_union_exact(lambda_s(), windows);
  EXPECT_NEAR(sim.p_rf / exact, 1.0, 0.10)
      << "exact=" << exact << " sim=" << sim.p_rf;
}

TEST(Integration, AlignedLibraryCollapsesPlacementOffsets) {
  // After the aligned-active transform, every critical window a placement
  // produces sits at the same y — the geometric mechanism of Table 1's
  // third column, verified through the placement pipeline.
  const auto lib = celllib::make_nangate45_like();
  layout::AlignOptions options;
  options.w_min = 103.0;
  const auto aligned = layout::align_active(lib, options, 140.0);
  const auto design =
      netlist::generate_design("d", aligned.library, 3000, {});
  rng::Xoshiro256 rng(703);
  layout::FloorplanParams fp;
  fp.row_width = 50.0e3;
  const auto plan = layout::place_design(design, 103.0, fp, rng);
  ASSERT_GT(plan.windows.size(), 20u);
  for (const auto& w : plan.windows) {
    EXPECT_DOUBLE_EQ(w.y.lo, aligned.grid_y_n);
  }
}

TEST(Integration, UpsizedLibrarySpectrumMatchesSpectrumUpsizing) {
  // Upsizing the library's transistors and re-extracting the width spectrum
  // must equal applying the upsizing function to the original spectrum —
  // the two paths the power model and the layout transform take.
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  const double w_min = 137.0;

  celllib::Library up = lib;
  up.upsize_transistors([&](double w) { return std::max(w, w_min); });
  const auto design_up = design.retarget(&up);

  EXPECT_NEAR(design_up.total_width(), design.total_width_upsized(w_min),
              1e-6);
  EXPECT_EQ(design_up.count_transistors_below(w_min - 1.0), 0u);

  // Spectrum-level equivalence of the yield evaluation.
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                   cnt::fig21_worst());
  const auto y_spec =
      yield::circuit_yield(design.width_spectrum(), model, w_min);
  const auto y_lib =
      yield::circuit_yield(design_up.width_spectrum(), model, 0.0);
  EXPECT_NEAR(y_spec.sum_pf, y_lib.sum_pf, 1e-9 * y_spec.sum_pf + 1e-18);
}

TEST(Integration, WminSolutionIsTightOnTheCurve) {
  // The solved W_min must sit exactly on the p_F curve at the target: a
  // 2 nm narrower device misses the yield budget, the solution meets it.
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                   cnt::fig21_worst());
  auto spectrum = design.width_spectrum();
  spectrum = yield::scale_spectrum(spectrum, 1.0,
                                   1e8 / double(design.n_transistors()));
  yield::WminRequest req;
  const auto res = yield::solve_w_min(spectrum, model, req);

  const double target = res.p_f_target;
  EXPECT_NEAR(model.p_f(res.w_min) / target, 1.0, 1e-3);
  EXPECT_GT(model.p_f(res.w_min - 2.0), target);
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// The canonical cold exact flow: Y = 0.90, M = 1e8, interpolant off.
yield::FlowParams cold_exact_params(unsigned n_threads,
                                    std::size_t mc_samples = 20000) {
  yield::FlowParams params;
  params.yield_desired = 0.90;
  params.chip_transistors = 1e8;
  params.mc_samples = mc_samples;
  params.mc_streams = 16;
  params.use_interpolant = false;
  params.n_threads = n_threads;
  return params;
}

TEST(Integration, CanonicalFlowSolvesMakeAtMostSixteenPfQueries) {
  // Deterministic work-count gate: the canonical cold flow (nangate45-like
  // library, OpenRISC-like design, Y = 0.90, M = 1e8) re-solved strategy by
  // strategy on fresh models. Brent's method made 35 queries here.
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  const auto model = [] {
    return device::FailureModel(cnt::PitchModel(4.0, 0.9), cnt::fig21_worst());
  };
  const auto params = cold_exact_params(0);
  const auto flow = yield::run_flow(lib, design, model(), params);
  const auto spectrum = yield::scale_spectrum(
      design.width_spectrum(), 1.0, 1e8 / double(design.n_transistors()));
  int queries = 0;
  for (const auto& strategy : flow.strategies) {
    yield::WminRequest req;
    req.yield_desired = params.yield_desired;
    req.relaxation = strategy.relaxation;
    const auto solved = yield::solve_w_min(spectrum, model(), req);
    EXPECT_EQ(solved.w_min, strategy.w_min);
    queries += solved.p_f_queries;
  }
  EXPECT_LE(queries, 16);
}

TEST(Integration, CanonicalColdFlowMakesAtMostSeventeenExactKernelCalls) {
  // Deterministic work-count gate for the p_F evaluator: the shared start
  // pair (2 queries), the secant queries of the four solves and the
  // directional probe make exactly 17 residue evaluations, and the
  // quadrature reference never runs, at any thread count.
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  for (const unsigned threads : {1u, 4u}) {
    const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                     cnt::fig21_worst());
    const std::uint64_t before = counter_value("cnt.pgf_calls");
    const std::uint64_t reference = counter_value("cnt.pf_scalar_calls");
    (void)yield::run_flow(lib, design, model, cold_exact_params(threads));
    EXPECT_EQ(counter_value("cnt.pgf_calls") - before, 17u)
        << "threads=" << threads;
    EXPECT_EQ(counter_value("cnt.pf_scalar_calls") - reference, 0u)
        << "threads=" << threads;
  }
}

TEST(Integration, FlowBelowEveryDeviceWidthUpsizesNothing) {
  // p_f = 0.001: the uncorrelated W_min (~69.3 nm) is below every device
  // width, so no device is critical. The answer is "no upsizing" — M_min 0
  // and a directional relaxation of 1 — not an error.
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  cnt::ProcessParams process;
  process.p_metallic = 0.001;
  process.p_remove_s = 0.0;
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9), process);
  const auto result =
      yield::run_flow(lib, design, model, cold_exact_params(1));
  EXPECT_EQ(result.m_min_uncorrelated, 0u);
  ASSERT_EQ(result.strategies.size(), 4u);
  EXPECT_EQ(result.strategies[1].relaxation, 1.0);
  EXPECT_EQ(result.strategies[1].w_min, result.strategies[0].w_min);
  EXPECT_NEAR(result.strategies[0].w_min, 69.3, 0.05);
  for (const auto& s : result.strategies) EXPECT_EQ(s.power_penalty, 0.0);
}

TEST(Integration, HighPitchCvFlowReturnsValues) {
  // CV 2: past where the quadrature reference loses its PMF mass.
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  const device::FailureModel model(cnt::PitchModel(4.0, 2.0),
                                   cnt::fig21_worst());
  const auto result =
      yield::run_flow(lib, design, model, cold_exact_params(4));
  ASSERT_EQ(result.strategies.size(), 4u);
  for (const auto& s : result.strategies) {
    EXPECT_GT(s.w_min, 4.0);
    EXPECT_LT(s.w_min, 400.0);
  }
  EXPECT_LT(result.strategies[2].w_min, result.strategies[0].w_min);
}

TEST(Integration, ColdExactFlowResponseBytesIgnoreThreadCount) {
  // With the interpolant off every p_F the response depends on comes from
  // the exact evaluator; the flow's thread budget only schedules the
  // solves and the MC.
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  std::string reference;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                     cnt::fig21_worst());
    const std::string bytes = service::encode_flow_response(
        yield::run_flow(lib, design, model, cold_exact_params(threads, 2000)));
    if (threads == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

TEST(Integration, OneThreadFlowPostsNoPoolTask) {
  // Budget 1 means one thread: no stage fork, MC fork or kernel fork.
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                   cnt::fig21_worst());
  const std::uint64_t before = counter_value("exec.tasks_posted");
  (void)yield::run_flow(lib, design, model, cold_exact_params(1, 2000));
  EXPECT_EQ(counter_value("exec.tasks_posted") - before, 0u);
}

TEST(Integration, EndToEndDeterminism) {
  // The whole library -> design -> W_min -> align pipeline is bitwise
  // reproducible run to run (no hidden global randomness).
  const auto run = [] {
    const auto lib = celllib::make_nangate45_like();
    const auto design = netlist::make_openrisc_like(lib);
    const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                     cnt::fig21_worst());
    auto spectrum = design.width_spectrum();
    spectrum = yield::scale_spectrum(spectrum, 1.0,
                                     1e8 / double(design.n_transistors()));
    yield::WminRequest req;
    const auto solved = yield::solve_w_min(spectrum, model, req);
    layout::AlignOptions options;
    options.w_min = solved.w_min;
    const auto aligned = layout::align_active(lib, options, 140.0);
    return std::make_pair(solved.w_min, aligned.area_increase());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

}  // namespace
