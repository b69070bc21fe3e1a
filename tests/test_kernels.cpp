// Pins for the kernel layer (src/kernels/) and the MC kernels: the
// perfbench batch shim must be bit-identical to per-width calls of the
// reference p_F kernel, the backend stamp must read its constants, and a
// full run_flow response must hash to one golden value.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "celllib/generator.h"
#include "cnt/growth.h"
#include "cnt/pf_kernel.h"
#include "device/failure_model.h"
#include "netlist/design_generator.h"
#include "campaign/spec.h"
#include "service/protocol.h"
#include "yield/flow.h"
#include "cnt/pitch_model.h"
#include "cnt/process.h"
#include "geom/interval.h"
#include "kernels/dispatch.h"
#include "kernels/pf_batch.h"
#include "obs/metrics.h"
#include "rng/distributions.h"
#include "rng/engine.h"
#include "exec/mc_policy.h"
#include "yield/monte_carlo.h"

namespace {

using cny::cnt::PitchModel;

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Exact-bits comparison of the perfbench batch shim against one
/// cnt::pf_truncated call per width.
void expect_widths_match_scalar(const PitchModel& pitch,
                                const std::vector<double>& widths, double z,
                                double rel_tol) {
  const auto batch =
      cny::kernels::pf_truncated_batch(pitch, widths, z, rel_tol);
  ASSERT_EQ(batch.size(), widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const auto ref = cny::cnt::pf_truncated(pitch, widths[i], z, rel_tol);
    EXPECT_EQ(bits_of(batch[i].value), bits_of(ref.value))
        << "value width " << i << " w=" << widths[i] << " z=" << z;
    EXPECT_EQ(batch[i].terms, ref.terms)
        << "terms width " << i << " w=" << widths[i] << " z=" << z;
    EXPECT_EQ(bits_of(batch[i].remainder_bound), bits_of(ref.remainder_bound))
        << "remainder width " << i << " w=" << widths[i] << " z=" << z;
  }
}

// The width sets: sub-mean-pitch widths, zero widths mid-list, and a
// spread wide enough to give the widths very different truncation points.
const std::vector<std::vector<double>> kWidthSets = {
    {20.0, 36.0, 52.0, 68.0},                    // close together
    {8.0, 155.0},                                // far apart
    {33.0},                                      // single width
    {1.5, 2.0, 3.9, 40.0, 80.0, 120.0, 500.0},   // sub-pitch + big spread
    {0.0, 25.0, 0.0, 30.0, 35.0, 40.0, 45.0},    // specials interleaved
};

TEST(PfBatch, BitIdenticalToScalarAcrossPitchesWidthsAndZ) {
  // cv = 1 and 1/√2 take the integer-shape ladder; 0.6/0.9/1.2 the
  // non-integer prefactored path (series + continued fraction).
  for (double cv : {0.6, 0.7071067811865476, 0.9, 1.0, 1.2}) {
    const PitchModel pitch(4.0, cv);
    for (const auto& widths : kWidthSets) {
      for (double z : {0.0, 0.2, 0.531, 0.9, 1.0}) {
        expect_widths_match_scalar(pitch, widths, z, 1e-14);
      }
    }
  }
}

TEST(PfBatch, ExtremeTolerancesAndWideWindowFallback) {
  const PitchModel pitch(4.0, 0.9);
  for (double rel_tol : {1e-4, 1e-15}) {
    expect_widths_match_scalar(pitch, {12.0, 47.0, 90.0, 130.0}, 0.7,
                               rel_tol);
  }
  // width/θ ≥ 650 (θ = 4·0.81 = 3.24 → width ≥ 2106) rides the gamma_q
  // fallback.
  expect_widths_match_scalar(pitch, {2200.0, 30.0, 2500.0, 45.0}, 0.5,
                             1e-12);
}

TEST(Dispatch, ReportsConsistentState) {
  // No SIMD backend exists: the benchmark host stamp reads constants.
  EXPECT_FALSE(cny::kernels::simd_compiled());
  EXPECT_STREQ(cny::kernels::backend_name(), "scalar");
}

TEST(McKernels, WindowSweepMatchesPerWindowLowerBound) {
  cny::rng::Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n_points = rng.uniform_index(40);
    std::vector<double> points(n_points);
    for (auto& p : points) p = rng.uniform(0.0, 100.0);
    std::sort(points.begin(), points.end());
    const std::size_t n_windows = 1 + rng.uniform_index(8);
    std::vector<cny::geom::Interval> windows(n_windows);
    for (auto& w : windows) {
      w.lo = rng.uniform(0.0, 95.0);
      w.hi = w.lo + rng.uniform(0.1, 20.0);
    }
    std::sort(windows.begin(), windows.end(),
              [](const auto& a, const auto& b) { return a.lo < b.lo; });
    // Reference: the historical per-window binary search.
    bool expected = false;
    for (const auto& w : windows) {
      const auto it = std::lower_bound(points.begin(), points.end(), w.lo);
      if (!(it != points.end() && *it < w.hi)) {
        expected = true;
        break;
      }
    }
    EXPECT_EQ(cny::yield::any_window_empty_sorted(points, windows), expected)
        << "trial " << trial;
  }
}

TEST(McKernels, FunctionalPositionsMatchesHistoricalFusedLoop) {
  // The MC determinism contract pins the draw order: replay the historical
  // draw sequence by hand and require identical positions AND identical
  // engine state afterwards.
  const PitchModel pitch(4.0, 0.9);
  const auto proc = cny::cnt::fig21_mid();
  const cny::cnt::DirectionalGrowth growth(pitch, proc, 2.0e5);
  const double pf = proc.p_fail();
  cny::rng::Xoshiro256 rng_new(1234);
  cny::rng::Xoshiro256 rng_ref(1234);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<double> got;
    growth.functional_positions(rng_new, 0.0, 300.0, got);
    std::vector<double> expected;
    double y = 0.0 + pitch.sample_equilibrium(rng_ref);
    while (y < 300.0) {
      if (!cny::rng::sample_bernoulli(rng_ref, pf)) expected.push_back(y);
      y += pitch.sample(rng_ref);
    }
    ASSERT_EQ(got.size(), expected.size()) << "rep " << rep;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(bits_of(got[i]), bits_of(expected[i]));
    }
    EXPECT_EQ(rng_new.state(), rng_ref.state()) << "rep " << rep;
  }
}

TEST(McKernels, ChipYieldBitEqualAcrossThreads) {
  // The full MC determinism contract: (seed, n_streams) fixes the result;
  // worker threads don't.
  const PitchModel pitch(4.0, 0.9);
  const auto proc = cny::cnt::fig21_mid();
  const cny::cnt::DirectionalGrowth growth(pitch, proc, 2.0e5);
  cny::yield::ChipSpec spec;
  spec.n_rows = 4;
  spec.row_windows = {{10.0, 14.0}, {2.0, 6.0}, {22.0, 27.0}, {4.0, 9.0}};

  std::vector<cny::yield::ChipMcResult> results;
  for (unsigned threads : {1u, 2u, 8u}) {
    cny::rng::Xoshiro256 rng(2024);
    cny::exec::McPolicy policy;
    policy.n_threads = threads;
    policy.n_streams = 8;
    results.push_back(cny::yield::simulate_chip_yield(
        growth, spec, cny::yield::GrowthStyle::Directional, 400, rng, policy));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(bits_of(results[i].chip_yield), bits_of(results[0].chip_yield))
        << i;
    EXPECT_EQ(bits_of(results[i].p_rf), bits_of(results[0].p_rf)) << i;
    EXPECT_EQ(results[i].rows_simulated, results[0].rows_simulated) << i;
  }
}

TEST(Kernels, RunFlowResponseMatchesGoldenHashOnEveryBackend) {
  // The end-to-end pin: a full run_flow — solver iterations, interpolant
  // build, start-pair queries, conditional MC — must produce the *same
  // bytes* on the wire in every build. A deliberate numerics change
  // re-pins the constant.
  const auto lib = cny::celllib::make_nangate45_like();
  const auto design = cny::netlist::make_openrisc_like(lib);
  cny::yield::FlowParams params;
  params.mc_samples = 400;
  params.seed = 7;
  params.n_threads = 2;
  params.use_interpolant = true;
  params.interpolant_knots = 33;
  const cny::device::FailureModel model(PitchModel(4.0, 0.9),
                                        cny::cnt::fig21_mid());
  const std::string encoded = cny::service::encode_flow_response(
      cny::yield::run_flow(lib, design, model, params));
  EXPECT_EQ(cny::campaign::fnv1a64(encoded), 0xe521164229c83bd3ULL)
      << encoded;
}

// The 65-knot session table's p_F work is a pure function of the knot
// count: one residue evaluation per knot, and no call of the quadrature
// reference, at every thread count.
TEST(Kernels, InterpolantBuildWorkCountIsPinned) {
  const PitchModel pitch(4.0, 0.9);
  constexpr std::size_t kKnots = 65;
  auto& calls = cny::obs::Registry::global().counter("cnt.pgf_calls");
  auto& reference = cny::obs::Registry::global().counter("cnt.pf_scalar_calls");
  for (const unsigned threads : {1u, 4u}) {
    const std::uint64_t calls0 = calls.value();
    const std::uint64_t reference0 = reference.value();
    const cny::device::FailureModel model(pitch, cny::cnt::fig21_mid());
    model.enable_interpolation(4.0, 400.0, kKnots, threads);
    EXPECT_EQ(calls.value() - calls0, kKnots) << "threads=" << threads;
    EXPECT_EQ(reference.value() - reference0, 0u) << "threads=" << threads;
  }
}

}  // namespace
