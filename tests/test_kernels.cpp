// Pins for the kernel-backend layer (src/kernels/): the batched p_F
// evaluator must be *bit-identical* to its scalar reference on every
// backend, and a full run_flow response must hash to one golden value in
// every build (CI runs this suite in the default AVX2 build and in a
// -DCNY_SIMD=OFF build). These tests are the contract that makes the
// backend and batching pure speed matters.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "celllib/generator.h"
#include "cnt/growth.h"
#include "cnt/pf_kernel.h"
#include "cnt/pf_kernel_internal.h"
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
using cny::kernels::pf_truncated_batch;

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The scalar reference for one width: pf_truncated's short-circuits,
/// then the term loop with every node update on pf_nodes_scalar.
cny::cnt::PfKernelResult reference(const PitchModel& pitch, double width,
                                   double z, double rel_tol) {
  if (width == 0.0 || z == 1.0) return {1.0, 0, 0.0};
  return cny::cnt::detail::pf_terms(cny::cnt::detail::pf_setup(pitch, width),
                                    z, rel_tol,
                                    &cny::cnt::detail::pf_nodes_scalar);
}

/// Exact-bits comparison of a batch against the per-width scalar
/// reference.
void expect_batch_matches_scalar(const PitchModel& pitch,
                                 const std::vector<double>& widths, double z,
                                 double rel_tol) {
  const auto batch = pf_truncated_batch(pitch, widths, z, rel_tol);
  ASSERT_EQ(batch.size(), widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const auto ref = reference(pitch, widths[i], z, rel_tol);
    EXPECT_EQ(bits_of(batch[i].value), bits_of(ref.value))
        << "value width " << i << " w=" << widths[i] << " z=" << z
        << " backend=" << cny::kernels::backend_name();
    EXPECT_EQ(batch[i].terms, ref.terms)
        << "terms width " << i << " w=" << widths[i] << " z=" << z;
    EXPECT_EQ(bits_of(batch[i].remainder_bound), bits_of(ref.remainder_bound))
        << "remainder width " << i << " w=" << widths[i] << " z=" << z;
  }
}

// The width sets exercise batch compositions: sizes 1, 2, 4 and 7,
// sub-mean-pitch widths, zero-width specials mid-batch, and a spread wide
// enough to give the widths very different truncation points.
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
        expect_batch_matches_scalar(pitch, widths, z, 1e-14);
      }
    }
  }
}

TEST(PfBatch, ExtremeTolerancesAndWideWindowFallback) {
  const PitchModel pitch(4.0, 0.9);
  for (double rel_tol : {1e-4, 1e-15}) {
    expect_batch_matches_scalar(pitch, {12.0, 47.0, 90.0, 130.0}, 0.7,
                                rel_tol);
  }
  // width/θ ≥ 650 (θ = 4·0.81 = 3.24 → width ≥ 2106) rides the gamma_q
  // fallback, which runs the scalar node update on every backend.
  expect_batch_matches_scalar(pitch, {2200.0, 30.0, 2500.0, 45.0}, 0.5,
                              1e-12);
}

TEST(Dispatch, ReportsConsistentState) {
  // One rule: AVX2 exactly when compiled in AND the CPU reports it.
  bool cpu_avx2 = false;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  cpu_avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
  EXPECT_EQ(cny::kernels::simd_supported(),
            cny::kernels::simd_compiled() && cpu_avx2);
  EXPECT_STREQ(cny::kernels::backend_name(),
               cny::kernels::simd_supported() ? "avx2" : "scalar");
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
  // worker threads don't. CI runs it in both the AVX2 and the scalar build.
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
  // The end-to-end backend pin: a full run_flow — solver iterations,
  // interpolant build, batched bracket queries, conditional MC — must
  // produce the *same bytes* on the wire whichever backend ran the
  // kernels. The AVX2 build and the -DCNY_SIMD=OFF build must both hash to
  // this constant. A drift of a few ulp in one width's p_F can round away
  // before it reaches the response; the per-width test above catches
  // those. A deliberate numerics change re-pins the constant.
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
  EXPECT_EQ(cny::campaign::fnv1a64(encoded), 0xbaeaac221a32c2a2ULL)
      << "backend=" << cny::kernels::backend_name() << "\n"
      << encoded;
}

// Batch accounting must balance: every non-degenerate width in a batch is
// counted exactly once, as an AVX2-pass width or a scalar width — on
// *both* backends (the scalar build books everything scalar). These
// widths are all prefactored, so an AVX2 CPU runs every one on lanes.
TEST(Kernels, LaneOccupancyCountersBalanceOnEveryBackend) {
  auto& registry = cny::obs::Registry::global();
  const PitchModel pitch(4.0, 0.9);
  const std::vector<double> widths{20.0, 36.0, 52.0, 68.0, 84.0,
                                   100.0, 116.0};  // no degenerate entries

  const auto before = registry.snapshot();
  const auto counter = [&before](const char* name) {
    for (const auto& [n, v] : before.counters) {
      if (n == name) return v;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t calls0 = counter("kernels.pf_batch_calls");
  const std::uint64_t widths0 = counter("kernels.pf_batch_widths");
  const std::uint64_t lanes0 = counter("kernels.pf_simd_lanes");
  const std::uint64_t scalar0 = counter("kernels.pf_scalar_widths");

  (void)pf_truncated_batch(pitch, widths, 0.531, 1e-12);

  EXPECT_EQ(registry.counter("kernels.pf_batch_calls").value(), calls0 + 1);
  EXPECT_EQ(registry.counter("kernels.pf_batch_widths").value(),
            widths0 + widths.size());
  const std::uint64_t lanes =
      registry.counter("kernels.pf_simd_lanes").value() - lanes0;
  const std::uint64_t scalar =
      registry.counter("kernels.pf_scalar_widths").value() - scalar0;
  EXPECT_EQ(lanes + scalar, widths.size())
      << "backend=" << cny::kernels::backend_name();
  EXPECT_EQ(lanes, cny::kernels::simd_supported() ? widths.size() : 0u)
      << "backend=" << cny::kernels::backend_name();
}

// The 65-knot session table's kernel work is a pure function of the knot
// count: one single-knot batch call per knot, widest first, at every
// thread count. With AVX2 every knot runs the node-lane pass (all are
// prefactored); a scalar backend books all 65 knots scalar.
TEST(Kernels, InterpolantBuildWorkCountIsPinned) {
  auto& registry = cny::obs::Registry::global();
  const auto value = [&registry](const char* name) {
    return registry.counter(name).value();
  };
  for (const unsigned threads : {1u, 4u}) {
    const std::uint64_t calls0 = value("kernels.pf_batch_calls");
    const std::uint64_t widths0 = value("kernels.pf_batch_widths");
    const std::uint64_t lanes0 = value("kernels.pf_simd_lanes");
    const std::uint64_t scalar0 = value("kernels.pf_scalar_widths");
    const cny::device::FailureModel model(PitchModel(4.0, 0.9),
                                          cny::cnt::fig21_mid());
    model.enable_interpolation(4.0, 400.0, 65, threads);
    EXPECT_EQ(value("kernels.pf_batch_calls") - calls0, 65u) << threads;
    EXPECT_EQ(value("kernels.pf_batch_widths") - widths0, 65u) << threads;
    const bool lanes = cny::kernels::simd_supported();
    EXPECT_EQ(value("kernels.pf_simd_lanes") - lanes0, lanes ? 65u : 0u)
        << "threads=" << threads
        << " backend=" << cny::kernels::backend_name();
    EXPECT_EQ(value("kernels.pf_scalar_widths") - scalar0, lanes ? 0u : 65u)
        << "threads=" << threads
        << " backend=" << cny::kernels::backend_name();
  }
}

}  // namespace
