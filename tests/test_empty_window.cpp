#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "celllib/generator.h"
#include "exec/parallel_mc.h"
#include "layout/row_placement.h"
#include "netlist/design_generator.h"
#include "rng/distributions.h"
#include "yield/empty_window.h"
#include "util/contracts.h"

namespace {

using namespace cny::yield;
using cny::geom::Interval;

std::vector<Interval> equal_windows(const std::vector<double>& offsets,
                                    double w) {
  std::vector<Interval> out;
  for (double y : offsets) out.push_back({y, y + w});
  return out;
}

// ---------------------------------------------------- exact inclusion-excl

TEST(PoissonUnionExact, SingleWindowClosedForm) {
  const double lambda = 0.1, w = 30.0;
  EXPECT_NEAR(poisson_union_exact(lambda, equal_windows({0.0}, w)),
              std::exp(-lambda * w), 1e-15);
}

TEST(PoissonUnionExact, DuplicatesCollapse) {
  const double lambda = 0.1, w = 30.0;
  const auto many = equal_windows(std::vector<double>(50, 5.0), w);
  EXPECT_NEAR(poisson_union_exact(lambda, many), std::exp(-lambda * w),
              1e-15);
}

TEST(PoissonUnionExact, DisjointWindowsAreIndependent) {
  // P(∪) = 1 - Π(1 - p_i) for disjoint windows.
  const double lambda = 0.15, w = 20.0;
  const auto windows = equal_windows({0.0, 100.0, 200.0}, w);
  const double p1 = std::exp(-lambda * w);
  EXPECT_NEAR(poisson_union_exact(lambda, windows),
              1.0 - std::pow(1.0 - p1, 3.0), 1e-12);
}

TEST(PoissonUnionExact, TwoOverlappingWindowsByHand) {
  // Windows [0,W) and [d, d+W) with overlap W-d:
  // P(E1 ∪ E2) = 2 e^{-λW} - e^{-λ(W+d)}.
  const double lambda = 0.2, w = 10.0, d = 4.0;
  const auto windows = equal_windows({0.0, d}, w);
  const double expect = 2.0 * std::exp(-lambda * w) -
                        std::exp(-lambda * (w + d));
  EXPECT_NEAR(poisson_union_exact(lambda, windows), expect, 1e-14);
}

TEST(PoissonUnionExact, BoundedByUnionBoundAndMax) {
  const double lambda = 0.12, w = 25.0;
  const auto windows = equal_windows({0.0, 5.0, 11.0, 40.0, 90.0}, w);
  const double p = poisson_union_exact(lambda, windows);
  const double single = std::exp(-lambda * w);
  EXPECT_GE(p, single);                       // max of events
  EXPECT_LE(p, 5.0 * single + 1e-15);         // union bound
}

TEST(PoissonUnionExact, MoreSpreadMeansHigherUnion) {
  // Spreading offsets reduces overlap → more "independent chances to fail".
  const double lambda = 0.12, w = 25.0;
  const double tight = poisson_union_exact(
      lambda, equal_windows({0.0, 2.0, 4.0}, w));
  const double spread = poisson_union_exact(
      lambda, equal_windows({0.0, 12.0, 24.0}, w));
  EXPECT_LT(tight, spread);
}

TEST(PoissonUnionExact, RejectsTooManyDistinct) {
  std::vector<double> offsets;
  for (int i = 0; i < 30; ++i) offsets.push_back(i * 3.0);
  EXPECT_THROW(poisson_union_exact(0.1, equal_windows(offsets, 20.0), 24),
               cny::ContractViolation);
}

// ------------------------------------------------------- conditional MC

TEST(UnionConditionalMc, MatchesExactOnOverlappingSet) {
  const double lambda = 0.117;  // the paper's λ_s scale (per nm)
  const double w = 145.0;
  const auto windows = equal_windows({0.0, 20.0, 47.0, 60.0, 95.0}, w);
  const double exact = poisson_union_exact(lambda, windows);
  cny::rng::Xoshiro256 rng(101);
  const auto mc = union_conditional_mc(lambda, windows, 40000, rng);
  EXPECT_NEAR(mc.estimate / exact, 1.0, 0.03)
      << "exact=" << exact << " mc=" << mc.estimate;
  // The error estimate itself must be in the right ballpark.
  EXPECT_LT(std::fabs(mc.estimate - exact), 6.0 * mc.std_error);
}

TEST(UnionConditionalMc, EfficientAtRareProbabilities) {
  // p_RF ~ 1e-7 — hopeless for direct MC, routine for the conditional
  // estimator: relative error under a few percent with 20k samples.
  const double lambda = 0.117, w = 145.0;
  const auto windows = equal_windows({0.0, 15.0, 33.0, 52.0, 78.0, 130.0}, w);
  const double exact = poisson_union_exact(lambda, windows);
  EXPECT_LT(exact, 1e-5);
  cny::rng::Xoshiro256 rng(102);
  const auto mc = union_conditional_mc(lambda, windows, 20000, rng);
  EXPECT_NEAR(mc.estimate / exact, 1.0, 0.05);
}

TEST(UnionConditionalMc, IdenticalWindowsGiveExactAnswer) {
  // All windows equal → C = n always → zero-variance estimator.
  const double lambda = 0.1, w = 50.0;
  const auto windows = equal_windows({5.0, 5.0, 5.0}, w);
  cny::rng::Xoshiro256 rng(103);
  const auto mc = union_conditional_mc(lambda, windows, 500, rng);
  EXPECT_NEAR(mc.estimate, std::exp(-lambda * w), 1e-12);
  EXPECT_NEAR(mc.std_error, 0.0, 1e-15);
}

TEST(UnionConditionalMc, SeedReproducible) {
  const double lambda = 0.1, w = 40.0;
  const auto windows = equal_windows({0.0, 10.0, 25.0}, w);
  cny::rng::Xoshiro256 a(7), b(7);
  const auto r1 = union_conditional_mc(lambda, windows, 2000, a);
  const auto r2 = union_conditional_mc(lambda, windows, 2000, b);
  EXPECT_DOUBLE_EQ(r1.estimate, r2.estimate);
}

// ------------------------------------- conditional MC vs the sort oracle
// The sampler counts empty windows on fixed cells instead of sorting the
// points. The reference below is the sort + lower_bound kernel it
// replaced: the same draws in the same order, so every result bit must
// agree, at any stream and thread count.

UnionMcResult sort_reference_mc(double lambda_s,
                                const std::vector<Interval>& windows,
                                std::size_t n_samples,
                                cny::rng::Xoshiro256& rng,
                                const cny::exec::McPolicy& policy) {
  std::vector<double> p_empty;
  double sum_p = 0.0;
  for (const auto& w : windows) {
    p_empty.push_back(std::exp(-lambda_s * w.length()));
    sum_p += p_empty.back();
  }
  const cny::rng::DiscreteSampler pick(p_empty);
  cny::geom::IntervalSet all;
  for (const auto& w : windows) all.add(w);

  const auto kernel = [&](unsigned, std::uint64_t shard_samples,
                          cny::rng::Xoshiro256& shard_rng) {
    cny::stats::Accumulator acc;
    std::vector<double> points;
    for (std::uint64_t s = 0; s < shard_samples; ++s) {
      const auto& forced = windows[pick(shard_rng)];
      points.clear();
      for (const auto& comp : all.components()) {
        const Interval pieces[2] = {{comp.lo, std::min(comp.hi, forced.lo)},
                                    {std::max(comp.lo, forced.hi), comp.hi}};
        for (const auto& piece : pieces) {
          if (piece.empty()) continue;
          const long cnt = cny::rng::sample_poisson(
              shard_rng, lambda_s * piece.length());
          for (long c = 0; c < cnt; ++c) {
            points.push_back(shard_rng.uniform(piece.lo, piece.hi));
          }
        }
      }
      std::sort(points.begin(), points.end());
      std::size_t empties = 0;
      for (const auto& w : windows) {
        const auto it = std::lower_bound(points.begin(), points.end(), w.lo);
        if (!(it != points.end() && *it < w.hi)) ++empties;
      }
      acc.add(sum_p / static_cast<double>(empties));
    }
    return acc;
  };
  const auto acc = cny::exec::run_mc<cny::stats::Accumulator>(
      n_samples, rng, policy, kernel,
      [](cny::stats::Accumulator& into, cny::stats::Accumulator&& part) {
        into.merge(part);
      });
  return UnionMcResult{acc.mean(), acc.std_error(), n_samples};
}

/// Bit equality of estimate, std_error and the caller's engine state
/// against the oracle, at 1 stream and at 16 streams on 1/2/4/8 threads.
void expect_oracle_bits(double lambda_s, const std::vector<Interval>& windows,
                        std::size_t n_samples, std::uint64_t seed) {
  struct Run {
    unsigned streams, threads;
  };
  for (const Run run : {Run{1, 1}, Run{16, 1}, Run{16, 2}, Run{16, 4},
                        Run{16, 8}}) {
    const cny::exec::McPolicy policy{run.threads, run.streams};
    cny::rng::Xoshiro256 ref_rng(seed), rng(seed);
    const auto ref =
        sort_reference_mc(lambda_s, windows, n_samples, ref_rng, policy);
    const auto got = union_conditional_mc(lambda_s, windows, n_samples, rng,
                                          policy);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.estimate),
              std::bit_cast<std::uint64_t>(ref.estimate))
        << "streams " << run.streams << " threads " << run.threads
        << ": " << got.estimate << " vs " << ref.estimate;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.std_error),
              std::bit_cast<std::uint64_t>(ref.std_error))
        << "streams " << run.streams << " threads " << run.threads;
    EXPECT_EQ(rng.state(), ref_rng.state());
  }
}

TEST(UnionConditionalMcOracle, CanonicalDesignWindows) {
  // The directional probe of the canonical cold run_flow: the synthetic
  // OpenRISC-like design's windows at the uncorrelated W_min.
  constexpr double w = 158.919452;
  const auto lib = cny::celllib::make_nangate45_like();
  const auto design = cny::netlist::make_openrisc_like(lib);
  std::vector<Interval> windows;
  for (const auto& o : cny::layout::window_offsets(design, w)) {
    windows.push_back({o.y, o.y + w});
  }
  ASSERT_GE(windows.size(), 50u);
  expect_oracle_bits(0.131, windows, 3000, 11);
}

TEST(UnionConditionalMcOracle, OverlappingWindows) {
  expect_oracle_bits(0.117, equal_windows({0.0, 20.0, 47.0, 60.0, 95.0}, 145.0),
                     4000, 12);
}

TEST(UnionConditionalMcOracle, DisjointMultiComponentWindows) {
  expect_oracle_bits(0.08,
                     {{0.0, 30.0}, {12.0, 44.0}, {100.0, 130.0},
                      {200.0, 230.0}, {215.0, 250.0}, {400.0, 431.0}},
                     4000, 13);
}

TEST(UnionConditionalMcOracle, NestedWindows) {
  expect_oracle_bits(0.05,
                     {{0.0, 100.0}, {10.0, 50.0}, {20.0, 30.0}, {60.0, 90.0},
                      {61.0, 62.5}},
                     4000, 14);
}

TEST(UnionConditionalMcOracle, UnequalLengths) {
  expect_oracle_bits(0.1,
                     {{0.0, 145.0}, {20.0, 60.0}, {47.0, 200.0},
                      {130.0, 137.0}, {150.0, 152.0}, {3.0, 9.5}},
                     4000, 15);
}

TEST(UnionConditionalMcOracle, SharedEndpoints) {
  expect_oracle_bits(0.2,
                     {{0.0, 10.0}, {10.0, 20.0}, {5.0, 15.0}, {20.0, 24.0},
                      {24.0, 30.0}},
                     4000, 16);
}

TEST(UnionConditionalMcOracle, SharedEndpointsOnACoarseDoubleGrid) {
  // At 2^52 the doubles are the integers, so points land exactly on
  // window ends (lo included, hi excluded) and at the top of a piece,
  // where lo + (hi - lo) u would round up to hi.
  const double b = 0x1.0p52;
  expect_oracle_bits(0.3,
                     {{b, b + 8.0}, {b + 8.0, b + 16.0}, {b + 4.0, b + 12.0},
                      {b + 16.0, b + 20.0}, {b + 20.0, b + 23.0}},
                     4000, 17);
}

TEST(UnionConditionalMcOracle, WindowsShorterThanACell) {
  // 10,000 nm of hull over 1 nm windows caps the cell count, so the
  // short windows' ends share a cell and they walk its points.
  expect_oracle_bits(0.01,
                     {{0.0, 5000.0}, {4000.0, 10000.0}, {100.0, 101.0},
                      {2500.3, 2501.3}, {7000.0, 7001.0}, {7000.5, 7001.2},
                      {9999.0, 10000.0}},
                     4000, 18);
}

// ------------------------------------------------------------ direct MC

TEST(UnionDirectMc, AgreesWithExactAtModerateProbability) {
  // Inflate probabilities (small windows, Poisson pitch) so direct MC works.
  const cny::cnt::PitchModel pitch(4.0, 1.0);
  const double p_fail = 0.531;
  const double w = 30.0;  // P(window empty) = e^{-30/4*0.469} ≈ 3e-2
  const auto windows = equal_windows({0.0, 8.0, 19.0}, w);
  const double lambda_s = (1.0 - p_fail) / 4.0;
  const double exact = poisson_union_exact(lambda_s, windows);
  cny::rng::Xoshiro256 rng(104);
  const auto mc = union_direct_mc(pitch, p_fail, windows, 200000, rng);
  EXPECT_NEAR(mc.estimate / exact, 1.0, 0.08)
      << "exact=" << exact << " direct=" << mc.estimate;
}

TEST(UnionDirectMc, RenewalVsPoissonDeviationIsVisible) {
  // With CV = 0.6 (regular pitch) empty windows are rarer than Poisson.
  const cny::cnt::PitchModel regular(4.0, 0.6);
  const double p_fail = 0.531;
  const double w = 30.0;
  const auto windows = equal_windows({0.0}, w);
  const double poisson_p =
      std::exp(-(1.0 - p_fail) / 4.0 * w);
  cny::rng::Xoshiro256 rng(105);
  const auto mc = union_direct_mc(regular, p_fail, windows, 150000, rng);
  EXPECT_LT(mc.estimate, poisson_p);
}

TEST(UnionEngines, InputValidation) {
  cny::rng::Xoshiro256 rng(1);
  EXPECT_THROW(poisson_union_exact(0.0, equal_windows({0.0}, 10.0)),
               cny::ContractViolation);
  EXPECT_THROW(poisson_union_exact(0.1, {}), cny::ContractViolation);
  EXPECT_THROW(union_conditional_mc(0.1, {}, 100, rng),
               cny::ContractViolation);
  EXPECT_THROW(
      union_conditional_mc(0.1, {{0.0, 0.0}}, 100, rng),  // empty interval
      cny::ContractViolation);
}

}  // namespace
