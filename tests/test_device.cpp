#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "cnt/count_distribution.h"
#include "device/failure_model.h"
#include "util/contracts.h"

namespace {

using namespace cny::device;
using cny::cnt::PitchModel;
using cny::cnt::ProcessParams;

FailureModel poisson_model() {
  return FailureModel(PitchModel(4.0, 1.0), cny::cnt::fig21_worst());
}

FailureModel paper_model() {
  return FailureModel(PitchModel(4.0, 0.9), cny::cnt::fig21_worst());
}

TEST(FailureModel, PoissonClosedFormAgreement) {
  const auto model = poisson_model();
  for (double w : {20.0, 60.0, 103.0, 155.0}) {
    EXPECT_NEAR(model.p_f(w) / model.p_f_poisson_closed_form(w), 1.0, 1e-5)
        << "w=" << w;
  }
}

TEST(FailureModel, ClosedFormRejectedForNonPoisson) {
  const auto model = paper_model();
  EXPECT_THROW(model.p_f_poisson_closed_form(100.0), cny::ContractViolation);
}

TEST(FailureModel, StrictlyDecreasingInWidth) {
  const auto model = paper_model();
  double prev = 1.1;
  for (double w = 20.0; w <= 180.0; w += 8.0) {
    const double pf = model.p_f(w);
    EXPECT_LT(pf, prev) << "w=" << w;
    prev = pf;
  }
}

TEST(FailureModel, OrderingAcrossProcessConditions) {
  // Worse processing (higher p_f per CNT) → higher p_F at every width.
  const PitchModel pitch(4.0, 0.9);
  const FailureModel worst(pitch, cny::cnt::fig21_worst());
  const FailureModel mid(pitch, cny::cnt::fig21_mid());
  const FailureModel ideal(pitch, cny::cnt::fig21_ideal());
  for (double w : {40.0, 100.0, 160.0}) {
    EXPECT_GT(worst.p_f(w), mid.p_f(w));
    EXPECT_GT(mid.p_f(w), ideal.p_f(w));
  }
}

TEST(FailureModel, IdealProcessFailsOnlyByDensity) {
  // With p_f = 0, failure requires zero CNTs in the window: p_F = P(N=0).
  const FailureModel ideal(PitchModel(4.0, 1.0), cny::cnt::fig21_ideal());
  for (double w : {8.0, 20.0, 40.0}) {
    EXPECT_NEAR(ideal.p_f(w) / std::exp(-w / 4.0), 1.0, 1e-5);
  }
}

TEST(FailureModel, ZeroWidthAlwaysFails) {
  EXPECT_DOUBLE_EQ(paper_model().p_f(0.0), 1.0);
}

TEST(FailureModel, Fig21AnchorCalibration) {
  // The calibrated model must place the paper's Fig 2.1 anchors within
  // engineering tolerance: p_F(155) within [1e-9, 1e-8] (paper 3e-9), and
  // the 350X relaxation near W ≈ 103 within ~10 nm.
  const auto model = paper_model();
  const double p155 = model.p_f(155.0);
  EXPECT_GT(p155, 1.0e-9);
  EXPECT_LT(p155, 1.0e-8);
  const double p103 = model.p_f(103.0);
  EXPECT_GT(p103 / p155, 200.0);
  EXPECT_LT(p103 / p155, 900.0);
}

TEST(FailureModel, MonteCarloMatchesAnalytic) {
  // Inflated-probability regime where direct MC resolves p_F.
  const auto model = paper_model();
  cny::rng::Xoshiro256 rng(91);
  const double w = 24.0;  // p_F ~ 1e-2
  const auto ci = model.p_f_monte_carlo(w, 40000, rng);
  const double analytic = model.p_f(w);
  EXPECT_TRUE(ci.contains(analytic))
      << "analytic=" << analytic << " ci=[" << ci.lo << "," << ci.hi << "]";
}

TEST(FailureModel, MeanCount) {
  EXPECT_DOUBLE_EQ(paper_model().mean_count(100.0), 25.0);
}

TEST(FailureModel, CacheReturnsIdenticalValues) {
  const auto model = paper_model();
  const double a = model.p_f(123.0);
  const double b = model.p_f(123.0);
  EXPECT_EQ(a, b);
}

TEST(FailureModel, ExactPathMatchesFullPmfPgf) {
  // p_f_exact now runs the truncated kernel; it must agree with the
  // full-PMF reference evaluation to ≤ 1e-12 relative on the Fig 2.1 grid.
  const cny::cnt::PitchModel pitch(4.0, 0.9);
  const auto proc = cny::cnt::fig21_worst();
  const FailureModel model(pitch, proc);
  for (double w = 20.0; w <= 180.0; w += 16.0) {
    const cny::cnt::CountDistribution full(pitch, w);
    const double reference = full.pgf(proc.p_fail());
    EXPECT_LE(std::fabs(model.p_f_exact(w) - reference) / reference, 1e-12)
        << "w=" << w;
  }
}

TEST(FailureModel, MonteCarloMarginMatchesAnalytic) {
  // A stationarity margin above/below the window must not change what the
  // estimator converges to (the equilibrium first-gap draw already makes
  // the band stationary; the margin makes that independent of the draw).
  const auto model = paper_model();
  cny::rng::Xoshiro256 rng(92);
  const double w = 24.0;  // p_F ~ 1e-2
  const auto ci = model.p_f_monte_carlo(w, 40000, rng, /*margin=*/8.0);
  const double analytic = model.p_f(w);
  EXPECT_TRUE(ci.contains(analytic))
      << "analytic=" << analytic << " ci=[" << ci.lo << "," << ci.hi << "]";
  EXPECT_THROW(model.p_f_monte_carlo(w, 100, rng, -1.0),
               cny::ContractViolation);
}

TEST(FailureModel, LockLightReadPathSurvivesThreadHammer) {
  // Concurrent p_f readers race enable_interpolation installs of several
  // ranges. Every answer must be finite, in (0, 1], and consistent with
  // the exact value to interpolation accuracy; afterwards the exact path
  // must still serve bit-identical memoised values.
  const auto model = paper_model();
  const double exact_ref[] = {model.p_f_exact(20.0), model.p_f_exact(60.0),
                              model.p_f_exact(100.0), model.p_f_exact(140.0),
                              model.p_f_exact(180.0)};
  const double widths[] = {20.0, 60.0, 100.0, 140.0, 180.0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        if (t >= 6 && i % 50 == 0) {
          // Builders: install/replace tables over alternating ranges.
          const double lo = (i % 100 == 0) ? 10.0 : 15.0;
          model.enable_interpolation(lo, 200.0, 33);
        }
        const std::size_t which = static_cast<std::size_t>(i) % 5;
        const double pf = model.p_f(widths[which]);
        // Interpolation error on log p_F is well under 1% over this range;
        // anything outside is a torn read or a broken snapshot.
        if (!std::isfinite(pf) || pf <= 0.0 || pf > 1.0 ||
            std::fabs(std::log(pf) - std::log(exact_ref[which])) > 0.01) {
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(model.p_f_exact(widths[i]), exact_ref[i]);
  }
}

TEST(FailureModel, InterpolantTableBitsIndependentOfPackingAndThreads) {
  // The table is built one knot per task, widest first, spread over
  // threads; neither the claim order nor the thread count may move a bit.
  // At an interior knot the cubic returns the knot value itself, so p_f
  // there is exp(log p_F) of the exact value on a model that never built a
  // table.
  constexpr double kLo = 4.0, kHi = 400.0;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t knots : {4u, 5u, 33u, 65u, 66u}) {
    std::vector<double> xs(knots);
    for (std::size_t i = 0; i < knots; ++i) {
      xs[i] = kLo * std::pow(kHi / kLo, static_cast<double>(i) /
                                            static_cast<double>(knots - 1));
    }
    xs.back() = kHi;
    const FailureModel fresh(PitchModel(4.0, 0.9), cny::cnt::fig21_mid());
    std::vector<double> mid_ref;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      const FailureModel model(PitchModel(4.0, 0.9), cny::cnt::fig21_mid());
      model.enable_interpolation(kLo, kHi, knots, threads);
      for (std::size_t i = 0; i < knots; ++i) {
        EXPECT_EQ(bits(model.p_f(xs[i])),
                  bits(std::exp(std::log(fresh.p_f_exact(xs[i])))))
            << "knots=" << knots << " threads=" << threads << " i=" << i;
      }
      std::vector<double> mids;
      for (std::size_t i = 0; i + 1 < knots; ++i) {
        mids.push_back(model.p_f(0.5 * (xs[i] + xs[i + 1])));
      }
      if (mid_ref.empty()) mid_ref = mids;
      for (std::size_t i = 0; i < mids.size(); ++i) {
        EXPECT_EQ(bits(mids[i]), bits(mid_ref[i]))
            << "knots=" << knots << " threads=" << threads << " mid " << i;
      }
    }
  }
}

}  // namespace
