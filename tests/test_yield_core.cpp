#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cnt/removal_tradeoff.h"
#include "yield/circuit_yield.h"
#include "yield/row_model.h"
#include "yield/wmin_solver.h"
#include "util/contracts.h"

namespace {

using namespace cny::yield;
using cny::cnt::PitchModel;
using cny::device::FailureModel;

FailureModel paper_model() {
  return FailureModel(PitchModel(4.0, 0.9), cny::cnt::fig21_worst());
}

// ------------------------------------------------------------ spectrum

TEST(Spectrum, ScaleWidthsAndCounts) {
  const WidthSpectrum s = {{100.0, 10}, {200.0, 20}};
  const auto scaled = scale_spectrum(s, 0.5, 3.0);
  ASSERT_EQ(scaled.size(), 2u);
  EXPECT_DOUBLE_EQ(scaled[0].first, 50.0);
  EXPECT_EQ(scaled[0].second, 30u);
  EXPECT_EQ(spectrum_count(scaled), 90u);
}

TEST(Spectrum, ScaleDropsZeroCounts) {
  const WidthSpectrum s = {{100.0, 1}};
  const auto scaled = scale_spectrum(s, 1.0, 0.4);  // rounds to 0
  EXPECT_TRUE(scaled.empty());
}

// -------------------------------------------------------- circuit yield

TEST(CircuitYield, MatchesHandComputation) {
  const auto model = paper_model();
  const WidthSpectrum s = {{40.0, 3}, {80.0, 2}};
  const auto y = circuit_yield(s, model);
  const double p40 = model.p_f(40.0);
  const double p80 = model.p_f(80.0);
  EXPECT_NEAR(y.sum_pf, 3 * p40 + 2 * p80, 1e-15);
  EXPECT_NEAR(y.yield_exact,
              std::pow(1 - p40, 3) * std::pow(1 - p80, 2), 1e-12);
  EXPECT_NEAR(y.yield_approx, 1.0 - y.sum_pf, 1e-15);
  EXPECT_DOUBLE_EQ(y.min_width, 40.0);
}

TEST(CircuitYield, ApproximationTightForSmallPf) {
  const auto model = paper_model();
  const WidthSpectrum s = {{150.0, 1000000}};
  const auto y = circuit_yield(s, model);
  EXPECT_NEAR(y.yield_exact, y.yield_approx, 1e-4);
}

TEST(CircuitYield, UpsizingImprovesYield) {
  const auto model = paper_model();
  const WidthSpectrum s = {{60.0, 1000}, {200.0, 1000}};
  const auto base = circuit_yield(s, model);
  const auto up = circuit_yield(s, model, 150.0);
  EXPECT_GT(up.yield_exact, base.yield_exact);
  EXPECT_DOUBLE_EQ(up.min_width, 150.0);
}

TEST(CircuitYield, MergesEqualUpsizedWidths) {
  const auto model = paper_model();
  const WidthSpectrum s = {{60.0, 5}, {70.0, 5}, {80.0, 5}};
  const auto up = circuit_yield(s, model, 100.0);
  EXPECT_NEAR(up.sum_pf, 15.0 * model.p_f(100.0), 1e-12);
}

// ------------------------------------------------------------ W_min

TEST(WminSolver, InvertPfRoundTrips) {
  const auto model = paper_model();
  for (double target : {1e-4, 1e-6, 3e-9}) {
    const double w = invert_p_f(model, target, 10.0, 400.0);
    EXPECT_NEAR(model.p_f(w) / target, 1.0, 1e-4) << target;
  }
}

TEST(WminSolver, FixedMminMatchesGraphicalProcedure) {
  // Paper's Sec 2.2 example: M = 100e6, 33 % minimum-size, yield 90 %
  // → horizontal line at 3.03e-9 → W_min ≈ 155 nm (Fig 2.1).
  const auto model = paper_model();
  WminRequest req;
  req.yield_desired = 0.90;
  req.fixed_m_min = 33000000;
  const WidthSpectrum s = {{100.0, 33000000}, {300.0, 67000000}};
  const auto res = solve_w_min(s, model, req);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.p_f_target, 0.1 / 33e6, 1e-12);
  EXPECT_NEAR(res.w_min, 158.0, 6.0);  // calibrated curve (paper: 155)
}

TEST(WminSolver, FixpointRecountsMmin) {
  const auto model = paper_model();
  WminRequest req;
  req.yield_desired = 0.90;
  // Spectrum straddling the threshold: the solver must converge to a
  // self-consistent M_min (only the 120 nm bin is below W_min).
  const WidthSpectrum s = {{120.0, 30000000}, {180.0, 30000000},
                           {400.0, 40000000}};
  const auto res = solve_w_min(s, model, req);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.m_min, 30000000u);
  EXPECT_GT(res.w_min, 120.0);
  EXPECT_LT(res.w_min, 180.0);
  // Self-consistency: the count below w_min equals m_min.
  std::uint64_t below = 0;
  for (const auto& [w, n] : s) {
    if (w <= res.w_min) below += n;
  }
  EXPECT_EQ(below, res.m_min);
}

TEST(WminSolver, RelaxationShrinksWmin) {
  const auto model = paper_model();
  const WidthSpectrum s = {{100.0, 33000000}, {300.0, 67000000}};
  WminRequest base;
  base.fixed_m_min = 33000000;
  const auto w1 = solve_w_min(s, model, base);
  WminRequest relaxed = base;
  relaxed.relaxation = 350.0;
  const auto w2 = solve_w_min(s, model, relaxed);
  EXPECT_LT(w2.w_min, w1.w_min);
  // Paper: 155 → 103 nm, a ~52 nm drop; our calibrated curve gives ~50 nm.
  EXPECT_NEAR(w1.w_min - w2.w_min, 50.0, 10.0);
}

TEST(WminSolver, VerificationMeetsYieldTarget) {
  const auto model = paper_model();
  const WidthSpectrum s = {{100.0, 33000000}, {300.0, 67000000}};
  WminRequest req;
  req.yield_desired = 0.90;
  const auto res = solve_w_min(s, model, req);
  // Upsizing to the solved W_min must achieve the desired yield (the
  // approximation neglects non-minimum devices, so allow slight slack).
  EXPECT_GT(circuit_yield(s, model, res.w_min).yield_exact, 0.88);
}

TEST(WminSolver, RejectsUnreachableTargets) {
  const auto model = paper_model();
  const WidthSpectrum s = {{100.0, 10}};
  WminRequest req;
  req.yield_desired = 0.90;
  req.w_hi = 30.0;  // bracket too small: p_F(30) is still huge
  EXPECT_THROW(solve_w_min(s, model, req), cny::ContractViolation);
}

/// Fails unless `fn` raises a ContractViolation whose message has `what`.
template <typename Fn>
void expect_violation(Fn fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no ContractViolation, expected '" << what << "'";
  } catch (const cny::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(WminSolver, RootAboveDefaultBracketThrowsBracketTooLow) {
  // p_F(400 nm) ~ 1e-22 on the paper curve: a 1e-30 target's root lies
  // past the default w_hi, so the inversion must evaluate w_hi and refuse.
  const auto model = paper_model();
  expect_violation([&] { (void)invert_p_f(model, 1e-30); },
                   "W bracket too low");
  expect_violation([&] { (void)invert_p_f(model, 0.9, 10.0, 400.0); },
                   "W bracket too high");
}

/// W with log p_F(W) = log(target) by plain bisection to 1e-8 nm.
double bisection_reference(const FailureModel& model, double target,
                           double lo, double hi) {
  const double t = std::log(target);
  while (hi - lo > 1e-8) {
    const double mid = 0.5 * (lo + hi);
    (std::log(model.p_f(mid)) > t ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(WminSolver, InvertPfMatchesBisectionReference) {
  struct Case {
    FailureModel model;
    std::vector<double> targets;
  };
  const cny::cnt::RemovalTradeoff frontier(3.2);
  std::vector<Case> cases;
  for (const double cv : {0.3, 0.9, 1.0}) {
    cases.push_back(
        {FailureModel(PitchModel(4.0, cv), cny::cnt::fig21_worst()),
         {1e-4, 3e-9}});
  }
  for (const double p_rm : {0.9, 0.9999}) {
    cases.push_back(
        {FailureModel(PitchModel(4.0, 0.9), frontier.process_at(p_rm)),
         {1e-6}});
  }
  for (auto& c : cases) {
    // Targets near w_lo: the root sits just above the bracket floor.
    const double p_lo = c.model.p_f(4.0);
    c.targets.push_back(p_lo * (1.0 - 1e-3));
    c.targets.push_back(c.model.p_f(4.5));
    for (const double target : c.targets) {
      const double w = invert_p_f(c.model, target);
      // Bisect a 2e-5 nm window around w: a root outside it would pull
      // the reference onto a window edge, 1e-5 nm away.
      const double ref =
          bisection_reference(c.model, target, w - 1e-5, w + 1e-5);
      EXPECT_NEAR(w, ref, 1e-6)
          << "cv " << c.model.pitch().cv() << " p_fail "
          << c.model.process().p_fail() << " target " << target;
    }
    EXPECT_EQ(invert_p_f(c.model, p_lo), 4.0);
  }
}

TEST(WminSolver, PoissonPitchConvergesInTwoQueries) {
  // CV = 1: the pitch is exponential, log p_F is exactly linear in W, and
  // the secant through the start pair lands on the root.
  const FailureModel model(PitchModel(4.0, 1.0), cny::cnt::fig21_worst());
  const WidthSpectrum s = {{100.0, 33000000}};
  for (const double relaxation : {1.0, 27.5, 360.0}) {
    WminRequest req;
    req.fixed_m_min = 33000000;
    req.relaxation = relaxation;
    const auto res = solve_w_min(s, model, req);
    EXPECT_LE(res.p_f_queries, 2) << relaxation;
    EXPECT_NEAR(model.p_f(res.w_min) / res.p_f_target, 1.0, 1e-6);
  }
}

// --------------------------------------------------------- row model

TEST(RowModel, MRminMatchesPaper) {
  RowParams p;
  p.l_cnt = 200.0e3;
  p.fets_per_um = 1.8;
  p.m_min = 33000000;
  EXPECT_DOUBLE_EQ(m_r_min(p), 360.0);
  EXPECT_NEAR(k_rows(p), 33e6 / 360.0, 1e-6);
}

TEST(RowModel, UncorrelatedMatchesBinomialComplement) {
  RowParams p;
  p.l_cnt = 100.0e3;
  p.fets_per_um = 2.0;  // M_Rmin = 200
  p.m_min = 1000;
  const double pf = 1e-8;
  EXPECT_NEAR(p_rf_uncorrelated(pf, p), 1.0 - std::pow(1.0 - pf, 200.0),
              1e-13);
  EXPECT_NEAR(p_rf_uncorrelated(pf, p), 200.0 * pf, 1e-11);
}

TEST(RowModel, AlignedEqualsDeviceFailure) {
  EXPECT_DOUBLE_EQ(p_rf_aligned(1.5e-8), 1.5e-8);
}

TEST(RowModel, ChipYieldEq31) {
  RowParams p;
  p.l_cnt = 200.0e3;
  p.fets_per_um = 1.8;
  p.m_min = 33000000;
  const double p_rf = 1.5e-8;
  const double y = chip_yield_from_rows(p_rf, p);
  // 1 - Yield ≈ K_R · p_RF for small p_RF.
  EXPECT_NEAR(1.0 - y, k_rows(p) * p_rf, 1e-6);
}

TEST(RowModel, RelaxationFactorIsMRminForFullSharing) {
  RowParams p;
  p.l_cnt = 200.0e3;
  p.fets_per_um = 1.8;
  p.m_min = 33000000;
  const double pf = 1.5e-8;
  // Full sharing: style p_RF = p_F → relaxation ≈ M_Rmin.
  EXPECT_NEAR(relaxation_factor(p_rf_aligned(pf), pf, p), 360.0, 0.5);
}

TEST(RowModel, RejectsBadParams) {
  RowParams p;  // m_min defaults to 0
  p.l_cnt = 100.0;
  p.fets_per_um = 1.0;
  EXPECT_THROW(k_rows(p), cny::ContractViolation);
  EXPECT_THROW(p_rf_uncorrelated(1.0, p), cny::ContractViolation);
}

}  // namespace
