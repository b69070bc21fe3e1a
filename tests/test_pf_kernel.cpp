// Exactness pins for the truncated-PGF kernel (cnt/pf_kernel.h), the
// quadrature reference for the residue evaluator: it must agree with the
// full-PMF path to ≤ 1e-12 relative on the shared grid, while certifying
// its own truncation remainder.
#include <gtest/gtest.h>

#include <cmath>

#include "cnt/count_distribution.h"
#include "cnt/pf_kernel.h"
#include "cnt/process.h"
#include "numeric/special.h"
#include "rng/engine.h"
#include "util/contracts.h"

namespace {

using cny::cnt::CountDistribution;
using cny::cnt::pf_truncated;
using cny::cnt::PitchModel;

/// |a-b| relative to the reference b, safe at b = 0.
double rel_err(double a, double b) {
  if (b == 0.0) return std::fabs(a);
  return std::fabs(a - b) / std::fabs(b);
}

TEST(PfKernel, MatchesFullPmfAcrossWidthsCvsAndZ) {
  // Integer shapes (cv = 1, 1/√2) exercise the exact ladder; the rest the
  // seeded prefactor path. z spans deep-tail through near-certain failure.
  for (double cv : {0.6, 0.7071067811865476, 0.9, 1.0, 1.2}) {
    for (double w : {8.0, 20.0, 80.0, 155.0, 500.0}) {
      const PitchModel pitch(4.0, cv);
      const CountDistribution full(pitch, w);
      for (double z : {0.0, 0.1, 0.33, 0.531, 0.9, 1.0}) {
        const double reference = full.pgf(z);
        const auto truncated = pf_truncated(pitch, w, z);
        EXPECT_LE(rel_err(truncated.value, reference), 1e-12)
            << "cv=" << cv << " w=" << w << " z=" << z
            << " full=" << reference << " trunc=" << truncated.value;
      }
    }
  }
}

TEST(PfKernel, MatchesFullPmfOnFig21SweepGrid) {
  // The exact width grid of the Fig 2.1 experiment (20..180 nm) under all
  // three processing conditions, paper pitch CV = 0.9.
  const PitchModel pitch(4.0, 0.9);
  for (double w = 20.0; w <= 180.0; w += 16.0) {
    const CountDistribution full(pitch, w);
    for (const auto& proc : {cny::cnt::fig21_worst(), cny::cnt::fig21_mid(),
                             cny::cnt::fig21_ideal()}) {
      const double z = proc.p_fail();
      EXPECT_LE(rel_err(pf_truncated(pitch, w, z).value, full.pgf(z)), 1e-12)
          << "w=" << w << " z=" << z;
    }
  }
}

TEST(PfKernel, PgfAtMatchesNaivePmfSumRandomised) {
  // Property test: against the naive Σ pmf(n)·z^n for randomised pitch
  // parameters, widths and z.
  cny::rng::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const double mean = 2.0 + 6.0 * rng.uniform();
    const double cv = 0.5 + 0.9 * rng.uniform();
    const double w = 10.0 + 190.0 * rng.uniform();
    const double z = 0.95 * rng.uniform();
    const PitchModel pitch(mean, cv);
    const CountDistribution dist(pitch, w);
    double naive = 0.0;
    double zn = 1.0;
    for (long n = 0; n <= dist.max_n(); ++n) {
      naive += dist.pmf(n) * zn;
      zn *= z;
    }
    EXPECT_LE(rel_err(pf_truncated(pitch, w, z).value, naive), 1e-12)
        << "mean=" << mean << " cv=" << cv << " w=" << w << " z=" << z;
  }
}

TEST(PfKernel, RemainderBoundIsCertifiedAndSmall) {
  const PitchModel pitch(4.0, 0.9);
  for (double w : {40.0, 155.0, 500.0}) {
    const auto res = pf_truncated(pitch, w, 0.531);
    EXPECT_GE(res.remainder_bound, 0.0);
    // The loop only stops once the certified remainder is inside rel_tol
    // (default 1e-14) of the accumulated value.
    EXPECT_LE(res.remainder_bound, 1e-13 * res.value + 1e-300) << "w=" << w;
  }
}

TEST(PfKernel, TruncatesWellShortOfTheFullPmfSupport) {
  // The point of the kernel: at large W only O(p_f·W/μ + log(1/ε)) terms
  // are evaluated, not the full bulk + 12σ sweep.
  const PitchModel pitch(4.0, 0.9);
  const double w = 500.0;
  const CountDistribution full(pitch, w);
  const auto res = pf_truncated(pitch, w, 0.531);
  EXPECT_GT(res.terms, 0);
  EXPECT_LT(res.terms, (full.max_n() * 2) / 3)
      << "terms=" << res.terms << " full support=" << full.max_n();
}

TEST(PfKernel, DegenerateInputs) {
  const PitchModel pitch(4.0, 0.9);
  EXPECT_DOUBLE_EQ(pf_truncated(pitch, 0.0, 0.5).value, 1.0);
  EXPECT_DOUBLE_EQ(pf_truncated(pitch, 120.0, 1.0).value, 1.0);
  const CountDistribution d(pitch, 60.0);
  EXPECT_NEAR(pf_truncated(pitch, 60.0, 0.0).value, d.pmf(0), 1e-15);
  EXPECT_THROW((void)pf_truncated(pitch, -1.0, 0.5), cny::ContractViolation);
  EXPECT_THROW((void)pf_truncated(pitch, 10.0, 1.5), cny::ContractViolation);
  EXPECT_THROW((void)pf_truncated(pitch, 10.0, 0.5, 0.0),
               cny::ContractViolation);
}

TEST(PfKernel, EdgeCasesHonourTheContract) {
  const PitchModel pitch(4.0, 0.9);
  // z endpoints: z = 0 collapses the PGF to P{N(W) = 0} with nothing
  // truncated; z = 1 is the total mass, exactly 1 with a zero remainder.
  for (double w : {2.0, 60.0, 500.0}) {
    const CountDistribution full(pitch, w);
    const auto at0 = pf_truncated(pitch, w, 0.0);
    EXPECT_LE(rel_err(at0.value, full.pmf(0)), 1e-13) << "w=" << w;
    EXPECT_LE(at0.remainder_bound, 1e-14 * at0.value);
    const auto at1 = pf_truncated(pitch, w, 1.0);
    EXPECT_EQ(at1.value, 1.0);
    EXPECT_EQ(at1.remainder_bound, 0.0);
  }
  // Sub-pitch devices (W below one mean pitch): P{N = 0} dominates, the
  // value must stay a probability and match the full-PMF reference.
  for (double w : {0.25, 1.0, 3.9}) {
    const CountDistribution full(pitch, w);
    const auto res = pf_truncated(pitch, w, 0.531);
    EXPECT_GT(res.value, 0.0);
    EXPECT_LE(res.value, 1.0);
    EXPECT_LE(rel_err(res.value, full.pgf(0.531)), 1e-12) << "w=" << w;
  }
  // Extreme tolerances: the certified remainder inequality
  // (remainder_bound <= rel_tol * value) must hold on exit at both a
  // loose 1e-4 and a near-machine 1e-15, and the loose answer must agree
  // with the tight one to within its own certificate.
  for (double w : {2.0, 60.0, 155.0, 500.0}) {
    const auto tight = pf_truncated(pitch, w, 0.531, 1e-15);
    EXPECT_LE(tight.remainder_bound, 1e-15 * tight.value) << "w=" << w;
    const auto loose = pf_truncated(pitch, w, 0.531, 1e-4);
    EXPECT_LE(loose.remainder_bound, 1e-4 * loose.value) << "w=" << w;
    EXPECT_LE(loose.terms, tight.terms);
    EXPECT_LE(rel_err(loose.value, tight.value), 2e-4) << "w=" << w;
  }
}

TEST(PfKernel, GammaQPrefactoredMatchesGammaQ) {
  // The inline prefactored variant must reproduce gamma_q when handed the
  // exact prefactor τ = x^a e^{-x}/Γ(a+1) and the tight tolerance.
  for (double a : {0.8, 1.2345679, 5.0, 40.0, 176.0}) {
    for (double x : {0.3, 4.0, 38.0, 102.0, 154.0}) {
      const double tau =
          std::exp(a * std::log(x) - x - cny::numeric::log_gamma(a + 1.0));
      const double got =
          cny::numeric::gamma_q_prefactored(a, x, tau, 1e-15);
      const double want = cny::numeric::gamma_q(a, x);
      EXPECT_LE(rel_err(got, want), 1e-12) << "a=" << a << " x=" << x;
    }
  }
}

}  // namespace
