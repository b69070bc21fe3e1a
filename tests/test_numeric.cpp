#include <gtest/gtest.h>

#include <cmath>

#include "numeric/integrate.h"
#include "numeric/interp.h"
#include "numeric/roots.h"
#include "numeric/special.h"
#include "util/contracts.h"

namespace {

using namespace cny::numeric;

// ---------------------------------------------------------------- special

TEST(Special, GammaPAtKnownPoints) {
  // P(1, x) = 1 - e^-x (exponential CDF).
  for (double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-13);
  }
  // P(1/2, x) = erf(sqrt(x)).
  for (double x : {0.25, 1.0, 4.0}) {
    EXPECT_NEAR(gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-12);
  }
}

TEST(Special, GammaPPlusQIsOne) {
  for (double a : {0.3, 1.0, 2.5, 17.0, 250.0}) {
    for (double x : {0.01, 0.5, 1.0, 5.0, 30.0, 400.0}) {
      EXPECT_NEAR(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(Special, GammaQDeepTailHasRelativePrecision) {
  // Q(1, 50) = e^-50 ~ 1.9e-22; demand relative accuracy.
  EXPECT_NEAR(gamma_q(1.0, 50.0) / std::exp(-50.0), 1.0, 1e-10);
}

TEST(Special, GammaCdfPdfConsistency) {
  // Numeric derivative of the CDF matches the PDF.
  const double k = 2.7, theta = 1.3;
  for (double x : {0.5, 1.0, 3.0, 8.0}) {
    const double h = 1e-6;
    const double d =
        (gamma_cdf(x + h, k, theta) - gamma_cdf(x - h, k, theta)) / (2 * h);
    EXPECT_NEAR(d, gamma_pdf(x, k, theta), 1e-6);
  }
}

TEST(Special, GammaPdfEdgeCases) {
  EXPECT_DOUBLE_EQ(gamma_pdf(-1.0, 2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(gamma_pdf(0.0, 2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(gamma_pdf(0.0, 1.0, 2.0), 0.5);
  EXPECT_TRUE(std::isinf(gamma_pdf(0.0, 0.5, 1.0)));
}

TEST(Special, PoissonCdfMatchesDirectSum) {
  const double lambda = 7.3;
  double acc = 0.0;
  for (long n = 0; n <= 20; ++n) {
    acc += poisson_pmf(n, lambda);
    EXPECT_NEAR(poisson_cdf(n, lambda), acc, 1e-12) << "n=" << n;
  }
}

TEST(Special, PoissonZeroLambda) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(poisson_cdf(5, 0.0), 1.0);
}

TEST(Special, LogAddExp) {
  EXPECT_NEAR(log_add_exp(std::log(2.0), std::log(3.0)), std::log(5.0), 1e-14);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(log_add_exp(-inf, 1.5), 1.5);
  // No overflow for large magnitudes.
  EXPECT_NEAR(log_add_exp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-10);
}

TEST(Special, LogSumExpMatchesDirect) {
  EXPECT_NEAR(log_sum_exp({std::log(1.0), std::log(2.0), std::log(3.0)}),
              std::log(6.0), 1e-13);
  EXPECT_TRUE(std::isinf(log_sum_exp({})));
}

TEST(Special, Log1mExpBothBranches) {
  EXPECT_NEAR(log1m_exp(-0.1), std::log(1.0 - std::exp(-0.1)), 1e-13);
  EXPECT_NEAR(log1m_exp(-10.0), std::log(1.0 - std::exp(-10.0)), 1e-13);
}

TEST(Special, DomainViolationsThrow) {
  EXPECT_THROW(gamma_p(0.0, 1.0), cny::ContractViolation);
  EXPECT_THROW(gamma_p(1.0, -1.0), cny::ContractViolation);
  EXPECT_THROW(log1m_exp(0.5), cny::ContractViolation);
}

// ------------------------------------------------------------------ roots

TEST(Roots, BrentFindsCubicRoot) {
  const auto res = brent([](double x) { return x * x * x - 2.0; }, 0.0, 2.0);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x, std::cbrt(2.0), 1e-9);
}

TEST(Roots, BrentAcceptsRootAtEndpoint) {
  const auto res = brent([](double x) { return x; }, 0.0, 1.0);
  EXPECT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(res.x, 0.0);
}

TEST(Roots, BrentRejectsNonBracketing) {
  EXPECT_THROW(brent([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               cny::ContractViolation);
}

// -------------------------------------------------------------- integrate

TEST(Integrate, AdaptivePolynomialExact) {
  const auto f = [](double x) { return 3.0 * x * x; };
  EXPECT_NEAR(integrate_adaptive(f, 0.0, 2.0), 8.0, 1e-10);
}

TEST(Integrate, AdaptiveHandlesReversedLimits) {
  const auto f = [](double x) { return x; };
  EXPECT_NEAR(integrate_adaptive(f, 2.0, 0.0), -2.0, 1e-10);
}

TEST(Integrate, GaussLegendreSmoothFunction) {
  EXPECT_NEAR(integrate_gl([](double x) { return std::sin(x); }, 0.0,
                           std::numbers::pi, 4),
              2.0, 1e-12);
}

TEST(Integrate, GaussLegendreGaussian) {
  // ∫_{-a}^{a} e^{-x²/2} dx = sqrt(2π)·erf(a/√2); compare against the
  // truncated closed form so tail truncation is not mistaken for
  // quadrature error.
  const double a = 5.0;
  const double v = integrate_gl(
      [](double x) { return std::exp(-0.5 * x * x); }, -a, a, 16);
  const double closed =
      std::sqrt(2.0 * std::numbers::pi) * std::erf(a / std::sqrt(2.0));
  EXPECT_NEAR(v, closed, 1e-10);
}

TEST(Integrate, ZeroWidthIntervalIsZero) {
  EXPECT_DOUBLE_EQ(integrate_gl([](double) { return 1.0; }, 1.0, 1.0, 4), 0.0);
  EXPECT_DOUBLE_EQ(integrate_adaptive([](double) { return 1.0; }, 1.0, 1.0),
                   0.0);
}

// ----------------------------------------------------------------- interp

TEST(Interp, ReproducesKnots) {
  MonotoneCubic f({0.0, 1.0, 2.0, 3.0}, {0.0, 1.0, 4.0, 9.0});
  EXPECT_DOUBLE_EQ(f(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f(2.0), 4.0);
  EXPECT_DOUBLE_EQ(f(3.0), 9.0);
}

TEST(Interp, MonotoneDataStaysMonotone) {
  // Data with a sharp bend that cubic splines overshoot.
  MonotoneCubic f({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 0.01, 0.02, 5.0, 10.0});
  double prev = f(0.0);
  for (double x = 0.01; x <= 4.0; x += 0.01) {
    const double y = f(x);
    EXPECT_GE(y, prev - 1e-12) << "x=" << x;
    prev = y;
  }
}

TEST(Interp, ClampsOutsideRange) {
  MonotoneCubic f({0.0, 1.0}, {2.0, 5.0});
  EXPECT_DOUBLE_EQ(f(-1.0), 2.0);
  EXPECT_DOUBLE_EQ(f(9.0), 5.0);
  EXPECT_DOUBLE_EQ(f.derivative(-1.0), 0.0);
}

TEST(Interp, DerivativeMatchesFiniteDifference) {
  MonotoneCubic f({0.0, 1.0, 2.0, 3.0}, {0.0, 2.0, 3.0, 3.5});
  for (double x : {0.4, 1.5, 2.7}) {
    const double h = 1e-6;
    EXPECT_NEAR(f.derivative(x), (f(x + h) - f(x - h)) / (2 * h), 1e-5);
  }
}

TEST(Interp, RejectsNonIncreasingKnots) {
  EXPECT_THROW(MonotoneCubic({0.0, 0.0}, {1.0, 2.0}), cny::ContractViolation);
  EXPECT_THROW(MonotoneCubic({1.0}, {1.0}), cny::ContractViolation);
}

}  // namespace
