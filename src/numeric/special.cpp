#include "numeric/special.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.h"

namespace cny::numeric {

namespace {

constexpr int kMaxIter = 500;
constexpr double kEps = 1e-14;
constexpr double kTiny = 1e-300;

/// Series representation of P(a,x), valid/fast for x < a+1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIter; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

/// Continued-fraction representation of Q(a,x), valid/fast for x >= a+1.
double gamma_q_cf(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
}

}  // namespace

double log_gamma(double a) {
  CNY_EXPECT(a > 0.0);
  // The reentrant form: std::lgamma also stores the sign of Γ(a) in the
  // global signgam, a data race between concurrent p_F evaluations.
  int sign = 0;
  return lgamma_r(a, &sign);
}

double gamma_p(double a, double x) {
  CNY_EXPECT(a > 0.0);
  CNY_EXPECT(x >= 0.0);
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  CNY_EXPECT(a > 0.0);
  CNY_EXPECT(x >= 0.0);
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double gamma_cdf(double x, double k, double theta) {
  CNY_EXPECT(k > 0.0 && theta > 0.0);
  if (x <= 0.0) return 0.0;
  return gamma_p(k, x / theta);
}

double gamma_pdf(double x, double k, double theta) {
  CNY_EXPECT(k > 0.0 && theta > 0.0);
  if (x < 0.0) return 0.0;
  if (x == 0.0) {
    if (k > 1.0) return 0.0;
    if (k == 1.0) return 1.0 / theta;
    return std::numeric_limits<double>::infinity();
  }
  const double logp = (k - 1.0) * std::log(x) - x / theta - log_gamma(k) -
                      k * std::log(theta);
  return std::exp(logp);
}

double poisson_cdf(long n, double lambda) {
  CNY_EXPECT(n >= 0);
  CNY_EXPECT(lambda >= 0.0);
  if (lambda == 0.0) return 1.0;
  // P(X <= n) = Q(n+1, lambda).
  return gamma_q(static_cast<double>(n) + 1.0, lambda);
}

double poisson_pmf(long n, double lambda) {
  CNY_EXPECT(n >= 0);
  CNY_EXPECT(lambda >= 0.0);
  if (lambda == 0.0) return n == 0 ? 1.0 : 0.0;
  const double logp = -lambda + n * std::log(lambda) -
                      log_gamma(static_cast<double>(n) + 1.0);
  return std::exp(logp);
}

double log_add_exp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) return b;
  if (b == -std::numeric_limits<double>::infinity()) return a;
  const double m = std::max(a, b);
  return m + std::log1p(std::exp(std::min(a, b) - m));
}

double log_sum_exp(const std::vector<double>& v) {
  double acc = -std::numeric_limits<double>::infinity();
  for (double x : v) acc = log_add_exp(acc, x);
  return acc;
}

double log1m_exp(double x) {
  CNY_EXPECT(x < 0.0);
  // Mächler's recipe: use log(-expm1(x)) for x > -ln2, log1p(-exp(x)) below.
  constexpr double kLn2 = 0.6931471805599453;
  if (x > -kLn2) return std::log(-std::expm1(x));
  return std::log1p(-std::exp(x));
}

}  // namespace cny::numeric
