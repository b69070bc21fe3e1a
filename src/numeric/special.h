// Special functions needed by the CNT count model:
//   * regularized incomplete gamma P(a,x)/Q(a,x) — Gamma CDF/CCDF
//   * log-gamma (reentrant lgamma_r: safe to call from concurrent threads)
//   * log-sum-exp helpers for assembling tiny tail probabilities
//
// Implementations follow the classic series/continued-fraction split at
// x < a+1 (Numerical Recipes style), with relative accuracy ~1e-12 over the
// parameter ranges this library uses (a up to a few thousand).
#pragma once

#include <cstddef>
#include <vector>

namespace cny::numeric {

/// Natural log of the Gamma function; requires a > 0.
[[nodiscard]] double log_gamma(double a);

/// Regularized lower incomplete gamma P(a,x) = γ(a,x)/Γ(a); a > 0, x >= 0.
/// Equals the CDF at x of a Gamma(shape=a, scale=1) random variable.
[[nodiscard]] double gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a,x) = 1 - P(a,x).
[[nodiscard]] double gamma_q(double a, double x);

/// Q(a,x) with the prefactor τ = x^a e^{-x} / Γ(a+1) supplied by the
/// caller and a caller-chosen relative tolerance `eps` (clamped to
/// [1e-15, 1e-6]). Same series/continued-fraction split as gamma_q, but
/// the per-call exp/log/lgamma cost of the prefactor is gone — callers
/// sweeping a family of shapes (the truncated-PGF kernel steps a → a+k
/// across PMF terms, cnt/pf_kernel.cpp) maintain τ by one multiply per
/// step and pay only the iteration loop here. With eps = 1e-15 and an
/// exact τ this agrees with gamma_q to ~1e-14 relative.
///
/// Defined inline (and without the contract checks of its siblings, the
/// caller having validated a > 0, x >= 0, τ >= 0 for the whole sweep): it
/// sits inside a loop executing ~10^5 times per p_F query, where the call
/// itself is measurable.
[[nodiscard]] inline double gamma_q_prefactored(double a, double x, double tau,
                                                double eps) {
  if (x == 0.0) return 1.0;
  eps = eps < 1e-15 ? 1e-15 : (eps > 1e-6 ? 1e-6 : eps);
  constexpr int kIterCap = 500;
  if (x < a + 1.0) {
    // P(a,x) = τ · (1 + x/(a+1) + x²/((a+1)(a+2)) + …): the gamma_p
    // series with the exp(-x + a·ln x - lnΓ(a)) prefactor replaced by τ.
    double ap = a;
    double del = 1.0;
    double sum = 1.0;
    for (int i = 0; i < kIterCap; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (del < sum * eps) break;
    }
    return 1.0 - tau * sum;
  }
  // Q(a,x) = [x^a e^{-x} / Γ(a)] · h = τ · a · h, h the modified-Lentz
  // continued fraction of gamma_q.
  constexpr double kCfTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kCfTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kIterCap; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (d > -kCfTiny && d < kCfTiny) d = kCfTiny;
    c = b + an / c;
    if (c > -kCfTiny && c < kCfTiny) c = kCfTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    const double dev = del - 1.0;
    if (dev > -eps && dev < eps) break;
  }
  return tau * a * h;
}

/// CDF of Gamma(shape k, scale theta) at x (0 for x <= 0).
[[nodiscard]] double gamma_cdf(double x, double k, double theta);

/// PDF of Gamma(shape k, scale theta) at x (0 for x < 0; handles k < 1 at 0+).
[[nodiscard]] double gamma_pdf(double x, double k, double theta);

/// Poisson CDF P(X <= n) for X ~ Poisson(lambda); n >= 0.
[[nodiscard]] double poisson_cdf(long n, double lambda);

/// Poisson PMF P(X == n).
[[nodiscard]] double poisson_pmf(long n, double lambda);

/// log(exp(a) + exp(b)) without overflow.
[[nodiscard]] double log_add_exp(double a, double b);

/// log(sum exp(v_i)) without overflow; returns -inf for an empty vector.
[[nodiscard]] double log_sum_exp(const std::vector<double>& v);

/// log(1 - exp(x)) for x < 0, accurate near both ends.
[[nodiscard]] double log1m_exp(double x);

}  // namespace cny::numeric
