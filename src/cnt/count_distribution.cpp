#include "cnt/count_distribution.h"

#include <algorithm>
#include <cmath>

#include "numeric/integrate.h"
#include "numeric/special.h"
#include "util/contracts.h"

namespace cny::cnt {

using cny::numeric::gamma_cdf;
using cny::numeric::gamma_q;
using cny::numeric::integrate_gl;

namespace {

/// Tail probabilities below this no longer contribute to any quantity the
/// library reports (p_F floors at ~1e-12 in the paper's figures).
constexpr double kTailEps = 1e-22;

}  // namespace

CountDistribution::CountDistribution(const PitchModel& pitch, double width)
    : width_(width) {
  CNY_EXPECT(width >= 0.0);
  const double k = pitch.shape();
  const double theta = pitch.scale();
  const double mu = pitch.mean();

  if (width == 0.0) {
    pmf_ = {1.0};
    suffix_ = {1.0};
    total_ = 1.0;
    return;
  }

  // P{N = 0} = 1 - F_e(W); use the closed tail form
  //   1 - F_e(W) = [μ Q_{k+1}(W) - W Q_k(W) + ... ] — equivalently computed
  // from equilibrium_cdf; clamp tiny negative rounding.
  const double p0 = std::max(0.0, 1.0 - pitch.equilibrium_cdf(width));

  // Integration domain: f_e(u) support effectively ends at the upper pitch
  // quantile; beyond it the integrand mass is < kTailEps.
  const double u_cap = std::min(width, pitch.upper_quantile(kTailEps));
  // Panel count scales with how many pitch scales the domain spans. The
  // first pitch-scale is integrated separately with dense panels because for
  // shape < 1 (CV > 1) the equilibrium density has unbounded derivative at 0.
  const double u_split = std::min(0.5 * u_cap, theta);
  const int panels_head = 24;
  const int panels_tail = std::max(16, static_cast<int>(u_cap / mu) * 4 + 16);

  pmf_.clear();
  pmf_.push_back(p0);

  const double expected = width / mu;
  const long n_floor = static_cast<long>(expected + 12.0 * std::sqrt(expected) + 16.0);

  for (long n = 1;; ++n) {
    const double a_hi = static_cast<double>(n) * k;        // shape of nk
    const double a_lo = static_cast<double>(n - 1) * k;    // shape of (n-1)k
    const auto integrand = [&](double u) {
      const double x = (width - u) / theta;
      if (x <= 0.0) return 0.0;
      const double q_hi = gamma_q(a_hi, x);
      const double q_lo = (n == 1) ? 0.0 : gamma_q(a_lo, x);
      const double diff = q_hi - q_lo;
      return diff > 0.0 ? pitch.equilibrium_pdf(u) * diff : 0.0;
    };
    const double p =
        std::max(0.0, integrate_gl(integrand, 0.0, u_split, panels_head) +
                          integrate_gl(integrand, u_split, u_cap, panels_tail));
    pmf_.push_back(p);

    // Stop once past the bulk and the remaining upper tail is negligible:
    // P{N >= n+1} <= F_{nk}(W).
    if (n >= n_floor) break;
    if (static_cast<double>(n) > expected &&
        gamma_cdf(width, a_hi, theta) < kTailEps) {
      break;
    }
  }

  total_ = 0.0;
  for (double p : pmf_) total_ += p;
  CNY_ENSURE_MSG(std::fabs(total_ - 1.0) < 1e-6,
                 "count PMF mass deviates from 1: quadrature failure");
  // Normalise: residual quadrature error lives in the bulk terms (each
  // computed to absolute ~1e-12), while the tail terms that dominate p_F are
  // relatively accurate; dividing by the mass fixes the bulk without
  // disturbing tail ratios.
  for (double& p : pmf_) p /= total_;

  mean_ = 0.0;
  double m2 = 0.0;
  for (std::size_t n = 0; n < pmf_.size(); ++n) {
    const double dn = static_cast<double>(n);
    mean_ += dn * pmf_[n];
    m2 += dn * dn * pmf_[n];
  }
  var_ = std::max(0.0, m2 - mean_ * mean_);

  // Suffix sums make tail() O(1); summing the tail upward keeps the tiny
  // deep-tail entries relatively accurate before the bulk mass joins.
  suffix_.resize(pmf_.size());
  double tail_acc = 0.0;
  for (std::size_t i = pmf_.size(); i-- > 0;) {
    tail_acc += pmf_[i];
    suffix_[i] = std::min(1.0, tail_acc);
  }
}

double CountDistribution::pmf(long n) const {
  CNY_EXPECT(n >= 0);
  const auto idx = static_cast<std::size_t>(n);
  return idx < pmf_.size() ? pmf_[idx] : 0.0;
}

double CountDistribution::tail(long n) const {
  CNY_EXPECT(n >= 0);
  const auto idx = static_cast<std::size_t>(n);
  return idx < suffix_.size() ? suffix_[idx] : 0.0;
}

double CountDistribution::pgf(double z) const {
  CNY_EXPECT(z >= 0.0 && z <= 1.0);
  double acc = 0.0;
  double zn = 1.0;
  for (double p : pmf_) {
    acc += p * zn;
    zn *= z;
  }
  return acc;
}

}  // namespace cny::cnt
