// Probability distribution of the CNT count N(W) in a CNFET of width W
// ([Zhang 09a] model, Sec 2.1 of the paper).
//
// With CNT positions a stationary Gamma(k, θ) renewal process, the distance
// to the first CNT follows the equilibrium law f_e, and the next n-1 gaps sum
// to a Gamma((n-1)k, θ) variable, so
//
//   P{N(W) >= n} = ∫_0^W f_e(u) · F_{(n-1)k,θ}(W - u) du,      n >= 1
//   P{N(W) = n}  = ∫_0^W f_e(u) · [Q_{nk,θ}(W-u) - Q_{(n-1)k,θ}(W-u)] du
//
// where F/Q are the regularized incomplete-gamma CDF/CCDF. The PMF form uses
// *upper* tails so the deep-tail probabilities that dominate p_F (eq. 2.2)
// are computed with full relative precision instead of catastrophic
// cancellation between two values near 1.
#pragma once

#include <vector>

#include "cnt/pitch_model.h"

namespace cny::cnt {

class CountDistribution {
 public:
  /// Computes the PMF of N(W) for window width `width` (nm, >= 0).
  CountDistribution(const PitchModel& pitch, double width);

  [[nodiscard]] double width() const { return width_; }
  [[nodiscard]] long max_n() const { return static_cast<long>(pmf_.size()) - 1; }

  /// P{N = n}; 0 beyond max_n().
  [[nodiscard]] double pmf(long n) const;
  [[nodiscard]] const std::vector<double>& pmf() const { return pmf_; }

  /// P{N >= n}; O(1) via suffix sums precomputed at construction (was an
  /// O(support) scan per call).
  [[nodiscard]] double tail(long n) const;

  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const { return var_; }

  /// Probability generating function E[z^N] for z in [0, 1].
  /// pgf(p_f) is exactly the CNFET failure probability of eq. (2.2).
  [[nodiscard]] double pgf(double z) const;

  /// Total PMF mass (should be 1 up to quadrature error; exposed for tests).
  [[nodiscard]] double total_mass() const { return total_; }

 private:
  double width_;
  std::vector<double> pmf_;
  std::vector<double> suffix_;  ///< suffix_[n] = P{N >= n}
  double mean_ = 0.0;
  double var_ = 0.0;
  double total_ = 0.0;
};

}  // namespace cny::cnt
