// Scalar root finding (used by the pitch and short-mode models).
#pragma once

#include <functional>

namespace cny::numeric {

struct RootResult {
  double x = 0.0;        ///< located root
  double fx = 0.0;       ///< residual f(x)
  int iterations = 0;    ///< iterations consumed
  bool converged = false;
};

/// Brent's method on [lo, hi]; requires f(lo) and f(hi) to bracket a root
/// (opposite signs, or either endpoint already within tol of zero).
[[nodiscard]] RootResult brent(const std::function<double(double)>& f,
                               double lo, double hi, double x_tol = 1e-10,
                               int max_iter = 200);

}  // namespace cny::numeric
