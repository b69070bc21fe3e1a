#include "yield/wmin_solver.h"

#include <array>
#include <cmath>

#include "numeric/roots.h"
#include "util/contracts.h"

namespace cny::yield {

double invert_p_f(const device::FailureModel& model, double p_f_target,
                  double w_lo, double w_hi) {
  CNY_EXPECT(p_f_target > 0.0 && p_f_target < 1.0);
  CNY_EXPECT(w_lo > 0.0 && w_hi > w_lo);
  // Work in log space: log p_F(W) is close to linear in W (Fig 2.1), which
  // makes Brent converge in a handful of iterations.
  const auto log_pf = [&](double w) { return std::log(model.p_f(w)); };
  const double target = std::log(p_f_target);
  // Both bracket endpoints in one batched query: on a cold model (no
  // interpolant, empty memo) the two kernel evaluations share one pass.
  // Refinement queries below are inherently serial (Brent picks each
  // abscissa from the previous result) and hit the memo/interpolant.
  const std::array<double, 2> bracket = {w_lo, w_hi};
  const auto bracket_pf = model.p_f_batch(bracket);
  CNY_EXPECT_MSG(std::log(bracket_pf[0]) >= target,
                 "W bracket too high: p_F(w_lo) below target");
  CNY_EXPECT_MSG(std::log(bracket_pf[1]) <= target,
                 "W bracket too low: p_F(w_hi) above target");
  const auto res = cny::numeric::invert_decreasing(log_pf, target, w_lo, w_hi,
                                                   1e-6);
  CNY_ENSURE(res.converged);
  return res.x;
}

WminResult solve_w_min(const WidthSpectrum& spectrum,
                       const device::FailureModel& model,
                       const WminRequest& request) {
  CNY_EXPECT(request.yield_desired > 0.0 && request.yield_desired < 1.0);
  CNY_EXPECT(request.relaxation >= 1.0);
  CNY_EXPECT(!spectrum.empty());

  if (request.short_mode_yield) {
    // Combined open+short target: fixpoint the open-mode solve against the
    // effective target Y / Y_S(W). Y_S is non-increasing in W and Y_open's
    // solution is increasing in the target, so the iterates W_k climb
    // monotonically toward the combined solution — or walk cleanly into
    // the "no open-mode budget left" guard when the short mode alone
    // cannot reach Y. Y_S == 1 (perfect removal) passes Y through exactly
    // (x / 1.0 == x), making the first solve the open-only result bit for
    // bit and terminating immediately.
    WminRequest open = request;
    open.short_mode_yield = nullptr;
    double y_short = 1.0;
    constexpr int kMaxCombinedIterations = 40;
    for (int iter = 1; iter <= kMaxCombinedIterations; ++iter) {
      open.yield_desired = request.yield_desired / y_short;
      WminResult result = solve_w_min(spectrum, model, open);
      const double y_new = request.short_mode_yield(result.w_min);
      CNY_ENSURE_MSG(y_new >= 0.0 && y_new <= 1.0,
                     "short-mode yield hook must return a value in [0, 1]");
      // Y_S only falls as W grows and the combined W can only grow from
      // here, so Y_S already at or below the target proves infeasibility.
      CNY_EXPECT_MSG(
          y_new > request.yield_desired,
          "short mode leaves no open-mode yield budget (Y_S(W) <= "
          "yield_desired): raise p_Rm, lower p_noise_fails, or shrink the "
          "chip");
      result.short_mode_yield = y_new;
      // Stop just above the jitter floor the inner Brent's 1e-6 nm W
      // tolerance induces on Y_S (~1e-9 relative): tighter would chase
      // noise, looser would cost W_min digits. Exact equality (Y_S == 1,
      // p_Rm = 1) exits on the first pass with the open-only result.
      if (std::fabs(y_new - y_short) <= 1e-7 * y_short) return result;
      y_short = y_new;
    }
    CNY_ENSURE_MSG(false, "combined open+short W_min fixpoint did not "
                          "converge");
  }

  const double budget = 1.0 - request.yield_desired;

  WminResult result;
  // Initial M_min guess: every transistor (pessimistic; shrinks monotonely).
  std::uint64_t m_min = request.fixed_m_min > 0 ? request.fixed_m_min
                                                : spectrum_count(spectrum);
  constexpr int kMaxIterations = 30;
  for (int iter = 1; iter <= kMaxIterations; ++iter) {
    result.iterations = iter;
    const double target =
        budget / static_cast<double>(m_min) * request.relaxation;
    CNY_EXPECT_MSG(target < 1.0, "yield target unreachable: p_F* >= 1");
    const double w = invert_p_f(model, target, request.w_lo, request.w_hi);

    if (request.fixed_m_min > 0) {
      result.w_min = w;
      result.p_f_target = target;
      result.m_min = m_min;
      result.converged = true;
      break;
    }

    // Recount: devices that would sit at the threshold after upsizing.
    std::uint64_t count = 0;
    for (const auto& [width, n] : spectrum) {
      if (width <= w) count += n;
    }
    if (count == 0) {
      // Every device already exceeds the candidate threshold: the design
      // meets the yield target with no upsizing at all.
      result.w_min = w;
      result.p_f_target = target;
      result.m_min = 0;
      result.converged = true;
      break;
    }
    if (count == m_min) {
      result.w_min = w;
      result.p_f_target = target;
      result.m_min = m_min;
      result.converged = true;
      break;
    }
    m_min = count;
  }
  CNY_ENSURE_MSG(result.converged, "W_min fixpoint did not converge");
  return result;
}

}  // namespace cny::yield
