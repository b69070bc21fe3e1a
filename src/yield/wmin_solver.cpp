#include "yield/wmin_solver.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/contracts.h"

namespace cny::yield {

namespace {

/// One evaluated point of the log p_F curve.
struct Sample {
  double w;
  double log_pf;
};

/// The points one solve has evaluated, in order, start pair first. They
/// carry from inversion to inversion (M_min rounds, ShortFailure
/// iterations), so a new target starts from the secant through the
/// previous root.
using Trail = std::vector<Sample>;

/// W such that log p_F(W) = log(p_f_target), by a secant iteration on
/// log p_F — close to linear in W (Fig 2.1), and exactly linear for Poisson
/// pitch. Opens on the start pair, or on the last two points of `trail`.
/// Every step stays inside the bracket the evaluated points define;
/// one that would leave it bisects instead. Until p_F(w_hi) is known the
/// bracket is open above, so such a step evaluates w_hi itself. Returns the
/// predicted root once the next step is within 1e-6 nm, unevaluated.
double invert(const device::FailureModel& model, double p_f_target,
              double w_lo, double w_hi, Trail& trail) {
  CNY_EXPECT(p_f_target > 0.0 && p_f_target < 1.0);
  CNY_EXPECT(w_lo > 0.0 && w_hi > w_lo);
  const double target = std::log(p_f_target);
  if (trail.empty()) {
    const auto pair = start_pair(w_lo, w_hi);
    trail = {{pair[0], std::log(model.p_f(pair[0]))},
             {pair[1], std::log(model.p_f(pair[1]))}};
  }
  CNY_EXPECT_MSG(trail.front().log_pf >= target,
                 "W bracket too high: p_F(w_lo) below target");
  constexpr int kMaxSteps = 200;
  for (int step = 0; step < kMaxSteps; ++step) {
    double a = w_lo;
    double b = w_hi;
    bool closed = false;  // p_F(b) evaluated and below target
    for (const auto& p : trail) {
      if (p.log_pf == target) return p.w;
      if (p.log_pf > target) {
        a = std::max(a, p.w);
      } else if (p.w <= b) {
        b = p.w;
        closed = true;
      }
    }
    CNY_EXPECT_MSG(a < w_hi, "W bracket too low: p_F(w_hi) above target");
    const Sample& p0 = trail[trail.size() - 2];
    const Sample& p1 = trail.back();
    double w = p1.w - (p1.log_pf - target) * (p1.w - p0.w) /
                          (p1.log_pf - p0.log_pf);
    if (!(w > a && w < b)) w = closed ? 0.5 * (a + b) : w_hi;
    // w_hi is only ever reached open, so it is never returned unevaluated.
    if (w < w_hi && std::fabs(w - p1.w) <= 1e-6) return w;
    trail.push_back({w, std::log(model.p_f(w))});
  }
  CNY_ENSURE_MSG(false, "p_F inversion did not converge");
  return 0.0;  // unreachable
}

/// The open-only eq. 2.5 fixpoint for `yield_desired`, inverting on `trail`.
WminResult solve_open(const WidthSpectrum& spectrum,
                      const device::FailureModel& model,
                      const WminRequest& request, double yield_desired,
                      Trail& trail) {
  const double budget = 1.0 - yield_desired;
  // Initial M_min guess: every transistor (pessimistic; shrinks monotonely).
  std::uint64_t m_min = request.fixed_m_min > 0 ? request.fixed_m_min
                                                : spectrum_count(spectrum);
  constexpr int kMaxIterations = 30;
  for (int iter = 1; iter <= kMaxIterations; ++iter) {
    const double target =
        budget / static_cast<double>(m_min) * request.relaxation;
    CNY_EXPECT_MSG(target < 1.0, "yield target unreachable: p_F* >= 1");
    const double w = invert(model, target, request.w_lo, request.w_hi, trail);
    // Recount: devices that would sit at the threshold after upsizing. None
    // means every device already exceeds it: no upsizing at all.
    std::uint64_t count = m_min;
    if (request.fixed_m_min == 0) {
      count = 0;
      for (const auto& [width, n] : spectrum) {
        if (width <= w) count += n;
      }
    }
    if (count == 0 || count == m_min) {
      return {.w_min = w, .p_f_target = target, .m_min = count,
              .iterations = iter,
              .p_f_queries = static_cast<int>(trail.size()) - 2,
              .converged = true};
    }
    m_min = count;
  }
  CNY_ENSURE_MSG(false, "W_min fixpoint did not converge");
  return {};  // unreachable
}

}  // namespace

std::array<double, 2> start_pair(double w_lo, double w_hi) {
  return {w_lo, std::sqrt(w_lo * w_hi)};
}

double invert_p_f(const device::FailureModel& model, double p_f_target,
                  double w_lo, double w_hi) {
  Trail trail;
  return invert(model, p_f_target, w_lo, w_hi, trail);
}

WminResult solve_w_min(const WidthSpectrum& spectrum,
                       const device::FailureModel& model,
                       const WminRequest& request) {
  CNY_EXPECT(request.yield_desired > 0.0 && request.yield_desired < 1.0);
  CNY_EXPECT(request.relaxation >= 1.0);
  CNY_EXPECT(!spectrum.empty());

  Trail trail;
  if (!request.short_mode_yield) {
    return solve_open(spectrum, model, request, request.yield_desired, trail);
  }
  // Combined open+short target: fixpoint the open-mode solve against the
  // effective target Y / Y_S(W). Y_S is non-increasing in W and Y_open's
  // solution is increasing in the target, so the iterates W_k climb
  // monotonically toward the combined solution — or walk cleanly into the
  // "no open-mode budget left" guard when the short mode alone cannot
  // reach Y. Y_S == 1 (perfect removal) passes Y through exactly
  // (x / 1.0 == x), making the first solve the open-only result bit for
  // bit and terminating immediately.
  double y_short = 1.0;
  constexpr int kMaxCombinedIterations = 40;
  for (int iter = 1; iter <= kMaxCombinedIterations; ++iter) {
    WminResult result = solve_open(spectrum, model, request,
                                   request.yield_desired / y_short, trail);
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
    // Stop just above the jitter floor the inversion's 1e-6 nm W
    // tolerance induces on Y_S (~1e-9 relative): tighter would chase
    // noise, looser would cost W_min digits. Exact equality (Y_S == 1,
    // p_Rm = 1) exits on the first pass with the open-only result.
    if (std::fabs(y_new - y_short) <= 1e-7 * y_short) return result;
    y_short = y_new;
  }
  CNY_ENSURE_MSG(false, "combined open+short W_min fixpoint did not "
                        "converge");
  return {};  // unreachable
}

}  // namespace cny::yield
