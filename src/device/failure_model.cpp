#include "device/failure_model.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "cnt/count_pgf.h"
#include "exec/thread_pool.h"
#include "util/contracts.h"

namespace cny::device {

namespace {

/// Sorted-vector memo lookup: iterator to the entry for `width`, or the
/// insertion point when absent.
auto memo_find(std::vector<std::pair<double, double>>& memo, double width) {
  return std::lower_bound(
      memo.begin(), memo.end(), width,
      [](const std::pair<double, double>& e, double w) { return e.first < w; });
}

}  // namespace

FailureModel::FailureModel(cnt::PitchModel pitch, cnt::ProcessParams process)
    : pitch_(pitch), process_(process) {
  process_.validate();
}

FailureModel::FailureModel(const FailureModel& other)
    : pitch_(other.pitch_), process_(other.process_) {
  // pitch_/process_ are immutable after construction (assignment is
  // deleted), so reading them above without synchronisation is safe; the
  // mutable caches are copied through their own synchronisation.
  interp_ = other.interpolant();
  has_interp_.store(interp_ != nullptr, std::memory_order_release);
  const std::shared_lock<std::shared_mutex> lock(other.memo_mutex_);
  memo_ = other.memo_;
}

std::shared_ptr<const FailureModel::LogPfInterp> FailureModel::interpolant()
    const {
  const std::shared_lock<std::shared_mutex> lock(interp_mutex_);
  return interp_;
}

double FailureModel::p_f(double width) const {
  CNY_EXPECT(width >= 0.0);
  // Hottest read path in the solvers: a relaxed flag probe, then (only
  // with a table installed) a pointer copy under the shared lock.
  // Concurrent enable_interpolation() publishes a fully built table
  // before raising the flag, so a snapshot is always safe to evaluate;
  // racing readers that miss the flag simply take the exact path.
  if (has_interp_.load(std::memory_order_relaxed)) {
    if (const auto interp = interpolant();
        interp && width >= interp->w_lo && width <= interp->w_hi) {
      return std::exp(interp->log_pf(width));
    }
  }
  return p_f_exact(width);
}

double FailureModel::p_f_exact(double width) const {
  CNY_EXPECT(width >= 0.0);
  {
    const std::shared_lock<std::shared_mutex> lock(memo_mutex_);
    if (const auto it = memo_find(memo_, width);
        it != memo_.end() && it->first == width) {
      return it->second;
    }
  }
  // Evaluate outside any lock: p_F is a pure function, so concurrent
  // duplicate work is merely wasted effort, never an inconsistency.
  const double value = cnt::count_pgf(pitch_, width, process_.p_fail());
  const std::unique_lock<std::shared_mutex> lock(memo_mutex_);
  if (const auto it = memo_find(memo_, width);
      it == memo_.end() || it->first != width) {
    memo_.insert(it, {width, value});
  }
  return value;
}

void FailureModel::enable_interpolation(double w_lo, double w_hi,
                                        std::size_t knots,
                                        unsigned n_threads) const {
  CNY_EXPECT(w_lo > 0.0 && w_hi > w_lo);
  CNY_EXPECT(knots >= 4);
  if (const auto cur = interpolant();
      cur && cur->w_lo <= w_lo && cur->w_hi >= w_hi) {
    return;
  }
  // Geometric knot spacing: log p_F(W) is nearly linear at large W
  // (Fig 2.1), so spend the knots where the curvature lives.
  std::vector<double> xs(knots), ys(knots);
  const double ratio = w_hi / w_lo;
  for (std::size_t i = 0; i < knots; ++i) {
    xs[i] = w_lo * std::pow(ratio, static_cast<double>(i) /
                                       static_cast<double>(knots - 1));
  }
  xs.back() = w_hi;  // guard against pow() rounding shrinking the range
  exec::parallel_for(knots, n_threads, [&](std::size_t i) {
    ys[i] = std::log(p_f_exact(xs[i]));
  });
  auto built = std::make_shared<const LogPfInterp>(
      LogPfInterp{w_lo, w_hi, numeric::MonotoneCubic(std::move(xs), std::move(ys))});
  // If a racing builder already installed a table covering this request,
  // keep it; otherwise publish ours so the requested range is served.
  // (One table at a time: a later call for a different range replaces it.)
  {
    const std::unique_lock<std::shared_mutex> lock(interp_mutex_);
    if (!(interp_ && interp_->w_lo <= w_lo && interp_->w_hi >= w_hi)) {
      interp_ = std::move(built);
    }
  }
  has_interp_.store(true, std::memory_order_release);
}

bool FailureModel::interpolation_covers(double width) const {
  const auto interp = interpolant();
  return interp && width >= interp->w_lo && width <= interp->w_hi;
}

double FailureModel::p_f_poisson_closed_form(double width) const {
  CNY_EXPECT(width >= 0.0);
  CNY_EXPECT_MSG(pitch_.is_poisson(),
                 "closed form only valid for CV = 1 (Poisson) pitch");
  return std::exp(-width * pitch_.density() * (1.0 - process_.p_fail()));
}

stats::Interval FailureModel::p_f_monte_carlo(double width,
                                              std::size_t n_devices,
                                              rng::Xoshiro256& rng,
                                              double margin) const {
  CNY_EXPECT(width > 0.0);
  CNY_EXPECT(n_devices >= 1);
  CNY_EXPECT(margin >= 0.0);
  std::size_t failures = 0;
  const cnt::DirectionalGrowth growth(pitch_, process_, /*cnt_length=*/1.0e6);
  for (std::size_t i = 0; i < n_devices; ++i) {
    const auto ys = growth.functional_positions(rng, -margin, width + margin);
    bool any = false;
    for (double y : ys) {
      if (y >= 0.0 && y < width) {
        any = true;
        break;
      }
    }
    if (!any) ++failures;
  }
  return stats::wilson_ci(failures, n_devices);
}

double FailureModel::mean_count(double width) const {
  CNY_EXPECT(width >= 0.0);
  return width * pitch_.density();
}

}  // namespace cny::device
