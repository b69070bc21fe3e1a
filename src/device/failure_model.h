// CNFET CNT-count failure model (Sec 2.1, eq. 2.2).
//
// A CNFET of width W contains N(W) CNTs before m-CNT removal; each CNT
// independently "fails" (is metallic, or is semiconducting but inadvertently
// removed) with probability p_f. The device suffers a CNT count failure when
// every CNT fails:
//
//   p_F(W) = Σ_N  p_f^N · Prob{N(W) = N}  =  G_{N(W)}(p_f)
//
// i.e. the count distribution's probability generating function at p_f,
// evaluated in closed form by residues of its Laplace transform in W
// (cnt/count_pgf.h).
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "cnt/growth.h"
#include "cnt/pitch_model.h"
#include "cnt/process.h"
#include "numeric/interp.h"
#include "rng/engine.h"
#include "stats/accumulator.h"

namespace cny::device {

class FailureModel {
 public:
  FailureModel(cnt::PitchModel pitch, cnt::ProcessParams process);

  // The memo cache and interpolant are internally synchronised, so a
  // member-wise default copy is not available; copies share nothing.
  // Assignment is deleted on purpose: pitch/process are immutable after
  // construction, which is what makes their lock-free reads on the hot
  // p_f path safe under concurrency.
  FailureModel(const FailureModel& other);
  FailureModel& operator=(const FailureModel&) = delete;

  [[nodiscard]] const cnt::PitchModel& pitch() const { return pitch_; }
  [[nodiscard]] const cnt::ProcessParams& process() const { return process_; }
  [[nodiscard]] double p_fail_per_cnt() const { return process_.p_fail(); }

  /// Analytic p_F(W), eq. (2.2). Results are memoised per width because the
  /// solvers re-query the same widths. The read path is lock-light so
  /// concurrent solver threads never serialise: when interpolation is
  /// enabled and `width` falls inside its range, an interpolant snapshot
  /// copied under a shared (reader) lock answers; otherwise the memo is
  /// consulted under a shared lock.
  [[nodiscard]] double p_f(double width) const;

  /// Always the analytic evaluation (cnt::count_pgf, exact to ~1e-13
  /// relative, a few microseconds), bypassing any enabled interpolant.
  /// Memoised and thread-safe.
  [[nodiscard]] double p_f_exact(double width) const;

  /// Builds (first call) a monotone-cubic interpolant of log p_F over
  /// geometrically spaced knots in [w_lo, w_hi] and routes subsequent
  /// in-range p_f() queries through it. One table build (`knots` exact
  /// evaluations, parallelised over `n_threads`) replaces the per-strategy
  /// per-design re-evaluation cost in warm sessions; geometric spacing
  /// concentrates knots at small W, where the exact evaluation is cheap and
  /// log p_F actually curves. Thread-safe and idempotent: later calls with
  /// a range already covered are no-ops, and readers racing the build
  /// simply fall back to the exact path.
  void enable_interpolation(double w_lo, double w_hi, std::size_t knots = 65,
                            unsigned n_threads = 1) const;

  /// Whether an interpolant is installed (and, if so, covering `width`).
  [[nodiscard]] bool interpolation_covers(double width) const;

  /// Closed form for the Poisson (CV = 1) pitch special case:
  ///   p_F = exp(-W/μ_S · (1 - p_f)).
  /// Throws unless the pitch model is Poisson; used for validation.
  [[nodiscard]] double p_f_poisson_closed_form(double width) const;

  /// Monte Carlo estimate of p_F(W): grows tube populations over many
  /// device instances and counts devices with zero functional tubes.
  /// `margin` (nm, >= 0) extends the grown band above and below the window
  /// so stationarity is honest even though the renewal starts at the band
  /// edge (the equilibrium first-gap draw already guarantees it; a nonzero
  /// margin makes the check independent of that guarantee). Practical only
  /// when p_F is not too rare (validation at small W / large p_f).
  [[nodiscard]] stats::Interval p_f_monte_carlo(double width,
                                                std::size_t n_devices,
                                                rng::Xoshiro256& rng,
                                                double margin = 0.0) const;

  /// Expected CNT count in a device of width W (= W/μ_S for the stationary
  /// process).
  [[nodiscard]] double mean_count(double width) const;

 private:
  struct LogPfInterp {
    double w_lo = 0.0;
    double w_hi = 0.0;
    numeric::MonotoneCubic log_pf;
  };

  [[nodiscard]] std::shared_ptr<const LogPfInterp> interpolant() const;

  cnt::PitchModel pitch_;
  cnt::ProcessParams process_;
  /// Interpolant snapshot: readers copy the pointer under a shared lock
  /// and evaluate outside it; a build publishes a complete table under the
  /// unique lock. (libstdc++ 12's std::atomic<std::shared_ptr> releases
  /// its load with a relaxed unlock, a race ThreadSanitizer reports once
  /// builds overlap.) `has_interp_` fronts it, so the no-interpolant p_f()
  /// path takes no lock on a memoised query.
  mutable std::atomic<bool> has_interp_{false};
  mutable std::shared_mutex interp_mutex_;
  mutable std::shared_ptr<const LogPfInterp> interp_;  // interp_mutex_
  /// Exact-value memo: widths sorted for binary search, readers under a
  /// shared lock so concurrent cache hits proceed in parallel.
  mutable std::shared_mutex memo_mutex_;
  mutable std::vector<std::pair<double, double>> memo_;
};

}  // namespace cny::device
