// W_min solver (eqs. 2.4 / 2.5).
//
// The paper's simplification: neglect yield loss from non-minimum devices,
// so the threshold width W_t = W_min must satisfy
//
//   M_min · p_F(W_min) <= 1 - Yield_desired
//
// where M_min is the number of devices at/below the threshold *after*
// upsizing — which itself depends on W_min, so the solver iterates the
// fixpoint ("estimating M_min can be iterative in nature", Sec 2.2). The
// graphical procedure of Fig 2.1 — draw the horizontal line at
// (1 - Yield_desired)/M_min and intersect the p_F curve — is the inner
// inversion step.
#pragma once

#include <array>
#include <functional>

#include "device/failure_model.h"
#include "yield/circuit_yield.h"

namespace cny::yield {

struct WminRequest {
  double yield_desired = 0.90;
  /// Failure-probability relaxation from correlation (Sec 3.1): the target
  /// p_F* is multiplied by this factor (350 for the paper's combined
  /// directional-growth + aligned-active flow at 45 nm). 1 = uncorrelated.
  double relaxation = 1.0;
  /// Optional fixed M_min (0 = derive from the spectrum by iteration).
  std::uint64_t fixed_m_min = 0;
  /// Search bracket for W (nm).
  double w_lo = 4.0;
  double w_hi = 400.0;
  /// Optional second failure mode: chip-level short-mode yield Y_S(W),
  /// monotone non-increasing in W (wider devices keep more m-CNTs). When
  /// set, the solver targets the combined requirement
  ///
  ///   Y_open(W_min) · Y_S(W_min) >= yield_desired
  ///
  /// by fixpointing the open-mode solve against an effective target
  /// yield_desired / Y_S (the scenario engine's ShortFailure mechanism
  /// supplies the hook). Empty (the default) runs the open-only eq. 2.5
  /// solve unchanged; a hook that evaluates to exactly 1 (p_Rm = 1)
  /// reproduces the open-only result bit for bit.
  std::function<double(double)> short_mode_yield;
  /// Thread budget of each exact p_F query (FailureModel::p_f); 0 =
  /// hardware concurrency. Scheduling only: the result is the same at
  /// every budget.
  unsigned n_threads = 1;
};

struct WminResult {
  double w_min = 0.0;          ///< solved threshold width (nm)
  double p_f_target = 0.0;     ///< (1-Y)/M_min · relaxation
  std::uint64_t m_min = 0;     ///< devices counted as minimum-size
  int iterations = 0;          ///< fixpoint iterations used
  int p_f_queries = 0;         ///< p_F queries after the start pair
  bool converged = false;
  double short_mode_yield = 1.0; ///< Y_S(w_min); 1 when the hook is absent
};

/// Solves W_min for the given width spectrum and device model. The
/// solution is not re-verified against the full spectrum: callers that
/// want the chip yield at W_min ask circuit_yield() for it.
[[nodiscard]] WminResult solve_w_min(const WidthSpectrum& spectrum,
                                     const device::FailureModel& model,
                                     const WminRequest& request);

/// The graphical inner step alone: W such that p_F(W) = target, within
/// 1e-6 nm.
[[nodiscard]] double invert_p_f(const device::FailureModel& model,
                                double p_f_target, double w_lo = 4.0,
                                double w_hi = 400.0);

/// The two widths every inversion on [w_lo, w_hi] evaluates first: w_lo and
/// the bracket's geometric midpoint (4 and 40 nm by default). p_F(w_hi) is
/// evaluated only when an iterate reaches it.
[[nodiscard]] std::array<double, 2> start_pair(double w_lo, double w_hi);

}  // namespace cny::yield
