// YieldFlow — the one-call entry point a downstream user adopts: give it a
// library, a design and process assumptions; it runs the paper's whole
// methodology and reports every layout strategy side by side.
//
//   strategies compared (Sec 2 vs Sec 3):
//     Uncorrelated        — eq. 2.5 W_min, no correlation credit
//     DirectionalOnly     — directional growth, unmodified library
//                           (numerical p_RF over the library's offsets)
//     AlignedOneRow       — aligned-active, one grid row per polarity
//     AlignedTwoRows      — two grid rows (area-free, 2X less credit)
//
// Outputs per strategy: the earned relaxation, W_min, upsizing power
// penalty, and (for the aligned flows) the library area increase.
#pragma once

#include <string>
#include <vector>

#include "celllib/generator.h"
#include "device/failure_model.h"
#include "netlist/design.h"
#include "scenario/spec.h"
#include "util/table.h"
#include "yield/wmin_solver.h"

namespace cny::yield {

enum class Strategy {
  Uncorrelated,
  DirectionalOnly,
  AlignedOneRow,
  AlignedTwoRows,
};

[[nodiscard]] const char* to_string(Strategy s);

struct FlowParams {
  double yield_desired = 0.90;
  double chip_transistors = 1e8;   ///< design is count-scaled to this M
  double l_cnt = 200.0e3;          ///< nm
  double fets_per_um = 1.8;        ///< P_min-CNFET (paper's measured value)
  double active_spacing = 140.0;   ///< same-y diffusion rule for alignment
  std::size_t mc_samples = 20000;  ///< conditional-MC budget (DirectionalOnly)
  std::uint64_t seed = 1;
  /// Worker threads for the MC loops, the concurrent strategy solves and
  /// each exact p_F query's node loop; 0 = hardware concurrency. Pure
  /// scheduling: every reported number is invariant under n_threads.
  unsigned n_threads = 0;
  /// RNG streams the conditional MC is sharded into. Together with `seed`
  /// this fixes the random sequence, so results are a function of
  /// (seed, mc_streams) only. 1 reproduces the pre-exec-subsystem serial
  /// numbers bit-for-bit (stream 0 is the legacy serial order).
  unsigned mc_streams = 16;
  /// Route p_F(W) queries through a bracket-scoped log-p_F interpolant
  /// built over the solver's W bracket (on a flow-local copy of the model —
  /// the caller's model keeps answering exactly). The knots are exact
  /// truncated-kernel evaluations, so the table costs `interpolant_knots`
  /// queries up front and repays them across every solver bracket step of
  /// every strategy; W_min shifts only by the interpolation error
  /// (~1e-4 nm with the default knot count). Defaults to off: exactness is
  /// the single-design default; the service's warm sessions share one
  /// such table across requests (service/session_cache.h).
  bool use_interpolant = false;
  std::size_t interpolant_knots = 65;
  /// Failure-mechanism selection (scenario/spec.h): optional ShortFailure /
  /// FiniteLength / RemovalFrontier blocks composed by the scenario engine.
  /// An empty spec (the default) reproduces the open-only flow bit for bit.
  scenario::ScenarioSpec scenario;
};

/// The one range check every front end shares (run_flow itself, the CLI,
/// and the service protocol decoder): validates each FlowParams field and
/// the embedded scenario spec, NaN-safe, throwing std::invalid_argument
/// whose message names the offending field and nothing else (it crosses
/// the service wire verbatim). Scheduling knobs (n_threads, interpolant)
/// are unconstrained — they never change results.
void validate(const FlowParams& params);

struct StrategyResult {
  Strategy strategy = Strategy::Uncorrelated;
  double relaxation = 1.0;      ///< p_F requirement credit vs uncorrelated
  double w_min = 0.0;           ///< nm
  double power_penalty = 0.0;   ///< upsizing capacitance penalty (fraction)
  double area_penalty = 0.0;    ///< library placement-area increase
  std::size_t cells_widened = 0;
  // Scenario-engine columns; the defaults are the mechanism-off values, so
  // an empty ScenarioSpec leaves the struct indistinguishable from pre-
  // scenario results.
  double short_mode_yield = 1.0; ///< Y_S at w_min (ShortFailure)
  double required_p_rm = 0.0;    ///< short-mode p_Rm floor at w_min (ShortFailure)
  double length_scale = 1.0;     ///< aligned-credit rescale (FiniteLength)
};

struct FlowResult {
  std::vector<StrategyResult> strategies;  ///< in enum order
  double m_r_min = 0.0;
  std::uint64_t m_min_uncorrelated = 0;
  /// Echo of the spec the flow ran under (empty for the open-only flow).
  scenario::ScenarioSpec scenario;
  /// p_Rs the RemovalFrontier mechanism earned from the frontier (only
  /// meaningful when scenario.removal is set).
  double derived_p_rs = 0.0;

  [[nodiscard]] const StrategyResult& get(Strategy s) const;
  [[nodiscard]] util::Table summary_table() const;
};

/// Runs every strategy. The design must target `lib`.
[[nodiscard]] FlowResult run_flow(const celllib::Library& lib,
                                  const netlist::Design& design,
                                  const device::FailureModel& model,
                                  const FlowParams& params);

}  // namespace cny::yield
