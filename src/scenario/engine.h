// Scenario engine — turns the extension models into pluggable, composable
// yield mechanisms (the ROADMAP "new scenarios" item).
//
// Three pieces:
//
//  * Mechanism names. The three mechanisms are the three optional blocks of
//    a ScenarioSpec; `--scenario=shorts,length,removal` style selections
//    resolve to a spec (spec_from_names) and a spec echoes its enabled
//    mechanisms back in composition order (names).
//
//  * Parameter validation. scenario::validate(spec) is the single range
//    check for every mechanism block, and yield::validate(FlowParams) (which
//    calls it) is the one helper run_flow, the CLI, and the protocol decoder
//    all share — a bad value produces the same ContractViolation message no
//    matter which door it came in through.
//
//  * Composition. An Engine compiled from (FlowParams, pitch, base process)
//    owns the combined-yield semantics, applied in composition order:
//
//      1. RemovalFrontier derives the p_f-relevant process corner:
//         p_Rs = Φ(Φ⁻¹(p_rm_target) − selectivity) — earned, not assumed.
//         The flow rebuilds its FailureModel only when the supplied model
//         is not already at the derived corner (the service's session
//         cache keys on the derived corner, so warm models pass through).
//      2. ShortFailure multiplies open-mode survival by the short-mode
//         chip yield Y_S(W) (device::ShortModel at the derived corner's
//         p_Rm); the W_min solver receives Y_S as its combined-target
//         hook and the result reports the p_Rm the short mode alone
//         would require (à la ShortModel::required_p_rm).
//      3. FiniteLength rescales the aligned-strategy relaxation by the
//         exact finite-tube union ratio (see aligned_length_scale).
//
//    An empty spec compiles to an Engine whose every hook is the identity,
//    leaving run_flow bit-identical to the open-only flow.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cnt/pitch_model.h"
#include "cnt/process.h"
#include "scenario/spec.h"
#include "yield/flow.h"

namespace cny::scenario {

/// Builds a spec from a comma-separated mechanism list
/// ("shorts,length,removal"); each named mechanism is enabled with its
/// defaults. Throws std::invalid_argument on an unknown name; "" or
/// "none" yields an empty spec.
[[nodiscard]] ScenarioSpec spec_from_names(std::string_view csv);

/// Canonical comma-separated names of the enabled mechanisms in
/// composition order — removal, shorts, length ("" if empty).
[[nodiscard]] std::string names(const ScenarioSpec& spec);

/// Validates every enabled mechanism's parameters (NaN-safe), in
/// composition order; throws std::invalid_argument naming the offending
/// parameter. The FlowParams-level twin is yield::validate.
void validate(const ScenarioSpec& spec);

/// The p_f-relevant process corner after mechanism derivation: base with
/// RemovalFrontier's (p_Rm target, earned p_Rs) applied. Identity for specs
/// without removal. Deterministic, so the service's session key and the
/// flow's rebuild check always agree on the corner.
[[nodiscard]] cnt::ProcessParams derived_process(cnt::ProcessParams base,
                                                 const ScenarioSpec& spec);

/// A ScenarioSpec compiled against one flow evaluation's pitch model, base
/// process corner, and FlowParams.
class Engine {
 public:
  Engine(const yield::FlowParams& params, const cnt::PitchModel& pitch,
         const cnt::ProcessParams& base_process);

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] bool active() const { return !spec_.empty(); }
  [[nodiscard]] bool shorts_active() const { return spec_.shorts.has_value(); }
  [[nodiscard]] bool length_active() const { return spec_.length.has_value(); }
  [[nodiscard]] bool removal_active() const {
    return spec_.removal.has_value();
  }

  /// The derived process corner the flow must evaluate p_F at.
  [[nodiscard]] const cnt::ProcessParams& process() const { return process_; }

  /// Whether a model built at `model_process` already answers for the
  /// derived corner (only the p_f-relevant fields matter: p_F never
  /// depends on p_Rm).
  [[nodiscard]] bool matches(const cnt::ProcessParams& model_process) const;

  /// The effective short-mode p_Rm: RemovalFrontier's target when removal
  /// is enabled, the ShortFailure block's own p_rm otherwise.
  [[nodiscard]] double short_p_rm() const;

  /// Short-mode chip yield Y_S(w): all chip_transistors devices evaluated
  /// at threshold width w (monotone non-increasing in w). Empty function
  /// when ShortFailure is off — the W_min solver then runs open-only.
  [[nodiscard]] std::function<double(double)> short_mode_yield() const;

  /// Smallest p_Rm whose short mode alone meets the chip yield target at
  /// width `w_min` (à la ShortModel::required_p_rm). Requires
  /// shorts_active().
  [[nodiscard]] double required_p_rm(double w_min) const;

  /// FiniteLength rescale of the aligned-row relaxation credit, probed at
  /// functional-CNT density `lambda_s` (per nm) and device width `w`:
  ///
  ///   scale = p_RF(exact union, point mass at l_cnt)
  ///         / p_RF(exact union, LengthModel{mean, cv})
  ///
  /// over sample_devices neighbouring devices at the 1/P_min-CNFET pitch.
  /// The paper's M_Rmin credit already encodes "tubes of length exactly
  /// l_cnt define the sharing segment"; the ratio measures how the credit
  /// departs from that as the length law does, with the residual-
  /// independence factor common to both unions cancelling. Exactly 1 when
  /// FiniteLength is off or the law is the point mass at l_cnt.
  [[nodiscard]] double aligned_length_scale(double lambda_s, double w) const;

 private:
  ScenarioSpec spec_;
  cnt::PitchModel pitch_;
  cnt::ProcessParams process_;
  double chip_transistors_;
  double yield_desired_;
  double l_cnt_;
  double fets_per_um_;
};

}  // namespace cny::scenario
