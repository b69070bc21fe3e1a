// ScenarioSpec — the failure-mechanism selection a flow evaluation runs
// under (see scenario/engine.h for the mechanism names and composition
// semantics).
//
// The paper's headline analysis covers only the open-failure mode (too few
// functional CNTs under a gate). Its Sec 2.1/3.1 side remarks — imperfect
// m-CNT removal shorting devices [Zhang 09b], collateral s-CNT loss from
// VMR-style removal [Patil 09c], finite/variable CNT length — exist in this
// tree as standalone models. A ScenarioSpec makes them composable knobs of
// `run_flow`, the campaign runner and the yield service: each mechanism is an
// optional parameter block; absent means "the paper's assumption" and an
// empty spec reproduces the open-only flow bit for bit.
//
// This header is deliberately dependency-free (plain data only) so it can be
// embedded in yield::FlowParams and cross the service wire without dragging
// the mechanism implementations along.
#pragma once

#include <optional>

namespace cny::scenario {

/// Surviving-m-CNT short/noise-margin mode (wraps device::ShortModel,
/// citing [Zhang 09b]): removal keeps each metallic CNT with probability
/// 1 - p_rm; a device retaining one is noise-susceptible and fails with
/// probability p_noise_fails. Chip yield becomes the product of open-mode
/// and short-mode survival and the W_min solver targets the combined
/// requirement. p_rm = 1 degenerates to the open-only numbers exactly.
struct ShortFailure {
  /// Removal probability given metallic. The default sits just above the
  /// ~1 - 1e-8 the short mode demands of a 10^8-transistor chip at 90 %
  /// yield — the quantitative form of the paper's "p_Rm > 99.99 % is
  /// required" remark. When RemovalFrontier is also enabled its
  /// p_rm_target supersedes this value (one removal strength drives both
  /// the collateral p_Rs and the residual m-CNTs).
  double p_rm = 0.999999999;
  /// Probability a noise-susceptible gate actually fails logically
  /// (signal restoration in following CMOS stages usually absorbs the
  /// degraded margin [Zolotov 02], Sec 2.1).
  double p_noise_fails = 0.01;
};

/// Finite / variable CNT length (the Sec 3.1 deferral): aligned-row p_RF is
/// routed through yield::p_rf_finite_length instead of the paper's
/// perfect-sharing-within-L_CNT segment kernel. The relaxation an aligned
/// strategy earns is rescaled by the exact-union ratio between this length
/// law and the paper's implied point mass at l_cnt, so {mean = l_cnt,
/// cv = 0} reproduces the infinite-tube numbers exactly.
struct FiniteLength {
  double mean = 200.0e3;  ///< nm (the paper's L_CNT = 200 µm)
  double cv = 0.0;        ///< lognormal length CV; 0 = point mass
  /// Devices of the sampled row neighbourhood the exact union is evaluated
  /// over (at the paper's 1/P_min-CNFET pitch). Must stay <= 22 so the
  /// inclusion–exclusion engine is exact (and deterministic).
  int sample_devices = 16;
};

/// m-CNT removal selectivity frontier (VMR-style [Patil 09c], wraps
/// cnt::RemovalTradeoff): the process corner's p_Rs is *earned* from the
/// probit frontier at the targeted p_Rm instead of assumed — p_Rs =
/// Φ(Φ⁻¹(p_rm_target) - selectivity). The flow (and the service's session
/// cache) then evaluates the derived corner.
struct RemovalFrontier {
  double selectivity = 4.24;   ///< frontier separation, sigma units
  double p_rm_target = 0.9999; ///< removal efficiency the strength is tuned for
};

/// Mechanism selection. Mechanisms compose: RemovalFrontier derives the
/// process corner first, ShortFailure then taxes the yield budget at that
/// corner's p_Rm, FiniteLength rescales the aligned-row correlation credit.
struct ScenarioSpec {
  std::optional<ShortFailure> shorts;
  std::optional<FiniteLength> length;
  std::optional<RemovalFrontier> removal;

  [[nodiscard]] bool empty() const { return !shorts && !length && !removal; }
};

}  // namespace cny::scenario
