#include "scenario/engine.h"

#include <cmath>
#include <stdexcept>

#include "cnt/removal_tradeoff.h"
#include "device/short_model.h"
#include "util/contracts.h"
#include "util/strings.h"
#include "yield/length_variation.h"

namespace cny::scenario {

namespace {

/// NaN-safe range guard: NaN fails every comparison, so `ok` written in the
/// affirmative form rejects it for free. Plain invalid_argument (see
/// yield::validate): the message crosses the service wire verbatim.
void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

ScenarioSpec spec_from_names(std::string_view csv) {
  ScenarioSpec spec;
  for (const auto& token : util::split(csv, ',')) {
    if (token.empty() || token == "none") continue;
    if (token == "shorts") {
      if (!spec.shorts) spec.shorts.emplace();
    } else if (token == "length") {
      if (!spec.length) spec.length.emplace();
    } else if (token == "removal") {
      if (!spec.removal) spec.removal.emplace();
    } else {
      throw std::invalid_argument("unknown scenario mechanism '" + token +
                                  "' (known: shorts, length, removal)");
    }
  }
  return spec;
}

std::string names(const ScenarioSpec& spec) {
  // Composition order: the corner is derived before the mechanisms that
  // read it.
  std::string out;
  const auto add = [&out](bool enabled, const char* name) {
    if (!enabled) return;
    if (!out.empty()) out += ',';
    out += name;
  };
  add(spec.removal.has_value(), "removal");
  add(spec.shorts.has_value(), "shorts");
  add(spec.length.has_value(), "length");
  return out;
}

void validate(const ScenarioSpec& spec) {
  if (spec.removal) {
    check(spec.removal->selectivity > 0.0 && spec.removal->selectivity <= 20.0,
          "scenario removal: selectivity must be in (0, 20] sigma");
    check(spec.removal->p_rm_target > 0.0 && spec.removal->p_rm_target < 1.0,
          "scenario removal: p_rm_target must be in (0, 1)");
  }
  if (spec.shorts) {
    check(spec.shorts->p_rm > 0.0 && spec.shorts->p_rm <= 1.0,
          "scenario shorts: p_rm must be in (0, 1]");
    check(spec.shorts->p_noise_fails >= 0.0 &&
              spec.shorts->p_noise_fails <= 1.0,
          "scenario shorts: p_noise_fails must be in [0, 1]");
  }
  if (spec.length) {
    check(spec.length->mean > 0.0 && spec.length->mean <= 1.0e9,
          "scenario length: mean must be in (0, 1e9] nm");
    check(spec.length->cv >= 0.0 && spec.length->cv <= 3.0,
          "scenario length: cv must be in [0, 3]");
    check(spec.length->sample_devices >= 2 &&
              spec.length->sample_devices <= 22,
          "scenario length: sample_devices must be in [2, 22] (exact "
          "inclusion-exclusion bound)");
  }
}

cnt::ProcessParams derived_process(cnt::ProcessParams base,
                                   const ScenarioSpec& spec) {
  if (spec.removal) {
    const cnt::RemovalTradeoff tradeoff(spec.removal->selectivity);
    base.p_remove_m = spec.removal->p_rm_target;
    base.p_remove_s = tradeoff.p_rs_at(spec.removal->p_rm_target);
  }
  return base;
}

Engine::Engine(const yield::FlowParams& params, const cnt::PitchModel& pitch,
               const cnt::ProcessParams& base_process)
    : spec_(params.scenario),
      pitch_(pitch),
      process_(derived_process(base_process, params.scenario)),
      chip_transistors_(params.chip_transistors),
      yield_desired_(params.yield_desired),
      l_cnt_(params.l_cnt),
      fets_per_um_(params.fets_per_um) {
  validate(spec_);
}

bool Engine::matches(const cnt::ProcessParams& model_process) const {
  return model_process.p_metallic == process_.p_metallic &&
         model_process.p_remove_s == process_.p_remove_s;
}

double Engine::short_p_rm() const {
  CNY_EXPECT(spec_.shorts.has_value());
  return spec_.removal ? spec_.removal->p_rm_target : spec_.shorts->p_rm;
}

std::function<double(double)> Engine::short_mode_yield() const {
  if (!spec_.shorts) return {};
  cnt::ProcessParams process = process_;
  process.p_remove_m = short_p_rm();
  const device::ShortModel model(pitch_, process);
  const double n_devices = chip_transistors_;
  const double p_noise = spec_.shorts->p_noise_fails;
  return [model, n_devices, p_noise](double w) {
    return model.chip_yield_shorts(w, n_devices, p_noise);
  };
}

double Engine::required_p_rm(double w_min) const {
  CNY_EXPECT(spec_.shorts.has_value());
  return device::ShortModel::required_p_rm(
      pitch_, process_.p_metallic, w_min, chip_transistors_,
      spec_.shorts->p_noise_fails, yield_desired_);
}

double Engine::aligned_length_scale(double lambda_s, double w) const {
  if (!spec_.length) return 1.0;
  const FiniteLength& length = *spec_.length;
  // A neighbourhood sample of critical devices at the paper's measured
  // pitch; the span stays well under l_cnt so the reference union is the
  // near-perfect-sharing regime the paper's segment model describes.
  const double pitch_nm = 1000.0 / fets_per_um_;
  std::vector<double> positions;
  positions.reserve(static_cast<std::size_t>(length.sample_devices));
  for (int i = 0; i < length.sample_devices; ++i) {
    positions.push_back(i * pitch_nm);
  }
  const yield::LengthModel paper_law{l_cnt_, 0.0};
  const yield::LengthModel actual_law{length.mean, length.cv};
  const double p_ref = yield::p_rf_finite_length(lambda_s, w, positions,
                                                 paper_law);
  const double p_len = yield::p_rf_finite_length(lambda_s, w, positions,
                                                 actual_law);
  CNY_ENSURE_MSG(p_ref > 0.0 && p_len > 0.0,
                 "finite-length union probabilities must be positive");
  return p_ref / p_len;
}

}  // namespace cny::scenario
