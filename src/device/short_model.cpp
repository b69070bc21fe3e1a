#include "device/short_model.h"

#include <cmath>

#include "cnt/count_pgf.h"
#include "numeric/roots.h"
#include "util/contracts.h"

namespace cny::device {

ShortModel::ShortModel(cnt::PitchModel pitch, cnt::ProcessParams process)
    : pitch_(pitch), process_(process) {
  process_.validate();
}

double ShortModel::p_short_device(double width) const {
  CNY_EXPECT(width >= 0.0);
  const double p_short = process_.p_short();
  if (p_short == 0.0 || width == 0.0) return 0.0;
  // Each of the N tubes is a surviving short independently w.p. p_short;
  // the device is clean iff all tubes are non-shorts. p_short is tiny
  // (p_m·(1 − p_Rm)), so the complement is formed directly instead of as
  // 1 − E[(1 − p_short)^N], which would cancel.
  return cnt::count_pgf_complement(pitch_, width, p_short);
}

double ShortModel::mean_shorts(double width) const {
  CNY_EXPECT(width >= 0.0);
  return process_.p_short() * width * pitch_.density();
}

double ShortModel::expected_susceptible(double width,
                                        double n_devices) const {
  CNY_EXPECT(n_devices >= 0.0);
  return n_devices * p_short_device(width);
}

double ShortModel::chip_yield_shorts(double width, double n_devices,
                                     double p_noise_fails) const {
  CNY_EXPECT(p_noise_fails >= 0.0 && p_noise_fails <= 1.0);
  const double p_gate = p_short_device(width) * p_noise_fails;
  CNY_ENSURE(p_gate < 1.0);
  return std::exp(n_devices * std::log1p(-p_gate));
}

double ShortModel::required_p_rm(const cnt::PitchModel& pitch,
                                 double p_metallic, double width,
                                 double n_devices, double p_noise_fails,
                                 double yield_desired) {
  CNY_EXPECT(yield_desired > 0.0 && yield_desired < 1.0);
  CNY_EXPECT(p_metallic > 0.0 && p_metallic <= 1.0);

  const auto yield_at = [&](double p_rm) {
    cnt::ProcessParams process;
    process.p_metallic = p_metallic;
    process.p_remove_m = p_rm;
    const ShortModel model(pitch, process);
    return model.chip_yield_shorts(width, n_devices, p_noise_fails);
  };
  if (yield_at(0.0) >= yield_desired) return 0.0;
  CNY_EXPECT_MSG(yield_at(1.0) >= yield_desired,
                 "even perfect removal cannot reach the yield target");
  // Yield is increasing in p_Rm; bisect on the complement for bracketing.
  const auto res = cny::numeric::brent(
      [&](double p_rm) { return yield_at(p_rm) - yield_desired; }, 0.0, 1.0,
      1e-10);
  CNY_ENSURE(res.converged);
  return res.x;
}

}  // namespace cny::device
