#include "yield/circuit_yield.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/contracts.h"

namespace cny::yield {

WidthSpectrum scale_spectrum(const WidthSpectrum& spectrum, double width_scale,
                             double count_scale) {
  CNY_EXPECT(width_scale > 0.0);
  CNY_EXPECT(count_scale > 0.0);
  WidthSpectrum out;
  out.reserve(spectrum.size());
  for (const auto& [w, n] : spectrum) {
    const auto scaled_n = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(n) * count_scale));
    if (scaled_n > 0) out.emplace_back(w * width_scale, scaled_n);
  }
  return out;
}

std::uint64_t spectrum_count(const WidthSpectrum& spectrum) {
  std::uint64_t n = 0;
  for (const auto& [w, c] : spectrum) n += c;
  return n;
}

YieldBreakdown circuit_yield(const WidthSpectrum& spectrum,
                             const device::FailureModel& model, double w_t) {
  CNY_EXPECT(!spectrum.empty());
  // Merge widths after upsizing so p_F is evaluated once per distinct width.
  std::map<double, std::uint64_t> merged;
  for (const auto& [w, n] : spectrum) {
    CNY_EXPECT(w > 0.0);
    merged[std::max(w, w_t)] += n;
  }

  YieldBreakdown out;
  out.min_width = merged.begin()->first;
  double log_yield = 0.0;
  for (const auto& [w, n] : merged) {
    const double pf = model.p_f(w);
    out.sum_pf += pf * static_cast<double>(n);
    log_yield += static_cast<double>(n) * std::log1p(-pf);
  }
  out.yield_exact = std::exp(log_yield);
  out.yield_approx = 1.0 - out.sum_pf;
  return out;
}

}  // namespace cny::yield
