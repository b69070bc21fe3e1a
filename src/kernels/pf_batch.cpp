#include "kernels/pf_batch.h"

#include <vector>

#include "cnt/pf_kernel_internal.h"
#include "kernels/dispatch.h"
#include "kernels/pf_batch_impl.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace cny::kernels {

namespace {

/// Lane-occupancy accounting (obs::Registry::global(), "kernels." prefix):
/// simd_lanes / (4 * simd_flushes) is the packed-lane fill rate, and
/// simd_lanes vs scalar_widths shows how much of the batch volume actually
/// rides the vector path. A few relaxed adds per *batch call* — the
/// per-width term loops are untouched.
struct BatchMetrics {
  obs::Counter& calls;
  obs::Counter& widths;
  obs::Counter& simd_flushes;
  obs::Counter& simd_lanes;
  obs::Counter& scalar_widths;
};

BatchMetrics& metrics() {
  static auto& registry = obs::Registry::global();
  static BatchMetrics m{registry.counter("kernels.pf_batch_calls"),
                        registry.counter("kernels.pf_batch_widths"),
                        registry.counter("kernels.pf_simd_flushes"),
                        registry.counter("kernels.pf_simd_lanes"),
                        registry.counter("kernels.pf_scalar_widths")};
  return m;
}

}  // namespace

std::vector<cnt::PfKernelResult> pf_truncated_batch(
    const cnt::PitchModel& pitch, std::span<const double> widths, double z,
    double rel_tol) {
  CNY_EXPECT(z >= 0.0 && z <= 1.0);
  CNY_EXPECT(rel_tol > 0.0);
  for (const double w : widths) CNY_EXPECT(w >= 0.0);

  std::vector<cnt::PfKernelResult> out(widths.size());
  if (widths.empty()) return out;
  metrics().calls.add(1);
  metrics().widths.add(widths.size());

  // The degenerate answers short-circuit exactly as in pf_truncated; every
  // other width gets a grid — the identical scalar setup both backends
  // consume.
  std::vector<std::size_t> pending;  // indices that need a term loop
  std::vector<cnt::detail::PfGrid> grids(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    if (widths[i] == 0.0 || z == 1.0) {
      out[i] = {1.0, 0, 0.0};
      continue;
    }
    grids[i] = cnt::detail::pf_setup(pitch, widths[i]);
    pending.push_back(i);
  }

#if defined(CNY_SIMD)
  if (simd_supported()) {
    // Lane-pack runs of up to four prefactored widths; adjacent widths in a
    // batch (interpolant knots, merged spectra) are usually close, which
    // keeps the lanes' iteration counts coherent. Wide-window widths on the
    // gamma_q fallback path and a leftover single lane take the scalar
    // reference — bit-identity makes the split invisible.
    std::vector<const cnt::detail::PfGrid*> lane_grids;
    std::vector<std::size_t> lane_idx;
    const auto flush = [&] {
      if (lane_grids.size() >= 2) {
        metrics().simd_flushes.add(1);
        metrics().simd_lanes.add(lane_grids.size());
        cnt::PfKernelResult results[4];
        detail::pf_terms_avx2(lane_grids.data(),
                              static_cast<int>(lane_grids.size()), z, rel_tol,
                              results);
        for (std::size_t l = 0; l < lane_idx.size(); ++l) {
          out[lane_idx[l]] = results[l];
        }
      } else {
        metrics().scalar_widths.add(lane_idx.size());
        for (const std::size_t i : lane_idx) {
          out[i] = cnt::detail::pf_terms_scalar(grids[i], z, rel_tol);
        }
      }
      lane_grids.clear();
      lane_idx.clear();
    };
    for (const std::size_t i : pending) {
      if (!grids[i].prefactored) {
        metrics().scalar_widths.add(1);
        out[i] = cnt::detail::pf_terms_scalar(grids[i], z, rel_tol);
        continue;
      }
      lane_grids.push_back(&grids[i]);
      lane_idx.push_back(i);
      if (lane_grids.size() == 4) flush();
    }
    flush();
    return out;
  }
#endif

  metrics().scalar_widths.add(pending.size());
  for (const std::size_t i : pending) {
    out[i] = cnt::detail::pf_terms_scalar(grids[i], z, rel_tol);
  }
  return out;
}

}  // namespace cny::kernels
