#include "kernels/pf_batch.h"

#include <vector>

#include "cnt/pf_kernel_internal.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace cny::kernels {

namespace {

/// Batch accounting (obs::Registry::global(), "kernels." prefix): every
/// non-degenerate width is booked once, as an AVX2-pass width
/// (`pf_simd_lanes`) or a scalar one (`pf_scalar_widths`), so
/// simd_lanes / widths is the share of batch volume on the vector path.
struct BatchMetrics {
  obs::Counter& calls;
  obs::Counter& widths;
  obs::Counter& simd_lanes;
  obs::Counter& scalar_widths;
};

BatchMetrics& metrics() {
  static auto& registry = obs::Registry::global();
  static BatchMetrics m{registry.counter("kernels.pf_batch_calls"),
                        registry.counter("kernels.pf_batch_widths"),
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
  for (std::size_t i = 0; i < widths.size(); ++i) {
    // The degenerate answers short-circuit exactly as in pf_truncated.
    if (widths[i] == 0.0 || z == 1.0) {
      out[i] = {1.0, 0, 0.0};
      continue;
    }
    const cnt::detail::PfGrid grid = cnt::detail::pf_setup(pitch, widths[i]);
    const auto pass = cnt::detail::pf_node_pass(grid);
    (pass == &cnt::detail::pf_nodes_scalar ? metrics().scalar_widths
                                           : metrics().simd_lanes)
        .add(1);
    out[i] = cnt::detail::pf_terms(grid, z, rel_tol, pass);
  }
  return out;
}

}  // namespace cny::kernels
