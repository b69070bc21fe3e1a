// Header-only shim kept for perfbench/campaign_sweep.cpp alone.
//
// The library asks for p_F one width at a time (device::FailureModel::p_f /
// p_f_exact, which call cnt::count_pgf); there is no batch path, and
// cnt::pf_truncated is a test reference. This loop of the reference exists
// only so the repository benchmark still builds unchanged, and
// goes away with the benchmark change that stops calling it (ROADMAP item
// 5). Only tests/test_kernels.cpp calls it, to pin it bit-identical to
// per-width calls; nothing in src/, tools/, bench/ or examples/ may.
#pragma once

#include <span>
#include <vector>

#include "cnt/pf_kernel.h"
#include "cnt/pitch_model.h"

namespace cny::kernels {

/// cnt::pf_truncated(pitch, widths[i], z, rel_tol) for each width, in order.
[[nodiscard]] inline std::vector<cnt::PfKernelResult> pf_truncated_batch(
    const cnt::PitchModel& pitch, std::span<const double> widths, double z,
    double rel_tol = 1e-14) {
  std::vector<cnt::PfKernelResult> out;
  out.reserve(widths.size());
  for (const double w : widths) {
    out.push_back(cnt::pf_truncated(pitch, w, z, rel_tol));
  }
  return out;
}

}  // namespace cny::kernels
