// Batch-of-widths p_F evaluation.
//
// Consumers that ask for many widths against one pitch model and one z —
// the interpolant builder, merged spectra, the benchmarks — call
// `pf_truncated_batch`. It runs one single-width query per width, in
// order, on the calling thread: each query's node loop already fills the
// AVX2 lanes (four adjacent quadrature nodes per register, see
// cnt/pf_kernel.h), so there is nothing left to pack across widths.
//
// Bit-identity contract (pinned in tests/test_kernels.cpp): for every
// backend and every batch composition,
//
//   pf_truncated_batch(pitch, widths, z, tol)[i]
//     == pf_truncated(pitch, widths[i], z, tol)      (all three fields,
//                                                     exact bits)
//
// and both equal the scalar reference, so batching — like the backend and
// the thread count — is purely a speed knob.
#pragma once

#include <span>
#include <vector>

#include "cnt/pf_kernel.h"
#include "cnt/pitch_model.h"

namespace cny::kernels {

/// Evaluates E[z^N(W)] for every width in `widths` (each >= 0, z in [0,1])
/// against one pitch model. Result i corresponds to widths[i] and is
/// bit-identical to cnt::pf_truncated(pitch, widths[i], z, rel_tol).
/// Backend selection follows dispatch.h; widths on the wide-window
/// gamma_q fallback path (W/θ >= 650) always take the scalar node update.
[[nodiscard]] std::vector<cnt::PfKernelResult> pf_truncated_batch(
    const cnt::PitchModel& pitch, std::span<const double> widths, double z,
    double rel_tol = 1e-14);

}  // namespace cny::kernels
