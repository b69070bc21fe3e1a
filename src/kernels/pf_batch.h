// Batch-of-widths p_F evaluation.
//
// Every heavy consumer of `cnt::pf_truncated` — the interpolant builder,
// the W_min solver's bracket queries, circuit_yield's merged spectrum —
// asks for *many widths against one pitch model
// and one z*. `pf_truncated_batch` evaluates them in one pass: the widths
// are packed four to an AVX2 register (one lane per width) and the PMF term
// loop runs lane-parallel, sharing the per-term Γ-ratio, lgamma and
// reciprocal-table work that the scalar loop re-derives per width.
//
// Bit-identity contract (pinned in tests/test_kernels.cpp): for every
// backend and every batch composition,
//
//   pf_truncated_batch(pitch, widths, z, tol)[i]
//     == pf_truncated(pitch, widths[i], z, tol)      (all three fields,
//                                                     exact bits)
//
// so batching — like the backend and the thread count — is purely a
// speed knob. Lanes run each width's exact scalar op sequence (elementwise
// IEEE add/mul/div only; transcendentals stay scalar libm), and the kernel
// translation units are built with contraction disabled so no FMA can
// merge what the scalar kernel keeps separate.
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
/// gamma_q fallback path (W/θ >= 650) always take the scalar reference.
[[nodiscard]] std::vector<cnt::PfKernelResult> pf_truncated_batch(
    const cnt::PitchModel& pitch, std::span<const double> widths, double z,
    double rel_tol = 1e-14);

}  // namespace cny::kernels
