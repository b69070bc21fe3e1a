// Kernel-backend stamp.
//
// The library has one p_F path, the scalar residue evaluator
// (cnt/count_pgf.h); there is no SIMD backend and no dispatch. These two
// constants remain only because the repository benchmark's host stamp
// records them (perfbench/harness.cpp); they go with the benchmark change
// that stops reading them (ROADMAP item 5).
#pragma once

namespace cny::kernels {

/// Always false: no SIMD backend is compiled.
[[nodiscard]] inline bool simd_compiled() { return false; }

/// Always "scalar".
[[nodiscard]] inline const char* backend_name() { return "scalar"; }

}  // namespace cny::kernels
