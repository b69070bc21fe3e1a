// Kernel-backend dispatch seam.
//
// The p_F term loop (cnt/pf_kernel.cpp) updates a term's quadrature nodes
// with the scalar reference and, when the tree is built with
// -DCNY_SIMD=ON, an AVX2 block pass over four adjacent nodes
// (kernels/pf_nodes_avx2.cpp). The rule is fixed by the platform, never by
// the caller: the AVX2 pass runs exactly when it was compiled in AND the
// CPU reports AVX2 (CPUID, probed once per process), on every grid with a
// prefactored path (cnt::detail::pf_node_pass, reached by every p_F query
// through cnt::pf_truncated). A -DCNY_SIMD=OFF build — what non-x86 hosts
// run — never compiles the AVX2 objects.
//
// Every backend is bit-identical to the scalar reference (pinned in
// tests/test_pf_kernel.cpp and tests/test_kernels.cpp and, end to end, by
// a golden run_flow response that both CI builds must reproduce), so the
// backend is purely a speed matter. See docs/architecture.md, "Kernel
// backends".
#pragma once

namespace cny::kernels {

/// True when the AVX2 backend was compiled in (CNY_SIMD=ON).
[[nodiscard]] bool simd_compiled();

/// True when the AVX2 backend is compiled in AND this CPU supports AVX2 —
/// the one dispatch rule.
[[nodiscard]] bool simd_supported();

/// "avx2" or "scalar" — the backend simd_supported() resolves to.
[[nodiscard]] const char* backend_name();

}  // namespace cny::kernels
