// Internals of the truncated-PGF kernel, shared between the term loop
// (pf_kernel.cpp), its AVX2 node pass (src/kernels/pf_nodes_avx2.cpp) and
// the batch entry point (src/kernels/pf_batch.cpp). The split exists for
// one reason: bit-identity. The width-dependent setup (quadrature grid,
// truncation point, normalising mass, ladder seeds) and the term loop
// (truncation, eps, Γ-ratio, reciprocal table, the ordered node sum) exist
// once, compiled baseline-ISA; only the per-node update of one term has two
// implementations — the scalar reference below and the AVX2 block pass,
// which must replay it operation by operation on four adjacent nodes.
// Anything that changes a value in this header changes `pf_truncated`
// itself, and the bit-identity tests in tests/test_pf_kernel.cpp and
// tests/test_kernels.cpp will say so.
//
// Not part of the public API: include only from the kernel sources, their
// tests and benchmarks.
#pragma once

#include <cstddef>
#include <vector>

#include "cnt/pf_kernel.h"
#include "cnt/pitch_model.h"

namespace cny::exec {
class Fork;
}  // namespace cny::exec

namespace cny::cnt::detail {

/// Same tail floor as count_distribution.cpp — the two paths must truncate
/// the quadrature domain and the PMF support identically to agree to 1e-12.
inline constexpr double kTailEps = 1e-22;

/// The integer-shape ladder is seeded at τ(0) = e^{-x}; past x ≈ 650 the
/// seed risks flushing to zero before the recurrence can climb out of the
/// denormals, so wider windows fall back to the per-node gamma_q path.
inline constexpr double kLadderMaxX = 650.0;

/// Everything about one width that does not depend on z or rel_tol: the
/// node-major quadrature grid, the PMF truncation point, the normalising
/// mass, and the shape-ladder seeds. Built by `pf_setup`, consumed by the
/// term loop.
struct PfGrid {
  double width = 0.0;
  double k = 0.0;      ///< pitch shape
  double theta = 0.0;  ///< pitch scale
  std::vector<double> xs;  ///< per node: x = (W - u)/θ
  std::vector<double> fw;  ///< per node: GL-weight · f_e(u)
  double p0 = 0.0;         ///< P{N = 0} quadrature value
  double mass_tail = 0.0;  ///< quadrature mass of Σ_{n=1}^{n_stop} pₙ
  double total = 0.0;      ///< p0 + mass_tail (the normaliser)
  long n_stop = 0;         ///< PMF support truncation point
  bool prefactored = false;  ///< width/θ < kLadderMaxX: τ ladder usable
  bool ladder = false;       ///< integer shape: exact Q(a+1)=Q(a)+τ ladder
  long k_int = 0;            ///< rounded shape (ladder path step count)
  std::vector<double> tau0;  ///< τ seeds e^{-x} per node (prefactored only)
  std::vector<double> xk;    ///< x^k per node (non-integer prefactored only)
  std::size_t inv_len = 0;   ///< reciprocal-table length (non-integer only)
};

/// Builds the grid for one width (> 0). Throws via CNY_ENSURE when the
/// quadrature mass deviates from 1 (same contract as pf_truncated).
[[nodiscard]] PfGrid pf_setup(const PitchModel& pitch, double width);

/// The per-node columns one term's update reads and writes. `xk` is read
/// on the non-integer prefactored path only; `tau` on both prefactored
/// paths; `q_prev` on the non-integer paths.
struct PfNodes {
  const double* x = nullptr;
  const double* xk = nullptr;
  double* tau = nullptr;
  double* q_prev = nullptr;
  double* d = nullptr;  ///< out: node j's increment for this term
};

/// What every node of one PMF term shares.
struct PfTermStep {
  long ladder_steps = 0;     ///< integer shape: k ladder steps; else 0
  bool prefactored = false;  ///< τ-seeded paths (else per-node gamma_q)
  double shape = 0.0;        ///< ladder: shape counter (n-1)·k
  double a_hi = 0.0;         ///< non-integer: this term's shape n·k
  double rho = 0.0;          ///< Γ((n-1)k+1)/Γ(nk+1), the τ step
  double eps = 0.0;          ///< series/CF tolerance, in [1e-15, 1e-6]
  const double* inv = nullptr;  ///< inv[i] = 1/(a_hi+i), i in [1, inv_len)
  std::size_t inv_len = 0;
};

/// The scalar reference node update over nodes [begin, end): writes d[j]
/// = Q(nk,x) − Q((n−1)k,x) where positive (else +0.0) on the non-integer
/// paths, the ladder's dq on the integer one. What -DCNY_SIMD=OFF runs and
/// what the AVX2 block pass is tested against.
void pf_nodes_scalar(const PfNodes& nodes, const PfTermStep& step,
                     std::size_t begin, std::size_t end);

using PfNodePass = void (*)(const PfNodes&, const PfTermStep&, std::size_t,
                            std::size_t);

}  // namespace cny::cnt::detail

#if defined(CNY_SIMD)
namespace cny::kernels::detail {
/// pf_nodes_scalar on adjacent nodes, four per AVX2 register
/// (kernels/pf_nodes_avx2.cpp, compiled -mavx2 -mno-fma
/// -ffp-contract=off): the same writes to nodes [begin, end), bit for
/// bit. Prefactored paths only (step.prefactored).
void pf_nodes_avx2(const cnt::detail::PfNodes& nodes,
                   const cnt::detail::PfTermStep& step, std::size_t begin,
                   std::size_t end);
}  // namespace cny::kernels::detail
#endif

namespace cny::cnt::detail {

/// The node update the term loop runs on this grid: pf_nodes_avx2 when it
/// is compiled in, the CPU reports AVX2 and the grid is on a prefactored
/// path; else pf_nodes_scalar. The one dispatch rule.
[[nodiscard]] PfNodePass pf_node_pass(const PfGrid& grid);

/// The term loop over a prebuilt grid, every node update by `pass`:
/// pf_node_pass(grid) for the dispatched kernel (`pf_truncated` is
/// pf_setup + this), &pf_nodes_scalar for the reference. With a `fork`,
/// each term's node range runs sharded on it; either way the increments
/// are summed in node order, so the result is bit-identical.
[[nodiscard]] PfKernelResult pf_terms(const PfGrid& grid, double z,
                                      double rel_tol, PfNodePass pass,
                                      exec::Fork* fork = nullptr);

}  // namespace cny::cnt::detail
