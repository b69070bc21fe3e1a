// Internals of the truncated-PGF kernel, shared between the scalar
// reference path (pf_kernel.cpp) and the batched kernel backends
// (src/kernels/). The split exists for one reason: bit-identity. The
// batched backends must replay *exactly* the floating-point op sequence of
// `pf_truncated` per width, so the width-dependent setup (quadrature grid,
// truncation point, normalising mass, ladder seeds) is built once here —
// by the same code, compiled in the same baseline-ISA translation unit —
// and only the term loop is re-implemented lane-parallel. Anything that
// changes a value in this header changes `pf_truncated` itself, and the
// bit-identity tests in tests/test_kernels.cpp will say so.
//
// Not part of the public API: include only from cnt/pf_kernel.cpp and the
// kernel backends.
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
/// scalar term loop and (transposed into lanes) by the batched backends.
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

/// The scalar term loop over a prebuilt grid: exactly the op sequence the
/// original single-width kernel ran after its setup. `pf_truncated` is
/// pf_setup + pf_terms_scalar. With a `fork`, each term's node updates run
/// sharded on it and are summed in node order, so the result is
/// bit-identical either way.
[[nodiscard]] PfKernelResult pf_terms_scalar(const PfGrid& grid, double z,
                                             double rel_tol,
                                             exec::Fork* fork = nullptr);

}  // namespace cny::cnt::detail
