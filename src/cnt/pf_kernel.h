// Truncated-PGF evaluation of the CNFET failure probability (eq. 2.2).
//
// The full-PMF path (count_distribution.h) materialises every term of the
// CNT-count distribution out to n ≈ W/μ_S + 12σ before forming
// p_F = G_N(W)(p_f) = Σ pₙ·p_fⁿ — ~10⁴ incomplete-gamma evaluations per
// width query. This kernel computes the
// same quadrature values without building the PMF, with two structural
// changes:
//
//  1. **Truncation.** Because p_fⁿ decays geometrically, the series is cut
//     as soon as the certified remainder bound
//
//       Σ_{m≥n} pₘ·p_fᵐ  ≤  p_fⁿ · P{N ≥ n}
//
//     drops below rel_tol of the accumulated sum. P{N ≥ n} is available for
//     free as the not-yet-consumed quadrature mass, so the bound is exact
//     with respect to the quadrature — O(log(1/ε)/log(1/p_f)) extra terms
//     past the n ≈ p_f·W/μ_S bulk instead of the full 12σ sweep.
//
//  2. **Node-major evaluation.** The Gauss–Legendre grid is fixed once
//     (identical panel layout to CountDistribution, so results agree to
//     ≤1e-12 relative); f_e(u) and x = (W−u)/θ are cached per node, and the
//     shape a = nk is stepped upward across n. When the pitch shape k is an
//     integer (CV = 1/√k: the Poisson case and its sub-Poisson relatives)
//     the recurrence Q(a+1,x) = Q(a,x) + xᵃe⁻ˣ/Γ(a+1) makes each
//     additional PMF term cost O(nodes) multiplies; otherwise each term is
//     re-seeded per node with one upper incomplete gamma.
//
// No library path calls this kernel: p_F comes from cnt::count_pgf
// (count_pgf.h), exact by residues and ~1000x cheaper. It stays as the
// independent quadrature reference the tests and the repository benchmark
// time and compare against. Its accuracy is bounded by the quadrature: it
// throws when the grid's PMF mass deviates from 1 by 1e-6 (pitch CV above
// ~1.6), and in the deep tail (p_F below ~1e-10) it is off by more than
// its certified remainder suggests.
#pragma once

#include "cnt/pitch_model.h"

namespace cny::cnt {

struct PfKernelResult {
  /// G_N(W)(z), normalised by the quadrature mass exactly like the
  /// full-PMF path (so the two agree to ≤1e-12 relative).
  double value = 0.0;
  /// PMF terms evaluated beyond n = 0 (the truncation point).
  long terms = 0;
  /// Certified bound on the truncated tail, relative to the same
  /// normalisation as `value`. Always ≤ rel_tol · value on exit.
  double remainder_bound = 0.0;
};

/// Evaluates the probability generating function E[z^N(W)] of the CNT count
/// in a width-`width` window, truncated once the remainder is certifiably
/// below `rel_tol` of the result. `z` in [0, 1]; z = p_f gives p_F(W).
/// Scalar and single-threaded; counts `cnt.pf_scalar_calls`.
[[nodiscard]] PfKernelResult pf_truncated(const PitchModel& pitch,
                                          double width, double z,
                                          double rel_tol = 1e-14);

}  // namespace cny::cnt
