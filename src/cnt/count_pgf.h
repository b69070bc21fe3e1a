// The CNT-count generating function E[z^N(W)] — p_F of eq. 2.2 at
// z = p_f — by Laplace inversion in the width W.
//
// For the stationary Gamma(k, θ) renewal count (mean pitch μ = kθ) the
// transform in W is closed form (Cox, *Renewal Theory*, 1962, ch. 3):
//
//   L(s) = 1/s − (1−z)(1−f̂) / (μ s² (1 − z f̂)),    f̂(s) = (1+θs)^−k.
//
// It has no pole at 0. Its poles are the roots of f̂ = 1/z on the principal
// sheet, s_j = (z^{1/k} ω_j − 1)/θ with ω_j = e^{2πij/k}, |2πj/k| < π (all
// k roots when k is an integer), each with residue
// R_j = (1−z)² z^{1/k−1} ω_j / (μ² s_j²). A non-integer k adds a branch cut
// along s < −1/θ, whose term is one real integral of a constant-sign
// integrand that decays like e^{−W/θ} (Abate & Whitt, ORSA J. Computing
// 7(1), 1995, on inversion by residues). So
//
//   E[z^N(W)] = Σ_j R_j e^{s_j W} + cut(W),
//
// summed from the real pole s_0 outward until a term is below 1e-17 of the
// leading one, with the cut integrated by adaptive Gauss–Kronrod (G10/K21)
// on panels graded toward the near-singularity a pole close to the cut
// leaves on it. z = 0 is P{N = 0} = 1 − F_e(W), in regularized incomplete
// gammas. At small z the residues grow like z^{1/k−1} while their sum does
// not; where that cancellation would cost more than three digits, the
// power series Σ P{N = n} z^n (its terms second differences of incomplete
// gamma moments, few at small z) is summed instead. Cost: 0.1–15 µs per
// query at one thread, independent of W.
//
// Accuracy: ≤ 1e-12 relative against multiprecision Talbot inversion over
// CV 0.2–3, W 4–400, z 0–0.531 and z 1e-30–1e-6 (tests/test_count_pgf.cpp
// pins the tables; the worst measured is 3e-13).
#pragma once

#include "cnt/pitch_model.h"

namespace cny::cnt {

/// E[z^N(width)] for the CNT count in a window of `width` nm (>= 0);
/// z in [0, 1]. count_pgf(pitch, W, p_f) is p_F(W) of eq. 2.2.
[[nodiscard]] double count_pgf(const PitchModel& pitch, double width,
                               double z);

/// 1 − E[(1−p)^N(width)] for p in [0, 1]: the probability that at least one
/// of the counted CNTs carries a per-CNT property of probability p. Formed
/// without the cancellation 1 − count_pgf(1 − p) suffers at small p: the
/// leading pole's 1 − R_0 e^{s_0 W} goes through expm1.
[[nodiscard]] double count_pgf_complement(const PitchModel& pitch,
                                          double width, double p);

}  // namespace cny::cnt
