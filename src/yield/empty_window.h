// Union-of-empty-windows engine — the numerical core of the Table 1 middle
// column ("calculating p_RF in a general case ... requires numerical
// methods", Sec 3.1).
//
// Setting: surviving functional s-CNTs along a row form a point process in
// y; CNFET i fails iff its window (the y-interval its active region spans)
// contains no functional CNT; the row fails iff ANY window is empty:
//
//   p_RF = P( ∪_i { window_i empty } ).
//
// Three evaluators, cross-validating each other:
//
//  * poisson_union_exact — for Poisson CNT statistics (pitch CV = 1) and a
//    modest number of *distinct* offsets k, inclusion–exclusion is exact:
//      P(∩_{i∈S} empty) = exp(-λ_s · |∪_{i∈S} window_i|),
//    so P(∪) = Σ_{S≠∅} (-1)^{|S|+1} exp(-λ_s |∪_S|)  (2^k terms, k <= ~24).
//
//  * union_conditional_mc — the Ross conditional Monte Carlo estimator for
//    rare unions, valid for Poisson statistics with ANY number of windows:
//    choose window i ∝ P(E_i), sample the process conditioned on E_i, count
//    the empty windows C, average  Σ_j P(E_j) / C.  Unbiased, with variance
//    that stays bounded as p_RF → 0 (direct MC would need ~1/p_RF trials).
//
//  * union_direct_mc — brute-force simulation on the *renewal* (general CV)
//    process; only usable when p_RF is not too small, used to validate the
//    other two and to quantify the Poisson approximation error.
#pragma once

#include <vector>

#include "cnt/pitch_model.h"
#include "exec/mc_policy.h"
#include "geom/interval.h"
#include "rng/engine.h"
#include "stats/accumulator.h"

namespace cny::yield {

/// Exact Poisson inclusion–exclusion over distinct windows.
/// `lambda_s` — linear density of functional CNTs (per nm).
/// `windows` — window intervals; duplicates (same lo/hi) are collapsed
/// first, so passing all M_Rmin windows of a row is fine as long as the
/// number of *distinct* intervals stays <= `max_distinct`.
[[nodiscard]] double poisson_union_exact(double lambda_s,
                                         std::vector<geom::Interval> windows,
                                         int max_distinct = 24);

struct UnionMcResult {
  double estimate = 0.0;
  double std_error = 0.0;
  std::size_t samples = 0;
};

/// Ross conditional MC for P(∪ empty) under Poisson statistics.
/// Each sample's points fall into fixed cells over the windows' hull, each
/// cell keeping its smallest and largest point; a window is answered from
/// its two end cells and an occupancy prefix over the cells between them,
/// with no sort. The cell count is ceil(2 · hull / shortest window), so a
/// cell is at most half the shortest window, capped at twice the number
/// of windows plus the expected points per sample (λ_s · |∪ windows|) and
/// at 4096; a window whose ends share a cell (only past the cap) walks that
/// cell's points. Every count is exact, so the result does not depend on
/// the cell count.
/// The `policy` shards the sample loop across RNG streams and threads (see
/// exec/parallel_mc.h); the default runs the legacy serial loop on `rng`
/// bit-for-bit. With n_streams > 1 the estimate is a function of
/// (rng state, n_streams) only — never of n_threads — and `rng` is advanced
/// by one long_jump so consecutive calls stay independent.
[[nodiscard]] UnionMcResult union_conditional_mc(
    double lambda_s, const std::vector<geom::Interval>& windows,
    std::size_t n_samples, rng::Xoshiro256& rng,
    const exec::McPolicy& policy = {});

/// Direct MC on the stationary renewal process with per-CNT failure
/// probability p_fail (general pitch CV; slow, for validation).
[[nodiscard]] UnionMcResult union_direct_mc(
    const cnt::PitchModel& pitch, double p_fail,
    const std::vector<geom::Interval>& windows, std::size_t n_samples,
    rng::Xoshiro256& rng);

}  // namespace cny::yield
