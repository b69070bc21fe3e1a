// Full-chip Monte Carlo yield simulator.
//
// End-to-end validation path for the whole analytic stack: grows explicit
// CNT populations per row band (directional growth) or per device
// (uncorrelated growth), places the design's critical windows, counts row
// and chip failures. Probabilities must be inflated (small widths / high
// p_f / few rows) for direct simulation to resolve them — that is exactly
// how the tests use it; the production numbers come from the analytic and
// conditional-MC engines this simulator validates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cnt/growth.h"
#include "exec/mc_policy.h"
#include "geom/interval.h"
#include "rng/engine.h"
#include "stats/accumulator.h"

namespace cny::yield {

struct ChipSpec {
  /// Window (critical device) y-intervals per row template; every row of
  /// the chip draws its windows from this template.
  std::vector<geom::Interval> row_windows;
  std::uint64_t n_rows = 1;
};

enum class GrowthStyle {
  Directional,   ///< rows share CNTs where windows overlap
  Uncorrelated,  ///< every device sees an independent CNT population
};

struct ChipMcResult {
  double chip_yield = 0.0;       ///< fraction of chips with zero failures
  double chip_yield_err = 0.0;   ///< ~1σ on chip_yield
  double p_rf = 0.0;             ///< per-row failure probability estimate
  double p_rf_err = 0.0;
  std::uint64_t chips = 0;
  std::uint64_t rows_simulated = 0;
};

/// Does any window [lo, hi) contain no point? `points` must be sorted
/// ascending and `windows` sorted by lo ascending (overlap is fine): one
/// two-pointer sweep instead of a binary search per window. Same answer as
/// the classic per-window lower_bound check in any window order.
[[nodiscard]] bool any_window_empty_sorted(
    std::span<const double> points, std::span<const geom::Interval> windows);

/// Simulates `n_chips` chips and reports yield and per-row failure rates.
/// `policy` shards the chip loop across RNG streams/threads (see
/// exec/parallel_mc.h); the default reproduces the legacy serial loop on
/// `rng` bit-for-bit. With n_streams > 1 the tallies depend only on
/// (rng state, n_streams) — never on n_threads — and `rng` is advanced by
/// one long_jump.
[[nodiscard]] ChipMcResult simulate_chip_yield(
    const cnt::DirectionalGrowth& growth, const ChipSpec& spec,
    GrowthStyle style, std::uint64_t n_chips, rng::Xoshiro256& rng,
    const exec::McPolicy& policy = {});

}  // namespace cny::yield
