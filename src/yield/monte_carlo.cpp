#include "yield/monte_carlo.h"

#include <algorithm>

#include "exec/parallel_mc.h"
#include "util/contracts.h"

namespace cny::yield {

namespace {

/// Mergeable per-shard failure tallies.
struct ChipTally {
  std::uint64_t chip_failures = 0;
  std::uint64_t row_failures = 0;
  std::uint64_t rows = 0;
};

}  // namespace

bool any_window_empty_sorted(std::span<const double> points,
                             std::span<const geom::Interval> windows) {
  // With windows sorted by lo, the first point >= w.lo advances
  // monotonically, so the per-window lower_bound collapses into a shared
  // cursor.
  const std::size_t n = points.size();
  std::size_t idx = 0;
  for (const auto& w : windows) {
    while (idx < n && points[idx] < w.lo) ++idx;
    if (idx == n || !(points[idx] < w.hi)) return true;
  }
  return false;
}

ChipMcResult simulate_chip_yield(const cnt::DirectionalGrowth& growth,
                                 const ChipSpec& spec, GrowthStyle style,
                                 std::uint64_t n_chips,
                                 rng::Xoshiro256& rng,
                                 const exec::McPolicy& policy) {
  CNY_EXPECT(!spec.row_windows.empty());
  CNY_EXPECT(spec.n_rows >= 1);
  CNY_EXPECT(n_chips >= 2);

  double lo = spec.row_windows.front().lo;
  double hi = spec.row_windows.front().hi;
  for (const auto& w : spec.row_windows) {
    CNY_EXPECT(!w.empty());
    lo = std::min(lo, w.lo);
    hi = std::max(hi, w.hi);
  }

  // "Any window empty" is invariant under window order, so sort a copy by
  // lo once and let every row share a single two-pointer sweep instead of
  // a binary search per window.
  std::vector<geom::Interval> sorted_windows = spec.row_windows;
  std::sort(sorted_windows.begin(), sorted_windows.end(),
            [](const geom::Interval& a, const geom::Interval& b) {
              return a.lo < b.lo;
            });

  // Shardable chip loop; `points` is per-shard scratch reused across every
  // row (and every window in the uncorrelated branch) of the shard.
  const auto kernel = [&](unsigned /*stream*/, std::uint64_t shard_chips,
                          rng::Xoshiro256& shard_rng) {
    ChipTally tally;
    std::vector<double> points;
    for (std::uint64_t chip = 0; chip < shard_chips; ++chip) {
      bool chip_failed = false;
      for (std::uint64_t r = 0; r < spec.n_rows; ++r) {
        ++tally.rows;
        bool row_failed = false;
        if (style == GrowthStyle::Directional) {
          growth.functional_positions(shard_rng, lo, hi, points);
          row_failed = any_window_empty_sorted(points, sorted_windows);
        } else {
          // Uncorrelated growth: every device sees a fresh CNT population.
          for (const auto& w : spec.row_windows) {
            growth.functional_positions(shard_rng, w.lo, w.hi, points);
            if (any_window_empty_sorted(points, {&w, 1})) {
              row_failed = true;
              break;
            }
          }
        }
        if (row_failed) {
          ++tally.row_failures;
          chip_failed = true;
          // Chip yield only needs "any row failed"; for p_RF statistics we
          // keep scanning remaining rows of this chip.
        }
      }
      if (chip_failed) ++tally.chip_failures;
    }
    return tally;
  };

  const ChipTally tally = exec::run_mc<ChipTally>(
      n_chips, rng, policy, kernel, [](ChipTally& into, ChipTally&& part) {
        into.chip_failures += part.chip_failures;
        into.row_failures += part.row_failures;
        into.rows += part.rows;
      });
  const std::uint64_t chip_failures = tally.chip_failures;
  const std::uint64_t row_failures = tally.row_failures;
  const std::uint64_t rows = tally.rows;

  ChipMcResult out;
  out.chips = n_chips;
  out.rows_simulated = rows;
  const auto chip_ci = stats::wilson_ci(
      static_cast<std::size_t>(n_chips - chip_failures),
      static_cast<std::size_t>(n_chips));
  out.chip_yield = static_cast<double>(n_chips - chip_failures) /
                   static_cast<double>(n_chips);
  out.chip_yield_err = 0.25 * chip_ci.width();
  const auto row_ci = stats::wilson_ci(static_cast<std::size_t>(row_failures),
                                       static_cast<std::size_t>(rows));
  out.p_rf = static_cast<double>(row_failures) / static_cast<double>(rows);
  out.p_rf_err = 0.25 * row_ci.width();
  return out;
}

}  // namespace cny::yield
