#include "yield/empty_window.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "exec/parallel_mc.h"
#include "rng/distributions.h"
#include "util/contracts.h"

namespace cny::yield {

namespace {

/// Collapses exactly-equal intervals, returning distinct intervals.
std::vector<geom::Interval> distinct_windows(
    std::vector<geom::Interval> windows) {
  std::sort(windows.begin(), windows.end(),
            [](const geom::Interval& a, const geom::Interval& b) {
              if (a.lo != b.lo) return a.lo < b.lo;
              return a.hi < b.hi;
            });
  windows.erase(std::unique(windows.begin(), windows.end()), windows.end());
  return windows;
}

}  // namespace

double poisson_union_exact(double lambda_s,
                           std::vector<geom::Interval> windows,
                           int max_distinct) {
  CNY_EXPECT(lambda_s > 0.0);
  CNY_EXPECT(!windows.empty());
  for (const auto& w : windows) CNY_EXPECT(!w.empty());

  const auto distinct = distinct_windows(std::move(windows));
  const int k = static_cast<int>(distinct.size());
  CNY_EXPECT_MSG(k <= max_distinct,
                 "too many distinct windows for inclusion-exclusion");

  // Flat (lo, hi) pairs keep the subset scan on two contiguous doubles per
  // member instead of chasing Interval pointers.
  std::vector<double> lo_of(static_cast<std::size_t>(k));
  std::vector<double> hi_of(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    lo_of[static_cast<std::size_t>(i)] = distinct[static_cast<std::size_t>(i)].lo;
    hi_of[static_cast<std::size_t>(i)] = distinct[static_cast<std::size_t>(i)].hi;
  }

  // Enumerate subsets; union measure per subset via sorted merge over the
  // (already lo-sorted) members, walking only the SET bits of the mask.
  const std::uint32_t n_subsets = 1u << k;
  double total = 0.0;
  for (std::uint32_t mask = 1; mask < n_subsets; ++mask) {
    std::uint32_t bits = mask;
    std::size_t first = static_cast<std::size_t>(std::countr_zero(bits));
    bits &= bits - 1;
    double measure = 0.0;
    double cur_lo = lo_of[first];
    double cur_hi = hi_of[first];
    while (bits != 0) {
      const std::size_t i = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (lo_of[i] > cur_hi) {
        measure += cur_hi - cur_lo;
        cur_lo = lo_of[i];
        cur_hi = hi_of[i];
      } else {
        cur_hi = std::max(cur_hi, hi_of[i]);
      }
    }
    measure += cur_hi - cur_lo;

    const double term = std::exp(-lambda_s * measure);
    total += (std::popcount(mask) % 2 == 1) ? term : -term;
  }
  // Alternating-series rounding can nick the result just below 0 when the
  // union probability underflows; clamp.
  return std::clamp(total, 0.0, 1.0);
}

UnionMcResult union_conditional_mc(double lambda_s,
                                   const std::vector<geom::Interval>& windows,
                                   std::size_t n_samples,
                                   rng::Xoshiro256& rng,
                                   const exec::McPolicy& policy) {
  CNY_EXPECT(lambda_s > 0.0);
  CNY_EXPECT(!windows.empty());
  CNY_EXPECT(n_samples >= 2);

  // Marginal empty probabilities P(E_i) = exp(-λ_s |w_i|).
  const std::size_t n = windows.size();
  std::vector<double> p_empty(n);
  double sum_p = 0.0;
  double min_len = windows.front().length();
  for (std::size_t i = 0; i < n; ++i) {
    CNY_EXPECT(!windows[i].empty());
    p_empty[i] = std::exp(-lambda_s * windows[i].length());
    sum_p += p_empty[i];
    min_len = std::min(min_len, windows[i].length());
  }
  const rng::DiscreteSampler pick(p_empty);

  // Only points inside ∪ windows matter; sample the conditional Poisson
  // process on (∪ windows) \ w_i as independent Poisson points on each
  // disjoint piece of that set, in component order. Every component but
  // the one holding w_i is one whole piece; that one leaves a left and a
  // right piece, either possibly empty (mean 0, so it draws nothing).
  struct Piece {
    double lo, hi, mean;
  };
  const auto piece = [&](const geom::Interval& iv) {
    return Piece{iv.lo, iv.hi, lambda_s * iv.length()};
  };
  geom::IntervalSet all;
  for (const auto& w : windows) all.add(w);
  const auto& comps = all.components();
  std::vector<Piece> whole;
  whole.reserve(comps.size());
  for (const auto& comp : comps) whole.push_back(piece(comp));

  struct Forced {
    std::size_t comp;  // the component holding the window
    Piece left, right;
  };
  std::vector<Forced> forced(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& w = windows[i];
    const auto it = std::partition_point(
        comps.begin(), comps.end(),
        [&](const geom::Interval& c) { return c.hi < w.hi; });
    CNY_ENSURE(it != comps.end() && it->lo <= w.lo);
    forced[i] = Forced{static_cast<std::size_t>(it - comps.begin()),
                       piece({it->lo, std::min(it->hi, w.lo)}),
                       piece({std::max(it->lo, w.hi), it->hi})};
  }

  // Empty windows are counted on fixed cells over the windows' hull, each
  // keeping the smallest and largest point it received. cell(y) never
  // decreases as y grows, so a window whose end cells differ holds a point
  // iff a cell strictly between them is occupied, its lo cell's max is
  // >= lo, or its hi cell's min is < hi. A window whose ends share a cell
  // walks that cell's points. A cell is at most half the shortest window,
  // unless that needs more cells than twice the windows plus the expected
  // points per sample (or 4096): every sample clears every cell, so the
  // cap keeps that pass no longer than the rest of the sample's work.
  const double hull_lo = comps.front().lo, hull_hi = comps.back().hi;
  const double expected_points = std::ceil(lambda_s * all.measure());
  const double cap =
      std::min(4096.0, 2.0 * (static_cast<double>(n) + expected_points));
  const auto n_cells = static_cast<std::size_t>(
      std::min(std::ceil(2.0 * (hull_hi - hull_lo) / min_len), cap));
  const double inv_cell = static_cast<double>(n_cells) / (hull_hi - hull_lo);
  const auto cell_of = [&](double y) {
    const double t = std::max(0.0, (y - hull_lo) * inv_cell);
    return std::min(static_cast<std::size_t>(t), n_cells - 1);
  };
  struct CellWindow {
    double lo, hi;
    std::uint32_t lo_cell, hi_cell;
  };
  std::vector<CellWindow> cell_windows;
  std::vector<CellWindow> scan_windows;
  for (const auto& w : windows) {
    const CellWindow cw{w.lo, w.hi, static_cast<std::uint32_t>(cell_of(w.lo)),
                        static_cast<std::uint32_t>(cell_of(w.hi))};
    (cw.lo_cell == cw.hi_cell ? scan_windows : cell_windows).push_back(cw);
  }

  // Shardable kernel: everything above is shared read-only state; the
  // per-thread scratch (cells, occupancy prefix, point lists) lives inside.
  const auto kernel = [&](unsigned /*stream*/, std::uint64_t shard_samples,
                          rng::Xoshiro256& shard_rng) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr std::uint32_t kEnd = ~std::uint32_t{0};
    const bool keep_points = !scan_windows.empty();
    stats::Accumulator acc;
    std::vector<double> cell_min(n_cells), cell_max(n_cells);
    std::vector<std::uint32_t> occupied_below(n_cells + 1, 0);
    // Scan path only: each cell's points as a list (head per cell, next
    // per point).
    std::vector<double> points;
    std::vector<std::uint32_t> head(keep_points ? n_cells : 0), next;
    const auto draw = [&](const Piece& p) {
      const long cnt = rng::sample_poisson(shard_rng, p.mean);
      for (long c = 0; c < cnt; ++c) {
        const double y = rng::scale_uniform(p.lo, p.hi, shard_rng.uniform());
        const std::size_t k = cell_of(y);
        cell_min[k] = std::min(cell_min[k], y);
        cell_max[k] = std::max(cell_max[k], y);
        if (keep_points) {
          next.push_back(head[k]);
          head[k] = static_cast<std::uint32_t>(points.size());
          points.push_back(y);
        }
      }
    };
    for (std::uint64_t s = 0; s < shard_samples; ++s) {
      const Forced& f = forced[pick(shard_rng)];
      std::fill(cell_min.begin(), cell_min.end(), kInf);
      std::fill(cell_max.begin(), cell_max.end(), -kInf);
      std::fill(head.begin(), head.end(), kEnd);
      points.clear();
      next.clear();
      for (std::size_t c = 0; c < f.comp; ++c) draw(whole[c]);
      draw(f.left);
      draw(f.right);
      for (std::size_t c = f.comp + 1; c < whole.size(); ++c) draw(whole[c]);
      for (std::size_t k = 0; k < n_cells; ++k) {
        occupied_below[k + 1] =
            occupied_below[k] + (cell_min[k] <= cell_max[k] ? 1u : 0u);
      }

      // Count empty windows (the forced one is empty by construction).
      std::size_t empties = 0;
      for (const auto& w : cell_windows) {
        const bool has_point =
            (occupied_below[w.hi_cell] != occupied_below[w.lo_cell + 1]) |
            (cell_max[w.lo_cell] >= w.lo) | (cell_min[w.hi_cell] < w.hi);
        empties += has_point ? 0 : 1;
      }
      for (const auto& w : scan_windows) {
        bool has_point = false;
        for (std::uint32_t i = head[w.lo_cell]; i != kEnd && !has_point;
             i = next[i]) {
          has_point = points[i] >= w.lo && points[i] < w.hi;
        }
        empties += has_point ? 0 : 1;
      }
      CNY_ENSURE(empties >= 1);
      acc.add(sum_p / static_cast<double>(empties));
    }
    return acc;
  };

  const auto acc = exec::run_mc<stats::Accumulator>(
      n_samples, rng, policy, kernel,
      [](stats::Accumulator& into, stats::Accumulator&& part) {
        into.merge(part);
      });
  return UnionMcResult{acc.mean(), acc.std_error(), n_samples};
}

UnionMcResult union_direct_mc(const cnt::PitchModel& pitch, double p_fail,
                              const std::vector<geom::Interval>& windows,
                              std::size_t n_samples, rng::Xoshiro256& rng) {
  CNY_EXPECT(!windows.empty());
  CNY_EXPECT(p_fail >= 0.0 && p_fail < 1.0);
  CNY_EXPECT(n_samples >= 2);

  double lo = windows.front().lo, hi = windows.front().hi;
  for (const auto& w : windows) {
    CNY_EXPECT(!w.empty());
    lo = std::min(lo, w.lo);
    hi = std::max(hi, w.hi);
  }

  std::size_t failures = 0;
  std::vector<double> points;
  for (std::size_t s = 0; s < n_samples; ++s) {
    points.clear();
    double y = lo + pitch.sample_equilibrium(rng);
    while (y < hi) {
      if (!rng::sample_bernoulli(rng, p_fail)) points.push_back(y);
      y += pitch.sample(rng);
    }
    bool any_empty = false;
    for (const auto& w : windows) {
      const auto it = std::lower_bound(points.begin(), points.end(), w.lo);
      if (!(it != points.end() && *it < w.hi)) {
        any_empty = true;
        break;
      }
    }
    if (any_empty) ++failures;
  }

  const auto ci = stats::wilson_ci(failures, n_samples);
  const double p = static_cast<double>(failures) / static_cast<double>(n_samples);
  return UnionMcResult{p, 0.25 * ci.width(), n_samples};
}

}  // namespace cny::yield
