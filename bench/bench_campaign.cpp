// Campaign-runner benchmarks: what per-chunk corner grouping buys.
//
// The campaign is a 3-seed x 3-pitch-cv cartesian product with the corner
// axis declared LAST, i.e. fastest-varying — consecutive points alternate
// derived corners, the worst case for a session cache. Both entries run
// the identical 9-point stream into a fresh in-memory store:
//
//   BM_CampaignGrouped   — one chunk (checkpoint_every = 0), cache wide
//                          enough for every corner: the runner's per-chunk
//                          grouping collects each corner's points before
//                          touching the cache, so 3 sessions are built;
//   BM_CampaignUngrouped — checkpoint_every = 1 and cache_capacity = 1:
//                          every point is its own chunk, grouping is
//                          structurally defeated, and the corner-fastest
//                          ordering evicts the session on every point
//                          (9 builds).
//
// Grouped must not lose to ungrouped — the CI campaign-smoke job gates
// grouped <= 1.10 x ungrouped (results are byte-identical either way; the
// only difference is wasted model warm-ups). BM_CampaignCompile prices the
// spec -> validated-request-stream step alone (axis expansion, derived
// evaluation, canonical-JSON hashing), which resume re-pays on every
// invocation before any flow runs.
//
// Everything here runs with n_threads = 1 (host notes for the checked-in
// baseline: bench/baselines/README.md).
#include <benchmark/benchmark.h>

#include <cstddef>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "campaign/store.h"

namespace {

using namespace cny;

/// Small MC budget and coarse interpolant: these benches time session
/// warm-up economics, not the MC kernels.
constexpr std::size_t kMcSamples = 400;
constexpr std::size_t kKnots = 17;

campaign::CampaignSpec grouping_spec() {
  campaign::CampaignSpec spec;
  spec.name = "bench-grouping";
  spec.base.params.mc_samples = kMcSamples;
  // Corner axis last => fastest-varying: points 0..8 visit the three
  // pitch-CV corners as 0.7, 0.8, 0.9, 0.7, 0.8, ... — adjacent points
  // never share a session unless the runner groups the chunk.
  spec.axes = {{"seed", "seed", "1:1:3"},
               {"cv", "process.pitch_cv", "0.7,0.8,0.9"}};
  return spec;
}

campaign::RunnerOptions base_options() {
  campaign::RunnerOptions options;
  options.n_threads = 1;
  options.interpolant_knots = kKnots;
  return options;
}

void BM_CampaignGrouped(benchmark::State& state) {
  const auto points = campaign::compile(grouping_spec());
  auto options = base_options();
  options.checkpoint_every = 0;  // one chunk: full-campaign grouping
  options.cache_capacity = 8;
  for (auto _ : state) {
    campaign::ResultStore store;
    benchmark::DoNotOptimize(campaign::run_campaign(points, store, options));
  }
}
BENCHMARK(BM_CampaignGrouped)->Unit(benchmark::kMillisecond);

void BM_CampaignUngrouped(benchmark::State& state) {
  const auto points = campaign::compile(grouping_spec());
  auto options = base_options();
  options.checkpoint_every = 1;  // every point alone: no grouping possible
  options.cache_capacity = 1;    // corner-fastest ordering evicts each time
  for (auto _ : state) {
    campaign::ResultStore store;
    benchmark::DoNotOptimize(campaign::run_campaign(points, store, options));
  }
}
BENCHMARK(BM_CampaignUngrouped)->Unit(benchmark::kMillisecond);

void BM_CampaignCompile(benchmark::State& state) {
  const auto spec = grouping_spec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(campaign::compile(spec));
  }
}
BENCHMARK(BM_CampaignCompile)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
