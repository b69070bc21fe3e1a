// Scenario-engine benchmarks: what each mechanism adds to a single flow,
// and how a removal-frontier sweep batches.
//
//   BM_FlowOpenOnly        — the open-only baseline (empty ScenarioSpec)
//   BM_FlowShorts          — + combined open x short W_min fixpoint and the
//                            per-strategy required-p_Rm bisections
//   BM_FlowAllMechanisms   — shorts + finite length + removal frontier
//   BM_FrontierBatchShared — 4-point removal sweep through the evaluation
//                            core (service::evaluate_grouped) on a fresh
//                            SessionCache: one warm session (library,
//                            model + table, design) per derived corner
//   BM_FrontierBatchCold   — the same sweep as solo exact run_flow calls:
//                            what per-corner sharing saves
//
// Everything runs on one thread, so the batch entries measure work, not
// parallel speedup.
#include <benchmark/benchmark.h>

#include "celllib/generator.h"
#include "device/failure_model.h"
#include "netlist/design_generator.h"
#include "scenario/engine.h"
#include "service/session_cache.h"
#include "yield/flow.h"

namespace {

using namespace cny;

/// Small MC budget: these benches time the scenario machinery, not the MC.
constexpr std::size_t kMcSamples = 600;

const celllib::Library& library() {
  static const celllib::Library lib = celllib::make_nangate45_like();
  return lib;
}

const netlist::Design& design() {
  static const netlist::Design d = netlist::make_openrisc_like(library());
  return d;
}

const device::FailureModel& model() {
  static const device::FailureModel m(cnt::PitchModel(4.0, 0.9),
                                      cnt::fig21_worst());
  return m;
}

yield::FlowParams flow_params() {
  yield::FlowParams params;
  params.mc_samples = kMcSamples;
  params.n_threads = 1;
  return params;
}

void BM_FlowOpenOnly(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        yield::run_flow(library(), design(), model(), flow_params()));
  }
}
BENCHMARK(BM_FlowOpenOnly)->Unit(benchmark::kMillisecond);

void BM_FlowShorts(benchmark::State& state) {
  auto params = flow_params();
  params.scenario.shorts = scenario::ShortFailure{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        yield::run_flow(library(), design(), model(), params));
  }
}
BENCHMARK(BM_FlowShorts)->Unit(benchmark::kMillisecond);

void BM_FlowAllMechanisms(benchmark::State& state) {
  auto params = flow_params();
  // Composition: the removal target supersedes the shorts block's p_Rm, so
  // it must sit above the short mode's ~1-1e-8 floor for 1e8 transistors
  // (at a 0.1 % noise budget) while its earned p_Rs stays solvable.
  params.scenario.shorts = scenario::ShortFailure{1.0, 0.001};
  params.scenario.length = scenario::FiniteLength{150.0e3, 0.3, 16};
  params.scenario.removal = scenario::RemovalFrontier{6.0, 0.99999999};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        yield::run_flow(library(), design(), model(), params));
  }
}
BENCHMARK(BM_FlowAllMechanisms)->Unit(benchmark::kMillisecond);

std::vector<service::FlowRequest> frontier_requests() {
  // 4 removal targets -> 4 distinct derived corners (feasible across the
  // sweep at selectivity 6), each evaluated at 2 yield targets — the shape
  // of coalesced sweep traffic, where per-corner table sharing pays.
  std::vector<service::FlowRequest> requests;
  for (const double p_rm : {0.99, 0.999, 0.9999, 0.99999}) {
    for (const double yield_target : {0.85, 0.90}) {
      service::FlowRequest request;
      request.params = flow_params();
      request.params.yield_desired = yield_target;
      request.params.scenario.removal = scenario::RemovalFrontier{6.0, p_rm};
      requests.push_back(request);
    }
  }
  return requests;
}

void BM_FrontierBatchShared(benchmark::State& state) {
  const auto requests = frontier_requests();
  std::vector<const service::FlowRequest*> pointers;
  for (const auto& request : requests) pointers.push_back(&request);
  for (auto _ : state) {
    service::SessionCache cache(4, 65, 1);
    benchmark::DoNotOptimize(service::evaluate_grouped(cache, pointers, 1));
  }
}
BENCHMARK(BM_FrontierBatchShared)->Unit(benchmark::kMillisecond);

void BM_FrontierBatchCold(benchmark::State& state) {
  const auto requests = frontier_requests();
  for (auto _ : state) {
    for (const auto& request : requests) {
      benchmark::DoNotOptimize(
          yield::run_flow(library(), design(), model(), request.params));
    }
  }
}
BENCHMARK(BM_FrontierBatchCold)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
