// Prints the all-strategies summary (the synthesis of Table 1 + Fig 3.3),
// then benchmarks the end-to-end flow.
#include <benchmark/benchmark.h>

#include <iostream>

#include "celllib/generator.h"
#include "experiments/flow_summary.h"
#include "netlist/design_generator.h"
#include "obs/resource.h"
#include "yield/flow.h"

namespace {

// Records the process memory high-water mark (and current RSS) as user
// counters on the benchmark, so baseline JSONs carry a memory figure next
// to the time. VmHWM is process-wide and monotone, so on a multi-benchmark
// binary each entry reports "the peak so far" — comparable across
// recordings of the same binary (registration order is fixed), and an
// upper bound per benchmark either way.
void record_memory(benchmark::State& state) {
  const cny::obs::ResourceUsage usage = cny::obs::sample_resources();
  if (!usage.ok) return;
  state.counters["vm_hwm_kb"] = static_cast<double>(usage.vm_hwm_kb);
  state.counters["rss_kb"] = static_cast<double>(usage.rss_kb);
}

void BM_FullYieldFlow(benchmark::State& state) {
  const cny::experiments::PaperParams params;
  for (auto _ : state) {
    const auto res = cny::experiments::run_flow_summary(params);
    benchmark::DoNotOptimize(res.strategies.size());
  }
  record_memory(state);
}
BENCHMARK(BM_FullYieldFlow)->Unit(benchmark::kMillisecond);

// Arg = thread count at a fixed stream count: every arg computes the
// identical numbers, so the curve is the pure scheduling speedup (the
// concurrent strategy solves plus the sharded directional MC), timed on
// the wall clock.
void BM_FullYieldFlowThreads(benchmark::State& state) {
  cny::experiments::PaperParams params;
  params.n_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const auto res = cny::experiments::run_flow_summary(params);
    benchmark::DoNotOptimize(res.strategies.size());
  }
  record_memory(state);
}
BENCHMARK(BM_FullYieldFlowThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Single-design run_flow with the bracket-scoped interpolant opt-in
// (FlowParams::use_interpolant): Arg 0 = exact p_F per solver query,
// Arg 1 = one 65-knot table up front, answered from the snapshot after.
void BM_SingleFlowInterpolant(benchmark::State& state) {
  static const cny::celllib::Library lib = cny::celllib::make_nangate45_like();
  static const cny::netlist::Design design =
      cny::netlist::make_openrisc_like(lib);
  const cny::experiments::PaperParams paper;
  cny::yield::FlowParams params;
  params.use_interpolant = state.range(0) != 0;
  for (auto _ : state) {
    // Fresh model per iteration: measure the cold cost a new process/param
    // set pays, not replays against an already-warm memo cache.
    state.PauseTiming();
    const auto cold_model = paper.failure_model();
    state.ResumeTiming();
    const auto res = cny::yield::run_flow(lib, design, cold_model, params);
    benchmark::DoNotOptimize(res.strategies.size());
  }
  record_memory(state);
}
BENCHMARK(BM_SingleFlowInterpolant)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const cny::experiments::PaperParams params;
  std::cout << cny::experiments::report_flow_summary(params).render_text()
            << std::endl;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
