// Performance benchmarks for the Monte Carlo substrates: RNG engine,
// samplers, growth generation, and the full-chip yield simulator. Not tied
// to a specific paper figure — this is the kernel inventory for anyone
// scaling the library up.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "celllib/generator.h"
#include "cnt/count_distribution.h"
#include "cnt/count_pgf.h"
#include "cnt/growth.h"
#include "cnt/pf_kernel.h"
#include "cnt/process.h"
#include "exec/parallel_mc.h"
#include "experiments/paper_params.h"
#include "layout/row_placement.h"
#include "netlist/design_generator.h"
#include "rng/distributions.h"
#include "rng/engine.h"
#include "stats/bootstrap.h"
#include "yield/empty_window.h"
#include "yield/monte_carlo.h"

namespace {

using namespace cny;

// --- analytic p_F evaluators ------------------------------------------------
// The same quantity three ways: the full-PMF path (materialise the whole
// count distribution, then form the PGF), the truncated node-major
// quadrature kernel (cnt/pf_kernel.h, the test reference; same grid, agrees
// to ≤1e-12 relative) and the residue evaluator the library runs
// (cnt/count_pgf.h).

void BM_PfExact(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, 0.9);
  const double z = cnt::fig21_worst().p_fail();
  const double w = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const cnt::CountDistribution dist(pitch, w);
    benchmark::DoNotOptimize(dist.pgf(z));
  }
}
BENCHMARK(BM_PfExact)
    ->Arg(155)
    ->Arg(500)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

void BM_PfTruncated(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, 0.9);
  const double z = cnt::fig21_worst().p_fail();
  const double w = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cnt::pf_truncated(pitch, w, z).value);
  }
}
BENCHMARK(BM_PfTruncated)
    ->Arg(155)
    ->Arg(500)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

// The evaluator every p_F query runs (cnt/count_pgf.h): residues plus one
// branch-cut integral, at the paper's pitch CV and on either side of it
// (range(1) = CV x 10). Microseconds per query, independent of W.
void BM_PfResidues(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, static_cast<double>(state.range(1)) / 10.0);
  const double z = cnt::fig21_worst().p_fail();
  const double w = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cnt::count_pgf(pitch, w, z));
  }
}
BENCHMARK(BM_PfResidues)
    ->ArgNames({"w", "cv10"})
    ->ArgsProduct({{155, 500, 800}, {5, 9, 20}})
    ->Unit(benchmark::kMicrosecond);

// The Poisson-shape special case (integer Gamma shape k = 1), where the
// truncated kernel steps Q(nk, x) with an exact recurrence: each extra PMF
// term costs one multiply per node instead of one incomplete gamma.
void BM_PfTruncatedPoisson(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, 1.0);
  const double z = cnt::fig21_worst().p_fail();
  const double w = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cnt::pf_truncated(pitch, w, z).value);
  }
}
BENCHMARK(BM_PfTruncatedPoisson)
    ->Arg(155)
    ->Arg(500)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

void BM_Xoshiro(benchmark::State& state) {
  rng::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_UniformDouble(benchmark::State& state) {
  rng::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_UniformDouble);

void BM_SampleGamma(benchmark::State& state) {
  rng::Xoshiro256 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::sample_gamma(rng, 1.23, 3.24));
  }
}
BENCHMARK(BM_SampleGamma);

void BM_SamplePoisson(benchmark::State& state) {
  rng::Xoshiro256 rng(3);
  const double lambda = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::sample_poisson(rng, lambda));
  }
}
BENCHMARK(BM_SamplePoisson)->Arg(5)->Arg(25)->Arg(120);

void BM_DiscreteSampler(benchmark::State& state) {
  rng::Xoshiro256 rng(4);
  std::vector<double> weights;
  for (int i = 0; i < 134; ++i) weights.push_back(1.0 + (i % 7));
  const rng::DiscreteSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler(rng));
  }
}
BENCHMARK(BM_DiscreteSampler);

void BM_FunctionalPositionsPerBand(benchmark::State& state) {
  const cnt::DirectionalGrowth growth(cnt::PitchModel(4.0, 0.9),
                                      cnt::fig21_worst(), 200.0e3);
  rng::Xoshiro256 rng(5);
  const double band = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(growth.functional_positions(rng, 0.0, band));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) / 4);  // ~tubes generated
}
BENCHMARK(BM_FunctionalPositionsPerBand)->Arg(160)->Arg(1600)->Arg(16000);

void BM_ChipYieldSimulation(benchmark::State& state) {
  const cnt::DirectionalGrowth growth(cnt::PitchModel(4.0, 1.0),
                                      cnt::fig21_worst(), 200.0e3);
  yield::ChipSpec spec;
  spec.row_windows =
      std::vector<geom::Interval>(16, geom::Interval{0.0, 30.0});
  spec.n_rows = 8;
  rng::Xoshiro256 rng(6);
  for (auto _ : state) {
    const auto res = yield::simulate_chip_yield(
        growth, spec, yield::GrowthStyle::Directional, 200, rng);
    benchmark::DoNotOptimize(res.chip_yield);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 200 * 8);
}
BENCHMARK(BM_ChipYieldSimulation)->Unit(benchmark::kMillisecond);

// --- parallel execution subsystem (exec/parallel_mc.h) ---------------------
// Arg = thread count; the stream count is pinned at 16 so every thread
// count computes the identical result — the speedup is pure scheduling.
// Wall time (UseRealTime) is the measure: CPU time is the main thread's
// alone, so items_per_second from it would credit work the pool did.

void BM_UnionConditionalMcThreads(benchmark::State& state) {
  const double lambda = 0.117, w = 145.0;
  std::vector<cny::geom::Interval> windows;
  for (double o : {0.0, 15.0, 33.0, 52.0, 78.0, 95.0, 130.0, 155.0}) {
    windows.push_back({o, o + w});
  }
  const exec::McPolicy policy{static_cast<unsigned>(state.range(0)), 16};
  rng::Xoshiro256 rng(7);
  for (auto _ : state) {
    const auto res =
        yield::union_conditional_mc(lambda, windows, 20000, rng, policy);
    benchmark::DoNotOptimize(res.estimate);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20000);
}
BENCHMARK(BM_UnionConditionalMcThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The directional probe of the canonical cold run_flow: the synthetic
// OpenRISC-like design's 58 distinct windows at the uncorrelated W_min
// (158.919452 nm), λ_s from the exact p_F there, 20,000 samples.
struct CanonicalProbe {
  double lambda_s = 0.0;
  std::vector<geom::Interval> windows;

  CanonicalProbe() {
    constexpr double w = 158.919452;
    const auto lib = celllib::make_nangate45_like();
    const auto design = netlist::make_openrisc_like(lib);
    for (const auto& o : layout::window_offsets(design, w)) {
      windows.push_back({o.y, o.y + w});
    }
    lambda_s = -std::log(experiments::PaperParams{}.failure_model().p_f(w)) / w;
  }
};

void BM_UnionConditionalMcCanonical(benchmark::State& state) {
  static const CanonicalProbe probe;
  const exec::McPolicy policy{static_cast<unsigned>(state.range(0)), 16};
  rng::Xoshiro256 rng(7);
  for (auto _ : state) {
    const auto res = yield::union_conditional_mc(
        probe.lambda_s, probe.windows, 20000, rng, policy);
    benchmark::DoNotOptimize(res.estimate);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20000);
}
BENCHMARK(BM_UnionConditionalMcCanonical)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ChipYieldSimulationThreads(benchmark::State& state) {
  const cnt::DirectionalGrowth growth(cnt::PitchModel(4.0, 1.0),
                                      cnt::fig21_worst(), 200.0e3);
  yield::ChipSpec spec;
  spec.row_windows =
      std::vector<cny::geom::Interval>(16, cny::geom::Interval{0.0, 30.0});
  spec.n_rows = 8;
  const exec::McPolicy policy{static_cast<unsigned>(state.range(0)), 16};
  rng::Xoshiro256 rng(6);
  for (auto _ : state) {
    const auto res = yield::simulate_chip_yield(
        growth, spec, yield::GrowthStyle::Directional, 200, rng, policy);
    benchmark::DoNotOptimize(res.chip_yield);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 200 * 8);
}
BENCHMARK(BM_ChipYieldSimulationThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BootstrapThreads(benchmark::State& state) {
  std::vector<double> data;
  rng::Xoshiro256 gen(5);
  for (int i = 0; i < 400; ++i) data.push_back(gen.uniform());
  const exec::McPolicy policy{static_cast<unsigned>(state.range(0)), 16};
  rng::Xoshiro256 rng(9);
  for (auto _ : state) {
    const auto ci = stats::bootstrap_mean_ci(data, rng, 4000, 0.95, policy);
    benchmark::DoNotOptimize(ci.lo);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4000);
}
BENCHMARK(BM_BootstrapThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
