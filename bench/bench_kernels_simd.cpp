// Scalar-reference vs dispatched-kernel baselines for the p_F kernel
// backends (src/kernels/). Every benchmark here exists under ONE name in
// TWO implementations, selected by a flag this binary parses before Google
// Benchmark sees argv:
//
//   --mode=looped      the scalar reference kernel (every node update on
//                      cnt::detail::pf_nodes_scalar), one call per width
//   --mode=dispatched  (default) widths evaluated through cnt::pf_truncated
//                      / the interpolant build, on whichever backend the
//                      platform dispatches to (AVX2 node lanes where the
//                      CPU has them)
//
// Recording the same binary in both modes and diffing the JSONs with
// tools/bench_compare.py measures exactly the backend win while holding
// the benchmark harness constant; CI gates the headline pair (interpolant
// build, Fig 2.1 sweep) with `--fail-above -35` plus inline ratio floors:
// on an AVX2 host the dispatched mode must be ≥ 1.9x the looped mode on the
// interpolant build and ≥ 1.5x on the Fig 2.1 sweep. Results are
// bit-identical across modes (tests/test_kernels.cpp), so the diff is pure
// speed.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cnt/pf_kernel.h"
#include "cnt/pf_kernel_internal.h"
#include "cnt/pitch_model.h"
#include "cnt/process.h"
#include "device/failure_model.h"
#include "kernels/dispatch.h"

namespace {

using namespace cny;

bool g_dispatched = true;  // --mode=; false = looped scalar reference

/// The looped mode's kernel: the scalar reference for one width (> 0).
double pf_reference(const cnt::PitchModel& pitch, double w, double z) {
  return cnt::detail::pf_terms(cnt::detail::pf_setup(pitch, w), z, 1e-14,
                               &cnt::detail::pf_nodes_scalar)
      .value;
}

/// One result per width, one kernel call each: the dispatched kernel, or
/// in the looped mode the scalar reference.
std::vector<double> eval_widths(const cnt::PitchModel& pitch,
                                const std::vector<double>& widths, double z) {
  std::vector<double> out;
  out.reserve(widths.size());
  for (double w : widths) {
    out.push_back(g_dispatched ? cnt::pf_truncated(pitch, w, z).value
                               : pf_reference(pitch, w, z));
  }
  return out;
}

// --- headline pair 1: the interpolant build ---------------------------------
// 65 exact kernel evaluations over the solver bracket — the dominant
// fixed cost of every interpolated flow. The dispatched mode is the real
// FailureModel::enable_interpolation path on one thread; the looped mode
// evaluates the same geometric knot grid with the scalar reference, one
// call per knot.
void BM_InterpolantBuild(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, 0.9);
  const auto proc = cnt::fig21_mid();
  constexpr std::size_t kKnots = 65;
  for (auto _ : state) {
    if (g_dispatched) {
      const device::FailureModel model(pitch, proc);
      model.enable_interpolation(4.0, 400.0, kKnots, 1);
      benchmark::DoNotOptimize(model.interpolation_covers(155.0));
    } else {
      std::vector<double> xs(kKnots);
      const double ratio = 400.0 / 4.0;
      for (std::size_t i = 0; i < kKnots; ++i) {
        xs[i] = 4.0 * std::pow(ratio, static_cast<double>(i) /
                                          static_cast<double>(kKnots - 1));
      }
      double sum = 0.0;
      for (double x : xs) {
        sum += pf_reference(pitch, x, proc.p_fail());
      }
      benchmark::DoNotOptimize(sum);
    }
  }
}
BENCHMARK(BM_InterpolantBuild)->Unit(benchmark::kMillisecond);

// --- headline pair 2: the Fig 2.1 sweep grid --------------------------------
// The experiment's exact evaluation set: widths 20..180 nm under all three
// processing conditions (41 widths x 3 corners = 123 kernel evaluations).
void BM_Fig21Sweep(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, 0.9);
  std::vector<double> widths;
  for (double w = 20.0; w <= 180.0; w += 4.0) widths.push_back(w);
  const cnt::ProcessParams procs[] = {cnt::fig21_worst(), cnt::fig21_mid(),
                                      cnt::fig21_ideal()};
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& proc : procs) {
      for (double v : eval_widths(pitch, widths, proc.p_fail())) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_Fig21Sweep)->Unit(benchmark::kMillisecond);

// Four large widths — the per-width win where the node loops are longest.
void BM_PfPacketWide(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, 0.9);
  const std::vector<double> widths = {440.0, 480.0, 520.0, 560.0};
  const double z = cnt::fig21_mid().p_fail();
  for (auto _ : state) {
    double sum = 0.0;
    for (double v : eval_widths(pitch, widths, z)) sum += v;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PfPacketWide)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: strip --mode= (ours) before benchmark::Initialize rejects
// it, then run as usual.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--mode=", 0) == 0) {
      const std::string mode = arg.substr(7);
      if (mode == "looped" || mode == "dispatched") {
        g_dispatched = mode == "dispatched";
      } else {
        std::fprintf(stderr, "--mode must be 'looped' or 'dispatched'\n");
        return 2;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  std::printf("mode: %s, backend: %s\n", g_dispatched ? "dispatched" : "looped",
              cny::kernels::backend_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
