// The "larger workloads" case study: the 775-cell commercial65_like
// library (the paper's commercial 65 nm stand-in) with a synthetic design
// an order of magnitude past the OpenRISC core, pushed through run_flow on
// one warm FailureModel whose log-p_F interpolant the whole yield-target
// sweep shares.
//
//   commercial65_like (775 cells)
//     -> synthetic design tier (--instances, default 200k cells)
//     -> width histogram (the 65 nm analogue of Fig 2.2a)
//     -> run_flow over --yields (default 0.80,0.90,0.95)
//        plus a 2x design tier at the middle yield target
//     -> per-strategy summary for every job
//
// Usage: commercial65_case_study [--instances=200000]
//            [--yields=0.80,0.90,0.95] [--mc-samples=20000] [--seed=1]
#include <chrono>
#include <cstdio>
#include <iostream>

#include "celllib/generator.h"
#include "device/failure_model.h"
#include "exec/thread_pool.h"
#include "netlist/design_generator.h"
#include "util/cli.h"
#include "util/strings.h"
#include "yield/flow.h"
#include "yield/wmin_solver.h"

int main(int argc, char** argv) {
  using namespace cny;
  const util::Cli cli(argc, argv);

  const auto lib = celllib::make_commercial65_like();
  const auto n_instances =
      static_cast<std::uint64_t>(cli.get_long("instances", 200000));
  const auto design =
      netlist::generate_design("commercial65_synth", lib, n_instances, {});
  const auto design_2x = netlist::generate_design("commercial65_synth_2x", lib,
                                                  2 * n_instances, {});

  std::printf("library %s: %zu cells, min transistor width %.1f nm\n",
              lib.name().c_str(), lib.size(), lib.min_transistor_width());
  std::printf("design tiers: %llu and %llu instances (%llu / %llu "
              "transistors)\n\n",
              static_cast<unsigned long long>(design.n_instances()),
              static_cast<unsigned long long>(design_2x.n_instances()),
              static_cast<unsigned long long>(design.n_transistors()),
              static_cast<unsigned long long>(design_2x.n_transistors()));

  const auto hist = design.width_histogram(80.0, 1200.0);
  std::printf("transistor width distribution (65 nm analogue of Fig 2.2a):\n%s\n",
              hist.to_ascii(48).c_str());

  // The paper's process corner, warmed once over the W_min solver bracket:
  // every job reads the same table, the way a service session shares it.
  cnt::ProcessParams process;
  process.p_metallic = 0.33;
  process.p_remove_s = 0.30;
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9), process);

  yield::FlowParams base;
  base.mc_samples = static_cast<std::size_t>(
      cli.get_long("mc-samples", static_cast<long>(base.mc_samples)));
  base.seed = static_cast<std::uint64_t>(cli.get_long("seed", 1));
  // The commercial65_like diffusion rule is looser than the 45 nm default.
  base.active_spacing = 200.0;

  std::vector<const netlist::Design*> designs;
  std::vector<yield::FlowParams> jobs;
  std::vector<std::string> labels;
  for (const auto& tok :
       util::split(cli.get("yields", "0.80,0.90,0.95"), ',')) {
    if (tok.empty()) continue;
    designs.push_back(&design);
    jobs.push_back(base);
    jobs.back().yield_desired = util::parse_double(tok);
    labels.push_back(design.name() + " @ yield " + std::string(tok));
  }
  // The bigger tier rides the same sweep — same model, same interpolant.
  designs.push_back(&design_2x);
  jobs.push_back(base);
  labels.push_back(design_2x.name() + " @ yield 0.90");

  const auto t0 = std::chrono::steady_clock::now();
  const yield::WminRequest bracket;
  model.enable_interpolation(bracket.w_lo, bracket.w_hi, 65, 0);
  std::vector<yield::FlowResult> results(jobs.size());
  exec::parallel_for(jobs.size(), 0, [&](std::size_t i) {
    results[i] = yield::run_flow(lib, *designs[i], model, jobs[i]);
  });
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("== %s ==\n", labels[i].c_str());
    std::cout << results[i].summary_table().to_text() << '\n';
  }
  std::printf(
      "%zu jobs x 4 strategies in %lld ms on the shared interpolant "
      "(%.1f ms/job)\n",
      results.size(), static_cast<long long>(ms),
      static_cast<double>(ms) / static_cast<double>(results.size()));
  return 0;
}
