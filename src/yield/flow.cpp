#include "yield/flow.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exec/parallel_mc.h"
#include "exec/thread_pool.h"
#include "layout/aligned_active.h"
#include "layout/row_placement.h"
#include "power/penalty.h"
#include "rng/engine.h"
#include "scenario/engine.h"
#include "util/contracts.h"
#include "util/strings.h"
#include "yield/empty_window.h"
#include "yield/row_model.h"

namespace cny::yield {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::Uncorrelated: return "uncorrelated";
    case Strategy::DirectionalOnly: return "directional only";
    case Strategy::AlignedOneRow: return "aligned-active (1 row)";
    case Strategy::AlignedTwoRows: return "aligned-active (2 rows)";
  }
  return "?";
}

const StrategyResult& FlowResult::get(Strategy s) const {
  for (const auto& r : strategies) {
    if (r.strategy == s) return r;
  }
  CNY_EXPECT_MSG(false, "strategy not present in flow result");
  return strategies.front();  // unreachable
}

util::Table FlowResult::summary_table() const {
  util::Table t("Yield-flow strategy comparison");
  // Per-mechanism columns appear only when the mechanism ran, so the
  // open-only rendering is unchanged by the scenario engine's existence.
  const bool shorts = scenario.shorts.has_value();
  const bool length = scenario.length.has_value();
  std::vector<std::string> header = {"strategy",      "relaxation",
                                     "W_min (nm)",    "power penalty",
                                     "cells widened", "library area"};
  if (shorts) {
    header.push_back("Y_short");
    header.push_back("req p_Rm");
  }
  if (length) header.push_back("len scale");
  t.header(std::move(header));
  for (const auto& r : strategies) {
    // Named lvalue sidesteps GCC 12's -Wrestrict false positive on
    // operator+(const char*, std::string&&) (GCC bug 105329).
    const std::string area = util::format_pct(r.area_penalty);
    t.begin_row()
        .cell(to_string(r.strategy))
        .cell(util::format_sig(r.relaxation, 4) + "X")
        .num(r.w_min, 4)
        .cell(util::format_pct(r.power_penalty))
        .cell(std::to_string(r.cells_widened))
        .cell("+" + area);
    if (shorts) {
      t.cell(util::format_sig(r.short_mode_yield, 6))
          .cell(util::format_sig(r.required_p_rm, 8));
    }
    if (length) t.num(r.length_scale, 4);
  }
  return t;
}

void validate(const FlowParams& f) {
  // Affirmative comparisons reject NaN for free (every NaN compare is
  // false), so a NaN yield or CV lands in the same error as an
  // out-of-range one. Plain invalid_argument, not a contract macro: the
  // message crosses the service wire verbatim, so it must name the field
  // and nothing else (no source paths).
  const auto check = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  check(f.yield_desired > 0.0 && f.yield_desired < 1.0,
        "yield_desired must be in (0, 1)");
  check(f.chip_transistors >= 1.0 && f.chip_transistors <= 1e16,
        "chip_transistors must be in [1, 1e16]");
  check(f.l_cnt > 0.0 && f.l_cnt <= 1e9, "l_cnt must be in (0, 1e9] nm");
  check(f.fets_per_um > 0.0 && f.fets_per_um <= 1e4,
        "fets_per_um must be in (0, 1e4]");
  check(f.active_spacing >= 0.0 && f.active_spacing <= 1e6,
        "active_spacing must be in [0, 1e6] nm");
  check(f.mc_samples >= 1 && f.mc_samples <= 10'000'000,
        "mc_samples must be in [1, 1e7]");
  check(f.mc_streams >= 1 && f.mc_streams <= 4096,
        "mc_streams must be in [1, 4096]");
  scenario::validate(f.scenario);
}

namespace {

/// Relaxation of the DirectionalOnly strategy: conditional MC over the
/// unmodified library's window-offset diversity at the W_min operating
/// point (iterated once: relaxation depends weakly on the width used).
double directional_relaxation(const netlist::Design& design,
                              const device::FailureModel& model,
                              const FlowParams& params, double w_probe) {
  const auto offsets = layout::window_offsets(design, w_probe);
  CNY_EXPECT_MSG(!offsets.empty(), "design has no critical regions");
  std::vector<geom::Interval> windows;
  windows.reserve(offsets.size());
  for (const auto& o : offsets) windows.push_back({o.y, o.y + w_probe});

  const double p_f = model.p_f(w_probe, params.n_threads);
  const double lambda_s = -std::log(p_f) / w_probe;
  rng::Xoshiro256 rng(rng::derive_seed(params.seed, 0xF10));
  const exec::McPolicy policy{params.n_threads, params.mc_streams};
  const double p_rf =
      union_conditional_mc(lambda_s, windows, params.mc_samples, rng, policy)
          .estimate;
  RowParams rows;
  rows.l_cnt = params.l_cnt;
  rows.fets_per_um = params.fets_per_um;
  rows.m_min = 1;
  return relaxation_factor(p_rf, p_f, rows);
}

/// One node of run_flow's stage graph: a strategy's solve, plus the slot
/// its failure is parked in.
struct Stage {
  std::function<void()> run;
  std::exception_ptr error;
};

/// Runs `stages` concurrently on up to `n_threads` threads. A failure is
/// parked in its stage instead of propagating, so the caller rethrows in
/// serial flow order however the stages were scheduled.
void run_concurrently(const std::vector<Stage*>& stages, unsigned n_threads) {
  exec::parallel_for(stages.size(), n_threads, [&](std::size_t i) {
    try {
      stages[i]->run();
    } catch (...) {
      stages[i]->error = std::current_exception();
    }
  });
}

}  // namespace

FlowResult run_flow(const celllib::Library& lib,
                    const netlist::Design& design,
                    const device::FailureModel& orig_model,
                    const FlowParams& params) {
  CNY_EXPECT(&design.library() == &lib);
  validate(params);

  const scenario::Engine engine(params, orig_model.pitch(),
                                orig_model.process());

  // RemovalFrontier derivation: rebuild at the earned corner only when the
  // caller's model is elsewhere — the service's session cache already
  // hands over warm models at the derived corner, which pass through
  // untouched.
  std::optional<device::FailureModel> corner_model;
  const device::FailureModel* corner_ptr = &orig_model;
  if (!engine.matches(orig_model.process())) {
    corner_model.emplace(orig_model.pitch(), engine.process());
    corner_ptr = &*corner_model;
  }

  // Opt-in bracket-scoped interpolant (ROADMAP "solver hot path"): every
  // p_F query any strategy's solver makes lives inside the W bracket, so
  // one table amortises them all. Installed on a local copy unless the
  // caller's model already covers the bracket (e.g. a warm session's
  // table), so the caller's exactness is never altered.
  const WminRequest bracket;
  std::optional<device::FailureModel> interp_model;
  const device::FailureModel* eval_model = corner_ptr;
  if (params.use_interpolant) {
    if (!corner_ptr->interpolation_covers(bracket.w_lo) ||
        !corner_ptr->interpolation_covers(bracket.w_hi)) {
      // Install on the flow-local corner model if one already exists,
      // else on a fresh copy of the caller's.
      device::FailureModel& local =
          corner_model ? *corner_model : interp_model.emplace(orig_model);
      local.enable_interpolation(bracket.w_lo, bracket.w_hi,
                                 params.interpolant_knots, params.n_threads);
      eval_model = &local;
    }
  }
  const device::FailureModel& model = *eval_model;

  auto spectrum = design.width_spectrum();
  spectrum = scale_spectrum(
      spectrum, 1.0,
      params.chip_transistors / double(design.n_transistors()));

  RowParams rows;
  rows.l_cnt = params.l_cnt;
  rows.fets_per_um = params.fets_per_um;
  rows.m_min = 1;
  const double mrmin = m_r_min(rows);

  FlowResult out;
  out.m_r_min = mrmin;
  out.scenario = params.scenario;
  if (engine.removal_active()) out.derived_p_rs = engine.process().p_remove_s;

  // ShortFailure: the solver fixpoints against Y_S so every strategy's
  // W_min meets the combined open x short requirement. Empty hook = the
  // unchanged open-only solve.
  const auto short_yield = engine.short_mode_yield();

  const auto solve = [&](double relaxation) {
    WminRequest req;
    req.yield_desired = params.yield_desired;
    req.relaxation = relaxation;
    req.short_mode_yield = short_yield;
    req.n_threads = params.n_threads;
    return solve_w_min(spectrum, model, req);
  };

  // Per-strategy scenario columns (mechanism-off defaults otherwise).
  const auto fill_scenario = [&](StrategyResult& r, const WminResult& solved) {
    r.short_mode_yield = solved.short_mode_yield;
    if (engine.shorts_active()) r.required_p_rm = engine.required_p_rm(r.w_min);
  };

  out.strategies.resize(4);
  StrategyResult& uncorrelated = out.strategies[0];
  StrategyResult& directional = out.strategies[1];
  StrategyResult& aligned1 = out.strategies[2];
  StrategyResult& aligned2 = out.strategies[3];
  uncorrelated.strategy = Strategy::Uncorrelated;
  directional.strategy = Strategy::DirectionalOnly;
  aligned1.strategy = Strategy::AlignedOneRow;
  aligned2.strategy = Strategy::AlignedTwoRows;

  // FiniteLength: the aligned-credit rescale, probed (like the directional
  // relaxation) at the baseline W_min's functional-CNT density.
  double length_scale = 1.0;
  const auto eval_aligned = [&](int rows_per_polarity, StrategyResult& r) {
    double relax = mrmin / (rows_per_polarity == 2 ? 2.0 : 1.0);
    if (engine.length_active()) {
      relax = std::max(1.0, relax * length_scale);
      r.length_scale = length_scale;
    }
    const auto solved = solve(relax);
    layout::AlignOptions options;
    options.w_min = solved.w_min;
    options.rows_per_polarity = rows_per_polarity;
    const auto aligned =
        layout::align_active(lib, options, params.active_spacing);
    r.relaxation = relax;
    r.w_min = solved.w_min;
    r.power_penalty = power::upsizing_penalty(spectrum, solved.w_min);
    r.area_penalty = aligned.area_increase();
    r.cells_widened = aligned.cells_with_penalty();
    fill_scenario(r, solved);
  };

  // Stage graph. A solve depends only on its relaxation, so the solves
  // whose relaxation is known run concurrently:
  //
  //   1. uncorrelated, and both aligned solves (their credit is M_Rmin)
  //   2. the directional MC probe at the uncorrelated W_min
  //   3. directional, and both aligned solves when FiniteLength rescales
  //      their credit by a probe at the uncorrelated W_min
  //
  // Solves are pure and the model's memo holds pure values, so every
  // result is bit-identical to the one-solve-at-a-time order, at any
  // thread count. Failures are rethrown in that serial order (uncorrelated,
  // directional, aligned 1 row, aligned 2 rows), so the error a caller
  // sees does not depend on scheduling either.
  //
  // Every solve opens on the same start pair. It is evaluated once, in
  // one batch call, before the solves fork, so concurrent solves never
  // race to compute the same exact p_F.
  (void)model.p_f_batch(start_pair(bracket.w_lo, bracket.w_hi));

  WminResult base;
  double dir_relax = 1.0;
  Stage base_stage{[&] { base = solve(1.0); }, nullptr};
  Stage dir_stage{[&] {
                    directional.relaxation = dir_relax;
                    const auto solved = solve(dir_relax);
                    directional.w_min = solved.w_min;
                    directional.power_penalty =
                        power::upsizing_penalty(spectrum, solved.w_min);
                    fill_scenario(directional, solved);
                  },
                  nullptr};
  Stage one_row{[&] { eval_aligned(1, aligned1); }, nullptr};
  Stage two_rows{[&] { eval_aligned(2, aligned2); }, nullptr};
  std::vector<Stage*> first = {&base_stage};
  std::vector<Stage*> last = {&dir_stage};
  auto& aligned_stage = engine.length_active() ? last : first;
  aligned_stage.insert(aligned_stage.end(), {&one_row, &two_rows});

  run_concurrently(first, params.n_threads);
  if (base_stage.error) std::rethrow_exception(base_stage.error);
  out.m_min_uncorrelated = base.m_min;

  dir_relax = directional_relaxation(design, model, params, base.w_min);
  if (engine.length_active()) {
    const double lambda_s =
        -std::log(model.p_f(base.w_min, params.n_threads)) / base.w_min;
    length_scale = engine.aligned_length_scale(lambda_s, base.w_min);
  }

  uncorrelated.relaxation = 1.0;
  uncorrelated.w_min = base.w_min;
  uncorrelated.power_penalty = power::upsizing_penalty(spectrum, base.w_min);
  fill_scenario(uncorrelated, base);

  run_concurrently(last, params.n_threads);
  for (const Stage* stage : {&dir_stage, &one_row, &two_rows}) {
    if (stage->error) std::rethrow_exception(stage->error);
  }
  return out;
}

}  // namespace cny::yield
