// Scenario-engine contracts, pinned:
//   * an empty ScenarioSpec reproduces the open-only flow bit for bit
//     (golden values re-pinned with the secant W_min inversion), and stays
//     within 1e-9 nm of the pre-scenario Brent-solver values;
//   * mechanism degeneracies: ShortFailure at p_Rm = 1 and FiniteLength at
//     the paper's point mass {mean = l_cnt, cv = 0} both collapse to the
//     open-only numbers exactly;
//   * combined-mode monotonicity (shorts raise W_min, length variability
//     shrinks the aligned credit) and the paper's "p_Rm > 99.99 %" remark
//     at the 10^8-transistor design point;
//   * RemovalFrontier earns its corner from the probit frontier, session
//     groups share one warm model per derived corner, and grouped scenario
//     requests equal their solo run_flow twins bit for bit;
//   * run_flow's concurrent stage graph answers (and fails) identically at
//     any thread count, whichever stage the aligned solves run in;
//   * the registry resolves names and the shared validator rejects bad
//     values identically at every entry point.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "celllib/generator.h"
#include "cnt/removal_tradeoff.h"
#include "netlist/design_generator.h"
#include "scenario/engine.h"
#include "service/protocol.h"
#include "service/session_cache.h"
#include "util/contracts.h"
#include "yield/flow.h"

namespace {

using namespace cny;

yield::FlowParams small_params() {
  yield::FlowParams params;
  params.mc_samples = 600;
  params.seed = 7;
  params.n_threads = 1;
  return params;
}

const celllib::Library& library() {
  static const celllib::Library lib = celllib::make_nangate45_like();
  return lib;
}

const netlist::Design& design() {
  static const netlist::Design d = netlist::make_openrisc_like(library());
  return d;
}

device::FailureModel paper_model() {
  return device::FailureModel(cnt::PitchModel(4.0, 0.9), cnt::fig21_worst());
}

/// The open-only reference flow, computed once.
const yield::FlowResult& base_result() {
  static const yield::FlowResult res = [] {
    const auto model = paper_model();
    return yield::run_flow(library(), design(), model, small_params());
  }();
  return res;
}

void expect_strategy_bits_equal(const yield::StrategyResult& a,
                                const yield::StrategyResult& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.relaxation, b.relaxation);
  EXPECT_EQ(a.w_min, b.w_min);
  EXPECT_EQ(a.power_penalty, b.power_penalty);
  EXPECT_EQ(a.area_penalty, b.area_penalty);
  EXPECT_EQ(a.cells_widened, b.cells_widened);
}

// --- empty-spec bit identity ------------------------------------------------

TEST(ScenarioEngine, EmptySpecMatchesPreScenarioGoldenValuesBitExactly) {
  // Hexfloat goldens captured by running this exact configuration
  // (mc_samples 600, seed 7, 1 thread, paper corner), re-pinned when the
  // W_min inversion moved from Brent to the secant on log p_F. Any drift
  // here means the engine changed the open-only flow.
  const auto& res = base_result();
  EXPECT_EQ(res.m_r_min, 0x1.68p+8);  // 360
  EXPECT_EQ(res.m_min_uncorrelated, 34674381u);
  ASSERT_EQ(res.strategies.size(), 4u);
  EXPECT_EQ(res.strategies[0].relaxation, 0x1p+0);
  EXPECT_EQ(res.strategies[0].w_min, 0x1.3dd6c2716b464p+7);
  EXPECT_EQ(res.strategies[0].power_penalty, 0x1.fae9a4e471867p-5);
  EXPECT_EQ(res.strategies[1].relaxation, 0x1.a4b444b323333p+4);
  EXPECT_EQ(res.strategies[1].w_min, 0x1.0178de702ca79p+7);
  EXPECT_EQ(res.strategies[1].power_penalty, 0x1.3a117d557d10ep-6);
  EXPECT_EQ(res.strategies[2].relaxation, 0x1.68p+8);
  EXPECT_EQ(res.strategies[2].w_min, 0x1.8e99fd83d259ap+6);
  EXPECT_EQ(res.strategies[2].power_penalty, 0x1.c64312a655641p-9);
  EXPECT_EQ(res.strategies[2].area_penalty, 0x1.91d346dcdf3fdp-9);
  EXPECT_EQ(res.strategies[2].cells_widened, 4u);
  EXPECT_EQ(res.strategies[3].relaxation, 0x1.68p+7);
  EXPECT_EQ(res.strategies[3].w_min, 0x1.a4feea8f85891p+6);
  EXPECT_EQ(res.strategies[3].power_penalty, 0x1.66e60499f9d61p-8);
  // Mechanism-off defaults everywhere.
  for (const auto& r : res.strategies) {
    EXPECT_EQ(r.short_mode_yield, 1.0);
    EXPECT_EQ(r.required_p_rm, 0.0);
    EXPECT_EQ(r.length_scale, 1.0);
  }
  EXPECT_TRUE(res.scenario.empty());
}

TEST(ScenarioEngine, EmptySpecStaysWithinBoundOfPreScenarioBrentValues) {
  // The same configuration's values from the tree at the commit before
  // src/scenario/ existed, solved by Brent's method. The secant inversion
  // moves them by ~1e-13 nm; the announced bound is 1e-9 nm on W_min and
  // 1e-9 relative on the power penalty.
  struct Brent {
    double w_min;
    double power_penalty;
  };
  constexpr Brent kBrent[4] = {{0x1.3dd6c2716b465p+7, 0x1.fae9a4e47188p-5},
                               {0x1.0178de702ca7ap+7, 0x1.3a117d557d10ep-6},
                               {0x1.8e99fd83d259fp+6, 0x1.c64312a655641p-9},
                               {0x1.a4feea8f85894p+6, 0x1.66e60499f9d61p-8}};
  const auto& res = base_result();
  ASSERT_EQ(res.strategies.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& r = res.strategies[i];
    EXPECT_NEAR(r.w_min, kBrent[i].w_min, 1e-9) << i;
    EXPECT_NEAR(r.power_penalty, kBrent[i].power_penalty,
                1e-9 * kBrent[i].power_penalty)
        << i;
  }
}

// --- mechanism degeneracies -------------------------------------------------

TEST(ScenarioEngine, ShortsAtPerfectRemovalDegenerateToOpenOnly) {
  const auto model = paper_model();
  auto params = small_params();
  params.scenario.shorts = scenario::ShortFailure{1.0, 0.01};
  const auto res = yield::run_flow(library(), design(), model, params);
  ASSERT_EQ(res.strategies.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    expect_strategy_bits_equal(res.strategies[i], base_result().strategies[i]);
    EXPECT_EQ(res.strategies[i].short_mode_yield, 1.0);
    // The acceptance anchor: at the 10^8-transistor design point the short
    // mode alone demands p_Rm beyond the paper's "> 99.99 %" remark.
    EXPECT_GT(res.strategies[i].required_p_rm, 0.9999);
    EXPECT_LT(res.strategies[i].required_p_rm, 1.0);
  }
}

TEST(ScenarioEngine, FiniteLengthPointMassAtLcntDegeneratesToOpenOnly) {
  const auto model = paper_model();
  auto params = small_params();
  // The paper's implied law: every tube exactly l_cnt long. The aligned
  // credit rescale is a ratio of two identical exact unions = 1.0, so the
  // whole flow must come back bit-identical.
  params.scenario.length = scenario::FiniteLength{params.l_cnt, 0.0, 16};
  const auto res = yield::run_flow(library(), design(), model, params);
  for (std::size_t i = 0; i < 4; ++i) {
    expect_strategy_bits_equal(res.strategies[i], base_result().strategies[i]);
    EXPECT_EQ(res.strategies[i].length_scale, 1.0);
  }
}

// --- combined-mode behaviour ------------------------------------------------

TEST(ScenarioEngine, ShortModeRaisesCombinedWmin) {
  const auto model = paper_model();
  auto params = small_params();
  params.scenario.shorts = scenario::ShortFailure{};  // 1 - 1e-9, 1 % noise
  const auto res = yield::run_flow(library(), design(), model, params);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& combined = res.strategies[i];
    const auto& open = base_result().strategies[i];
    EXPECT_GT(combined.w_min, open.w_min)
        << yield::to_string(combined.strategy);
    EXPECT_GT(combined.short_mode_yield, 0.0);
    EXPECT_LT(combined.short_mode_yield, 1.0);
  }
}

// Concurrent stages park their failures and rethrow them in serial
// strategy order, so the message is the same at any thread count, with
// the aligned solves in either stage.
TEST(ScenarioEngine, InfeasibleShortModeFailsWithActionableMessage) {
  std::vector<std::string> messages;
  for (const bool length : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      const auto model = paper_model();
      auto params = small_params();
      params.n_threads = threads;
      params.scenario.shorts = scenario::ShortFailure{0.999, 0.01};
      if (length) {
        params.scenario.length = scenario::FiniteLength{params.l_cnt, 0.5, 16};
      }
      try {
        (void)yield::run_flow(library(), design(), model, params);
        ADD_FAILURE() << "expected the infeasible short mode to throw";
      } catch (const ContractViolation& e) {
        messages.emplace_back(e.what());
      }
    }
  }
  ASSERT_EQ(messages.size(), 4u);
  EXPECT_NE(messages[0].find("short mode"), std::string::npos);
  for (const auto& message : messages) EXPECT_EQ(message, messages[0]);
}

TEST(ScenarioEngine, LengthVariabilityShrinksAlignedCredit) {
  const auto model = paper_model();
  auto params = small_params();
  params.scenario.length = scenario::FiniteLength{params.l_cnt, 0.5, 16};
  const auto res = yield::run_flow(library(), design(), model, params);
  const auto& one_row = res.get(yield::Strategy::AlignedOneRow);
  const auto& base_one_row = base_result().get(yield::Strategy::AlignedOneRow);
  EXPECT_LT(one_row.length_scale, 1.0);
  EXPECT_GT(one_row.length_scale, 0.0);
  EXPECT_LT(one_row.relaxation, base_one_row.relaxation);
  EXPECT_GT(one_row.w_min, base_one_row.w_min);
  // Mechanism scope: only the aligned strategies read the length law.
  expect_strategy_bits_equal(res.strategies[0], base_result().strategies[0]);
  expect_strategy_bits_equal(res.strategies[1], base_result().strategies[1]);
}

TEST(ScenarioEngine, RemovalFrontierEarnsItsCorner) {
  const auto model = paper_model();
  auto params = small_params();
  params.scenario.removal = scenario::RemovalFrontier{6.0, 0.9999};
  const auto res = yield::run_flow(library(), design(), model, params);
  const double expected_p_rs = cnt::RemovalTradeoff(6.0).p_rs_at(0.9999);
  EXPECT_EQ(res.derived_p_rs, expected_p_rs);
  // Selectivity 6 earns far less collateral than the assumed 30 %, so the
  // whole flow relaxes.
  EXPECT_LT(expected_p_rs, 0.05);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(res.strategies[i].w_min, base_result().strategies[i].w_min);
  }
  // At the paper's working selectivity the frontier hands back (almost)
  // the assumed corner.
  const double s_paper = cnt::RemovalTradeoff::required_selectivity(0.9999,
                                                                    0.30);
  EXPECT_NEAR(cnt::RemovalTradeoff(s_paper).p_rs_at(0.9999), 0.30, 1e-9);
}

// --- batching ---------------------------------------------------------------

TEST(ScenarioEngine, BatchSharesOneModelPerDerivedCornerAndMatchesSolo) {
  const scenario::RemovalFrontier removal{5.0, 0.999};

  std::vector<service::FlowRequest> requests(3);
  for (auto& request : requests) request.params = small_params();
  requests[1].params.scenario.removal = removal;
  requests[2].params.scenario.removal = removal;  // same derived corner as [1]
  std::vector<const service::FlowRequest*> pointers;
  for (const auto& request : requests) pointers.push_back(&request);

  EXPECT_EQ(service::group_by_session(pointers).size(), 2u);
  service::SessionCache cache(4, 65, 1);
  const auto outcomes = service::evaluate_grouped(cache, pointers, 1);
  EXPECT_EQ(cache.sessions_built(), 2u);

  // Identical requests on the shared corner model are identical outputs.
  EXPECT_EQ(outcomes[1].result_json, outcomes[2].result_json);

  // Each request equals its solo run_flow twin with the same interpolant
  // policy (same bracket, same knots -> same table).
  const auto model = paper_model();
  for (std::size_t j = 0; j < requests.size(); ++j) {
    ASSERT_TRUE(outcomes[j].error_code.empty()) << outcomes[j].error_message;
    auto params = requests[j].params;
    params.use_interpolant = true;
    const auto solo = yield::run_flow(library(), design(), model, params);
    EXPECT_EQ(outcomes[j].result_json, service::to_json(solo).dump());
  }
}

// --- concurrent stage graph -------------------------------------------------

// run_flow overlaps the solves whose relaxation is known; FiniteLength
// moves the aligned solves behind the uncorrelated probe. Either graph,
// with the short-mode fixpoint inside every solve, must answer with the
// serial flow's bytes at any thread count (a cold model each run, so no
// memo carries work across runs).
TEST(ScenarioEngine, StageGraphIsThreadCountInvariantWithShortsAndLength) {
  for (const bool length : {false, true}) {
    std::vector<std::string> encoded;
    for (const unsigned threads : {1u, 4u}) {
      const auto model = paper_model();
      auto params = small_params();
      params.n_threads = threads;
      params.scenario.shorts = scenario::ShortFailure{};
      if (length) {
        params.scenario.length = scenario::FiniteLength{params.l_cnt, 0.5, 16};
      }
      encoded.push_back(service::encode_flow_response(
          yield::run_flow(library(), design(), model, params)));
    }
    EXPECT_EQ(encoded[1], encoded[0]) << "length " << length;
  }
}

// --- registry + validation --------------------------------------------------

TEST(ScenarioRegistry, ResolvesNamesAndRejectsUnknowns) {
  const auto all = scenario::spec_from_names("shorts,length,removal");
  EXPECT_TRUE(all.shorts && all.length && all.removal);
  const auto spec = scenario::spec_from_names("shorts,length");
  EXPECT_TRUE(spec.shorts.has_value());
  EXPECT_TRUE(spec.length.has_value());
  EXPECT_FALSE(spec.removal.has_value());
  EXPECT_EQ(scenario::names(spec), "shorts,length");
  EXPECT_TRUE(scenario::spec_from_names("").empty());
  EXPECT_TRUE(scenario::spec_from_names("none").empty());
  try {
    (void)scenario::spec_from_names("shorts,frontier");
    ADD_FAILURE() << "unknown mechanism accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown scenario mechanism 'frontier' (known: shorts, "
                 "length, removal)");
  }
  // Spec echo order is composition order, whatever the input order.
  EXPECT_EQ(scenario::names(scenario::spec_from_names("length,removal")),
            "removal,length");
  EXPECT_EQ(scenario::names(all), "removal,shorts,length");
  EXPECT_EQ(scenario::names(scenario::spec_from_names("removal,removal")),
            "removal");
  EXPECT_EQ(scenario::names({}), "");
  // validate() checks blocks in the same order: the first bad block named
  // is the earliest in composition order.
  auto bad = all;
  bad.removal->selectivity = 0.0;
  bad.length->cv = -1.0;
  try {
    scenario::validate(bad);
    ADD_FAILURE() << "bad selectivity accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "scenario removal: selectivity must be in (0, 20] sigma");
  }
  EXPECT_NO_THROW(scenario::validate(all));
}

TEST(ScenarioValidation, OneHelperRejectsBadValuesAtEveryEntryPoint) {
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // Direct helper (what run_flow and the CLI hit).
  auto params = small_params();
  params.yield_desired = nan;
  EXPECT_THROW(yield::validate(params), std::invalid_argument);
  params = small_params();
  params.scenario.length = scenario::FiniteLength{200.0e3, -0.5, 16};
  EXPECT_THROW(yield::validate(params), std::invalid_argument);
  params = small_params();
  params.scenario.length = scenario::FiniteLength{200.0e3, 0.0, 23};
  EXPECT_THROW(yield::validate(params), std::invalid_argument);
  params = small_params();
  params.scenario.shorts = scenario::ShortFailure{0.0, 0.01};
  EXPECT_THROW(yield::validate(params), std::invalid_argument);
  params = small_params();
  params.scenario.removal = scenario::RemovalFrontier{4.24, 1.0};
  EXPECT_THROW(yield::validate(params), std::invalid_argument);
  params = small_params();
  params.mc_streams = 0;
  EXPECT_THROW(yield::validate(params), std::invalid_argument);

  // The same values through the protocol decoder's validate: identical
  // rejection, surfaced as ProtocolError for the error frame.
  service::FlowRequest request;
  request.params.scenario.removal = scenario::RemovalFrontier{4.24, 1.0};
  EXPECT_THROW(service::validate(request), service::ProtocolError);
  request = service::FlowRequest{};
  request.params.yield_desired = nan;
  EXPECT_THROW(service::validate(request), service::ProtocolError);

  // run_flow itself refuses before touching any model state.
  const auto model = paper_model();
  params = small_params();
  params.scenario.shorts = scenario::ShortFailure{-1.0, 0.01};
  EXPECT_THROW((void)yield::run_flow(library(), design(), model, params),
               std::invalid_argument);
}

}  // namespace
