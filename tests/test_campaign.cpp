// The campaign runner's contracts, pinned (the PR 6 "test archetype"
// harness):
//   * sweep grammar: an accepted/rejected table, range edge cases
//     (index-based stepping — never accumulation — zero step, reversed
//     bounds, single-point ranges), probit axes bit-identical to
//     cnt::RemovalTradeoff::frontier;
//   * expression evaluator: precedence, functions, $references, and
//     actionable rejections (unknown function, arity, trailing garbage);
//   * spec compilation: canonical-JSON round trip, row-major last-axis-
//     fastest order, derived parameters in dependency order, cycles and
//     unknown references rejected with the offending names in the message;
//   * every compiled request passes the shared validators before any
//     evaluation happens;
//   * request keys: stable (a pinned golden hash fails loudly if canonical
//     JSON ever drifts) and collision-free across a campaign;
//   * the store: JSONL round trip, partial-tail truncation (a kill
//     mid-write), corrupt-line and duplicate-key rejection;
//   * the runner: interrupted-and-resumed stores byte-identical to
//     uninterrupted ones, re-running a finished campaign evaluates
//     nothing, campaign results bit-equal to solo run_flow, and the
//     via-service path produces the byte-identical store.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "campaign/sweep.h"
#include "celllib/generator.h"
#include "cnt/removal_tradeoff.h"
#include "device/failure_model.h"
#include "netlist/design_generator.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "service/json.h"
#include "service/protocol.h"
#include "yield/flow.h"
#include "yield/wmin_solver.h"

namespace {

using namespace cny;
using campaign::CampaignSpec;
using campaign::CompiledPoint;
using campaign::Expr;
using campaign::ResultStore;
using campaign::StoreRecord;
using campaign::expand_sweep;
using service::FlowRequest;
using service::Json;

// Mirrors tests/test_service.cpp: small enough to keep every runner test
// cheap, large enough to exercise the real flow.
constexpr std::size_t kTestKnots = 17;
constexpr std::size_t kTestSamples = 600;

// --- sweep grammar ---------------------------------------------------------

TEST(CampaignSweep, AcceptedGrammarTable) {
  const struct {
    const char* expr;
    std::vector<double> values;
  } kAccepted[] = {
      {"42", {42.0}},
      {"1,2,5.5", {1.0, 2.0, 5.5}},
      {"-1,1e-3, 2.5E2", {-1.0, 1e-3, 2.5e2}},
      {"5:1:5", {5.0}},  // single-point range
      {"0:1:2.6", {0.0, 1.0, 2.0}},  // stop between grid points
      {"1:-0.25:0", {1.0, 0.75, 0.5, 0.25, 0.0}},  // descending
      {"lin:0:1:5", {0.0, 0.25, 0.5, 0.75, 1.0}},
  };
  for (const auto& c : kAccepted) {
    EXPECT_EQ(expand_sweep(c.expr), c.values) << c.expr;
  }
}

TEST(CampaignSweep, RejectedGrammarTable) {
  const char* kRejected[] = {
      "",            // empty
      "  ",          // blank
      "1,,2",        // empty list entry
      "1,abc",       // garbage token
      "0:0:1",       // zero step
      "0:-1:1",      // step moves away from stop
      "1:0.1:0",     // reversed bounds with positive step
      "0:1",         // range needs three tokens
      "0:1:2:3",     // and no more than three
      "lin:0:1",     // lin form needs n
      "lin:0:1:1",   // n must be >= 2
      "lin:0:1:2.5", // n must be integral
      "log:0:1:4",   // log bounds must be positive
      "log:-1:1:4",
      "probit:0:0.5:3",   // probit bounds in (0, 1)
      "probit:0.5:1:3",
      "probit:0.9:0.99:1000001",  // past kMaxSweepValues
      "0:1e-9:1",    // range expands past kMaxSweepValues
  };
  for (const char* expr : kRejected) {
    EXPECT_THROW(expand_sweep(expr), std::invalid_argument) << expr;
  }
  // A 100 KB sweep is echoed as a 64-byte excerpt plus its length.
  std::string huge;
  for (int i = 0; i < 50000; ++i) huge += "1,";
  huge += "abc";
  try {
    (void)expand_sweep(huge);
    FAIL() << "garbage token must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(100003 bytes)': 'abc' is not a number"),
              std::string::npos)
        << what;
    EXPECT_LT(what.size(), 512u);
  }
}

TEST(CampaignSweep, RangeStepsByIndexNotAccumulation) {
  // 0.8:0.05:0.95 — the span lands at 2.9999999999999996; the tolerance
  // must keep the intended endpoint in.
  const auto v = expand_sweep("0.80:0.05:0.95");
  ASSERT_EQ(v.size(), 4u);
  for (std::size_t i = 0; i < v.size(); ++i) {
    // v_i = start + i*step exactly — the resumability contract: a value's
    // bits depend on its index only, never on how the sweep was chunked.
    EXPECT_EQ(v[i], 0.80 + static_cast<double>(i) * 0.05) << i;
  }

  const auto w = expand_sweep("0:0.1:1");
  ASSERT_EQ(w.size(), 11u);
  EXPECT_EQ(w.back(), 10.0 * 0.1);  // == 1.0 under index stepping
  double accumulated = 0.0;
  for (int i = 0; i < 10; ++i) accumulated += 0.1;
  EXPECT_NE(w.back(), accumulated)
      << "accumulation drifts (0.9999999999999999); index stepping must not";
}

TEST(CampaignSweep, LogSpacingIsGeometric) {
  const auto v = expand_sweep("log:1e-4:1e-1:4");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v.front(), 1e-4);
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_NEAR(v[i] / v[i - 1], 10.0, 1e-12) << i;
  }
}

TEST(CampaignSweep, ProbitAxisMatchesRemovalFrontierBitExactly) {
  const auto values = expand_sweep("probit:0.99:0.9999999:7");
  const auto frontier =
      cnt::RemovalTradeoff(4.24).frontier(0.99, 0.9999999, 7);
  ASSERT_EQ(values.size(), frontier.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], frontier[i].p_rm) << i;  // bit-exact, not near
  }
}

// --- derived-parameter expressions -----------------------------------------

TEST(CampaignExpr, EvaluatesArithmeticAndFunctions) {
  const auto lookup = [](const std::string& name) -> double {
    if (name == "a") return 3.0;
    if (name == "b") return 0.5;
    throw std::out_of_range("unknown: " + name);
  };
  const struct {
    const char* text;
    double expected;
  } kCases[] = {
      {"1+2*3", 7.0},
      {"(1+2)*3", 9.0},
      {"-$a + 4", 1.0},
      {"2*$a - $b/0.25", 4.0},
      {"min(0.9, $b)", 0.5},
      {"max(2, pow($a, 2))", 9.0},
      {"sqrt(16) + abs(-1) + floor(2.9) + round(2.5)", 10.0},
      {"log10(100) + log(exp(2))", 4.0},
      {"--1", 1.0},
      {"+5", 5.0},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(Expr::parse(c.text).eval(lookup), c.expected) << c.text;
  }
  // phi/probit round-trip (same functions the removal frontier uses).
  EXPECT_NEAR(Expr::parse("probit(phi(1.25))").eval(lookup), 1.25, 1e-9);
}

TEST(CampaignExpr, RejectsPathologicalNestingWithATypedError) {
  // 100,000 nested unary minuses (or parentheses, or unary pluses) used to
  // overflow the stack in the parser: a signal, not an error.
  constexpr std::size_t kDeep = 100000;
  const std::string kCases[] = {
      std::string(kDeep, '-') + "1",
      std::string(kDeep, '(') + "1" + std::string(kDeep, ')'),
      std::string(kDeep, '+') + "1",
  };
  for (const std::string& text : kCases) {
    try {
      (void)Expr::parse(text);
      FAIL() << "nesting of " << text.size() << " chars must throw";
    } catch (const std::invalid_argument& e) {
      // The message keeps the position and the reason but echoes only an
      // excerpt of the 100 KB input.
      const std::string what = e.what();
      EXPECT_NE(what.find("nested deeper than 256 levels"), std::string::npos);
      EXPECT_LT(what.size(), 512u) << what.substr(0, 600);
    }
  }
  // The same through a campaign spec, as `campaign --spec=F --dry-run`
  // compiles it.
  CampaignSpec spec;
  spec.axes.push_back({"x", "yield", "0.9"});
  spec.derived.push_back({"d", "chip_m", kCases[0]});
  EXPECT_THROW((void)campaign::compile(spec), std::invalid_argument);

  // Nesting within the cap still parses and evaluates.
  const auto none = [](const std::string&) -> double { return 0.0; };
  EXPECT_EQ(Expr::parse(std::string(200, '-') + "1").eval(none), 1.0);
  EXPECT_EQ(Expr::parse(std::string(200, '(') + "2" + std::string(200, ')'))
                .eval(none),
            2.0);
}

TEST(CampaignExpr, LongFlatChainsAreNotNesting) {
  // A flat chain is a left-leaning tree as deep as it is long. Parsing,
  // collecting refs, evaluating and destroying it all walk that spine in a
  // loop, so a 100,000-term chain (which used to overflow the stack in the
  // evaluator and the teardown) works and is not held to the nesting cap.
  constexpr std::size_t kTerms = 100000;
  std::string chain = "1";
  std::string sum = "$a";
  for (std::size_t i = 1; i < kTerms; ++i) {
    chain += "-1";
    sum += i % 2 == 1 ? "+$b*2" : "-$a/4";
  }
  const auto none = [](const std::string&) -> double { return 0.0; };
  EXPECT_EQ(Expr::parse(chain).eval(none), 1.0 - (kTerms - 1.0));

  const Expr expr = Expr::parse(sum);
  EXPECT_EQ(expr.refs(), (std::vector<std::string>{"a", "b"}));
  const auto lookup = [](const std::string& name) {
    return name == "a" ? 4.0 : 0.5;
  };
  // 4 + 50,000 · (0.5·2) − 49,999 · (4/4), every partial sum exact.
  EXPECT_EQ(expr.eval(lookup), 4.0 + 50000.0 - 49999.0);
}

TEST(CampaignExpr, CollectsRefsInFirstAppearanceOrder) {
  const auto expr = Expr::parse("$b + $a * ($b - phi($c))");
  EXPECT_EQ(expr.refs(), (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_TRUE(Expr::parse("1+2").refs().empty());
}

TEST(CampaignExpr, RejectsSyntaxErrorsWithPosition) {
  const char* kBad[] = {
      "",  "1+",    "(1",     "$",     "1 2",      "foo(1)",
      "min(1)",     "sqrt(1,2)", "sqrt",  "*3",   "1..2",
  };
  for (const char* text : kBad) {
    EXPECT_THROW((void)Expr::parse(text), std::invalid_argument) << text;
  }
  try {
    (void)Expr::parse("1 + frobnicate(2)");
    FAIL() << "unknown function must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sqrt"), std::string::npos)
        << "message should list the known functions";
  }
}

// --- param paths + spec compilation ----------------------------------------

TEST(CampaignSpec, ParamPathsSetAndGetRoundTrip) {
  FlowRequest request;
  double probe = 100.0;
  for (const std::string& path : campaign::param_paths()) {
    campaign::set_param(request, path, probe);
    EXPECT_EQ(campaign::get_param(request, path), probe) << path;
    probe += 1.0;
  }
  // Setting a scenario.* path enabled the mechanisms along the way.
  EXPECT_TRUE(request.params.scenario.shorts.has_value());
  EXPECT_TRUE(request.params.scenario.length.has_value());
  EXPECT_TRUE(request.params.scenario.removal.has_value());
}

TEST(CampaignSpec, RejectsUnknownAndNonIntegralParams) {
  FlowRequest request;
  try {
    campaign::set_param(request, "no.such.path", 1.0);
    FAIL() << "unknown path must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no.such.path"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("mc_samples"), std::string::npos)
        << "message should list the known paths";
  }
  EXPECT_THROW(campaign::set_param(request, "seed", 2.5),
               std::invalid_argument);
  EXPECT_THROW(campaign::set_param(request, "mc_samples", -1.0),
               std::invalid_argument);
  EXPECT_THROW(campaign::set_param(request, "instances", 0.5),
               std::invalid_argument);
}

const char kSpecText[] =
    "{\"name\":\"frontier\","
    "\"base\":{\"library\":\"nangate45\",\"mc_samples\":600,\"seed\":3,"
    "\"scenario.removal.selectivity\":6},"
    "\"axes\":[{\"name\":\"prm\",\"param\":\"scenario.removal.p_rm_target\","
    "\"values\":\"probit:0.999:0.9999999:4\"}],"
    "\"derived\":[{\"name\":\"yield\",\"param\":\"yield\","
    "\"expr\":\"min(0.9,$prm)\"}]}";

TEST(CampaignSpec, JsonRoundTripIsByteStable) {
  const CampaignSpec spec = campaign::campaign_from_json(Json::parse(kSpecText));
  EXPECT_EQ(spec.name, "frontier");
  EXPECT_EQ(spec.base.params.mc_samples, 600u);
  EXPECT_EQ(spec.base.params.seed, 3u);
  ASSERT_TRUE(spec.base.params.scenario.removal.has_value());
  EXPECT_EQ(spec.base.params.scenario.removal->selectivity, 6.0);

  const std::string once = campaign::to_json(spec).dump();
  const CampaignSpec back = campaign::campaign_from_json(Json::parse(once));
  EXPECT_EQ(campaign::to_json(back).dump(), once);
}

TEST(CampaignSpec, CompileOrderIsRowMajorLastAxisFastest) {
  CampaignSpec spec;
  spec.base.params.mc_samples = kTestSamples;
  spec.axes.push_back({"y", "yield", "0.88,0.92"});
  spec.axes.push_back({"s", "seed", "1,2,3"});
  const auto points = campaign::compile(spec);
  ASSERT_EQ(points.size(), 6u);
  const double kExpected[6][2] = {{0.88, 1}, {0.88, 2}, {0.88, 3},
                                  {0.92, 1}, {0.92, 2}, {0.92, 3}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].axis_values[0], kExpected[i][0]) << i;
    EXPECT_EQ(points[i].axis_values[1], kExpected[i][1]) << i;
    EXPECT_EQ(points[i].request.params.yield_desired, kExpected[i][0]);
    EXPECT_EQ(points[i].request.params.seed,
              static_cast<std::uint64_t>(kExpected[i][1]));
  }
}

TEST(CampaignSpec, DerivedParametersResolveInDependencyOrder) {
  CampaignSpec spec;
  spec.base.params.mc_samples = kTestSamples;
  spec.axes.push_back({"m", "chip_m", "1e8"});
  // Declared out of dependency order on purpose: b uses a.
  spec.derived.push_back({"b", "yield", "min(0.95, $a / 2)"});
  spec.derived.push_back({"a", "process.pitch_cv", "0.8 + $m / 1e9"});
  const auto points = campaign::compile(spec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].request.process.pitch_cv, 0.8 + 0.1);
  EXPECT_EQ(points[0].request.params.yield_desired, (0.8 + 0.1) / 2.0);
}

TEST(CampaignSpec, EchoesHugeNamesAsBoundedExcerpts) {
  // Names come from the spec file, so an error echoes at most a 64-byte
  // excerpt of each (plus its length) and still names the broken rule.
  const std::string huge(100000, 'n');
  const auto expect_bounded = [](const CampaignSpec& spec,
                                 const std::string& rule) {
    try {
      (void)campaign::compile(spec);
      FAIL() << rule << " must throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_LT(what.size(), 512u) << what.substr(0, 600);
      EXPECT_NE(what.find(rule), std::string::npos) << what.substr(0, 600);
      EXPECT_NE(what.find(" bytes)"), std::string::npos)
          << what.substr(0, 600);
    }
  };
  CampaignSpec twice;
  twice.axes.push_back({huge, "yield", "0.9"});
  twice.axes.push_back({huge, "seed", "1,2"});
  expect_bounded(twice, "is not unique");

  CampaignSpec unknown;
  unknown.axes.push_back({"x", "yield", "0.9"});
  unknown.derived.push_back({huge, "chip_m", "$nope * 2"});
  expect_bounded(unknown, "references unknown name '$nope'");

  CampaignSpec cyclic;
  cyclic.axes.push_back({"x", "yield", "0.9"});
  cyclic.derived.push_back({huge, "chip_m", "1e8 + $b"});
  cyclic.derived.push_back({"b", "seed", "$" + huge});
  expect_bounded(cyclic, "derived parameter cycle");
}

TEST(CampaignSpec, PointErrorsNameAFewAxesNotThousands) {
  // A failing point is named by its first few axes, so a spec with
  // thousands of axes still gets a short message naming the point and the
  // failing rule.
  CampaignSpec spec;
  for (int i = 0; i < 10000; ++i) {
    spec.axes.push_back({"axis" + std::to_string(i), "seed", "1"});
  }
  spec.derived.push_back({"broken", "yield", "sqrt(-1)"});
  try {
    (void)campaign::compile(spec);
    FAIL() << "sqrt(-1) must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_LT(what.size(), 512u) << what.substr(0, 600);
    EXPECT_NE(what.find("point #0 (axis0=1, axis1=1, axis2=1, … (+9997 more))"),
              std::string::npos)
        << what.substr(0, 600);
    // sqrt(-1) is NaN, which request validation rejects.
    EXPECT_NE(what.find("yield_desired must be in (0, 1)"), std::string::npos)
        << what.substr(0, 600);
  }
}

TEST(CampaignSpec, RejectsCyclesUnknownRefsAndDuplicateNames) {
  CampaignSpec base;
  base.axes.push_back({"x", "yield", "0.9"});

  CampaignSpec cyclic = base;
  cyclic.derived.push_back({"a", "chip_m", "1e8 + $b"});
  cyclic.derived.push_back({"b", "seed", "$a"});
  try {
    (void)campaign::compile(cyclic);
    FAIL() << "cycle must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("a -> "), std::string::npos)
        << "message should spell out the cycle path: " << what;
  }

  CampaignSpec unknown = base;
  unknown.derived.push_back({"d", "chip_m", "$nope * 2"});
  try {
    (void)campaign::compile(unknown);
    FAIL() << "unknown reference must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope"), std::string::npos) << what;
    EXPECT_NE(what.find("x"), std::string::npos)
        << "message should list the known names: " << what;
  }

  CampaignSpec duplicate = base;
  duplicate.axes.push_back({"x", "seed", "1,2"});
  EXPECT_THROW((void)campaign::compile(duplicate), std::invalid_argument);

  CampaignSpec empty;
  EXPECT_THROW((void)campaign::compile(empty), std::invalid_argument);
}

TEST(CampaignSpec, EveryCompiledRequestPassesSharedValidators) {
  // A deliberately mixed campaign: scenario blocks, derived parameters,
  // integral axes. compile() runs service::validate itself; re-check here
  // with both validators so a future compile() that skips validation fails
  // this test instead of failing deep in an evaluation.
  const CampaignSpec spec =
      campaign::campaign_from_json(Json::parse(kSpecText));
  const auto points = campaign::compile(spec);
  ASSERT_EQ(points.size(), 4u);
  std::set<std::string> keys;
  for (const auto& point : points) {
    EXPECT_NO_THROW(service::validate(point.request)) << point.index;
    EXPECT_NO_THROW(yield::validate(point.request.params)) << point.index;
    EXPECT_EQ(point.key, campaign::request_key(point.request));
    keys.insert(point.key);
  }
  EXPECT_EQ(keys.size(), points.size()) << "request keys must not collide";
}

TEST(CampaignSpec, RejectsOutOfRangeCompiledPointsWithPointContext) {
  CampaignSpec spec;
  spec.axes.push_back({"y", "yield", "0.5,1.5"});  // 1.5 is out of range
  try {
    (void)campaign::compile(spec);
    FAIL() << "invalid point must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("point #1"), std::string::npos) << what;
    EXPECT_NE(what.find("y=1.5"), std::string::npos) << what;
  }
}

// --- request keys ----------------------------------------------------------

TEST(CampaignKey, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64-bit vectors.
  EXPECT_EQ(campaign::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(campaign::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(campaign::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(CampaignKey, GoldenHashPinsCanonicalRequestJson) {
  // If either the canonical request JSON or the hash ever drifts, every
  // existing store silently stops resuming — this golden makes the drift
  // loud. Do NOT update the constant without a store-migration story.
  FlowRequest request;
  request.params.mc_samples = 600;
  request.params.seed = 3;
  request.params.yield_desired = 0.9;
  EXPECT_EQ(campaign::canonical_request(request),
            "{\"library\":\"nangate45\",\"design_instances\":0,"
            "\"process\":{\"pitch_mean_nm\":4,\"pitch_cv\":0.9,"
            "\"p_metallic\":0.33,\"p_remove_s\":0.3},"
            "\"params\":{\"yield_desired\":0.9,\"chip_transistors\":1e+08,"
            "\"l_cnt\":2e+05,\"fets_per_um\":1.8,\"active_spacing\":140,"
            "\"mc_samples\":600,\"seed\":3,\"mc_streams\":16}}");
  EXPECT_EQ(campaign::request_key(request), "46a330f26a03409e");
}

// --- result store ----------------------------------------------------------

StoreRecord make_record(std::uint64_t index, std::uint64_t seed,
                        bool ok = true) {
  FlowRequest request;
  request.params.seed = seed;
  StoreRecord record;
  record.index = index;
  record.request_json = campaign::canonical_request(request);
  record.key = campaign::request_key(request);
  if (ok) {
    record.result_json = "{\"w_min\":" + std::to_string(90 + index) + "}";
  } else {
    record.error_code = "evaluation_failed";
    record.error_message = "short mode leaves no budget";
  }
  return record;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CampaignStore, RecordLineRoundTrips) {
  for (const bool ok : {true, false}) {
    const StoreRecord record = make_record(7, 42, ok);
    const StoreRecord back = StoreRecord::from_line(record.line());
    EXPECT_EQ(back.key, record.key);
    EXPECT_EQ(back.index, record.index);
    EXPECT_EQ(back.request_json, record.request_json);
    EXPECT_EQ(back.result_json, record.result_json);
    EXPECT_EQ(back.error_code, record.error_code);
    EXPECT_EQ(back.error_message, record.error_message);
    EXPECT_EQ(back.line(), record.line()) << "line form must be canonical";
  }
}

TEST(CampaignStore, FileRoundTripPreservesOrder) {
  const std::string path = ::testing::TempDir() + "/campaign_store.jsonl";
  std::remove(path.c_str());
  {
    ResultStore store(path);
    store.append(make_record(0, 1));
    store.append(make_record(1, 2, /*ok=*/false));
    store.append(make_record(2, 3));
  }
  ResultStore loaded(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.records()[1].error_code, "evaluation_failed");
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded.records()[i].index, i);
  }
  EXPECT_TRUE(loaded.contains(make_record(0, 1).key));
  EXPECT_EQ(loaded.find("0000000000000000"), nullptr);
  std::remove(path.c_str());
}

TEST(CampaignStore, TruncatesPartialTrailingLine) {
  const std::string path = ::testing::TempDir() + "/campaign_partial.jsonl";
  std::remove(path.c_str());
  {
    ResultStore store(path);
    store.append(make_record(0, 1));
    store.append(make_record(1, 2));
  }
  const std::string intact = read_file(path);
  {
    // A kill mid-write leaves a half-line with no trailing newline.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"key\":\"feedfacefeedface\",\"ind";
  }
  {
    ResultStore store(path);
    EXPECT_EQ(store.size(), 2u);
  }
  EXPECT_EQ(read_file(path), intact)
      << "loading must physically truncate the partial tail";
  std::remove(path.c_str());
}

TEST(CampaignStore, RejectsCorruptCompleteLinesAndDuplicates) {
  const std::string path = ::testing::TempDir() + "/campaign_corrupt.jsonl";
  std::remove(path.c_str());
  {
    ResultStore store(path);
    store.append(make_record(0, 1));
    EXPECT_THROW(store.append(make_record(5, 1)), campaign::StoreError)
        << "same request (same key) appended twice";
  }
  {
    // A *complete* malformed line is corruption, not a kill artifact.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "not json at all\n";
  }
  EXPECT_THROW(ResultStore{path}, campaign::StoreError);
  std::remove(path.c_str());

  {
    ResultStore store(path);
    store.append(make_record(0, 1));
    const std::string line = make_record(1, 1).line();  // duplicate key
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << line << "\n";
  }
  EXPECT_THROW(ResultStore{path}, campaign::StoreError);
  std::remove(path.c_str());
}

// --- runner ----------------------------------------------------------------

/// A cheap 4-point campaign on one warm corner (seeds 1..4, open-only).
CampaignSpec cheap_campaign() {
  CampaignSpec spec;
  spec.name = "test";
  spec.base.params.mc_samples = kTestSamples;
  spec.base.params.yield_desired = 0.9;
  spec.axes.push_back({"s", "seed", "1:1:4"});
  return spec;
}

campaign::RunnerOptions cheap_options() {
  campaign::RunnerOptions options;
  options.n_threads = 1;
  options.interpolant_knots = kTestKnots;
  options.checkpoint_every = 1;
  return options;
}

TEST(CampaignRunner, InterruptedAndResumedStoreIsByteIdentical) {
  const auto points = campaign::compile(cheap_campaign());
  const std::string full_path = ::testing::TempDir() + "/campaign_full.jsonl";
  const std::string kill_path = ::testing::TempDir() + "/campaign_kill.jsonl";
  std::remove(full_path.c_str());
  std::remove(kill_path.c_str());

  {
    ResultStore store(full_path);
    const auto stats = campaign::run_campaign(points, store, cheap_options());
    EXPECT_EQ(stats.evaluated, points.size());
    EXPECT_FALSE(stats.interrupted);
  }
  {
    // "Kill" after two checkpoints: the interrupt flag flips mid-campaign,
    // exactly what the CLI's SIGTERM handler does.
    ResultStore store(kill_path);
    auto options = cheap_options();
    int polls = 0;
    options.interrupted = [&polls] { return ++polls > 2; };
    const auto stats = campaign::run_campaign(points, store, options);
    EXPECT_TRUE(stats.interrupted);
    EXPECT_EQ(stats.evaluated, 2u);
    EXPECT_EQ(store.size(), 2u);
  }
  {
    // Resume: picks up where the store stopped, no re-evaluation.
    ResultStore store(kill_path);
    const auto stats = campaign::run_campaign(points, store, cheap_options());
    EXPECT_FALSE(stats.interrupted);
    EXPECT_EQ(stats.skipped, 2u);
    EXPECT_EQ(stats.evaluated, 2u);
  }
  EXPECT_EQ(read_file(kill_path), read_file(full_path))
      << "killed-and-resumed store must be byte-identical to uninterrupted";
  std::remove(full_path.c_str());
  std::remove(kill_path.c_str());
}

TEST(CampaignRunner, RerunningFinishedCampaignEvaluatesNothing) {
  const auto points = campaign::compile(cheap_campaign());
  const std::string path = ::testing::TempDir() + "/campaign_rerun.jsonl";
  std::remove(path.c_str());
  {
    ResultStore store(path);
    (void)campaign::run_campaign(points, store, cheap_options());
  }
  const std::string before = read_file(path);
  {
    ResultStore store(path);
    const auto stats = campaign::run_campaign(points, store, cheap_options());
    // Zero new flow evaluations: nothing evaluated, nothing failed, no
    // session ever warmed — the whole rerun is store lookups.
    EXPECT_EQ(stats.evaluated, 0u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.sessions_built, 0u);
    EXPECT_EQ(stats.skipped, points.size());
  }
  EXPECT_EQ(read_file(path), before);
  std::remove(path.c_str());
}

TEST(CampaignRunner, ResultsMatchSoloRunFlowBitExactly) {
  const auto points = campaign::compile(cheap_campaign());
  ResultStore store;  // in-memory
  const auto stats = campaign::run_campaign(points, store, cheap_options());
  ASSERT_EQ(stats.evaluated, points.size());

  // Reference: the model exactly as a session warms it (same bracket,
  // same knots), solo run_flow per point.
  cnt::ProcessParams process;
  process.p_metallic = 0.33;
  process.p_remove_s = 0.30;
  device::FailureModel model(cnt::PitchModel(4.0, 0.9), process);
  const yield::WminRequest bracket;
  model.enable_interpolation(bracket.w_lo, bracket.w_hi, kTestKnots, 1);
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);

  for (const auto& point : points) {
    const StoreRecord* record = store.find(point.key);
    ASSERT_NE(record, nullptr);
    ASSERT_EQ(record->error_code, "");
    auto params = point.request.params;
    params.n_threads = 1;
    const auto solo = yield::run_flow(lib, design, model, params);
    // Byte-equality of canonical JSON is bit-equality of every field.
    EXPECT_EQ(record->result_json, service::to_json(solo).dump())
        << "point " << point.index;
  }
}

TEST(CampaignRunner, ViaServiceStoreIsByteIdenticalToDirect) {
  // Two corners and an infeasible point, so the comparison covers session
  // grouping and error records on both paths.
  CampaignSpec spec;
  spec.name = "svc";
  spec.base.params.mc_samples = kTestSamples;
  spec.base.params.yield_desired = 0.9;
  spec.base.params.scenario.shorts.emplace();
  spec.base.params.scenario.shorts->p_noise_fails = 0.01;
  spec.axes.push_back(
      {"prm", "scenario.shorts.p_rm", "0.6,0.999999999"});  // 0.6: infeasible
  spec.axes.push_back({"s", "seed", "1,2"});
  const auto points = campaign::compile(spec);

  ResultStore direct;
  ResultStore via;
  auto options = cheap_options();
  const auto direct_stats = campaign::run_campaign(points, direct, options);
  options.via_service = true;
  const auto via_stats = campaign::run_campaign(points, via, options);

  EXPECT_GT(direct_stats.failed, 0u) << "the infeasible points must fail";
  EXPECT_EQ(via_stats.failed, direct_stats.failed);
  ASSERT_EQ(direct.size(), via.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct.records()[i].line(), via.records()[i].line()) << i;
  }
}

// The chaos acceptance test: a campaign through a fault-injecting server —
// every fault kind in rotation — lands the byte-identical store a clean
// server produces. Transient failures are retried, never recorded.
TEST(CampaignRunner, ChaosCampaignStoreIsByteIdenticalToFaultFree) {
  CampaignSpec spec = cheap_campaign();
  spec.axes[0].values = "1:1:8";  // a few batches' worth of points
  const auto points = campaign::compile(spec);

  ResultStore clean;
  auto options = cheap_options();
  options.via_service = true;
  options.checkpoint_every = 4;
  (void)campaign::run_campaign(points, clean, options);

  ResultStore chaotic;
  service::FaultPlanOptions faults;
  faults.seed = 11;
  faults.period = 2;  // a retried frame is never immediately re-faulted
  faults.faults = service::fault_specs_from_names(
      "drop,truncate,corrupt,reject,delay,drop-after,slowloris");
  options.fault_plan = std::make_shared<service::FaultPlan>(faults);
  options.retry.max_attempts = 6;
  options.retry.backoff_base_ms = 1;
  const auto stats = campaign::run_campaign(points, chaotic, options);

  EXPECT_EQ(stats.evaluated, points.size());
  ASSERT_EQ(clean.size(), chaotic.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean.records()[i].line(), chaotic.records()[i].line()) << i;
  }
  // No transient code may ever appear as a record.
  for (const auto& record : chaotic.records()) {
    EXPECT_FALSE(service::is_transient_error(record.error_code))
        << record.error_code;
  }
}

TEST(CampaignRunner, WholeCampaignChunkExceedingDefaultQueueIsAdmitted) {
  // Regression: checkpoint_every = 0 submits the whole campaign as one
  // chunk, so the loopback server's admission queue must be sized up to
  // the chunk. Before the fix, points past the default max_queue (1024)
  // drew server_overloaded rejections and — with no retry budget — the
  // run threw instead of completing.
  CampaignSpec spec = cheap_campaign();
  spec.base.params.mc_samples = 1;  // cheapest legal point
  spec.axes[0].values = "1:1:1100";
  const auto points = campaign::compile(spec);

  ResultStore store;
  auto options = cheap_options();
  options.via_service = true;
  options.checkpoint_every = 0;  // one chunk for the whole campaign
  const auto stats = campaign::run_campaign(points, store, options);
  EXPECT_EQ(stats.evaluated + stats.failed, points.size());
  EXPECT_EQ(store.size(), points.size());
}

TEST(CampaignRunner, RetryExhaustionThrowsAndNeverPoisonsTheStore) {
  const auto points = campaign::compile(cheap_campaign());
  ResultStore store;
  auto options = cheap_options();
  options.via_service = true;
  service::FaultPlanOptions faults;
  faults.seed = 1;
  faults.period = 1;  // reject every frame: no retry budget can win
  faults.faults = service::fault_specs_from_names("reject");
  options.fault_plan = std::make_shared<service::FaultPlan>(faults);
  options.retry.max_attempts = 2;
  options.retry.backoff_base_ms = 1;
  try {
    (void)campaign::run_campaign(points, store, options);
    FAIL() << "an always-rejecting server must exhaust the retry budget";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), "try_later");
    EXPECT_TRUE(e.transient());
  }
  // The failed chunk was never checkpointed: transient outcomes must not
  // masquerade as terminal error records.
  EXPECT_EQ(store.size(), 0u);
}

// --- observability ---------------------------------------------------------

// The strongest zero-perturbation check in the suite: a campaign traced
// to a sink, writing a progress sidecar, *and* logging structured events,
// through a fault-injecting server, lands the byte-identical store of an
// untraced fault-free run. Tracing, logging, progress, and chaos together
// must not move a single store byte.
TEST(CampaignRunner, TracedChaosStoreIsByteIdenticalToUntracedFaultFree) {
  CampaignSpec spec = cheap_campaign();
  spec.axes[0].values = "1:1:8";
  const auto points = campaign::compile(spec);

  ResultStore plain;
  auto options = cheap_options();
  options.via_service = true;
  options.checkpoint_every = 4;
  (void)campaign::run_campaign(points, plain, options);

  const std::string trace_path =
      ::testing::TempDir() + "campaign_chaos_trace.jsonl";
  const std::string progress_path =
      ::testing::TempDir() + "campaign_chaos_progress.jsonl";
  const std::string log_path =
      ::testing::TempDir() + "campaign_chaos_events.jsonl";
  ResultStore traced;
  options.trace_sink = std::make_shared<obs::TraceSink>(trace_path);
  options.progress_path = progress_path;
  options.log = std::make_shared<obs::Log>(log_path, obs::LogLevel::Debug);
  service::FaultPlanOptions faults;
  faults.seed = 11;
  faults.period = 2;
  faults.faults = service::fault_specs_from_names(
      "drop,truncate,corrupt,reject,delay,drop-after,slowloris");
  options.fault_plan = std::make_shared<service::FaultPlan>(faults);
  options.retry.max_attempts = 6;
  options.retry.backoff_base_ms = 1;
  const auto stats = campaign::run_campaign(points, traced, options);

  EXPECT_EQ(stats.evaluated, points.size());
  EXPECT_GT(stats.retry_rounds, 0u)
      << "the chaos must actually have forced retries";
  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain.records()[i].line(), traced.records()[i].line()) << i;
  }
  std::ifstream trace(trace_path);
  std::stringstream trace_text;
  trace_text << trace.rdbuf();
  EXPECT_NE(trace_text.str().find("\"campaign.chunk\""), std::string::npos);
  // The log must actually have logged lifecycle + retry events (the
  // chaos forces retry_rounds > 0) — no vacuous pass.
  std::ifstream log(log_path);
  std::stringstream log_text;
  log_text << log.rdbuf();
  EXPECT_NE(log_text.str().find("\"event\":\"campaign.start\""),
            std::string::npos);
  EXPECT_NE(log_text.str().find("\"event\":\"campaign.checkpoint\""),
            std::string::npos);
  EXPECT_NE(log_text.str().find("\"event\":\"campaign.retry_round\""),
            std::string::npos);
  EXPECT_NE(log_text.str().find("\"event\":\"campaign.finish\""),
            std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(progress_path.c_str());
  std::remove(log_path.c_str());
}

TEST(CampaignRunner, ProgressSidecarRecordsOneHonestLinePerChunk) {
  const auto points = campaign::compile(cheap_campaign());
  const std::string path = ::testing::TempDir() + "campaign_progress.jsonl";
  ResultStore store;
  auto options = cheap_options();  // checkpoint_every = 1: chunk per point
  options.progress_path = path;
  const auto stats = campaign::run_campaign(points, store, options);
  EXPECT_EQ(stats.evaluated, points.size());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), points.size());  // one line per chunk, no extras

  std::uint64_t previous_done = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const service::Json entry = service::Json::parse(lines[i]);
    EXPECT_EQ(entry.at("chunk").as_u64(), i + 1);
    EXPECT_EQ(entry.at("pending").as_u64(), points.size());
    const std::uint64_t done = entry.at("done").as_u64();
    EXPECT_GT(done, previous_done) << "done must be strictly monotone";
    previous_done = done;
    EXPECT_EQ(entry.at("retry_rounds").as_u64(), 0u) << "clean run";
    EXPECT_GE(entry.at("sessions_built").as_u64(), 1u);
    ASSERT_NE(entry.find("eta_ms"), nullptr);
    ASSERT_NE(entry.find("elapsed_ms"), nullptr);
    // Resource columns: each checkpoint samples /proc, so on Linux both
    // are live figures and the high water bounds the current RSS.
    EXPECT_GT(entry.at("rss_kb").as_u64(), 0u);
    EXPECT_GE(entry.at("vm_hwm_kb").as_u64(), entry.at("rss_kb").as_u64());
  }
  EXPECT_EQ(previous_done, points.size());
  // The final line's ETA is zero: nothing left to extrapolate.
  EXPECT_EQ(service::Json::parse(lines.back()).at("eta_ms").as_u64(), 0u);
  std::remove(path.c_str());
}

}  // namespace
