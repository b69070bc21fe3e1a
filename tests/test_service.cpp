// The serving layer's contracts, pinned:
//   * canonical JSON and frames: serialize→parse→serialize is byte-stable,
//     doubles cross the wire bit-exactly;
//   * malformed/oversized/truncated frames produce error responses, never
//     crashes, and the server keeps serving afterwards;
//   * the batching determinism contract: a response is a function of the
//     request only — a loopback server hammered by concurrent clients
//     returns bit-identical results to direct run_flow calls on an
//     equivalently warmed model, and solo vs coalesced-burst responses are
//     byte-identical;
//   * the session cache actually shares one warm FailureModel across
//     clients (and LRU-evicts past capacity).
//   * failure semantics (protocol v3): deadlines shed unevaluated work,
//     the admission queue rejects overload with a transient code, drain
//     finishes queued work while refusing new frames, the fault-injection
//     harness is deterministic, and the retrying client turns every
//     injected wire failure back into byte-identical results.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "celllib/generator.h"
#include "cnt/removal_tradeoff.h"
#include "device/failure_model.h"
#include "netlist/design_generator.h"
#include "obs/log.h"
#include "obs/openmetrics.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/faults.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_cache.h"
#include "yield/flow.h"
#include "yield/wmin_solver.h"

namespace {

using namespace cny;
using service::FlowRequest;
using service::Frame;
using service::FrameType;
using service::Json;

// --- JSON ------------------------------------------------------------------

TEST(ServiceJson, RoundTripsScalarsByteStable) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-12, 6.02214076e23, -0.0, 155.25,
                         0.9999999999999999}) {
    const std::string once = Json::number(v).dump();
    const Json parsed = Json::parse(once);
    EXPECT_EQ(parsed.dump(), once);
    EXPECT_EQ(parsed.as_double(), v);  // bit-exact, not approximate
  }
  const std::string u = Json::number(std::uint64_t{18446744073709551615ull}).dump();
  EXPECT_EQ(Json::parse(u).as_u64(), 18446744073709551615ull);
  EXPECT_EQ(Json::parse("\"a\\u0041\\n\\\"\"").as_string(), "aA\n\"");
}

TEST(ServiceJson, RejectsGarbage) {
  EXPECT_THROW(Json::parse(""), service::JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), service::JsonError);
  EXPECT_THROW(Json::parse("[1 2]"), service::JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), service::JsonError);
  EXPECT_THROW(Json::parse("01"), service::JsonError);
  EXPECT_THROW(Json::parse("\"\\x\""), service::JsonError);
  EXPECT_THROW(Json::parse("nulll"), service::JsonError);
  // Depth bomb: must throw (bounded recursion), not overflow the stack.
  EXPECT_THROW(Json::parse(std::string(10000, '[')), service::JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), service::JsonError);
}

TEST(ServiceJson, StringsAndNestedContainersRoundTripByteStable) {
  // Plain runs between escapes, a control byte and a trailing run.
  const std::string raw = "ab\"c\\d\x01" "e\nf\x1f" "gh\t";
  const std::string dumped = Json::string(raw).dump();
  EXPECT_EQ(dumped, "\"ab\\\"c\\\\d\\u0001e\\nf\\u001fgh\\t\"");
  EXPECT_EQ(Json::parse(dumped).as_string(), raw);
  EXPECT_EQ(Json::parse("\"x\\/y\\u00e9z\"").as_string(), "x/y\xc3\xa9z");
  EXPECT_THROW(Json::parse("\"a\x01\""), service::JsonError);
  EXPECT_THROW(Json::parse("\"abc"), service::JsonError);
  // Containers closing at every depth keep their own members, in order.
  const std::string nested =
      "{\"a\":[1,{\"b\":[],\"c\":{}},[2,[3,{\"d\":[4]}]]],\"e\":\"x\","
      "\"f\":{\"g\":{\"h\":[5,6]},\"i\":7}}";
  EXPECT_EQ(Json::parse(nested).dump(), nested);
  EXPECT_EQ(Json::parse(" [ { \"k\" : [ ] } , 0 ] ").dump(), "[{\"k\":[]},0]");
  // A repeated key is named, the smallest first, in small and large objects.
  for (const int pad : {0, 20}) {
    std::string text = "{\"b\":1,\"a\":1,\"b\":2,\"a\":2";
    for (int i = 0; i < pad; ++i) text += ",\"p" + std::to_string(i) + "\":0";
    try {
      (void)Json::parse(text + "}");
      ADD_FAILURE() << "duplicate key accepted";
    } catch (const service::JsonError& e) {
      EXPECT_STREQ(e.what(), "duplicate key 'a'");
    }
  }
}

TEST(ServiceJson, MaxSizeObjectParsesWellUnderASecond) {
  // 80k keys in ~870 KB, under the frame cap. A duplicate-key scan per
  // member made this frame cost 11.7 s.
  std::string text = "{";
  for (int i = 0; i < 80000; ++i) {
    if (i > 0) text += ',';
    text += "\"k" + std::to_string(i) + "\":0";
  }
  ASSERT_LT(text.size() + 1, service::kMaxPayloadBytes);
  const auto t0 = std::chrono::steady_clock::now();
  const Json v = Json::parse(text + "}");
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(v.members().size(), 80000u);
  EXPECT_LT(took.count(), 1.0);
  // One repeated key in the same frame is still named.
  try {
    (void)Json::parse(text + ",\"k4242\":1}");
    ADD_FAILURE() << "duplicate key accepted";
  } catch (const service::JsonError& e) {
    EXPECT_STREQ(e.what(), "duplicate key 'k4242'");
  }
}

// --- protocol codecs -------------------------------------------------------

TEST(ServiceProtocol, FlowParamsRoundTripByteStable) {
  yield::FlowParams params;
  params.yield_desired = 0.915;
  params.chip_transistors = 2.5e8;
  params.mc_samples = 12345;
  params.seed = 0xDEADBEEFCAFEull;
  params.mc_streams = 7;
  const std::string once = service::to_json(params).dump();
  const auto back = service::flow_params_from_json(Json::parse(once));
  EXPECT_EQ(service::to_json(back).dump(), once);
  EXPECT_EQ(back.yield_desired, params.yield_desired);
  EXPECT_EQ(back.seed, params.seed);
  EXPECT_EQ(back.mc_streams, params.mc_streams);
}

TEST(ServiceProtocol, FlowResultRoundTripByteStable) {
  yield::FlowResult result;
  result.m_r_min = 360.1234567890123;
  result.m_min_uncorrelated = 33061224;
  for (const auto s :
       {yield::Strategy::Uncorrelated, yield::Strategy::DirectionalOnly,
        yield::Strategy::AlignedOneRow, yield::Strategy::AlignedTwoRows}) {
    yield::StrategyResult r;
    r.strategy = s;
    r.relaxation = 360.0 / 7.0;
    r.w_min = 103.45678901234567;
    r.power_penalty = 0.123456789;
    r.area_penalty = 0.0123;
    r.cells_widened = 17;
    result.strategies.push_back(r);
  }
  const std::string once = service::to_json(result).dump();
  const auto back = service::flow_result_from_json(Json::parse(once));
  EXPECT_EQ(service::to_json(back).dump(), once);
  EXPECT_EQ(back.get(yield::Strategy::AlignedOneRow).w_min,
            result.get(yield::Strategy::AlignedOneRow).w_min);
}

TEST(ServiceProtocol, FrameHeaderChecks) {
  const std::string frame = service::encode_frame(FrameType::Ping, "{}");
  ASSERT_EQ(frame.size(), service::kHeaderBytes + 2);
  const Frame decoded = service::decode_frame(frame);
  EXPECT_EQ(decoded.type, FrameType::Ping);
  EXPECT_EQ(decoded.payload, "{}");

  // Truncated header.
  EXPECT_THROW(service::decode_frame("CNY"), service::ProtocolError);
  // Bad magic.
  std::string bad = frame;
  bad[0] = 'X';
  EXPECT_THROW(service::decode_frame(bad), service::ProtocolError);
  // Version mismatch.
  bad = frame;
  bad[4] = 99;
  EXPECT_THROW(service::decode_frame(bad), service::ProtocolError);
  // Unknown type.
  bad = frame;
  bad[8] = 77;
  EXPECT_THROW(service::decode_frame(bad), service::ProtocolError);
  // Announced payload larger than the buffer (truncated frame).
  bad = frame;
  bad[12] = 100;
  EXPECT_THROW(service::decode_frame(bad), service::ProtocolError);
  // Oversized announced payload.
  bad = frame;
  bad[14] = 0x7F;  // ~8 GiB > kMaxPayloadBytes
  bad[15] = 0x7F;
  EXPECT_THROW(service::decode_frame(bad), service::ProtocolError);
}

TEST(ServiceProtocol, MisshapenErrorPayloadFallsBackToMalformedError) {
  // Valid JSON, wrong shape: must come back as the malformed_error
  // fallback, never escape as a raw decode exception.
  for (const char* payload :
       {"{\"error\":\"oops\"}", "{\"error\":{\"code\":5,\"message\":\"x\"}}",
        "{}", "not json"}) {
    EXPECT_EQ(service::error_from_payload(payload).code, "malformed_error")
        << payload;
  }
  EXPECT_EQ(service::error_from_payload(
                "{\"error\":{\"code\":\"c\",\"message\":\"m\"}}")
                .code,
            "c");
}

TEST(ServiceProtocol, ValidateRejectsOutOfRange) {
  FlowRequest request;  // defaults are valid
  EXPECT_NO_THROW(service::validate(request));
  auto bad = request;
  bad.library = "tsmc5";
  EXPECT_THROW(service::validate(bad), service::ProtocolError);
  bad = request;
  bad.params.yield_desired = 1.5;
  EXPECT_THROW(service::validate(bad), service::ProtocolError);
  bad = request;
  bad.params.mc_samples = 0;
  EXPECT_THROW(service::validate(bad), service::ProtocolError);
  bad = request;
  bad.process.pitch_cv = -1.0;
  EXPECT_THROW(service::validate(bad), service::ProtocolError);
  bad = request;
  bad.process.p_metallic = 0.0;
  bad.process.p_remove_s = 0.0;  // p_f = 0: W_min undefined
  EXPECT_THROW(service::validate(bad), service::ProtocolError);
}

// --- server helpers --------------------------------------------------------

/// Small MC budget + few interpolant knots keep each request fast; the
/// *reference* model below must warm with the same knot count.
constexpr std::size_t kTestKnots = 17;
constexpr std::size_t kTestSamples = 600;

service::ServerOptions loopback_options() {
  service::ServerOptions options;
  options.listen = false;
  options.interpolant_knots = kTestKnots;
  return options;
}

FlowRequest small_request(std::uint64_t seed, double yield) {
  FlowRequest request;
  request.params.mc_samples = kTestSamples;
  request.params.seed = seed;
  request.params.yield_desired = yield;
  return request;
}

/// The model exactly as a session warms it (same bracket, same knots).
device::FailureModel reference_model() {
  cnt::ProcessParams process;
  process.p_metallic = 0.33;
  process.p_remove_s = 0.30;
  device::FailureModel model(cnt::PitchModel(4.0, 0.9), process);
  const yield::WminRequest bracket;
  model.enable_interpolation(bracket.w_lo, bracket.w_hi, kTestKnots, 1);
  return model;
}

/// One counter of the server's canonical stats payload.
std::uint64_t stats_counter(const service::YieldServer& server,
                            std::string_view name) {
  return Json::parse(server.stats_json()).at("stats").at(name).as_u64();
}

/// One gauge of the server's canonical stats payload.
std::int64_t stats_gauge(const service::YieldServer& server,
                         std::string_view name) {
  return static_cast<std::int64_t>(
      Json::parse(server.stats_json()).at("gauges").at(name).as_double());
}

/// Holds the queue with work instead of a window: submits a blocker on a
/// corner no session holds (a session warm-up plus 20,000 MC samples) and
/// returns once the dispatcher has popped it — the queue_depth gauge reads
/// 0 again — so everything submitted next queues behind it. Each call
/// picks a fresh corner, so a later blocker on the same server is cold too.
std::future<std::string> hold_dispatcher(service::YieldServer& server) {
  static int blockers = 0;
  FlowRequest blocker = small_request(1, 0.9);
  blocker.process.p_metallic = 0.31 - 0.001 * blockers++;
  blocker.params.mc_samples = 20000;
  auto future = server.submit(service::encode_flow_request(blocker));
  while (stats_gauge(server, "queue_depth") != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return future;
}

service::ServiceErrorInfo expect_error_frame(const std::string& response) {
  const Frame frame = service::decode_frame(response);
  EXPECT_EQ(frame.type, FrameType::Error);
  return service::error_from_payload(frame.payload);
}

// --- loopback server -------------------------------------------------------

TEST(ServiceServer, MalformedFramesGetErrorResponsesNotCrashes) {
  service::YieldServer server(loopback_options());
  server.start();

  // Garbage bytes (too short to even hold a header).
  EXPECT_EQ(expect_error_frame(server.submit("hello").get()).code,
            "bad_frame");
  // Valid header, payload that is not JSON.
  EXPECT_EQ(expect_error_frame(
                server.submit(service::encode_frame(FrameType::FlowRequest,
                                                    "not json at all"))
                    .get())
                .code,
            "bad_request");
  // Valid JSON, missing fields.
  EXPECT_EQ(expect_error_frame(
                server.submit(service::encode_frame(FrameType::FlowRequest,
                                                    "{\"library\":\"x\"}"))
                    .get())
                .code,
            "bad_request");
  // Well-formed request, out-of-range parameter.
  auto bad = small_request(1, 0.9);
  bad.params.yield_desired = 2.0;
  EXPECT_EQ(
      expect_error_frame(server.submit(service::encode_flow_request(bad)).get())
          .code,
      "bad_request");
  // A response-type frame is not a request.
  EXPECT_EQ(expect_error_frame(
                server.submit(service::encode_frame(FrameType::Pong, "{}"))
                    .get())
                .code,
            "unexpected_frame");
  // Truncated frame: header announces more payload than present.
  std::string truncated =
      service::encode_flow_request(small_request(1, 0.9));
  truncated.resize(truncated.size() - 10);
  EXPECT_EQ(expect_error_frame(server.submit(truncated).get()).code,
            "bad_frame");

  // After all of that abuse the server still serves.
  service::YieldClient client(server);
  EXPECT_NE(client.ping().find("\"protocol\":" +
                               std::to_string(service::kProtocolVersion)),
            std::string::npos);
  const auto result = client.call(small_request(1, 0.9));
  EXPECT_EQ(result.strategies.size(), 4u);
  server.stop();
}

TEST(ServiceServer, PingReportsVersionAndShutdownUnblocksWait) {
  service::YieldServer server(loopback_options());
  server.start();
  service::YieldClient client(server);
  const std::string pong = client.ping();
  EXPECT_NE(pong.find(service::kVersionString), std::string::npos);
  client.shutdown_server();
  server.wait_shutdown();  // must return promptly once shutdown was acked
  server.stop();
}

// The acceptance test: one warm FailureModel serves >= 8 concurrent
// clients, every response bit-identical to a direct run_flow call on an
// equivalently warmed model.
TEST(ServiceServer, EightConcurrentClientsMatchDirectRunFlowBitExactly) {
  service::YieldServer server(loopback_options());
  server.start();

  struct Case {
    std::uint64_t seed;
    double yield;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cases.push_back({seed, 0.88});
    cases.push_back({seed, 0.92});
  }

  std::vector<yield::FlowResult> served(cases.size());
  std::vector<std::thread> clients;
  clients.reserve(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    clients.emplace_back([&, i] {
      service::YieldClient client(server);
      served[i] = client.call(small_request(cases[i].seed, cases[i].yield));
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(stats_counter(server, "responses"), cases.size());
  EXPECT_EQ(stats_counter(server, "sessions_built"), 1u)
      << "all clients must share one warm session";

  const auto model = reference_model();
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    yield::FlowParams params;
    params.mc_samples = kTestSamples;
    params.seed = cases[i].seed;
    params.yield_desired = cases[i].yield;
    params.n_threads = 1;  // responses are thread-count invariant
    const auto direct = yield::run_flow(lib, design, model, params);
    ASSERT_EQ(served[i].strategies.size(), direct.strategies.size());
    EXPECT_EQ(served[i].m_r_min, direct.m_r_min);
    EXPECT_EQ(served[i].m_min_uncorrelated, direct.m_min_uncorrelated);
    for (std::size_t s = 0; s < direct.strategies.size(); ++s) {
      const auto& a = served[i].strategies[s];
      const auto& b = direct.strategies[s];
      EXPECT_EQ(a.strategy, b.strategy);
      EXPECT_EQ(a.relaxation, b.relaxation) << "case " << i << " strategy " << s;
      EXPECT_EQ(a.w_min, b.w_min) << "case " << i << " strategy " << s;
      EXPECT_EQ(a.power_penalty, b.power_penalty);
      EXPECT_EQ(a.area_penalty, b.area_penalty);
      EXPECT_EQ(a.cells_widened, b.cells_widened);
    }
  }
  server.stop();
}

// Batching must be invisible: the response frame for a request served alone
// equals, byte for byte, the one served amid a coalesced burst.
TEST(ServiceServer, SoloAndCoalescedBurstResponsesAreByteIdentical) {
  const auto probe = service::encode_flow_request(small_request(42, 0.9));

  std::string solo;
  {
    service::YieldServer server(loopback_options());
    server.start();
    solo = server.submit(probe).get();
    server.stop();
  }

  std::string in_burst;
  {
    service::YieldServer server(loopback_options());
    server.start();
    auto blocker = hold_dispatcher(server);
    std::vector<std::future<std::string>> burst;
    burst.push_back(server.submit(probe));
    for (std::uint64_t seed = 100; seed < 107; ++seed) {
      burst.push_back(server.submit(
          service::encode_flow_request(small_request(seed, 0.85))));
    }
    in_burst = burst.front().get();
    for (std::size_t i = 1; i < burst.size(); ++i) burst[i].get();
    EXPECT_EQ(service::decode_frame(blocker.get()).type,
              FrameType::FlowResponse);
    // The blocker's batch, then all 8 burst requests in one batch.
    EXPECT_EQ(stats_counter(server, "batched_requests"), 9u);
    EXPECT_EQ(stats_counter(server, "batches"), 2u)
        << "the burst queued behind the blocker should ride one batch";
    server.stop();
  }

  EXPECT_EQ(service::decode_frame(solo).type, FrameType::FlowResponse);
  EXPECT_EQ(solo, in_burst);
}

// No window to wait out: a request reaching an idle server is dispatched
// the moment it is queued. A fixed 2 ms window makes every queue wait
// >= 2000 us; here some wait must fall in the OpenMetrics buckets up to
// 1023 us. The test asks for one prompt dispatch, not a quantile: on a
// saturated host a wake-up can wait out a ~2 ms scheduler slice.
TEST(ServiceServer, IdleServerDispatchesALoneRequestAtOnce) {
  service::YieldServer server(loopback_options());
  server.start();
  service::YieldClient client(server);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    (void)client.call(small_request(seed, 0.9));
  }
  std::uint64_t prompt = 0;
  std::istringstream page(server.metrics_text());
  const std::string bucket = "cny_queue_wait_us_bucket{le=\"";
  for (std::string line; std::getline(page, line);) {
    if (line.rfind(bucket, 0) != 0 || line[bucket.size()] == '+') continue;
    const std::uint64_t le = std::stoull(line.substr(bucket.size()));
    if (le <= 1023) prompt = std::stoull(line.substr(line.rfind(' ') + 1));
  }
  EXPECT_GE(prompt, 1u) << "every request waited at least 1 ms in the queue";
  EXPECT_EQ(Json::parse(server.stats_json())
                .at("histograms")
                .at("queue_wait_us")
                .at("count")
                .as_u64(),
            16u);
  server.stop();
}

// --- scenario fields (protocol v2) ----------------------------------------

TEST(ServiceProtocol, ScenarioRequestRoundTripsByteStableAndEmptyIsOmitted) {
  FlowRequest request = small_request(3, 0.9);
  // Empty spec: the payload must carry no scenario key at all, keeping
  // open-only exchanges byte-identical to the v1 payload shape.
  EXPECT_EQ(service::to_json(request).dump().find("scenario"),
            std::string::npos);

  request.params.scenario.shorts = cny::scenario::ShortFailure{0.99999, 0.02};
  request.params.scenario.length =
      cny::scenario::FiniteLength{150.0e3, 0.25, 12};
  request.params.scenario.removal =
      cny::scenario::RemovalFrontier{5.5, 0.9995};
  const std::string once = service::to_json(request).dump();
  const auto back = service::flow_request_from_json(Json::parse(once));
  EXPECT_EQ(service::to_json(back).dump(), once);
  ASSERT_TRUE(back.params.scenario.shorts.has_value());
  EXPECT_EQ(back.params.scenario.shorts->p_rm, 0.99999);
  ASSERT_TRUE(back.params.scenario.length.has_value());
  EXPECT_EQ(back.params.scenario.length->sample_devices, 12);
  ASSERT_TRUE(back.params.scenario.removal.has_value());
  EXPECT_EQ(back.params.scenario.removal->selectivity, 5.5);
}

TEST(ServiceServer, VersionMismatchedScenarioRequestGetsCleanErrorFrame) {
  service::YieldServer server(loopback_options());
  server.start();

  FlowRequest request = small_request(1, 0.9);
  request.params.scenario.removal = cny::scenario::RemovalFrontier{};
  std::string frame = service::encode_flow_request(request);
  frame[4] = 1;  // rewrite the header version to the pre-scenario v1
  const auto error = expect_error_frame(server.submit(frame).get());
  EXPECT_EQ(error.code, "bad_frame");
  EXPECT_NE(error.message.find("version"), std::string::npos);

  // The mismatch is rejected at the header, never parsed — and the server
  // keeps serving current-version traffic afterwards.
  service::YieldClient client(server);
  EXPECT_EQ(client.call(small_request(1, 0.9)).strategies.size(), 4u);
  server.stop();
}

// A scenario-bearing request is served bit-identically to direct run_flow
// against an equivalently warmed model at the *derived* corner.
TEST(ServiceServer, ScenarioResponseMatchesDirectRunFlowBitExactly) {
  service::YieldServer server(loopback_options());
  server.start();

  FlowRequest request = small_request(11, 0.9);
  request.params.scenario.removal = cny::scenario::RemovalFrontier{6.0, 0.9999};
  request.params.scenario.length =
      cny::scenario::FiniteLength{150.0e3, 0.3, 12};
  service::YieldClient client(server);
  const auto served = client.call(request);
  EXPECT_EQ(stats_counter(server, "sessions_built"), 1u);

  cnt::ProcessParams corner;
  corner.p_metallic = request.process.p_metallic;
  corner.p_remove_s = cnt::RemovalTradeoff(6.0).p_rs_at(0.9999);
  device::FailureModel model(cnt::PitchModel(4.0, 0.9), corner);
  const yield::WminRequest bracket;
  model.enable_interpolation(bracket.w_lo, bracket.w_hi, kTestKnots, 1);
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  auto params = request.params;
  params.n_threads = 1;
  const auto direct = yield::run_flow(lib, design, model, params);

  ASSERT_EQ(served.strategies.size(), direct.strategies.size());
  EXPECT_EQ(served.derived_p_rs, direct.derived_p_rs);
  for (std::size_t i = 0; i < direct.strategies.size(); ++i) {
    EXPECT_EQ(served.strategies[i].w_min, direct.strategies[i].w_min);
    EXPECT_EQ(served.strategies[i].relaxation,
              direct.strategies[i].relaxation);
    EXPECT_EQ(served.strategies[i].length_scale,
              direct.strategies[i].length_scale);
  }
  server.stop();
}

// One infeasible scenario must fail alone: the rest of its coalesced batch
// still gets real responses.
TEST(ServiceServer, InfeasibleScenarioFailsAloneInABurst) {
  service::YieldServer server(loopback_options());
  server.start();
  auto blocker = hold_dispatcher(server);  // force one batch

  FlowRequest good = small_request(5, 0.9);
  FlowRequest bad = small_request(6, 0.9);
  bad.params.scenario.shorts = cny::scenario::ShortFailure{0.999, 0.01};

  auto good_future = server.submit(service::encode_flow_request(good));
  auto bad_future = server.submit(service::encode_flow_request(bad));
  const Frame good_frame = service::decode_frame(good_future.get());
  const Frame bad_frame = service::decode_frame(bad_future.get());
  EXPECT_EQ(good_frame.type, FrameType::FlowResponse);
  ASSERT_EQ(bad_frame.type, FrameType::Error);
  const auto error = service::error_from_payload(bad_frame.payload);
  EXPECT_EQ(error.code, "evaluation_failed");
  EXPECT_NE(error.message.find("short mode"), std::string::npos);
  EXPECT_EQ(service::decode_frame(blocker.get()).type,
            FrameType::FlowResponse);
  EXPECT_EQ(stats_counter(server, "batches"), 2u)
      << "good and bad should have shared one batch";
  server.stop();
}

// The evaluation core itself: a good, an infeasible and a good request in
// one group come back in request order, only the infeasible one failed,
// and each good result is the canonical JSON of run_flow on a model warmed
// the way the session warms it.
TEST(ServiceEvaluate, GroupOutcomesKeepOrderAndFailOnlyTheInfeasible) {
  FlowRequest bad = small_request(6, 0.9);
  bad.params.scenario.shorts = cny::scenario::ShortFailure{0.999, 0.01};
  const std::vector<FlowRequest> requests = {small_request(5, 0.9), bad,
                                             small_request(7, 0.92)};
  const std::vector<const FlowRequest*> group = {&requests[0], &requests[1],
                                                 &requests[2]};
  service::SessionCache cache(1, kTestKnots, 1);
  const auto outcomes = service::evaluate(cache, group, 2);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[1].error_code, "evaluation_failed");
  EXPECT_NE(outcomes[1].error_message.find("short mode"), std::string::npos);
  EXPECT_TRUE(outcomes[1].result_json.empty());

  const auto model = reference_model();
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  for (const std::size_t i : {0u, 2u}) {
    EXPECT_TRUE(outcomes[i].error_code.empty()) << outcomes[i].error_message;
    auto params = requests[i].params;
    params.n_threads = 1;
    EXPECT_EQ(outcomes[i].result_json,
              service::to_json(yield::run_flow(lib, design, model, params))
                  .dump())
        << "request " << i;
  }
}

// Every corner the wire validates gets a value or a typed, path-free error:
// a pitch CV past the quadrature reference's reach and a W_min below every
// device width (no critical region, so nothing is upsized and the
// directional relaxation is 1) evaluate; an honest infeasibility fails with
// evaluation_failed, naming its source file relative to src/ only.
TEST(ServiceEvaluate, ValidatedCornersGetValuesOrPathFreeErrors) {
  FlowRequest high_cv = small_request(5, 0.9);
  high_cv.process.pitch_cv = 2.5;  // W_min > 400 nm at M = 1e8; 1e6 fits
  high_cv.params.chip_transistors = 1e6;
  FlowRequest no_critical = small_request(5, 0.9);
  no_critical.process.p_metallic = 0.001;
  no_critical.process.p_remove_s = 0.0;
  FlowRequest too_low = small_request(5, 0.9);
  too_low.process.pitch_mean_nm = 1000.0;
  too_low.process.p_metallic = 0.999;
  const std::vector<FlowRequest> requests = {high_cv, no_critical, too_low};
  const std::vector<const FlowRequest*> pointers = {
      &requests[0], &requests[1], &requests[2]};
  service::SessionCache cache(3, kTestKnots, 1);
  const auto outcomes = service::evaluate_grouped(cache, pointers, 2);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].error_code.empty()) << outcomes[0].error_message;
  ASSERT_TRUE(outcomes[1].error_code.empty()) << outcomes[1].error_message;
  const auto none = service::flow_result_from_json(
      Json::parse(outcomes[1].result_json));
  EXPECT_EQ(none.m_min_uncorrelated, 0u);
  EXPECT_EQ(none.strategies.at(1).relaxation, 1.0);
  EXPECT_EQ(none.strategies.at(1).w_min, none.strategies.at(0).w_min);
  const std::string& message = outcomes[2].error_message;
  EXPECT_EQ(outcomes[2].error_code, "evaluation_failed");
  EXPECT_NE(message.find("W bracket too low"), std::string::npos) << message;
  EXPECT_NE(message.find(" at yield/wmin_solver.cpp:"), std::string::npos)
      << message;
  EXPECT_EQ(message.find(" at /"), std::string::npos) << message;
}

// The session cache keys on the derived corner: a RemovalFrontier scenario
// and a plain request stating the earned corner explicitly share one warm
// model.
TEST(ServiceSessionCache, ScenarioAndExplicitCornerShareOneSession) {
  service::SessionCache cache(4, 9, 1);
  FlowRequest scenario_request;
  scenario_request.params.scenario.removal =
      cny::scenario::RemovalFrontier{5.0, 0.999};
  FlowRequest explicit_request;
  explicit_request.process.p_remove_s =
      cnt::RemovalTradeoff(5.0).p_rs_at(0.999);

  const auto a = cache.acquire(service::session_key(scenario_request));
  const auto b = cache.acquire(service::session_key(explicit_request));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.sessions_built(), 1u);
  // The warm model already sits at the derived corner.
  EXPECT_EQ(a->model().process().p_remove_s,
            explicit_request.process.p_remove_s);
}

// --- session cache ---------------------------------------------------------

TEST(ServiceSessionCache, SharesWarmSessionsAndEvictsLru) {
  service::SessionCache cache(1, 9, 1);
  FlowRequest a;  // CV = 0.9 corner
  FlowRequest b;
  b.process.pitch_cv = 1.0;  // distinct corner

  const auto sa = cache.acquire(service::session_key(a));
  EXPECT_EQ(cache.sessions_built(), 1u);
  EXPECT_EQ(cache.acquire(service::session_key(a)).get(), sa.get());
  EXPECT_EQ(cache.sessions_built(), 1u);  // hit, no rebuild

  const auto sb = cache.acquire(service::session_key(b));
  EXPECT_EQ(cache.sessions_built(), 2u);
  EXPECT_EQ(cache.size(), 1u);  // capacity 1: a was evicted

  // sa is still usable after eviction (shared ownership) ...
  EXPECT_GT(sa->model().p_f(100.0), 0.0);
  // ... and re-acquiring its key warms a fresh session.
  const auto sa2 = cache.acquire(service::session_key(a));
  EXPECT_EQ(cache.sessions_built(), 3u);
  EXPECT_NE(sa2.get(), sa.get());
  (void)sb;
}

// --- TCP transport ---------------------------------------------------------

TEST(ServiceServer, TcpEndToEndOnEphemeralPort) {
  auto options = loopback_options();
  options.listen = true;
  options.port = 0;  // ephemeral: no flaky fixed-port collisions
  service::YieldServer server(options);
  server.start();
  ASSERT_GT(server.port(), 0);

  service::YieldClient client("127.0.0.1", server.port());
  EXPECT_NE(client.ping().find("\"version\""), std::string::npos);

  auto request = small_request(7, 0.9);
  request.params.mc_samples = 200;
  const auto over_tcp = client.call(request);

  service::YieldClient local(server);
  const auto over_loopback = local.call(request);
  EXPECT_EQ(service::to_json(over_tcp).dump(),
            service::to_json(over_loopback).dump());

  service::YieldClient closer("127.0.0.1", server.port());
  closer.shutdown_server();
  server.wait_shutdown();
  server.stop();
}

// --- failure semantics (protocol v3) ---------------------------------------

TEST(ServiceProtocol, DeadlineOmittedWhenZeroKeepsPayloadByteIdentical) {
  // The 0.2.0 back-compat pin: a deadline-less request payload must carry
  // no deadline key at all, so its bytes are identical to the pre-v3 form.
  FlowRequest request = small_request(1, 0.9);
  const std::string legacy = service::to_json(request).dump();
  EXPECT_EQ(legacy.find("deadline_ms"), std::string::npos);

  request.deadline_ms = 250;
  const std::string once = service::to_json(request).dump();
  EXPECT_NE(once.find("\"deadline_ms\":250"), std::string::npos);
  const auto back = service::flow_request_from_json(Json::parse(once));
  EXPECT_EQ(back.deadline_ms, 250u);
  EXPECT_EQ(service::to_json(back).dump(), once);
  // Stripping the deadline restores the legacy bytes exactly.
  auto stripped = back;
  stripped.deadline_ms = 0;
  EXPECT_EQ(service::to_json(stripped).dump(), legacy);

  auto bad = request;
  bad.deadline_ms = 86'400'001;
  EXPECT_THROW(service::validate(bad), service::ProtocolError);
}

TEST(ServiceProtocol, ErrorTaxonomySplitsTransientFromTerminal) {
  for (const char* code : {"transport", "server_overloaded", "try_later",
                           "shutting_down", "deadline_exceeded"}) {
    EXPECT_TRUE(service::is_transient_error(code)) << code;
  }
  for (const char* code :
       {"bad_frame", "bad_request", "unexpected_frame", "evaluation_failed",
        "internal_error", "malformed_error", ""}) {
    EXPECT_FALSE(service::is_transient_error(code)) << code;
  }
}

TEST(ServiceFaults, PlanIsDeterministicPeriodicAndCapped) {
  service::FaultPlanOptions options;
  options.seed = 7;
  options.period = 3;
  options.faults = service::fault_specs_from_names("drop,reject");
  service::FaultPlan a(options);
  service::FaultPlan b(options);
  std::size_t injected = 0;
  for (int n = 0; n < 12; ++n) {
    const auto fa = a.next();
    const auto fb = b.next();
    ASSERT_EQ(fa.has_value(), fb.has_value()) << "ordinal " << n;
    if (fa) {
      EXPECT_EQ(fa->kind, fb->kind) << "ordinal " << n;
      injected += 1;
    }
  }
  EXPECT_EQ(injected, 4u);  // exactly one per period of 3
  EXPECT_EQ(a.injected(), 4u);

  // max_faults caps total injections, so a finite retry budget drains any
  // workload.
  options.max_faults = 2;
  service::FaultPlan capped(options);
  std::size_t capped_count = 0;
  for (int n = 0; n < 60; ++n) {
    if (capped.next()) capped_count += 1;
  }
  EXPECT_EQ(capped_count, 2u);

  // Defaults never inject; unknown fault names fail loudly.
  service::FaultPlan off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.next().has_value());
  EXPECT_THROW(service::fault_specs_from_names("drop,flood"),
               std::invalid_argument);
}

// Ping is the protocol-overhead floor: the Pong body is the constant
// {"version","protocol"} pair, untouched by anything the server counts.
TEST(ServiceServer, PongIsConstantVersionAndProtocol) {
  service::YieldServer server(loopback_options());
  server.start();
  service::YieldClient client(server);
  const std::string before = client.ping();
  EXPECT_EQ(before, std::string("{\"version\":\"") + service::kVersionString +
                        "\",\"protocol\":" +
                        std::to_string(service::kProtocolVersion) + "}");
  (void)client.call(small_request(1, 0.9));
  EXPECT_EQ(client.ping(), before);
  server.stop();
}

// The retry acceptance test: a client with retries pointed at a server
// that breaks the wire in every supported way still produces results
// byte-identical to a fault-free server's.
TEST(ServiceClient, RetriesTurnEveryFaultKindIntoByteIdenticalResults) {
  std::vector<std::string> clean;
  {
    service::YieldServer server(loopback_options());
    server.start();
    service::YieldClient client(server);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      clean.push_back(
          service::to_json(client.call(small_request(seed, 0.9))).dump());
    }
    server.stop();
  }

  auto options = loopback_options();
  service::FaultPlanOptions faults;
  faults.seed = 3;
  faults.period = 2;  // >= 2: an immediate retry is never re-faulted
  faults.faults = service::fault_specs_from_names(
      "drop,truncate,corrupt,reject,delay,drop-after,slowloris");
  options.fault_plan = std::make_shared<service::FaultPlan>(faults);
  service::YieldServer server(options);
  server.start();
  service::YieldClient client(server);
  service::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_base_ms = 1;
  client.set_retry_policy(retry);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(service::to_json(client.call(small_request(seed, 0.9))).dump(),
              clean[seed - 1])
        << "seed " << seed;
  }
  EXPECT_GT(stats_counter(server, "faults_injected"), 0u)
      << "the plan must actually have fired for this test to mean anything";
  server.stop();
}

TEST(ServiceClient, TerminalErrorsAreNeverRetried) {
  service::YieldServer server(loopback_options());
  server.start();
  service::YieldClient client(server);
  service::RetryPolicy retry;
  retry.max_attempts = 5;
  retry.backoff_base_ms = 1;
  client.set_retry_policy(retry);

  auto bad = small_request(1, 0.9);
  bad.params.yield_desired = 2.0;
  const std::uint64_t before = stats_counter(server, "frames_in");
  try {
    (void)client.call(bad);
    FAIL() << "a bad_request must throw";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), "bad_request");
    EXPECT_FALSE(e.transient());
  }
  // One frame, not five: a deterministic verdict is not worth re-asking.
  EXPECT_EQ(stats_counter(server, "frames_in"), before + 1);
  server.stop();
}

TEST(ServiceClient, RetryDeadlineBudgetBoundsTheAttempts) {
  auto options = loopback_options();
  service::FaultPlanOptions faults;
  faults.seed = 1;
  faults.period = 1;  // every frame rejected: retries can never succeed
  faults.faults = service::fault_specs_from_names("reject");
  options.fault_plan = std::make_shared<service::FaultPlan>(faults);
  service::YieldServer server(options);
  server.start();
  service::YieldClient client(server);
  service::RetryPolicy retry;
  retry.max_attempts = 1000;
  retry.backoff_base_ms = 5;
  retry.backoff_multiplier = 1.0;
  retry.deadline_ms = 40;  // the budget, not the attempt count, must stop it
  client.set_retry_policy(retry);
  try {
    (void)client.call(small_request(1, 0.9));
    FAIL() << "an always-rejecting server must exhaust the budget";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), "try_later");
  }
  EXPECT_LT(stats_counter(server, "faults_injected"), 100u);
  server.stop();
}

TEST(ServiceServer, AdmissionQueueRejectsOverloadWithTransientCode) {
  auto options = loopback_options();
  options.max_queue = 2;
  service::YieldServer server(options);
  server.start();
  auto blocker = hold_dispatcher(server);

  std::vector<std::future<std::string>> futures;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    futures.push_back(
        server.submit(service::encode_flow_request(small_request(seed, 0.9))));
  }
  std::size_t rejected = 0;
  std::size_t served = 0;
  for (auto& future : futures) {
    const Frame frame = service::decode_frame(future.get());
    if (frame.type == FrameType::Error) {
      const auto error = service::error_from_payload(frame.payload);
      EXPECT_EQ(error.code, "server_overloaded");
      EXPECT_TRUE(service::is_transient_error(error.code));
      rejected += 1;
    } else {
      EXPECT_EQ(frame.type, FrameType::FlowResponse);
      served += 1;
    }
  }
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(service::decode_frame(blocker.get()).type,
            FrameType::FlowResponse);
  EXPECT_EQ(stats_counter(server, "overload_rejects"), 2u);
  server.stop();
}

TEST(ServiceServer, PastDeadlineWorkIsShedBeforeEvaluation) {
  service::YieldServer server(loopback_options());
  server.start();
  // A session warm-up plus 20,000 samples: a 1 ms deadline must pass.
  auto blocker = hold_dispatcher(server);

  auto doomed = small_request(1, 0.9);
  doomed.deadline_ms = 1;
  const auto patient = small_request(2, 0.9);  // no deadline, same batch
  auto doomed_future = server.submit(service::encode_flow_request(doomed));
  auto patient_future = server.submit(service::encode_flow_request(patient));

  const auto error = expect_error_frame(doomed_future.get());
  EXPECT_EQ(error.code, "deadline_exceeded");
  EXPECT_TRUE(service::is_transient_error(error.code));
  EXPECT_EQ(service::decode_frame(patient_future.get()).type,
            FrameType::FlowResponse);
  EXPECT_EQ(service::decode_frame(blocker.get()).type,
            FrameType::FlowResponse);
  EXPECT_EQ(stats_counter(server, "deadline_sheds"), 1u);
  EXPECT_EQ(stats_counter(server, "responses"), 2u);
  server.stop();
}

TEST(ServiceServer, DrainFinishesQueuedWorkAndRefusesNewFrames) {
  service::YieldServer server(loopback_options());
  server.start();
  auto blocker = hold_dispatcher(server);  // queued work outlives drain entry

  auto first = server.submit(service::encode_flow_request(small_request(1, 0.9)));
  auto second = server.submit(service::encode_flow_request(small_request(2, 0.9)));
  std::thread drainer([&server] { server.drain(); });
  // Give drain() a moment to raise the draining flag, then knock.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto refused = expect_error_frame(
      server.submit(service::encode_flow_request(small_request(3, 0.9))).get());
  EXPECT_EQ(refused.code, "shutting_down");
  EXPECT_TRUE(service::is_transient_error(refused.code));
  // The queued requests still get real responses — that is the point.
  EXPECT_EQ(service::decode_frame(first.get()).type, FrameType::FlowResponse);
  EXPECT_EQ(service::decode_frame(second.get()).type,
            FrameType::FlowResponse);
  EXPECT_EQ(service::decode_frame(blocker.get()).type,
            FrameType::FlowResponse);
  drainer.join();
  server.stop();
}

// --- adversarial wire behaviour (TCP) --------------------------------------

/// Raw TCP connection for byte-level abuse the YieldClient would refuse to
/// send.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_GE(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

/// True if the peer closes `fd` within `timeout_ms` (EOF on recv).
bool closed_within(int fd, int timeout_ms) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms);
  char byte = 0;
  while (clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t k = ::recv(fd, &byte, 1, 0);
    if (k <= 0) return true;  // EOF (or reset): the server let go
  }
  return false;
}

TEST(ServiceServer, SlowLorisPeerIsDroppedAfterIdleTimeout) {
  auto options = loopback_options();
  options.listen = true;
  options.port = 0;
  options.idle_timeout_ms = 300;
  service::YieldServer server(options);
  server.start();

  // Dribble half a header, then stall: the server must reclaim the
  // connection after idle_timeout_ms instead of wedging a handler forever.
  const int fd = connect_raw(server.port());
  const std::string header_half =
      service::encode_frame(FrameType::Ping, "{}").substr(0, 8);
  ASSERT_EQ(::send(fd, header_half.data(), header_half.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(header_half.size()));
  EXPECT_TRUE(closed_within(fd, 5000));
  ::close(fd);

  // The handler lane is free again: a well-behaved client is served.
  service::YieldClient client("127.0.0.1", server.port());
  EXPECT_NE(client.ping().find("\"version\""), std::string::npos);
  server.stop();
}

TEST(ServiceServer, TruncatedMidPayloadConnectionNeverHangsTheServer) {
  auto options = loopback_options();
  options.listen = true;
  options.port = 0;
  options.idle_timeout_ms = 300;
  service::YieldServer server(options);
  server.start();

  // A full header announcing payload the peer never finishes sending.
  const std::string frame =
      service::encode_flow_request(small_request(1, 0.9));
  const int fd = connect_raw(server.port());
  const std::size_t partial = service::kHeaderBytes + 10;
  ASSERT_EQ(::send(fd, frame.data(), partial, MSG_NOSIGNAL),
            static_cast<ssize_t>(partial));
  EXPECT_TRUE(closed_within(fd, 5000));
  ::close(fd);

  service::YieldClient client("127.0.0.1", server.port());
  EXPECT_NE(client.ping().find("\"version\""), std::string::npos);
  server.stop();
}

TEST(ServiceServer, PeerDyingMidExchangeNeverKillsTheServer) {
  // The SIGPIPE regression: a client that sends a full request and
  // vanishes before reading the response makes the server write to a dead
  // socket. MSG_NOSIGNAL + SIG_IGN must turn that into a dropped
  // connection, not a process death.
  auto options = loopback_options();
  options.listen = true;
  options.port = 0;
  service::YieldServer server(options);
  server.start();

  auto request = small_request(9, 0.9);
  request.params.mc_samples = 200;
  const std::string frame = service::encode_flow_request(request);
  const int fd = connect_raw(server.port());
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  ::close(fd);  // gone before the response is written

  // The server survives and keeps serving; give it time to hit the dead
  // socket first (the response write happens after evaluation).
  service::YieldClient client("127.0.0.1", server.port());
  const auto result = client.call(request);
  EXPECT_EQ(result.strategies.size(), 4u);
  server.stop();
}

TEST(ServiceClient, TcpClientReconnectsAfterInjectedDrops) {
  auto options = loopback_options();
  options.listen = true;
  options.port = 0;
  service::FaultPlanOptions faults;
  faults.seed = 5;
  faults.period = 2;
  faults.faults = service::fault_specs_from_names("drop,truncate");
  options.fault_plan = std::make_shared<service::FaultPlan>(faults);
  service::YieldServer server(options);
  server.start();

  service::YieldClient client("127.0.0.1", server.port());
  service::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_base_ms = 1;
  client.set_retry_policy(retry);
  auto request = small_request(3, 0.9);
  request.params.mc_samples = 200;
  // Two calls over a wire that keeps dropping: reconnect-on-drop makes
  // both land, and the plan's cadence guarantees at least one fault fired.
  EXPECT_EQ(client.call(request).strategies.size(), 4u);
  request.params.seed = 4;
  EXPECT_EQ(client.call(request).strategies.size(), 4u);
  EXPECT_GT(stats_counter(server, "faults_injected"), 0u);
  server.stop();
}

// A peer that answers bytes which do not frame (here the start of an HTTP
// reply) is a transport failure: retried on a fresh connection each time,
// then surfaced as a `transport` ServiceError.
TEST(ServiceClient, GarbageResponseHeaderIsARetriedTransportFailure) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);

  constexpr int kAttempts = 3;
  int accepted = 0;
  std::thread peer([listener, &accepted] {
    // Every connection stays open until the end, so a new one only comes
    // from the client choosing to reconnect.
    std::vector<int> connections;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (accepted < kAttempts &&
           std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{listener, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) continue;
      accepted += 1;
      connections.push_back(fd);
      pollfd in{fd, POLLIN, 0};
      char request[256];
      if (::poll(&in, 1, 2000) > 0) (void)::recv(fd, request, sizeof(request), 0);
      (void)::send(fd, "HTTP/1.0 400 Bad", 16, MSG_NOSIGNAL);
    }
    for (const int fd : connections) ::close(fd);
  });

  service::YieldClient client("127.0.0.1", ntohs(addr.sin_port),
                              /*timeout_ms=*/2000);
  service::RetryPolicy retry;
  retry.max_attempts = kAttempts;
  retry.backoff_base_ms = 1;
  client.set_retry_policy(retry);
  try {
    (void)client.ping();
    ADD_FAILURE() << "a garbage response must not pass as a pong";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), "transport");
    EXPECT_NE(e.message().find("bad frame magic"), std::string::npos)
        << e.message();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "escaped as a non-service error: " << e.what();
  }
  peer.join();
  EXPECT_EQ(accepted, kAttempts) << "each retry must reconnect";
  ::close(listener);
}

// --- observability (protocol v4) -------------------------------------------

TEST(ServiceProtocol, TraceIdOmittedWhenEmptyKeepsPayloadByteIdentical) {
  // The 0.3.0 back-compat pin, same trick as deadline_ms: an untraced
  // request payload carries no trace key at all, so its bytes are
  // identical to the pre-v4 form (and campaign store keys never change).
  FlowRequest request = small_request(1, 0.9);
  const std::string legacy = service::to_json(request).dump();
  EXPECT_EQ(legacy.find("trace_id"), std::string::npos);

  request.trace_id = "abc123.T-4_x";
  const std::string once = service::to_json(request).dump();
  EXPECT_NE(once.find("\"trace_id\":\"abc123.T-4_x\""), std::string::npos);
  const auto back = service::flow_request_from_json(Json::parse(once));
  EXPECT_EQ(back.trace_id, "abc123.T-4_x");
  EXPECT_EQ(service::to_json(back).dump(), once);
  // Stripping the trace id restores the legacy bytes exactly.
  auto stripped = back;
  stripped.trace_id.clear();
  EXPECT_EQ(service::to_json(stripped).dump(), legacy);

  auto oversized = request;
  oversized.trace_id.assign(65, 'a');
  EXPECT_THROW(service::validate(oversized), service::ProtocolError);
  auto bad_charset = request;
  bad_charset.trace_id = "no spaces";
  EXPECT_THROW(service::validate(bad_charset), service::ProtocolError);
}

// The zero-perturbation acceptance test for the serving path: the same
// request produces the same response bytes whether the server traces to a
// sink or serves untraced — and a request that *carries* a trace id still
// gets the identical response body, because responses hold no trace
// fields.
TEST(ServiceServer, ResponsesAreByteIdenticalWithTracingOnOrOff) {
  const std::string frame =
      service::encode_flow_request(small_request(1, 0.9));
  std::string untraced;
  {
    service::YieldServer server(loopback_options());
    server.start();
    untraced = server.submit(frame).get();
    server.stop();
  }

  const std::string path = ::testing::TempDir() + "service_trace.jsonl";
  {
    auto options = loopback_options();
    options.trace_sink = std::make_shared<obs::TraceSink>(path);
    service::YieldServer server(options);
    server.start();
    EXPECT_EQ(server.submit(frame).get(), untraced);

    auto traced_request = small_request(1, 0.9);
    traced_request.trace_id = obs::next_trace_id();
    EXPECT_EQ(
        server.submit(service::encode_flow_request(traced_request)).get(),
        untraced);
    server.stop();
  }
  // The sink must actually have traced — otherwise this test would pass
  // vacuously with the instrumentation fallen off.
  std::ifstream trace(path);
  std::stringstream buffer;
  buffer << trace.rdbuf();
  EXPECT_NE(buffer.str().find("\"evaluate\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"trace_id\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ServiceServer, StatsFrameReturnsTheCanonicalPayload) {
  service::YieldServer server(loopback_options());
  server.start();
  service::YieldClient client(server);
  (void)client.call(small_request(1, 0.9));

  const Json payload = Json::parse(client.stats());
  EXPECT_EQ(payload.at("version").as_string(), service::kVersionString);
  EXPECT_EQ(payload.at("protocol").as_u64(), service::kProtocolVersion);
  EXPECT_GE(payload.at("stats").at("responses").as_u64(), 1u);
  const Json& evaluate = payload.at("histograms").at("evaluate_us");
  EXPECT_GE(evaluate.at("count").as_u64(), 1u);
  EXPECT_GE(evaluate.at("max_us").as_double(), evaluate.at("p50_us").as_double());
  server.stop();
}

// Counter-coverage acceptance: every counter the stats payload exposes is
// bumped by some scenario in this test, so a counter that silently stops
// counting (or a new one added without instrumentation) fails here.
TEST(ServiceServer, EveryStatsCounterIsExercisedSomewhere) {
  std::map<std::string, std::uint64_t> observed;
  const auto merge_stats = [&observed](const service::YieldServer& server) {
    const Json payload = Json::parse(server.stats_json());
    for (const auto& [name, value] : payload.at("stats").members()) {
      std::uint64_t& slot = observed[name];
      if (value.as_u64() > slot) slot = value.as_u64();
    }
  };

  {
    // Server A: burst past a tiny admission queue (responses, batches,
    // batched_requests, sessions_built,
    // overload_rejects), then a doomed deadline, a garbage frame, and a
    // TCP ping (connections, frames_in).
    auto options = loopback_options();
    options.listen = true;
    options.port = 0;
    options.max_queue = 2;
    service::YieldServer server(options);
    server.start();

    std::vector<std::future<std::string>> burst;
    burst.push_back(hold_dispatcher(server));
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      burst.push_back(server.submit(
          service::encode_flow_request(small_request(seed, 0.9))));
    }
    for (auto& future : burst) (void)future.get();

    auto blocker = hold_dispatcher(server);
    auto doomed = small_request(5, 0.9);
    doomed.deadline_ms = 1;
    EXPECT_EQ(
        expect_error_frame(
            server.submit(service::encode_flow_request(doomed)).get())
            .code,
        "deadline_exceeded");
    (void)blocker.get();
    (void)server.submit("garbage").get();

    service::YieldClient tcp("127.0.0.1", server.port());
    EXPECT_NE(tcp.ping().find("\"version\""), std::string::npos);

    merge_stats(server);
    server.stop();
  }
  {
    // Server B: an always-rejecting fault plan covers faults_injected.
    auto options = loopback_options();
    service::FaultPlanOptions faults;
    faults.seed = 1;
    faults.period = 1;
    faults.max_faults = 1;
    faults.faults = service::fault_specs_from_names("reject");
    options.fault_plan = std::make_shared<service::FaultPlan>(faults);
    service::YieldServer server(options);
    server.start();
    service::YieldClient client(server);
    service::RetryPolicy retry;
    retry.max_attempts = 3;
    retry.backoff_base_ms = 1;
    client.set_retry_policy(retry);
    (void)client.call(small_request(1, 0.9));
    merge_stats(server);
    server.stop();
  }

  const std::set<std::string> expected{
      "batched_requests", "batches",          "connections",
      "deadline_sheds",   "errors",           "faults_injected",
      "frames_in",        "overload_rejects", "responses",
      "sessions_built"};
  std::set<std::string> names;
  for (const auto& [name, value] : observed) {
    names.insert(name);
    EXPECT_GT(value, 0u) << "counter '" << name
                         << "' is exposed but never exercised";
  }
  EXPECT_EQ(names, expected)
      << "stats payload counters drifted from the pinned set — extend this "
         "test to exercise any new counter";
}

// --- continuous telemetry --------------------------------------------------

namespace {

/// Raw HTTP exchange with the metrics endpoint: send `request_text`, read
/// to EOF (the server replies HTTP/1.0 Connection: close).
std::string http_exchange(std::uint16_t port, const std::string& request_text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::size_t sent = 0;
  while (sent < request_text.size()) {
    const ssize_t n =
        ::send(fd, request_text.data() + sent, request_text.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

}  // namespace

TEST(ServiceServer, MetricsEndpointServesOpenMetricsOverHttp) {
  auto options = loopback_options();
  options.metrics_listen = true;
  options.metrics_port = 0;  // ephemeral
  service::YieldServer server(options);
  server.start();
  ASSERT_NE(server.metrics_port(), 0);
  (void)server.submit(service::encode_flow_request(small_request(1, 0.9)))
      .get();

  const std::string reply = http_exchange(
      server.metrics_port(),
      "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << reply;
  EXPECT_NE(reply.find(std::string("Content-Type: ") +
                       obs::kOpenMetricsContentType),
            std::string::npos);
  const auto body_at = reply.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = reply.substr(body_at + 4);
  EXPECT_NE(body.find("# TYPE cny_responses counter\n"), std::string::npos);
  EXPECT_NE(body.find("cny_responses_total 1\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE cny_evaluate_us histogram\n"),
            std::string::npos);
  EXPECT_EQ(body.rfind("# EOF\n"), body.size() - 6);
  // Content-Length matches the body exactly (scrapers rely on it).
  const auto length_at = reply.find("Content-Length: ");
  ASSERT_NE(length_at, std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::stoul(reply.substr(length_at + 16))),
            body.size());

  // A GET anywhere else is 404; a non-GET method is 405. Both answered,
  // connection closed, server keeps serving.
  EXPECT_EQ(http_exchange(server.metrics_port(),
                          "GET /nope HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 404", 0),
            0u);
  EXPECT_EQ(http_exchange(server.metrics_port(),
                          "POST /metrics HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 405", 0),
            0u);
  const std::string again = http_exchange(
      server.metrics_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(again.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  server.stop();
}

// Exposition-coverage acceptance: every counter, gauge, and histogram the
// canonical stats payload exposes (including the process block) appears in
// the OpenMetrics rendering under its sanitised name — so a metric added
// to the payload but dropped by the renderer (or vice versa) fails here.
TEST(ServiceServer, MetricsTextCoversEveryStatsPayloadMetric) {
  service::YieldServer server(loopback_options());
  server.start();
  (void)server.submit(service::encode_flow_request(small_request(1, 0.9)))
      .get();
  const Json payload = Json::parse(server.stats_json());
  const std::string text = server.metrics_text();

  std::size_t checked = 0;
  const auto expect_family = [&](const std::string& name, const char* kind) {
    const std::string type_line =
        "# TYPE " + obs::openmetrics_name(name) + " " + kind + "\n";
    EXPECT_NE(text.find(type_line), std::string::npos)
        << "stats payload metric '" << name
        << "' missing from /metrics (wanted: " << type_line << ")";
    ++checked;
  };
  for (const auto& [name, value] : payload.at("stats").members()) {
    expect_family(name, "counter");
  }
  for (const auto& [name, value] : payload.at("gauges").members()) {
    expect_family(name, "gauge");
  }
  for (const auto& [name, value] : payload.at("histograms").members()) {
    expect_family(name, "histogram");
  }
  for (const auto& [name, value] :
       payload.at("process").at("counters").members()) {
    expect_family(name, "counter");
  }
  for (const auto& [name, value] :
       payload.at("process").at("gauges").members()) {
    expect_family(name, "gauge");
  }
  EXPECT_GE(checked, 20u) << "payload suspiciously empty — coverage loop "
                             "not enumerating?";
  server.stop();
}

// The zero-perturbation acceptance test for *continuous* telemetry: the
// same request produces the same response bytes with the full stack on —
// structured log, metrics endpoint and a mid-request scrape — as with
// everything off.
TEST(ServiceServer, ResponsesAreByteIdenticalWithTelemetryFullyOn) {
  const std::string frame =
      service::encode_flow_request(small_request(1, 0.9));
  std::string plain;
  {
    service::YieldServer server(loopback_options());
    server.start();
    plain = server.submit(frame).get();
    server.stop();
  }

  const std::string log_path = ::testing::TempDir() + "telemetry_on.jsonl";
  {
    auto options = loopback_options();
    options.log = std::make_shared<obs::Log>(log_path, obs::LogLevel::Debug);
    options.metrics_listen = true;
    options.metrics_port = 0;
    service::YieldServer server(options);
    server.start();
    EXPECT_EQ(server.submit(frame).get(), plain);
    // A live scrape mid-request must not perturb either.
    (void)http_exchange(server.metrics_port(),
                        "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_EQ(server.submit(frame).get(), plain);
    server.stop();
  }
  // The log must actually have logged — otherwise this passes vacuously
  // with the instrumentation fallen off.
  std::ifstream log(log_path);
  std::stringstream buffer;
  buffer << log.rdbuf();
  EXPECT_NE(buffer.str().find("\"event\":\"server.start\""),
            std::string::npos);
  EXPECT_NE(buffer.str().find("\"event\":\"session.built\""),
            std::string::npos);
  std::remove(log_path.c_str());
}

}  // namespace
