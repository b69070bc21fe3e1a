// Workload serve_zipf: an in-process YieldServer with default
// ServerOptions, driven over the loopback submit() path (the full protocol
// — decode, validate, admission, coalescing, evaluate, encode — with no
// socket). One generator thread sends open-loop Poisson arrivals at two
// fixed rates:
//
//   lo  kLoRate req/s: the server is mostly idle, so this is solo latency;
//   hi  kHiRate req/s: about two-thirds of the single-corner capacity
//       measured on a 4-core AVX-512 host (~330 req/s), so batches form.
//
// Requests spread over one more process corner than the default session
// cache holds (4 + 1). Three hot corners take Zipf-skewed traffic; the two
// coldest corners take the rest, alternating, so each cold request lands
// on the corner the previous one evicted: exactly one session warm-up
// (head-of-line blocking on the dispatch thread) per cold request.
// kLoColdCount of the lo requests (a few percent) are cold, each at a
// seeded position in the middle half of its own equal slice of the phase,
// so every seed pays the same number of warm-ups. As that count exceeds
// 10, the lo tail is a cold request's latency: the warm-up cost. The hi
// phase has no cold request: at this rate each ~0.3 s warm-up queues ~60
// requests behind it, and a handful of them would swamp its tail with
// where they happened to land. The run alternates kBlocks lo and hi
// phases, so both rates see the same spread of host conditions.
// Ping probes are interleaved at kPingRate throughout. Latency runs from
// each request's *scheduled* send time; a refused or failed request
// counts as a miss.
//
// End-to-end metrics:
//   main_ms_p50   latency of a request on an evicted corner: one session
//                 warm-up ahead of it on the dispatch thread
//   second_ms_p50 ping round trip during lo, the floor  (ping_us_p50)
//   tail_ms       lo tail                               (serve_lo_ms_tail)
//   ok_share      hi requests answered correctly within kSloMs
//                                                       (serve_hi_slo_share)
//   setup_s       server start + one warm request per cached corner
// The lo and hi p50 and the hi tail (serve_lo_ms_p50, serve_hi_ms_p50,
// serve_hi_ms_tail) moved by 30-96 % of their median between runs on a
// shared 4-core VM, as wake-up latency there swings with the neighbours'
// load; no regression bound can hold them, so the traced run reports them
// as bench.serve_*.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_cache.h"

namespace perfbench {

namespace {

using cny::obs::Span;
using cny::service::FlowRequest;
using cny::service::FrameType;
using cny::service::Json;
using cny::service::YieldServer;

/// Default ServerOptions::cache_capacity is 4: three hot corners plus
/// whichever cold corner came last.
constexpr std::size_t kHotCorners = 3;
/// Process corners (pitch mean, pitch CV, p_m, p_Rs): the hot ones in Zipf
/// rank order, then the two cold ones.
const cny::service::ProcessSpec kCorners[kHotCorners + 2] = {
    {4.0, 0.9, 0.33, 0.30}, {4.0, 0.9, 0.32, 0.30}, {4.0, 0.9, 0.34, 0.30},
    {4.0, 0.9, 0.31, 0.30}, {4.0, 0.9, 0.35, 0.30}};
constexpr double kZipfExponent = 1.0;
constexpr double kLoRate = 25.0;
constexpr double kHiRate = 220.0;
constexpr double kPingRate = 20.0;
/// Shares of the wall budget for the lo and hi phases (the rest is setup
/// and checks).
constexpr double kLoShare = 0.6;
constexpr double kHiShare = 0.3;
constexpr std::size_t kLoColdCount = 14;
/// Latency limit of ok_share.
constexpr double kSloMs = 100.0;
constexpr std::size_t kMcSamples = 2000;
/// lo/hi alternations per run (one response per phase is byte-checked).
constexpr std::size_t kBlocks = 6;

/// One stretch of open-loop traffic at one rate.
struct Phase {
  std::vector<FlowRequest> requests;
  std::vector<std::string> frames;
  std::vector<double> send_at_s;     ///< flow request schedule
  std::vector<double> ping_at_s;     ///< ping schedule
  std::vector<std::size_t> checks;   ///< requests whose bytes get re-derived
  std::vector<char> cold;            ///< 1 = lands on an evicted corner
};

/// `next_cold` alternates between the two cold corners across phases.
Phase make_phase(double rate, std::size_t n, std::size_t cold,
                 std::size_t& next_cold, InputRng& rng) {
  Phase phase;
  double cdf[kHotCorners];
  double total = 0.0;
  for (std::size_t k = 0; k < kHotCorners; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  phase.cold.assign(n, 0);
  for (std::size_t k = 0; k < cold; ++k) {
    const double at = (static_cast<double>(k) + 0.25 + 0.5 * rng.uniform());
    phase.cold[static_cast<std::size_t>(at * static_cast<double>(n) /
                                        static_cast<double>(cold))] = 1;
  }
  const double yields[3] = {0.85, 0.90, 0.95};
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.exponential(rate);
    FlowRequest request;
    std::size_t corner = 0;
    if (phase.cold[i]) {
      corner = kHotCorners + next_cold;
      next_cold ^= 1;
    } else {
      const double u = rng.uniform() * total;
      while (corner + 1 < kHotCorners && u >= cdf[corner]) ++corner;
    }
    request.process = kCorners[corner];
    request.params.yield_desired = yields[rng.next() % 3];
    request.params.mc_samples = kMcSamples;
    request.params.seed = 1 + rng.next() % 1000000;
    phase.frames.push_back(cny::service::encode_flow_request(request));
    phase.requests.push_back(std::move(request));
    phase.send_at_s.push_back(t);
  }
  for (double p = rng.uniform() / kPingRate; p < t; p += 1.0 / kPingRate) {
    phase.ping_at_s.push_back(p);
  }
  phase.checks.push_back(static_cast<std::size_t>(rng.uniform() *
                                                  static_cast<double>(n)));
  return phase;
}

bool is_frame(const std::string& bytes, FrameType type) {
  try {
    return cny::service::decode_frame(bytes).type == type;
  } catch (const std::exception&) {
    return false;
  }
}

/// What one rate's phases measured, concatenated over blocks.
struct RateResult {
  std::vector<double> latency_ms;  ///< per flow request
  std::vector<char> ok;            ///< per flow request
  std::vector<double> cold_ms;     ///< latency of the cold-corner requests
  std::vector<double> ping_us;     ///< per ping; -1 = not a Pong
  std::vector<double> late_ms;     ///< generator lateness, every send
  /// (request, response bytes) of the checked requests.
  std::vector<std::pair<const FlowRequest*, std::string>> kept;
};

/// Drives one phase open-loop and appends to `out`: this thread sends on
/// schedule; a collector thread stamps completions (within ~0.1 ms of the
/// response being set) and classifies responses.
void run_phase(YieldServer& server, const Phase& phase, RateResult& out) {
  const std::size_t n = phase.frames.size();
  std::vector<double> latency(n, 0.0);
  std::vector<char> ok(n, 0);
  std::vector<std::string> kept(n);
  std::vector<char> keep(n, 0);
  for (const std::size_t i : phase.checks) keep[i] = 1;

  struct InFlight {
    std::size_t index;
    Clock::time_point scheduled;
    std::future<std::string> response;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<InFlight> handoff;  // guarded by mutex
  bool sending = true;           // guarded by mutex

  std::thread collector([&] {
    std::vector<InFlight> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] {
          return !handoff.empty() || !sending || !pending.empty();
        });
        while (!handoff.empty()) {
          pending.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (pending.empty() && !sending) return;
      }
      if (pending.empty()) continue;
      pending.front().response.wait_for(std::chrono::microseconds(100));
      const auto now = Clock::now();
      std::erase_if(pending, [&](InFlight& f) {
        if (f.response.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          return false;
        }
        std::string bytes = f.response.get();
        latency[f.index] =
            std::chrono::duration<double, std::milli>(now - f.scheduled)
                .count();
        ok[f.index] = is_frame(bytes, FrameType::FlowResponse) ? 1 : 0;
        if (keep[f.index]) kept[f.index] = std::move(bytes);
        return true;
      });
    }
  });
  const auto stop_collector = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      sending = false;
    }
    cv.notify_one();
    collector.join();
  };

  const std::string ping = cny::service::encode_frame(FrameType::Ping, "");
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  // Sleep to just short of the slot, then spin: lateness stays in the
  // microseconds unless the host takes the core away.
  const auto wait_until = [&](Clock::time_point t) {
    std::this_thread::sleep_until(t - std::chrono::microseconds(200));
    while (Clock::now() < t) {
    }
    out.late_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t).count());
  };
  try {
    std::size_t next_ping = 0;
    for (std::size_t i = 0; i < n; ++i) {
      while (next_ping < phase.ping_at_s.size() &&
             phase.ping_at_s[next_ping] < phase.send_at_s[i]) {
        const auto scheduled = at(phase.ping_at_s[next_ping++]);
        wait_until(scheduled);
        const std::string pong = server.submit(ping).get();
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - scheduled)
                .count();
        out.ping_us.push_back(is_frame(pong, FrameType::Pong) ? us : -1.0);
      }
      const auto scheduled = at(phase.send_at_s[i]);
      wait_until(scheduled);
      InFlight f{i, scheduled, server.submit(phase.frames[i])};
      {
        const std::lock_guard<std::mutex> lock(mutex);
        handoff.push_back(std::move(f));
      }
      cv.notify_one();
    }
  } catch (...) {
    stop_collector();
    throw;
  }
  stop_collector();
  out.latency_ms.insert(out.latency_ms.end(), latency.begin(), latency.end());
  out.ok.insert(out.ok.end(), ok.begin(), ok.end());
  for (std::size_t i = 0; i < n; ++i) {
    if (phase.cold[i]) out.cold_ms.push_back(latency[i]);
  }
  for (const std::size_t i : phase.checks) {
    if (ok[i]) out.kept.emplace_back(&phase.requests[i], std::move(kept[i]));
  }
}

/// A started server with a full, warm session cache: the first cold corner
/// first (so it is the least recently used), then the hot ones.
std::unique_ptr<YieldServer> warm_server(
    std::shared_ptr<cny::obs::TraceSink> trace) {
  cny::service::ServerOptions options;
  options.trace_sink = std::move(trace);
  auto server = std::make_unique<YieldServer>(options);
  server->start();
  for (const std::size_t k : {kHotCorners, std::size_t{0}, std::size_t{1},
                              std::size_t{2}}) {
    FlowRequest request;
    request.process = kCorners[k];
    request.params.mc_samples = kMcSamples;
    if (!is_frame(
            server->submit(cny::service::encode_flow_request(request)).get(),
            FrameType::FlowResponse)) {
      throw std::runtime_error("serve_zipf: warm-up request failed");
    }
  }
  return server;
}

/// The determinism contract: each kept response is byte-equal to a direct
/// run_flow on an identically built session model.
void check_responses(const RateResult& r, unsigned nproc, Report& report) {
  std::map<std::string, std::unique_ptr<cny::service::Session>> sessions;
  for (const auto& [request, bytes] : r.kept) {
    const auto key = cny::service::session_key(*request);
    auto& session = sessions[key.canonical()];
    if (!session) {
      session = std::make_unique<cny::service::Session>(
          key, cny::service::ServerOptions{}.interpolant_knots, nproc);
    }
    auto params = request->params;
    params.n_threads = nproc;
    const auto design = session->design(request->design_instances);
    const auto result = cny::yield::run_flow(session->library(), *design,
                                             session->model(), params);
    report.check(cny::service::encode_flow_response(result) == bytes,
                 "served response differs from a direct run_flow");
  }
}

struct Counters {
  std::uint64_t batches = 0, batched = 0, merged = 0, sessions = 0,
                errors = 0, overload = 0;
};

Counters read_counters(const YieldServer& server) {
  const Json stats = Json::parse(server.stats_json());
  const Json& c = stats.at("stats");
  const auto get = [&](const char* name) {
    const Json* v = c.find(name);
    return v == nullptr ? std::uint64_t{0} : v->as_u64();
  };
  return {get("batches"),           get("batched_requests"),
          get("merged_kernel_hits"), get("sessions_built"),
          get("errors"),             get("overload_rejects")};
}

/// The run's traffic: kBlocks alternations of a lo phase and a hi phase,
/// so both rates sample the same spread of host conditions.
struct Traffic {
  std::vector<Phase> lo;
  std::vector<Phase> hi;
};

Traffic make_traffic(const RunConfig& config, double budget_share) {
  InputRng rng(config.seed);
  const double seconds = config.seconds * budget_share / kBlocks;
  const auto n_lo = static_cast<std::size_t>(kLoRate * kLoShare * seconds);
  const auto n_hi = static_cast<std::size_t>(kHiRate * kHiShare * seconds);
  // The same cold share at any budget; the full run has kLoColdCount.
  const auto n_cold =
      static_cast<std::size_t>(kLoColdCount * budget_share + 0.5);
  // The warm-up leaves the first cold corner cached, so start on the other.
  std::size_t next_cold = 1;
  Traffic t;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::size_t cold = n_cold * (b + 1) / kBlocks - n_cold * b / kBlocks;
    t.lo.push_back(make_phase(kLoRate, n_lo, cold, next_cold, rng));
    t.hi.push_back(make_phase(kHiRate, n_hi, 0, next_cold, rng));
  }
  return t;
}

struct Measured {
  RateResult lo;
  RateResult hi;
};

/// Plays the traffic on `server`, then checks the kept responses and
/// counts every request and ping.
Measured drive(YieldServer& server, const Traffic& traffic,
               const RunConfig& config, Report& report) {
  Measured m;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    run_phase(server, traffic.lo[b], m.lo);
    run_phase(server, traffic.hi[b], m.hi);
  }
  for (const RateResult* r : {&m.lo, &m.hi}) {
    for (const char ok : r->ok) report.op(ok != 0);
    for (const double us : r->ping_us) report.op(us >= 0.0);
    check_responses(*r, config.nproc, report);
  }
  return m;
}

std::vector<double> lateness(const Measured& m) {
  std::vector<double> late = m.lo.late_ms;
  late.insert(late.end(), m.hi.late_ms.begin(), m.hi.late_ms.end());
  return late;
}

void print_rate(const char* name, const RateResult& r) {
  const Summary s = summarize(r.latency_ms);
  std::size_t failed = 0;
  for (const char ok : r.ok) failed += ok ? 0 : 1;
  note(std::string("serve_zipf ") + name + ": sent " + std::to_string(s.n) +
       ", succeeded " + std::to_string(s.n - failed) + ", failed " +
       std::to_string(failed) + ", p50 " + std::to_string(s.p50) +
       " ms, tail p" + std::to_string(s.tail_pct) + " " +
       std::to_string(s.tail) + " ms, ping p50 " +
       std::to_string(summarize(r.ping_us).p50) + " us");
}

void run_e2e(const RunConfig& config, Report& report) {
  std::vector<double> setups;
  std::unique_ptr<YieldServer> server;
  for (int i = 0; i < 3; ++i) {
    server.reset();
    const auto t0 = Clock::now();
    server = warm_server(nullptr);
    setups.push_back(ms_since(t0) / 1000.0);
  }
  report.metric("setup_s", summarize(setups).p50, "s");

  // Named: the kept responses point into it.
  const Traffic traffic = make_traffic(config, 1.0);
  const Measured m = drive(*server, traffic, config, report);
  print_rate("lo", m.lo);
  print_rate("hi", m.hi);

  const Summary hi = summarize(m.hi.latency_ms);
  std::size_t within = 0;
  for (std::size_t i = 0; i < m.hi.ok.size(); ++i) {
    within += m.hi.ok[i] && m.hi.latency_ms[i] <= kSloMs ? 1 : 0;
  }
  report.metric("main_ms_p50", summarize(m.lo.cold_ms).p50, "ms");
  report.metric("second_ms_p50", summarize(m.lo.ping_us).p50 / 1000.0, "ms");
  report.metric("tail_ms", summarize(m.lo.latency_ms).tail, "ms");
  report.metric("ok_share",
                static_cast<double>(within) /
                    static_cast<double>(std::max<std::size_t>(1, hi.n)),
                "share");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  const Counters c = read_counters(*server);
  note("serve_zipf: generator lateness tail " +
       std::to_string(summarize(lateness(m)).tail) + " ms; sessions built " +
       std::to_string(c.sessions) + "; batch size mean " +
       std::to_string(static_cast<double>(c.batched) /
                      static_cast<double>(std::max<std::uint64_t>(1, c.batches))));
}

void run_traced(const RunConfig& config, Report& report) {
  cny::obs::TraceSink* trace = config.trace.get();
  const Traffic traffic = make_traffic(config, 0.5);

  // Tracing overhead: the same traffic on an untraced server first.
  double untraced_hi_ms = 0.0;
  {
    auto plain = warm_server(nullptr);
    untraced_hi_ms =
        summarize(drive(*plain, traffic, config, report).hi.latency_ms).p50;
  }
  auto server = warm_server(config.trace);
  const Counters before = read_counters(*server);
  report.aux("since_us", static_cast<double>(trace->now_ns()) / 1000.0);
  const CpuMeter cpu;
  const Measured m = drive(*server, traffic, config, report);
  report.metric("exec.cpu_util", cpu.utilization(config.nproc), "share");
  const Counters after = read_counters(*server);
  report.metric("bench.trace_overhead_share",
                summarize(m.hi.latency_ms).p50 / untraced_hi_ms - 1.0,
                "share");
  report.metric("bench.gen_late_ms_tail", summarize(lateness(m)).tail, "ms");
  report.metric("bench.serve_lo_ms_p50", summarize(m.lo.latency_ms).p50, "ms");
  report.metric("bench.serve_hi_ms_p50", summarize(m.hi.latency_ms).p50, "ms");
  report.metric("bench.serve_hi_ms_tail", summarize(m.hi.latency_ms).tail,
                "ms");
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  report.metric("service.batch_size_mean",
                delta(before.batched, after.batched) /
                    std::max(1.0, delta(before.batches, after.batches)),
                "count");
  report.metric("service.merged_kernel_hits",
                delta(before.merged, after.merged), "count");
  report.metric("service.sessions_built",
                delta(before.sessions, after.sessions), "count");
  report.metric("service.errors", delta(before.errors, after.errors), "count");
  report.metric("service.overload_rejects",
                delta(before.overload, after.overload), "count");

  // Wire codec cost, timed around the public calls the admission and
  // serialize paths make.
  if (m.hi.kept.empty()) throw std::runtime_error("serve_zipf: no response");
  const auto& [request, response] = m.hi.kept.front();
  const std::string frame = cny::service::encode_flow_request(*request);
  for (int i = 0; i < 200; ++i) {
    Span span(trace, "service.wire_decode", "service");
    const auto decoded = cny::service::decode_frame(frame);
    cny::service::validate(
        cny::service::flow_request_from_json(Json::parse(decoded.payload)));
  }
  const auto result = cny::service::flow_result_from_json(
      Json::parse(cny::service::decode_frame(response).payload));
  for (int i = 0; i < 200; ++i) {
    Span span(trace, "service.wire_encode", "service");
    (void)cny::service::encode_flow_response(result);
  }
  const std::string pong =
      server->submit(cny::service::encode_frame(FrameType::Ping, "")).get();
  report.metric("service.pong_bytes", static_cast<double>(pong.size()),
                "bytes");
}

}  // namespace

void run_serve_zipf(const RunConfig& config, Report& report) {
  if (config.traced()) {
    run_traced(config, report);
  } else {
    run_e2e(config, report);
  }
}

}  // namespace perfbench
