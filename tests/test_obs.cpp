// The observability layer's own contracts (src/obs/):
//   * registry: get-or-create returns stable references, name/kind
//     collisions fail loudly, snapshots are sorted and complete;
//   * histogram: log2 bucketing is exact at the bucket edges, quantiles
//     interpolate inside the hit bucket and never overshoot the exact
//     tracked max, concurrent hammering loses no observation;
//   * trace sink: the JSONL file is tolerant-parseable line by line
//     (Chrome trace-event shape), args are JSON-escaped, a null-sink Span
//     is inert, and trace ids are process-unique;
//   * resource accounting: the /proc parsers against synthetic text
//     (including a comm full of spaces and parens) and a live sample;
//   * openmetrics: name sanitisation and the rendered exposition's
//     structural invariants (TYPE lines, _total, cumulative buckets,
//     +Inf == count, # EOF);
//   * log: JSONL event lines parse with escaped strings and bare numbers,
//     levels filter, a LogEvent over a null Log is inert.
// The *zero-perturbation* half of the contract — telemetry changes no
// response or store byte — is pinned where the bytes live:
// tests/test_service.cpp and tests/test_campaign.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "service/json.h"

namespace {

using namespace cny;

// --- registry --------------------------------------------------------------

TEST(ObsRegistry, GetOrCreateReturnsStableReferences) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("frames_in");
  obs::Counter& b = registry.counter("frames_in");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.counter("frames_in").value(), 3u);

  obs::Gauge& g = registry.gauge("queue_depth");
  g.add(5);
  g.add(-2);
  EXPECT_EQ(registry.gauge("queue_depth").value(), 3);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST(ObsRegistry, NameKindCollisionThrows) {
  obs::Registry registry;
  (void)registry.counter("x");
  EXPECT_THROW((void)registry.gauge("x"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("x"), std::logic_error);
  (void)registry.histogram("h");
  EXPECT_THROW((void)registry.counter("h"), std::logic_error);
}

TEST(ObsRegistry, SnapshotIsSortedAndComplete) {
  obs::Registry registry;
  registry.counter("zeta").add(1);
  registry.counter("alpha").add(2);
  registry.gauge("mid").set(-4);
  registry.histogram("lat_us").observe(100);

  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[0].second, 2u);
  EXPECT_EQ(snap.counters[1].first, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -4);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
  EXPECT_EQ(snap.histograms[0].second.max, 100u);
}

// --- histogram -------------------------------------------------------------

TEST(ObsHistogram, BucketOfMatchesBitWidthAndBoundsInvert) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11u);
  // Values at and past 2^62 share the clamped top bucket — an observation
  // of uint64 max must count there, never index out of the bucket array.
  EXPECT_EQ(obs::Histogram::bucket_of(std::uint64_t{1} << 62), 63u);
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}), 63u);

  // bucket_bounds is the inverse: every value lands inside the bounds of
  // its own bucket, and the bounds tile the axis with no gaps.
  std::uint64_t expected_lo = 0;
  for (unsigned bucket = 0; bucket < 64; ++bucket) {
    const auto [lo, hi] = obs::Histogram::bucket_bounds(bucket);
    EXPECT_EQ(lo, expected_lo) << "gap before bucket " << bucket;
    EXPECT_EQ(obs::Histogram::bucket_of(lo), bucket);
    EXPECT_EQ(obs::Histogram::bucket_of(hi), bucket);
    expected_lo = hi + 1;
  }

  obs::Histogram top;
  top.observe(~std::uint64_t{0});
  EXPECT_EQ(top.snapshot().buckets[63], 1u);
  EXPECT_EQ(top.snapshot().max, ~std::uint64_t{0});
}

TEST(ObsHistogram, QuantilesInterpolateAndNeverOvershootMax) {
  obs::Histogram h;
  for (std::uint64_t v : {10u, 20u, 30u, 40u, 1000u}) h.observe(v);
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1100u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.mean(), 220.0);
  // The p50 observation (30) lives in bucket [16,31]; interpolation must
  // stay inside it. Every quantile is clamped to the exact max.
  EXPECT_GE(snap.quantile(0.5), 16.0);
  EXPECT_LE(snap.quantile(0.5), 32.0);
  EXPECT_LE(snap.quantile(0.99), 1000.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(obs::HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(ObsHistogram, ConcurrentHammerLosesNothing) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("hits");
  obs::Histogram& histogram = registry.histogram("lat_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add(1);
        histogram.observe(static_cast<std::uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.max, kThreads * kPerThread - 1);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

// --- trace sink ------------------------------------------------------------

TEST(ObsTrace, NullSinkSpanIsInert) {
  // The "tracing off costs nothing" contract starts here: spans over a
  // null sink must be safe to construct, arg, and finish anywhere.
  obs::Span span(nullptr, "evaluate", "server");
  span.arg("key", "value");
  span.finish();
  span.finish();  // idempotent
  obs::Span defaulted;
  defaulted.finish();
}

TEST(ObsTrace, TraceIdsAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::string id = obs::next_trace_id();
    ASSERT_EQ(id.size(), 16u);
    for (const char c : id) {
      ASSERT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
    }
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id " << id;
  }
}

TEST(ObsTrace, SinkWritesTolerantParseableTraceEventJsonl) {
  const std::string path = ::testing::TempDir() + "obs_trace_test.jsonl";
  {
    obs::TraceSink sink(path);
    {
      obs::Span span(&sink, "evaluate", "server");
      // Args carrying JSON metacharacters (session keys are JSON text)
      // must be escaped into the event line.
      span.arg("session", "{\"library\":\"nangate45\"}");
      span.arg("newline", "a\nb");
    }
    std::thread other([&sink] {
      obs::Span span(&sink, "client.attempt", "client");
      span.finish();
    });
    other.join();
    sink.complete("queue_wait", "server", 100, 250, {{"trace_id", "abc"}});
  }  // clean destruction writes the closing "]"

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 5u);  // "[", 3 events, "]"
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");

  std::set<std::string> names;
  std::set<std::uint64_t> tids;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    std::string event_text = lines[i];
    ASSERT_EQ(event_text.back(), ',') << event_text;
    event_text.pop_back();
    const service::Json event = service::Json::parse(event_text);
    EXPECT_EQ(event.at("ph").as_string(), "X");
    EXPECT_GE(event.at("dur").as_double(), 0.0);
    EXPECT_EQ(event.at("pid").as_u64(), 1u);
    tids.insert(event.at("tid").as_u64());
    names.insert(event.at("name").as_string());
    if (event.at("name").as_string() == "evaluate") {
      EXPECT_EQ(event.at("args").at("session").as_string(),
                "{\"library\":\"nangate45\"}");
      EXPECT_EQ(event.at("args").at("newline").as_string(), "a\nb");
    }
    if (event.at("name").as_string() == "queue_wait") {
      // ts/dur are microseconds with sub-us precision: 100 ns = 0.1 us.
      EXPECT_DOUBLE_EQ(event.at("ts").as_double(), 0.1);
      EXPECT_DOUBLE_EQ(event.at("dur").as_double(), 0.25);
    }
  }
  EXPECT_EQ(names,
            (std::set<std::string>{"evaluate", "client.attempt", "queue_wait"}));
  EXPECT_EQ(tids.size(), 2u) << "two distinct threads, two trace tids";
  std::remove(path.c_str());
}

// The whole file parses in one shot too (the closed form is a valid JSON
// array) — what a trace viewer's strict loader would do.
TEST(ObsTrace, CleanlyClosedTraceIsOneValidJsonArray) {
  const std::string path = ::testing::TempDir() + "obs_trace_array.jsonl";
  {
    obs::TraceSink sink(path);
    obs::Span span(&sink, "admission", "server");
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  // The per-line trailing comma form needs the last comma stripped for a
  // strict array parse (trace viewers accept both).
  const auto last_comma = text.find_last_of(',');
  ASSERT_NE(last_comma, std::string::npos);
  text.erase(last_comma, 1);
  const service::Json trace = service::Json::parse(text);
  ASSERT_EQ(trace.items().size(), 1u);
  EXPECT_EQ(trace.items()[0].at("name").as_string(), "admission");
  std::remove(path.c_str());
}

TEST(ObsTrace, SinkThrowsOnUnopenablePath) {
  EXPECT_THROW(obs::TraceSink("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

// --- histogram quantile edges ----------------------------------------------

TEST(ObsHistogram, QuantileEdgeCases) {
  // Empty: every quantile is 0, mean is 0 — never NaN or a divide.
  const obs::HistogramSnapshot empty{};
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  // Single observation: quantiles interpolate inside the hit bucket
  // ([32, 63] for 37), clamped at the top to the exact max — so every
  // quantile lies in [bucket lo, observation].
  obs::Histogram one;
  one.observe(37);
  const obs::HistogramSnapshot single = one.snapshot();
  for (const double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_GE(single.quantile(q), 32.0) << "q=" << q;
    EXPECT_LE(single.quantile(q), 37.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(single.quantile(1.0), 37.0);
  EXPECT_DOUBLE_EQ(single.mean(), 37.0);

  // All observations in one bucket: quantiles interpolate inside [lo, hi]
  // of that bucket and stay clamped to the exact max.
  obs::Histogram packed;
  for (int i = 0; i < 100; ++i) packed.observe(20);  // bucket [16, 31]
  const obs::HistogramSnapshot snap = packed.snapshot();
  const auto [lo, hi] = obs::Histogram::bucket_bounds(
      obs::Histogram::bucket_of(20));
  for (const double q : {0.01, 0.5, 0.95, 0.99}) {
    EXPECT_GE(snap.quantile(q), static_cast<double>(lo)) << "q=" << q;
    EXPECT_LE(snap.quantile(q), 20.0) << "q=" << q;  // clamped to max
  }

  // Max-clamp bucket (63): interpolation stays inside the clamped top
  // bucket [2^62, uint64 max] and never exceeds the exact tracked max,
  // which q=1 reports verbatim.
  obs::Histogram top;
  top.observe(~std::uint64_t{0});
  top.observe(std::uint64_t{1} << 62);
  const obs::HistogramSnapshot top_snap = top.snapshot();
  EXPECT_EQ(top_snap.buckets[63], 2u);
  EXPECT_GE(top_snap.quantile(0.99),
            static_cast<double>(std::uint64_t{1} << 62));
  EXPECT_LE(top_snap.quantile(0.99),
            static_cast<double>(~std::uint64_t{0}));
  EXPECT_DOUBLE_EQ(top_snap.quantile(1.0),
                   static_cast<double>(~std::uint64_t{0}));
}

// --- resource accounting ---------------------------------------------------

TEST(ObsResource, ParseStatusText) {
  obs::ResourceUsage usage;
  obs::parse_status_text(
      "Name:\tcntyield\nVmPeak:\t  999999 kB\nVmRSS:\t   6348 kB\n"
      "VmHWM:\t    6496 kB\nThreads:\t9\n",
      usage);
  EXPECT_EQ(usage.rss_kb, 6348u);
  EXPECT_EQ(usage.vm_hwm_kb, 6496u);
  EXPECT_EQ(usage.threads, 9u);
}

TEST(ObsResource, ParseStatTextHandlesHostileComm) {
  // The comm field is the *process's own name*, parenthesised — it may
  // contain spaces and parentheses, so field counting must start after the
  // LAST ')'. utime/stime are stat fields 14/15 (1-based).
  obs::ResourceUsage usage;
  obs::parse_stat_text(
      "1234 (a (evil) name) S 1 1234 1234 0 -1 4194304 500 0 0 0 "
      "200 100 0 0 20 0 9 0 12345 1000000 1587 18446744073709551615",
      100, usage);  // 100 ticks/s: 1 tick = 10 ms
  EXPECT_EQ(usage.cpu_user_ms, 2000u);  // 200 ticks
  EXPECT_EQ(usage.cpu_sys_ms, 1000u);   // 100 ticks
}

TEST(ObsResource, LiveSampleLooksLikeAProcess) {
  // On Linux /proc is real: the sample must succeed and be sane. (ok ==
  // false would be the non-/proc platform path; CI runs Linux.)
  const obs::ResourceUsage usage = obs::sample_resources();
  ASSERT_TRUE(usage.ok);
  EXPECT_GT(usage.rss_kb, 0u);
  EXPECT_GE(usage.vm_hwm_kb, usage.rss_kb);  // high water >= current
  EXPECT_GE(usage.threads, 1u);
  EXPECT_GT(usage.open_fds, 0u);
}

// --- openmetrics -----------------------------------------------------------

TEST(ObsOpenMetrics, NameSanitisation) {
  EXPECT_EQ(obs::openmetrics_name("frames_in"), "cny_frames_in");
  EXPECT_EQ(obs::openmetrics_name("process.rss_kb"), "cny_process_rss_kb");
  EXPECT_EQ(obs::openmetrics_name("exec.queue-depth!"),
            "cny_exec_queue_depth_");
}

TEST(ObsOpenMetrics, RenderedExpositionIsStructurallyValid) {
  obs::Registry server;
  server.counter("responses").add(7);
  server.gauge("queue_depth").set(-2);
  obs::Histogram& h = server.histogram("evaluate_us");
  h.observe(20);   // bucket [16, 31]
  h.observe(100);  // bucket [64, 127]
  obs::Registry process;
  process.gauge("process.rss_kb").set(4096);
  process.counter("exec.tasks_posted").add(3);

  const std::string text =
      obs::render_openmetrics(server.snapshot(), process.snapshot());

  // Counters: TYPE line + _total sample.
  EXPECT_NE(text.find("# TYPE cny_responses counter\n"), std::string::npos);
  EXPECT_NE(text.find("cny_responses_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("cny_exec_tasks_posted_total 3\n"), std::string::npos);
  // Gauges keep their value verbatim (negatives included).
  EXPECT_NE(text.find("# TYPE cny_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("cny_queue_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("cny_process_rss_kb 4096\n"), std::string::npos);
  // Histogram: cumulative le buckets, +Inf == count, sum and count.
  EXPECT_NE(text.find("# TYPE cny_evaluate_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("cny_evaluate_us_bucket{le=\"31\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("cny_evaluate_us_bucket{le=\"127\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("cny_evaluate_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("cny_evaluate_us_sum 120\n"), std::string::npos);
  EXPECT_NE(text.find("cny_evaluate_us_count 2\n"), std::string::npos);
  // Exactly one terminating EOF marker, at the very end.
  const std::string eof = "# EOF\n";
  EXPECT_EQ(text.rfind(eof), text.size() - eof.size());
  EXPECT_EQ(text.find(eof), text.rfind(eof));
}

TEST(ObsOpenMetrics, CollisionsFavourTheServerSnapshot) {
  obs::Registry server;
  server.counter("frames_in").add(11);
  obs::Registry process;
  process.counter("frames_in").add(99);
  const std::string text =
      obs::render_openmetrics(server.snapshot(), process.snapshot());
  EXPECT_NE(text.find("cny_frames_in_total 11\n"), std::string::npos);
  EXPECT_EQ(text.find("cny_frames_in_total 99\n"), std::string::npos);
  // Declared once, not twice.
  const std::string type_line = "# TYPE cny_frames_in counter\n";
  EXPECT_EQ(text.find(type_line), text.rfind(type_line));
}

// --- structured log --------------------------------------------------------

TEST(ObsLog, LevelNamesRoundTrip) {
  EXPECT_EQ(obs::log_level_name(obs::LogLevel::Debug), "debug");
  EXPECT_EQ(obs::log_level_name(obs::LogLevel::Error), "error");
  obs::LogLevel level = obs::LogLevel::Info;
  EXPECT_TRUE(obs::log_level_from_name("warn", level));
  EXPECT_EQ(level, obs::LogLevel::Warn);
  EXPECT_FALSE(obs::log_level_from_name("loud", level));
  EXPECT_EQ(level, obs::LogLevel::Warn) << "failed parse must not clobber";
}

TEST(ObsLog, NullLogEventIsInert) {
  // Call sites are unconditional; a null Log must cost one pointer test.
  obs::LogEvent(nullptr, obs::LogLevel::Error, "server.start")
      .str("key", "value")
      .num("n", 42);
}

TEST(ObsLog, WritesParseableLeveledJsonl) {
  const std::string path = ::testing::TempDir() + "obs_log_test.jsonl";
  {
    obs::Log log(path, obs::LogLevel::Info);
    EXPECT_TRUE(log.enabled(obs::LogLevel::Warn));
    EXPECT_FALSE(log.enabled(obs::LogLevel::Debug));
    obs::LogEvent(&log, obs::LogLevel::Info, "server.start")
        .num("port", 9000)
        .str("session", "{\"library\":\"nangate45\"}");  // needs escaping
    obs::LogEvent(&log, obs::LogLevel::Debug, "invisible").num("x", 1);
    obs::LogEvent(&log, obs::LogLevel::Warn, "server.overload_reject")
        .num("max_queue", -1);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u) << "debug event below min level must not write";
  const service::Json first = service::Json::parse(lines[0]);
  EXPECT_GT(first.at("ts_ms").as_u64(), 0u);
  EXPECT_EQ(first.at("level").as_string(), "info");
  EXPECT_EQ(first.at("event").as_string(), "server.start");
  EXPECT_EQ(first.at("port").as_u64(), 9000u);
  EXPECT_EQ(first.at("session").as_string(), "{\"library\":\"nangate45\"}");
  const service::Json second = service::Json::parse(lines[1]);
  EXPECT_EQ(second.at("level").as_string(), "warn");
  EXPECT_EQ(second.at("max_queue").as_double(), -1.0);
  std::remove(path.c_str());
}

TEST(ObsLog, ThrowsOnUnopenablePath) {
  EXPECT_THROW(obs::Log("/nonexistent-dir/events.jsonl"),
               std::runtime_error);
}

}  // namespace
