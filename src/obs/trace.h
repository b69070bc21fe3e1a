// Structured tracing: monotonic-clock spans exported as Chrome
// trace-event JSONL (loadable in chrome://tracing and Perfetto, and
// aggregated offline by tools/trace_summary.py).
//
// A TraceSink owns one output file. Every event is a "complete" event
// (ph:"X") written as a single line, so a sink killed mid-run still yields
// a parseable file — the JSON array opener is written up front, each event
// line ends with a comma, and the closing "]" lands only on clean
// destruction (both trace viewers and trace_summary.py tolerate the
// unclosed form).
//
// A Span is the RAII front end: it captures the monotonic clock on
// construction and emits one complete event on destruction (or finish()).
// A Span built over a null sink is inert — one pointer test per call, the
// contract behind "tracing off costs nothing measurable". Timestamps are
// nanoseconds since the *sink's* origin (its construction instant), so all
// spans of one trace share a zero point regardless of thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cny::obs {

/// Every build carries tracing; kept for the benchmark's build stamp.
[[nodiscard]] constexpr bool tracing_compiled() { return true; }

/// A fresh process-unique trace id: 16 lowercase hex chars, scrambled so
/// ids from concurrent clients don't collide on prefixes.
[[nodiscard]] std::string next_trace_id();

class TraceSink {
 public:
  /// Opens (truncates) `path` and writes the array opener. Throws
  /// std::runtime_error when the file cannot be opened.
  explicit TraceSink(const std::string& path);
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Nanoseconds since this sink's origin (monotonic).
  [[nodiscard]] std::uint64_t now_ns() const {
    return since_origin_ns(std::chrono::steady_clock::now());
  }
  /// Converts a caller-captured monotonic timestamp to sink time —
  /// how the server turns a request's queue-arrival instant into the
  /// queue_wait span start. Clamped to 0 before the sink existed.
  [[nodiscard]] std::uint64_t since_origin_ns(
      std::chrono::steady_clock::time_point t) const {
    if (t <= origin_) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  }

  /// Writes one complete event ("ph":"X"): [start_ns, start_ns + dur_ns)
  /// in sink time, on the calling thread's trace tid. `args` become the
  /// event's args object (string values, JSON-escaped here).
  void complete(
      std::string_view name, std::string_view category,
      std::uint64_t start_ns, std::uint64_t dur_ns,
      const std::vector<std::pair<std::string, std::string>>& args = {});

  /// Flushes buffered event lines to the file (events are already
  /// line-buffered; this is for tests that read the file mid-run).
  void flush();

 private:
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
  std::chrono::steady_clock::time_point origin_;
};

/// RAII span: construction starts the clock, destruction (or finish())
/// emits one complete event. Null sink = fully inert.
class Span {
 public:
  Span() = default;
  Span(TraceSink* sink, std::string_view name,
       std::string_view category = "app")
      : sink_(sink), name_(name), category_(category) {
    if (sink_ != nullptr) start_ns_ = sink_->now_ns();
  }
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a string arg to the eventual event. No-op when inert.
  void arg(std::string_view key, std::string_view value) {
    if (sink_ != nullptr) args_.emplace_back(key, value);
  }

  /// Emits the event now (idempotent; the destructor calls it).
  void finish() {
    if (sink_ == nullptr) return;
    sink_->complete(name_, category_, start_ns_, sink_->now_ns() - start_ns_,
                    args_);
    sink_ = nullptr;
  }

 private:
  TraceSink* sink_ = nullptr;
  std::string_view name_;
  std::string_view category_;
  std::uint64_t start_ns_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace cny::obs
