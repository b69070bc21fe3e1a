// Structured logging: a leveled JSONL event log, one self-contained JSON
// object per line, flushed per event — a killed run keeps every complete
// line. This replaces ad-hoc stderr prints for the events an operator
// greps for: server lifecycle, session evictions, overload rejects,
// deadline sheds, retry exhaustion, campaign checkpoints.
//
// Line shape:
//   {"ts_ms":1712345678901,"level":"warn","event":"server.overload",
//    "queue":1024,"client":"7"}
// ts_ms is wall-clock milliseconds since epoch; level is one of
// debug/info/warn/error; event is a dotted name; everything after is the
// event's own fields, strings JSON-escaped, numbers bare.
//
// The writing API is the RAII LogEvent builder:
//   obs::LogEvent(log, obs::LogLevel::Warn, "server.overload")
//       .num("queue", depth).str("client", id);
// The line is emitted on destruction. A LogEvent over a null Log, or
// below the log's minimum level, is fully inert (one pointer/level test),
// so call sites are unconditional — the contract behind "logging off
// costs nothing measurable".
//
// Like tracing, logging is observability plumbing, never semantics:
// nothing may branch on whether a log is attached, so an attached log
// cannot move a response or store byte (pinned in the zero-perturbation
// tests).
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cny::obs {

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3 };

/// "debug" / "info" / "warn" / "error" (what the JSONL line carries).
[[nodiscard]] std::string_view log_level_name(LogLevel level);

/// Parses a level name (as above). Returns false on unknown names, leaving
/// `out` untouched — the CLI's flag validation path.
[[nodiscard]] bool log_level_from_name(std::string_view name, LogLevel& out);

/// One JSONL log file plus its minimum level. Thread-safe: events from
/// concurrent workers serialise on a mutex around one fprintf+fflush.
class Log {
 public:
  /// Opens (truncates) `path`. Throws std::runtime_error when the file
  /// cannot be opened.
  explicit Log(const std::string& path, LogLevel min_level = LogLevel::Info);
  ~Log();
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  [[nodiscard]] LogLevel min_level() const { return min_level_; }
  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<int>(level) >= static_cast<int>(min_level_);
  }

  /// Writes one complete event line. `fields` come pre-rendered from
  /// LogEvent: (key, raw-JSON-value) pairs, appended verbatim.
  void write(LogLevel level, std::string_view event,
             const std::vector<std::pair<std::string, std::string>>& fields);

 private:
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
  LogLevel min_level_;
};

/// RAII event builder: accumulates fields, emits one line on destruction.
/// Null log or filtered level = fully inert.
class LogEvent {
 public:
  LogEvent(Log* log, LogLevel level, std::string_view event)
      : log_(log != nullptr && log->enabled(level) ? log : nullptr),
        level_(level),
        event_(event) {}
  ~LogEvent() {
    if (log_ != nullptr) log_->write(level_, event_, fields_);
  }
  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  /// Attaches a string field (JSON-escaped here).
  LogEvent& str(std::string_view key, std::string_view value);
  /// Attaches an integer field (rendered bare).
  LogEvent& num(std::string_view key, std::int64_t value);

 private:
  Log* log_ = nullptr;
  LogLevel level_;
  std::string_view event_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace cny::obs
