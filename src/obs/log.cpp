#include "obs/log.h"

#include <chrono>
#include <stdexcept>

namespace cny::obs {

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
  }
  return "info";
}

bool log_level_from_name(std::string_view name, LogLevel& out) {
  if (name == "debug") out = LogLevel::Debug;
  else if (name == "info") out = LogLevel::Info;
  else if (name == "warn") out = LogLevel::Warn;
  else if (name == "error") out = LogLevel::Error;
  else return false;
  return true;
}

namespace {

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

Log::Log(const std::string& path, LogLevel min_level)
    : min_level_(min_level) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open log file: " + path);
  }
}

Log::~Log() {
  if (file_ != nullptr) std::fclose(file_);
}

void Log::write(
    LogLevel level, std::string_view event,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  if (!enabled(level)) return;
  const std::uint64_t ts_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::string line = "{\"ts_ms\":" + std::to_string(ts_ms) + ",\"level\":\"";
  line += log_level_name(level);
  line += "\",\"event\":\"";
  append_escaped(line, event);
  line += '"';
  for (const auto& [key, raw_value] : fields) {
    line += ",\"";
    append_escaped(line, key);
    line += "\":";
    line += raw_value;  // pre-rendered JSON (escaped string or bare number)
  }
  line += '}';
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(file_, "%s\n", line.c_str());
  std::fflush(file_);  // one complete line per event, even if killed next
}

LogEvent& LogEvent::str(std::string_view key, std::string_view value) {
  if (log_ != nullptr) {
    std::string rendered = "\"";
    append_escaped(rendered, value);
    rendered += '"';
    fields_.emplace_back(std::string(key), std::move(rendered));
  }
  return *this;
}

LogEvent& LogEvent::num(std::string_view key, std::int64_t value) {
  if (log_ != nullptr) {
    fields_.emplace_back(std::string(key), std::to_string(value));
  }
  return *this;
}

}  // namespace cny::obs
