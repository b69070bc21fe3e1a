#include "obs/trace.h"

#include <atomic>
#include <stdexcept>

namespace cny::obs {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  // Inlined splitmix64 finalizer so obs stays dependency-free: trace ids
  // need scrambling, not cryptography.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string next_trace_id() {
  static std::atomic<std::uint64_t> sequence{1};
  const std::uint64_t raw =
      splitmix(sequence.fetch_add(1, std::memory_order_relaxed));
  std::string out(16, '0');
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[(raw >> (4 * (15 - i))) & 0xF];
  }
  return out;
}

namespace {

/// Small per-thread trace tid (chrome trace "tid"): dense small ints make
/// the Perfetto track list readable, unlike raw pthread ids.
std::uint32_t thread_trace_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Minimal JSON string escape (quote, backslash, control chars) — arg
/// values include session keys, which are themselves JSON text.
void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
        break;
    }
  }
}

void append_us(std::string& out, std::uint64_t ns) {
  // Microseconds with fixed millinanosecond precision — chrome trace "ts"
  // and "dur" are in us; fractional digits keep sub-us spans distinct.
  out += std::to_string(ns / 1000);
  const std::uint64_t frac = ns % 1000;
  out += '.';
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
}

}  // namespace

TraceSink::TraceSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")),
      origin_(std::chrono::steady_clock::now()) {
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open trace file '" + path + "'");
  }
  std::fputs("[\n", file_);
}

TraceSink::~TraceSink() {
  if (file_ != nullptr) {
    // Closing "]" only on clean shutdown. Viewers accept a trailing comma
    // before it; an unclosed file (crash/kill) stays loadable too.
    std::fputs("]\n", file_);
    std::fclose(file_);
  }
}

void TraceSink::complete(
    std::string_view name, std::string_view category, std::uint64_t start_ns,
    std::uint64_t dur_ns,
    const std::vector<std::pair<std::string, std::string>>& args) {
  std::string line;
  line.reserve(128);
  line += "{\"name\":\"";
  append_escaped(line, name);
  line += "\",\"cat\":\"";
  append_escaped(line, category);
  line += "\",\"ph\":\"X\",\"ts\":";
  append_us(line, start_ns);
  line += ",\"dur\":";
  append_us(line, dur_ns);
  line += ",\"pid\":1,\"tid\":";
  line += std::to_string(thread_trace_id());
  if (!args.empty()) {
    line += ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : args) {
      if (!first) line += ',';
      first = false;
      line += '"';
      append_escaped(line, key);
      line += "\":\"";
      append_escaped(line, value);
      line += '"';
    }
    line += '}';
  }
  line += "},\n";
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), file_);
}

void TraceSink::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fflush(file_);
}

}  // namespace cny::obs
