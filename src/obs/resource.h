// Resource accounting: what the process itself costs, read from
// /proc/self/{status,stat,fd} — resident set size, its high-water mark,
// accumulated CPU time, thread and descriptor counts.
//
// sample_resources() takes one synchronous sample. It is pure observation
// (three /proc reads, no allocation beyond the result) and safe to call
// from any thread at any time; `ok` is false on platforms without /proc,
// and every field stays zero, so callers never branch on platform.
// refresh_resource_gauges() copies one sample into the process.* gauges of
// Registry::global(); the Stats frame and every /metrics scrape call it, so
// the gauges are current whenever someone reads them.
//
// Like every obs facility, this is observability plumbing, never
// semantics: nothing in the library branches on a sampled value, so a
// sample cannot move a response or store byte (pinned in
// tests/test_service.cpp and test_campaign.cpp).
#pragma once

#include <cstdint>
#include <string_view>

namespace cny::obs {

/// One point-in-time reading of the process's own footprint. All sizes in
/// kB (the unit /proc/self/status reports), CPU in milliseconds.
struct ResourceUsage {
  std::uint64_t rss_kb = 0;       ///< VmRSS: current resident set
  std::uint64_t vm_hwm_kb = 0;    ///< VmHWM: peak resident set ("high water")
  std::uint64_t cpu_user_ms = 0;  ///< utime, accumulated over the process
  std::uint64_t cpu_sys_ms = 0;   ///< stime, accumulated over the process
  std::uint64_t threads = 0;      ///< Threads: live thread count
  std::uint64_t open_fds = 0;     ///< open descriptors (/proc/self/fd)
  bool ok = false;                ///< false when /proc was unreadable
};

/// Samples the calling process once. Never throws; on failure returns a
/// zeroed reading with ok == false.
[[nodiscard]] ResourceUsage sample_resources();

/// Parses /proc/self/status-shaped text ("VmRSS:\t  123 kB" lines) into
/// `usage` (VmRSS, VmHWM, Threads). Split out so the parser is testable
/// against synthetic text without a live /proc.
void parse_status_text(std::string_view text, ResourceUsage& usage);

/// Parses /proc/self/stat-shaped text (fields after the parenthesised
/// comm, which may itself contain spaces and parentheses) into `usage`
/// (utime + stime, converted with `ticks_per_s`).
void parse_stat_text(std::string_view text, long ticks_per_s,
                     ResourceUsage& usage);

/// Refreshes the process.* resource gauges of Registry::global() from one
/// synchronous sample. Leaves them untouched when /proc is unreadable.
void refresh_resource_gauges();

}  // namespace cny::obs
