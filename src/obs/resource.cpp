#include "obs/resource.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "obs/metrics.h"

namespace cny::obs {

namespace {

/// Reads a whole (small) file into a string. /proc files report st_size 0,
/// so this reads in chunks rather than trusting a stat().
bool read_small_file(const char* path, std::string& out) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  out.clear();
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok && !out.empty();
}

/// Parses the leading unsigned integer of `text` (after optional spaces
/// and tabs). Returns 0 when no digits are present.
std::uint64_t leading_u64(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  std::uint64_t value = 0;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
  }
  return value;
}

std::uint64_t count_open_fds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::uint64_t count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    ++count;
  }
  closedir(dir);
  // The directory stream itself holds one descriptor while we count.
  if (count > 0) --count;
  return count;
}

}  // namespace

void parse_status_text(std::string_view text, ResourceUsage& usage) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    if (line.rfind("VmRSS:", 0) == 0) {
      usage.rss_kb = leading_u64(line.substr(6));
    } else if (line.rfind("VmHWM:", 0) == 0) {
      usage.vm_hwm_kb = leading_u64(line.substr(6));
    } else if (line.rfind("Threads:", 0) == 0) {
      usage.threads = leading_u64(line.substr(8));
    }
    pos = eol + 1;
  }
}

void parse_stat_text(std::string_view text, long ticks_per_s,
                     ResourceUsage& usage) {
  if (ticks_per_s <= 0) ticks_per_s = 100;
  // The comm field (2) is parenthesised and may contain spaces and ')', so
  // field counting must start after the *last* ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string_view::npos) return;
  std::string_view rest = text.substr(close + 1);
  // rest now starts at field 3 ("state"); utime/stime are fields 14/15.
  std::uint64_t utime_ticks = 0;
  std::uint64_t stime_ticks = 0;
  int field = 2;  // fields consumed so far (pid, comm)
  std::size_t i = 0;
  while (i < rest.size()) {
    while (i < rest.size() && rest[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < rest.size() && rest[i] != ' ') ++i;
    if (i == start) break;
    ++field;
    if (field == 14) {
      utime_ticks = leading_u64(rest.substr(start, i - start));
    } else if (field == 15) {
      stime_ticks = leading_u64(rest.substr(start, i - start));
      break;
    }
  }
  usage.cpu_user_ms = utime_ticks * 1000 / static_cast<std::uint64_t>(ticks_per_s);
  usage.cpu_sys_ms = stime_ticks * 1000 / static_cast<std::uint64_t>(ticks_per_s);
}

ResourceUsage sample_resources() {
  ResourceUsage usage;
  std::string text;
  if (!read_small_file("/proc/self/status", text)) return usage;
  parse_status_text(text, usage);
  if (!read_small_file("/proc/self/stat", text)) return usage;
  parse_stat_text(text, sysconf(_SC_CLK_TCK), usage);
  usage.open_fds = count_open_fds();
  usage.ok = true;
  return usage;
}

void refresh_resource_gauges() {
  const ResourceUsage usage = sample_resources();
  if (!usage.ok) return;
  Registry& r = Registry::global();
  r.gauge("process.rss_kb").set(static_cast<std::int64_t>(usage.rss_kb));
  r.gauge("process.vm_hwm_kb").set(static_cast<std::int64_t>(usage.vm_hwm_kb));
  r.gauge("process.cpu_user_ms")
      .set(static_cast<std::int64_t>(usage.cpu_user_ms));
  r.gauge("process.cpu_sys_ms")
      .set(static_cast<std::int64_t>(usage.cpu_sys_ms));
  r.gauge("process.threads").set(static_cast<std::int64_t>(usage.threads));
  r.gauge("process.open_fds").set(static_cast<std::int64_t>(usage.open_fds));
}

}  // namespace cny::obs
