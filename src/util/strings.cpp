#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/contracts.h"

namespace cny::util {

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string format_sig(double v, int digits) {
  CNY_EXPECT(digits >= 1 && digits <= 17);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::string format_prob(double p) {
  char buf[64];
  if (p != 0.0 && std::fabs(p) < 1e-2) {
    std::snprintf(buf, sizeof buf, "%.1e", p);
  } else {
    std::snprintf(buf, sizeof buf, "%.4f", p);
  }
  return buf;
}

std::string format_pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

std::string excerpt(std::string_view text) {
  constexpr std::size_t kMaxEcho = 64;
  if (text.size() <= kMaxEcho) return std::string(text);
  return std::string(text.substr(0, kMaxEcho)) + "… (" +
         std::to_string(text.size()) + " bytes)";
}

double parse_double(std::string_view s) {
  s = trim(s);
  CNY_EXPECT_MSG(!s.empty(), "empty string is not a number");
  // std::from_chars for double is not universally available; use strtod on a
  // bounded copy.
  std::string copy(s);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  CNY_EXPECT_MSG(end == copy.c_str() + copy.size(),
                 "trailing garbage in number: " + copy);
  return v;
}

long parse_long(std::string_view s) {
  s = trim(s);
  CNY_EXPECT_MSG(!s.empty(), "empty string is not an integer");
  long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  CNY_EXPECT_MSG(ec == std::errc{} && ptr == s.data() + s.size(),
                 "bad integer: " + std::string(s));
  return v;
}

}  // namespace cny::util
