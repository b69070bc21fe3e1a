// Small string helpers shared by the text I/O layers (Liberty-lite parser,
// CSV/table emitters, CLI).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cny::util {

/// Removes leading and trailing whitespace (space, tab, CR, LF).
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits `s` on `sep`, trimming each token; empty tokens are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Splits on arbitrary runs of whitespace; empty tokens are dropped.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Lower-cases ASCII characters.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Formats a double with `digits` significant digits (scientific when small).
[[nodiscard]] std::string format_sig(double v, int digits = 3);

/// Formats a probability like the paper's tables, e.g. "5.3e-06".
[[nodiscard]] std::string format_prob(double p);

/// Formats `v` as a percentage with one decimal, e.g. "12.5%".
[[nodiscard]] std::string format_pct(double fraction);

/// User text as an error message echoes it: at most the first 64 bytes,
/// then "…" and the total length, so a message stays small however large
/// the input.
[[nodiscard]] std::string excerpt(std::string_view text);

/// Parses a double, throwing cny::ContractViolation on garbage.
[[nodiscard]] double parse_double(std::string_view s);

/// Parses a non-negative integer, throwing on garbage.
[[nodiscard]] long parse_long(std::string_view s);

}  // namespace cny::util
