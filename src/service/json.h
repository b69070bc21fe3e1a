// Minimal JSON document model for the service wire protocol (protocol.h).
//
// Deliberately tiny — objects, arrays, strings, numbers, booleans, null —
// because the protocol needs exactly one property a general-purpose library
// would not promise: *byte-stable canonical form*. Objects preserve
// insertion order and numbers keep their text token (programmatic numbers
// get the shortest round-trip form via std::to_chars), so
// dump(parse(dump(v))) == dump(v) byte for byte and doubles cross the wire
// bit-exactly. That is what lets the service pin "a response depends only
// on the request" as equality of frames, not approximate equality of
// floats.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cny::service {

/// Malformed JSON text or a type-mismatched access. The server turns it
/// into an error frame rather than crashing.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  /// Null by default.
  Json() = default;

  [[nodiscard]] static Json boolean(bool b);
  /// Finite doubles only (NaN/inf have no JSON form); the stored token is
  /// the shortest string that parses back to exactly `v`.
  [[nodiscard]] static Json number(double v);
  [[nodiscard]] static Json number(std::uint64_t v);
  [[nodiscard]] static Json string(std::string s);
  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] Type type() const { return type_; }

  /// Array append.
  void push_back(Json v);
  /// Object append; keys must be unique (checked).
  void set(std::string key, Json v);

  // Accessors throw JsonError on a type mismatch so protocol decoding can
  // report "field x has the wrong type" instead of reading garbage.
  [[nodiscard]] double as_double() const;
  /// Integer tokens only (no sign, fraction or exponent) — used for seeds
  /// and counts, where silent rounding through a double would corrupt.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const;

  /// Object member by key; nullptr when absent (throws when not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Object member by key; throws JsonError when absent.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Canonical serialization: no whitespace, members in insertion order,
  /// number tokens verbatim, strings minimally escaped.
  [[nodiscard]] std::string dump() const;

  /// Parses one JSON value (throws JsonError on syntax errors, trailing
  /// garbage, or nesting deeper than an internal sanity bound).
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  friend class JsonParser;  ///< stores number tokens and members directly

  void dump_to(std::string& out) const;  ///< dump(), one buffer for all

  Type type_ = Type::Null;
  bool bool_ = false;
  std::string scalar_;  ///< number token or string value
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace cny::service
