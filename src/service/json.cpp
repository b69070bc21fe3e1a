#include "service/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace cny::service {

namespace {

/// Hostile frames may nest arbitrarily; parsing is recursive, so bound the
/// depth well below any stack limit. Protocol messages use depth 3.
constexpr int kMaxDepth = 64;

[[noreturn]] void fail(const std::string& what) { throw JsonError(what); }

}  // namespace

Json Json::boolean(bool b) {
  Json v;
  v.type_ = Type::Bool;
  v.bool_ = b;
  return v;
}

Json Json::number(double d) {
  if (!std::isfinite(d)) fail("non-finite number has no JSON form");
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d);
  Json v;
  v.type_ = Type::Number;
  v.scalar_.assign(buf, res.ptr);
  return v;
}

Json Json::number(std::uint64_t u) {
  Json v;
  v.type_ = Type::Number;
  v.scalar_ = std::to_string(u);
  return v;
}

Json Json::string(std::string s) {
  Json v;
  v.type_ = Type::String;
  v.scalar_ = std::move(s);
  return v;
}

Json Json::array() {
  Json v;
  v.type_ = Type::Array;
  return v;
}

Json Json::object() {
  Json v;
  v.type_ = Type::Object;
  return v;
}

void Json::push_back(Json v) {
  if (type_ != Type::Array) fail("push_back on non-array");
  items_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  if (type_ != Type::Object) fail("set on non-object");
  for (const auto& [k, _] : members_) {
    if (k == key) fail("duplicate key '" + key + "'");
  }
  members_.emplace_back(std::move(key), std::move(v));
}

double Json::as_double() const {
  if (type_ != Type::Number) fail("not a number");
  // from_chars, not strtod: the wire format must not bend to the host
  // process's LC_NUMERIC locale.
  double d = 0.0;
  const auto res =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), d);
  if (res.ec != std::errc() || res.ptr != scalar_.data() + scalar_.size()) {
    fail("number token out of double range: " + scalar_);
  }
  return d;
}

std::uint64_t Json::as_u64() const {
  if (type_ != Type::Number) fail("not a number");
  for (const char c : scalar_) {
    if (c < '0' || c > '9') fail("not an unsigned integer: " + scalar_);
  }
  std::uint64_t u = 0;
  const auto res =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), u);
  if (res.ec != std::errc() || res.ptr != scalar_.data() + scalar_.size()) {
    fail("unsigned integer out of range: " + scalar_);
  }
  return u;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) fail("not a string");
  return scalar_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::Array) fail("not an array");
  return items_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::Object) fail("not an object");
  return members_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object) fail("not an object");
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr) fail("missing field '" + std::string(key) + "'");
  return *v;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: out += scalar_; break;
    case Type::String: dump_string(scalar_, out); break;
    case Type::Array: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        items_[i].dump_to(out);
      }
      out += ']';
      break;
    }
    case Type::Object: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        dump_string(members_[i].first, out);
        out += ':';
        members_[i].second.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of JSON text");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "' at offset " +
           std::to_string(pos_));
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value(int depth) {
    if (depth > kMaxDepth) fail("JSON nested too deeply");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return Json::string(string_body());
      case 't':
        if (consume_literal("true")) return Json::boolean(true);
        break;
      case 'f':
        if (consume_literal("false")) return Json::boolean(false);
        break;
      case 'n':
        if (consume_literal("null")) return Json();
        break;
      default: break;
    }
    if (c == '-' || (c >= '0' && c <= '9')) return number_token();
    fail(std::string("unexpected character '") + c + "' at offset " +
         std::to_string(pos_));
  }

  Json object(int depth) {
    expect('{');
    Json v = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string_body();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') {
        reject_duplicate_keys(v.members_);
        return v;
      }
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  /// One sort per object instead of Json::set's scan per member, so a
  /// hostile frame with k keys costs O(k log k), not O(k^2).
  static void reject_duplicate_keys(
      const std::vector<std::pair<std::string, Json>>& members) {
    std::vector<std::string_view> keys;
    keys.reserve(members.size());
    for (const auto& [k, _] : members) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    const auto dup = std::adjacent_find(keys.begin(), keys.end());
    if (dup != keys.end()) fail("duplicate key '" + std::string(*dup) + "'");
  }

  Json array(int depth) {
    expect('[');
    Json v = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.push_back(value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      const std::size_t run = pos_;  // plain bytes, copied in one go
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return v;
  }

  void append_codepoint(std::string& out) {
    unsigned cp = hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // High surrogate: a low surrogate escape must follow.
      if (!consume_literal("\\u")) fail("unpaired surrogate in \\u escape");
      const unsigned lo = hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate in \\u escape");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Json number_token() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else {
      if (peek() < '1' || peek() > '9') fail("invalid number");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (peek() < '0' || peek() > '9') fail("invalid number fraction");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (peek() < '0' || peek() > '9') fail("invalid number exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    // Token kept verbatim — the root of the byte-stability guarantee.
    Json v;
    v.type_ = Json::Type::Number;
    v.scalar_ = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Json Json::parse(std::string_view text) { return JsonParser(text).run(); }

}  // namespace cny::service
