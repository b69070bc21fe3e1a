// Lightweight contract macros in the spirit of C++ Core Guidelines I.6/I.8.
//
// CNY_EXPECT  — precondition on arguments supplied by a caller; violation
//               throws cny::ContractViolation (callers may legitimately
//               probe-and-recover, e.g. CLI input validation).
// CNY_ENSURE  — postcondition / internal invariant; violation also throws so
//               that tests can assert on it, but indicates a library bug.
//
// Both are always enabled: every model in this library is numerical and a
// silent domain error (negative probability, empty interval, ...) corrupts
// results far downstream of the fault.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace cny {

namespace detail {
/// `file` from its last "/src/" on (else its base name): the message names
/// the source file, never the directory the tree was built in, so the same
/// failure reads the same from every checkout.
[[nodiscard]] inline std::string_view source_relative(std::string_view file) {
  if (const auto at = file.rfind("/src/"); at != std::string_view::npos) {
    return file.substr(at + 5);
  }
  if (const auto at = file.rfind('/'); at != std::string_view::npos) {
    return file.substr(at + 1);
  }
  return file;
}
}  // namespace detail

/// Exception thrown when a contract (pre- or post-condition) is violated.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(const char* kind, const char* condition, const char* file,
                    int line, const std::string& message)
      : std::logic_error(std::string(kind) + " failed: " + condition + " at " +
                         std::string(detail::source_relative(file)) + ":" +
                         std::to_string(line) +
                         (message.empty() ? "" : " — " + message)) {}
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* condition,
                                       const char* file, int line,
                                       const std::string& message = {}) {
  throw ContractViolation(kind, condition, file, line, message);
}
}  // namespace detail

}  // namespace cny

#define CNY_EXPECT(cond)                                                    \
  do {                                                                      \
    if (!(cond))                                                            \
      ::cny::detail::contract_fail("precondition", #cond, __FILE__,         \
                                   __LINE__);                               \
  } while (false)

#define CNY_EXPECT_MSG(cond, msg)                                           \
  do {                                                                      \
    if (!(cond))                                                            \
      ::cny::detail::contract_fail("precondition", #cond, __FILE__,         \
                                   __LINE__, (msg));                        \
  } while (false)

#define CNY_ENSURE(cond)                                                    \
  do {                                                                      \
    if (!(cond))                                                            \
      ::cny::detail::contract_fail("postcondition", #cond, __FILE__,        \
                                   __LINE__);                               \
  } while (false)

#define CNY_ENSURE_MSG(cond, msg)                                           \
  do {                                                                      \
    if (!(cond))                                                            \
      ::cny::detail::contract_fail("postcondition", #cond, __FILE__,        \
                                   __LINE__, (msg));                        \
  } while (false)
