// Deterministic fault-injection harness for the yield service.
//
// A FaultPlan decides, per frame and in arrival order, whether the wire
// "breaks" and how: the connection drops before or after the response, the
// response is delayed, truncated at byte K, gets one payload byte
// corrupted, the server answers a transient reject (`server_overloaded` /
// `try_later`) without evaluating, or dribbles a partial header and stalls
// (slow loris). The plan plugs in via ServerOptions.fault_plan, and both
// transports meet it at one boundary in the server: it consults the plan
// once per FlowRequest frame and maps the fault onto the response bytes
// ("" for a dropped connection). The loopback submit() returns those
// bytes; the TCP loop writes them and closes the connection on a drop, a
// truncation or a slow loris. So every failure mode a production
// deployment can hit is reproducible in a unit test and in CI, byte for
// byte.
//
// Determinism contract: the decision for the n-th frame is a pure function
// of (options, n). Frames are numbered in arrival order; a retried request
// therefore lands on a *later* ordinal, which is why a plan with
// `period >= 2` can never fault the same logical request twice in a row —
// the property that lets the chaos campaign test put a hard bound on the
// retries it needs. `max_faults` optionally caps total injections so a
// finite retry budget is guaranteed to drain any workload.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace cny::service {

enum class FaultKind : std::uint32_t {
  /// Close the connection without evaluating the request.
  DropBeforeResponse,
  /// Evaluate, then close the connection without sending the response.
  DropAfterResponse,
  /// Deliver the response `delay_ms` late.
  Delay,
  /// Send only the first `at_byte` bytes of the response, then close.
  TruncateResponse,
  /// XOR one payload byte of the response (framing then fails to parse).
  CorruptPayloadByte,
  /// Answer an Error frame with the transient `error_code`, no evaluation.
  TransientReject,
  /// Dribble a partial header (< 16 bytes), stall `delay_ms`, then close.
  SlowLorisResponse,
};

struct FaultSpec {
  FaultKind kind = FaultKind::TransientReject;
  unsigned delay_ms = 0;        ///< Delay / SlowLorisResponse
  std::size_t at_byte = 0;      ///< TruncateResponse / CorruptPayloadByte
  std::string error_code = "try_later";  ///< TransientReject
};

/// Human-readable name ("drop", "delay", ...), for logs and CLI echoes.
[[nodiscard]] const char* to_string(FaultKind kind);

/// Parses a comma-separated fault list for the CLI (--chaos=...):
/// drop, drop-after, delay, truncate, corrupt, reject, slowloris — each
/// with harsh-but-fast built-in parameters (ms-scale delays). Throws
/// std::invalid_argument naming the offending token and the known names.
[[nodiscard]] std::vector<FaultSpec> fault_specs_from_names(
    const std::string& names);

struct FaultPlanOptions {
  /// Offsets the injection phase deterministically (which ordinals fault).
  std::uint64_t seed = 1;
  /// Inject into every `period`-th frame (0 = never inject). Keep >= 2 so
  /// an immediate retry of a faulted frame is never re-faulted.
  unsigned period = 0;
  /// Cap on total injections (0 = unlimited); bounds the retries any
  /// workload can need.
  std::uint64_t max_faults = 0;
  /// Rotation of faults for the injected ordinals; empty = never inject.
  std::vector<FaultSpec> faults;
};

class FaultPlan {
 public:
  /// The default plan never injects (what a ServerOptions without one
  /// behaves like).
  FaultPlan() = default;
  explicit FaultPlan(FaultPlanOptions options);

  /// The decision for the next frame, in arrival order. Thread-safe; the
  /// ordinal is consumed exactly once per call.
  [[nodiscard]] std::optional<FaultSpec> next();

  /// Total faults handed out so far.
  [[nodiscard]] std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool enabled() const {
    return options_.period > 0 && !options_.faults.empty();
  }

 private:
  FaultPlanOptions options_;
  std::uint64_t phase_ = 0;  ///< seed-derived offset into the period
  std::atomic<std::uint64_t> ordinal_{0};
  std::atomic<std::uint64_t> injected_{0};
};

/// Applies `spec` to an evaluated response: truncation, corruption, delay,
/// slow loris, or a drop after the response (which empties it). A drop
/// before the response and a reject never evaluate, so they are handled
/// before a response exists. Sleeps for delay faults, so call it on the
/// thread that owns the wait.
void apply_response_fault(const FaultSpec& spec, std::string& response);

}  // namespace cny::service
