// YieldClient — the blocking client library for the yield service.
//
// Two transports behind one call interface:
//   * loopback — frames go straight into an in-process YieldServer's
//     submit() path (full protocol, no socket); what tests/benches use.
//   * TCP — one persistent connection to a `cntyield_cli serve` instance.
//
// Every call is synchronous: frame the request, send, block for the
// response frame, decode. An Error frame surfaces as a thrown
// ServiceError carrying the server's code and message.
//
// Retries: a RetryPolicy (off by default — max_attempts = 1) makes call()
// and ping() survive *transient* failures: transport errors (connection
// refused/reset/dropped, timeouts, undecodable or corrupt responses) and
// the transient error codes of protocol.h's is_transient_error
// (server_overloaded / try_later / shutting_down / deadline_exceeded).
// Terminal codes — bad_request, evaluation_failed, ... — are never
// retried: they are deterministic verdicts a retry would only repeat.
// Backoff is exponential with deterministic, seeded jitter, optionally
// bounded by an overall deadline budget; the TCP transport reconnects
// after a dropped connection. Retrying is safe because the service is
// deterministic and side-effect-free: the same request always produces
// the same response, so at-least-once delivery is indistinguishable from
// exactly-once.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "service/protocol.h"

namespace cny::service {

class YieldServer;

/// An error frame from the server, or a transport failure.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(std::string code, std::string message)
      : std::runtime_error(code + ": " + message),
        code_(std::move(code)),
        message_(std::move(message)) {}

  [[nodiscard]] const std::string& code() const { return code_; }
  /// The server's message alone (what() prepends the code).
  [[nodiscard]] const std::string& message() const { return message_; }
  /// Whether retrying the identical request is safe and may succeed
  /// (protocol.h taxonomy).
  [[nodiscard]] bool transient() const { return is_transient_error(code_); }

 private:
  std::string code_;
  std::string message_;
};

/// The one rule for reading a response, shared by YieldClient and the
/// campaign runner's via-service path. Returns the decoded frame when it
/// is of the `expected` type. Otherwise throws ServiceError:
///   * `transport` for empty bytes (a dropped connection), bytes that do
///     not frame, or a FlowResponse whose payload does not decode (a
///     response corrupted in flight);
///   * the server's code for an Error frame;
///   * `unexpected_frame` for any other frame type.
/// ServiceError::transient() then says whether a retry may succeed.
[[nodiscard]] Frame read_response(std::string_view bytes,
                                  FrameType expected);

/// Retry policy for call() / ping(). Defaults are "no retries"; a caller
/// opting in sets max_attempts > 1. Backoff for attempt k (1-based) is
/// min(base * multiplier^(k-1), max) scaled by a jitter factor in
/// [0.5, 1.0) derived deterministically from (jitter_seed, k) — two
/// clients with different seeds desynchronise, one client replays its
/// exact schedule, and tests stay reproducible.
struct RetryPolicy {
  /// Total tries including the first (1 = no retries).
  unsigned max_attempts = 1;
  unsigned backoff_base_ms = 10;
  double backoff_multiplier = 2.0;
  unsigned backoff_max_ms = 2000;
  std::uint64_t jitter_seed = 1;
  /// Overall budget across all attempts, measured from the first send;
  /// when a backoff sleep would cross it the current error is rethrown
  /// instead. 0 = unbounded.
  std::uint64_t deadline_ms = 0;

  /// The jittered sleep before attempt `attempt + 1` (ms, >= 1).
  [[nodiscard]] unsigned backoff_ms(unsigned attempt) const;
};

class YieldClient {
 public:
  /// In-process client over `server` (which must outlive the client).
  explicit YieldClient(YieldServer& server);
  /// TCP client; connects immediately, throws ServiceError on failure.
  /// `timeout_ms` bounds each response wait (flow responses included, so
  /// leave headroom for the server's compute).
  YieldClient(const std::string& host, std::uint16_t port,
              unsigned timeout_ms = 300000);
  ~YieldClient();
  YieldClient(YieldClient&& other) noexcept;
  YieldClient& operator=(YieldClient&&) = delete;
  YieldClient(const YieldClient&) = delete;
  YieldClient& operator=(const YieldClient&) = delete;

  /// Retry policy applied by call() and ping() (never shutdown_server(),
  /// whose failure usually *is* the shutdown). Default: no retries.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  [[nodiscard]] const RetryPolicy& retry_policy() const { return retry_; }

  /// Runs one flow request; throws ServiceError on an error frame (after
  /// exhausting the retry policy, if the failure was transient).
  [[nodiscard]] yield::FlowResult call(const FlowRequest& request);

  /// Liveness probe; returns the server's constant Pong payload,
  /// {"version":...,"protocol":N} (JSON text).
  [[nodiscard]] std::string ping();

  /// Metrics snapshot: sends a Stats frame and returns the StatsReply's
  /// canonical-JSON payload (YieldServer::stats_json()). Retried like
  /// ping().
  [[nodiscard]] std::string stats();

  /// Attaches a trace sink (null = off): every call()/ping()/stats()
  /// attempt emits a "client.attempt" span with its attempt number and
  /// outcome, so a trace shows the retry schedule next to the server-side
  /// spans. Observational only — never changes retry behaviour. The sink
  /// must outlive the client.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Asks the server to shut down cleanly; returns once acknowledged.
  void shutdown_server();

 private:
  void connect_tcp();
  /// One attempt's bytes; a socket failure, timeout or unframeable
  /// header throws a `transport` ServiceError.
  [[nodiscard]] std::string roundtrip(std::string frame);
  /// The retry loop around roundtrip() + read_response(): transient errors
  /// back off and go again (reconnecting TCP first when the transport
  /// broke), terminal ones throw immediately.
  [[nodiscard]] Frame request_reply(const std::string& frame,
                                    FrameType expected);

  YieldServer* loopback_ = nullptr;
  int fd_ = -1;
  unsigned timeout_ms_ = 300000;
  std::string host_;
  std::uint16_t port_ = 0;
  RetryPolicy retry_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace cny::service
