// YieldServer — the batching front end over warm FailureModels.
//
// Concurrently arriving FlowRequests are *coalesced* with no window to
// tune: a dispatcher thread waits for a non-empty queue, pops everything
// queued (up to a fixed cap) and evaluates it; whatever arrives while that
// batch runs forms the next one, so an idle server answers a lone request
// at once and a loaded one batches in step with its load. A batch is
// grouped by session key (library + *derived* process corner, see
// session_cache.h) and each group evaluated as one batch of run_flow jobs
// on that session's warm model, with per-job error capture — one bad
// request (e.g. an infeasible scenario) gets its own error frame and never
// poisons its batch. N clients therefore cost ~1 model warm-up plus their
// own MC work, instead of N cold starts.
//
// Determinism contract (pinned in tests/test_service.cpp): a response is a
// function of the request alone — (request params, seed, mc_streams) —
// never of how requests happened to batch or the server's thread count.
// This holds by construction: the session model carries its interpolant
// *before* serving, every job reads that same model whether it runs solo
// or in a batch (no per-batch table is ever built), and the exec subsystem
// already guarantees thread-count invariance.
//
// Transports:
//   * Loopback — submit() takes one request frame and yields the response
//     frame, running the full protocol path (decode, validate, queue,
//     evaluate, encode) with no socket. Tests and benches use this.
//   * TCP — a listener on 127.0.0.1 accepts length-framed connections and
//     serves them from an exec::ThreadPool; each frame is answered on the
//     same connection. `cntyield_cli serve` fronts this.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "obs/log.h"
#include "obs/trace.h"
#include "service/faults.h"
#include "service/protocol.h"
#include "service/session_cache.h"

namespace cny::service {

struct ServerOptions {
  /// Engage the TCP listener (loopback-only otherwise). Port 0 binds an
  /// ephemeral port — read it back with YieldServer::port().
  bool listen = false;
  std::uint16_t port = 7421;
  /// Compute threads per coalesced batch (0 = hardware concurrency).
  /// Scheduling only: responses are invariant under this knob.
  unsigned n_threads = 0;
  /// Warm (library, process) sessions kept alive, LRU-evicted.
  std::size_t cache_capacity = 4;
  /// Knots of each session's log-p_F interpolant.
  std::size_t interpolant_knots = 65;
  /// A TCP connection idle longer than this is closed. Also the bound on
  /// how long a slow-loris peer (partial header, then silence) can hold a
  /// connection handler.
  unsigned idle_timeout_ms = 30000;
  /// Admission bound: FlowRequests beyond this many already queued are
  /// answered with a transient `server_overloaded` error frame instead of
  /// queueing without bound (the client's retry policy backs off and tries
  /// again; memory stays bounded under overload).
  std::size_t max_queue = 1024;
  /// Deterministic fault-injection plan (faults.h); null = never inject.
  /// Applied at the transport boundary of both the TCP and loopback paths.
  std::shared_ptr<FaultPlan> fault_plan;
  /// Trace sink for per-request spans (admission, queue_wait,
  /// session_warm, interpolant_build, evaluate, serialize).
  /// Null = tracing off, which is guaranteed zero-perturbation: responses
  /// and stores are byte-identical either way (pinned in tests).
  std::shared_ptr<obs::TraceSink> trace_sink;
  /// Engage the OpenMetrics HTTP listener: `GET /metrics` on
  /// 127.0.0.1:metrics_port answers the text exposition format. Port 0
  /// binds ephemeral — read it back with YieldServer::metrics_port().
  /// Served off the same exec::ThreadPool as the wire protocol.
  bool metrics_listen = false;
  std::uint16_t metrics_port = 0;
  /// Structured JSONL event log (lifecycle, evictions, overload rejects,
  /// deadline sheds). Null = logging off; same zero-perturbation contract
  /// as tracing.
  std::shared_ptr<obs::Log> log;
};

class YieldServer {
 public:
  explicit YieldServer(ServerOptions options = {});
  ~YieldServer();
  YieldServer(const YieldServer&) = delete;
  YieldServer& operator=(const YieldServer&) = delete;

  /// Spawns the dispatcher (and, in listen mode, binds + accepts).
  /// Throws ServiceSetupError when the socket cannot be bound.
  void start();
  /// Stops accepting, fails pending requests, joins every thread.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Graceful drain: immediately refuses *new* FlowRequests with a
  /// `shutting_down` error frame, waits for every already-queued request
  /// and the in-flight batch to finish (their clients get real
  /// responses), then stop()s. What `cntyield_cli serve` runs on
  /// SIGTERM and on a Shutdown frame — an in-flight batch is never torn
  /// down mid-evaluation.
  void drain();

  /// The bound TCP port (listen mode, after start()).
  [[nodiscard]] std::uint16_t port() const;

  /// The bound /metrics port (metrics_listen mode, after start()).
  [[nodiscard]] std::uint16_t metrics_port() const;

  /// Loopback entry: one request frame in, one response frame out, through
  /// the full protocol path. Ping/Stats/Shutdown/malformed frames resolve
  /// immediately (Ping and Shutdown with the constant Pong built at
  /// construction); FlowRequests resolve after their coalesced batch runs.
  [[nodiscard]] std::future<std::string> submit(std::string frame);

  /// Blocks until a Shutdown frame arrives or stop() is called.
  void wait_shutdown();

  /// Bounded wait_shutdown: true once a Shutdown frame arrived or stop()
  /// was called, false on timeout. Lets a front end interleave the wait
  /// with its own signal polling (the CLI's SIGTERM graceful drain).
  [[nodiscard]] bool wait_shutdown_for(unsigned timeout_ms);

  /// The canonical-JSON metrics snapshot the StatsReply frame carries and
  /// `cntyield_cli serve` logs at shutdown: {"version","protocol","stats":
  /// {...counters...},"gauges":{...},"histograms":{...},"process":{...}}.
  /// Each call refreshes the process.* resource gauges first.
  [[nodiscard]] std::string stats_json() const;

  /// The OpenMetrics text page `GET /metrics` serves (this server's
  /// registry plus the process-wide one, resource gauges refreshed) —
  /// exposed socket-free so tests and tools render the exact scrape body.
  [[nodiscard]] std::string metrics_text() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Server-side setup failure (bind/listen), as opposed to wire errors.
class ServiceSetupError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace cny::service
