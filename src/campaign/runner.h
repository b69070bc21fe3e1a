// Campaign executor — pushes compiled campaign points (campaign/spec.h)
// through the existing flow paths and lands every finished point in a
// ResultStore (campaign/store.h).
//
// Execution is chunked: `checkpoint_every` pending points at a time, each
// chunk grouped by session key (library + derived process corner, exactly
// the server's grouping) so a sweep crossing K corners warms K models, not
// one per point. Records are appended strictly in campaign order with a
// flush per line — the checkpoint granularity is the most a kill can cost.
//
// Two paths, one byte-identical store:
//   * direct      — a private service::SessionCache and the evaluation
//                   core (service::evaluate) the server also runs;
//   * via_service — a loopback YieldServer (submit/decode), proving the
//                   wire path agrees.
// Both read warm full-bracket interpolants, so results are invariant under
// chunking, grouping, thread count, and interruption — which is what makes
// "killed + resumed == uninterrupted" a byte-equality statement.
//
// Resume falls out of the store: points whose key is already present are
// skipped (counted in CampaignStats::skipped), so re-running a finished
// campaign performs zero flow evaluations. Error records are deterministic
// outcomes and are *not* retried.
//
// Transient failures are the opposite: on the via-service path a point
// that comes back with a transient code (protocol.h is_transient_error) or
// an unusable response (dropped / truncated / corrupt — the fault
// harness's repertoire) is *never* written to the store. It is resubmitted
// in the next retry round (RunnerOptions::retry), and if the budget runs
// out the whole run throws — so a store produced through a fault-injecting
// server is byte-identical to a fault-free run or absent, never subtly
// poisoned (pinned in tests/test_campaign.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "campaign/store.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/faults.h"

namespace cny::campaign {

struct RunnerOptions {
  /// Compute threads per group (0 = hardware concurrency). Scheduling
  /// only: results are invariant under this knob.
  unsigned n_threads = 0;
  /// Points per chunk between store checkpoints / interrupt polls
  /// (0 = one chunk for the whole campaign).
  std::size_t checkpoint_every = 16;
  /// Evaluate through a loopback YieldServer instead of directly.
  bool via_service = false;
  /// Warm (library, corner) sessions kept alive, LRU-evicted.
  std::size_t cache_capacity = 8;
  /// Knots of each session's log-p_F interpolant.
  std::size_t interpolant_knots = 65;
  /// Polled between chunks; returning true checkpoints and stops (the CLI
  /// wires SIGTERM/SIGINT here). Never interrupts mid-chunk.
  std::function<bool()> interrupted;
  /// Invoked after every chunk with (points done this run, points pending
  /// at start); for CLI progress lines.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Retry budget for transient via-service failures (max_attempts,
  /// backoff, jitter — deadline_ms is not consulted here; a campaign has
  /// no latency SLO). Exhausting it throws ServiceError rather than
  /// recording a transient outcome. Ignored on the direct path, which has
  /// no wire to fail.
  service::RetryPolicy retry;
  /// Fault plan wired into the loopback server (via_service only): the
  /// chaos campaign in CI runs the real store path through injected
  /// drops/delays/rejects. Null = clean server.
  std::shared_ptr<service::FaultPlan> fault_plan;
  /// Progress sidecar: when non-empty, one JSON line is appended here
  /// after every chunk ({"chunk","done","pending","evaluated","failed",
  /// "skipped","retry_rounds","sessions_built","elapsed_ms","eta_ms",
  /// "rss_kb","vm_hwm_kb"} — the resource columns sample /proc at
  /// checkpoint time, so a tail shows memory growth per chunk) — a
  /// watcher tails it without touching the store. The sidecar is a
  /// separate file the resume path never reads, so it cannot perturb
  /// store bytes (pinned in tests).
  std::string progress_path;
  /// Trace sink for campaign spans ("campaign.chunk" per chunk, plus the
  /// full server/session span set on whichever path runs). Null = off;
  /// either way the store is byte-identical (the zero-perturbation
  /// contract).
  std::shared_ptr<obs::TraceSink> trace_sink;
  /// Structured JSONL event log (campaign.start / campaign.checkpoint /
  /// campaign.retry_exhausted / campaign.interrupted / campaign.finish,
  /// plus the server/session events on the via-service path). Null = off;
  /// same zero-perturbation contract as tracing.
  std::shared_ptr<obs::Log> log;
};

struct CampaignStats {
  std::size_t total = 0;      ///< compiled campaign points
  std::size_t skipped = 0;    ///< already in the store (resume no-ops)
  std::size_t evaluated = 0;  ///< successful flow evaluations this run
  std::size_t failed = 0;     ///< error records appended this run
  std::uint64_t sessions_built = 0;  ///< cache misses (model warm-ups)
  /// Retry rounds beyond each chunk's first submission (via_service only):
  /// how hard the transient-failure retry loop had to work. 0 on a clean
  /// run.
  std::uint64_t retry_rounds = 0;
  bool interrupted = false;   ///< stopped at a checkpoint before finishing
};

/// Runs every point not yet in `store`, appending one record per finished
/// point in campaign order. Throws on store I/O failures; per-point
/// evaluation failures become "evaluation_failed" records instead.
CampaignStats run_campaign(const std::vector<CompiledPoint>& points,
                           ResultStore& store,
                           const RunnerOptions& options = {});

}  // namespace cny::campaign
