// Execution subsystem: a small reusable thread pool.
//
// The pool is deliberately minimal — a fixed set of workers draining one
// FIFO queue — because every parallel construct in this library is built on
// `parallel_mc_reduce` (parallel_mc.h), which owns determinism: the pool
// only ever decides *when* work runs, never *what* is computed.
//
// Re-entrancy rule: code must never block on a task that has not started
// (the classic nested-fork deadlock). `Fork` honours it by construction:
// the calling thread runs every index no helper has claimed, and waits only
// for indices a running helper is already executing, so a fork completes
// even from a pool worker while every other worker is busy.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cny::exec {

/// Hardware concurrency, never less than 1.
[[nodiscard]] unsigned hardware_threads();

class ThreadPool {
 public:
  /// `n_threads` workers; 0 means hardware_threads().
  explicit ThreadPool(unsigned n_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues `task` for execution on some worker, FIFO order.
  void post(std::function<void()> task);

  /// True iff the calling thread is a worker of *any* ThreadPool.
  [[nodiscard]] static bool on_worker_thread();

  /// Process-wide pool sized to hardware_threads(), created on first use.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// A work-assisting fork: the calling thread plus up to `n_threads` - 1
/// helper tasks posted once, at construction, to `pool` (null = shared()).
/// Each `run` (or `run_last`) is one step — indices are claimed from an
/// atomic counter by whichever thread gets there first, the caller
/// included — and between steps the helpers spin briefly, then sleep on an
/// atomic wait, so a caller can run many short steps for the price of one
/// fork.
///
/// Work-assisting: `run` returns once every index has finished, running
/// itself every index no helper has claimed; it never waits on a helper
/// that has not started. Helpers that start after the fork is gone find it
/// retired and return without touching the caller's state, so nesting a
/// fork inside a pool task cannot deadlock. One caller thread only.
class Fork {
 public:
  /// `n_threads` counts the caller; 0 means hardware_threads(). Helpers
  /// are capped at the pool size.
  explicit Fork(unsigned n_threads, ThreadPool* pool = nullptr);
  /// Retires the helpers; never waits for them.
  ~Fork();
  Fork(const Fork&) = delete;
  Fork& operator=(const Fork&) = delete;

  /// Runs body(0) .. body(n-1) and returns when all have finished. Every
  /// write a body makes happens-before `run` returns and before any body
  /// of a later step starts. The first exception thrown by any body is
  /// rethrown after the step completes.
  void run(std::size_t n, const std::function<void(std::size_t)>& body);

  /// `run` for a fork's final step: the helpers are retired as the step is
  /// published, so each returns to the pool as soon as it finds nothing
  /// left to claim instead of sleeping until the fork is destroyed. No
  /// step may follow.
  void run_last(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  struct State;
  void step(std::size_t n, const std::function<void(std::size_t)>& body,
            bool last);
  std::shared_ptr<State> state_;
};

/// Runs body(0) .. body(n-1) on up to `n_threads` threads (0 = hardware
/// concurrency): a `Fork` with one `run_last` step. Runs inline when
/// parallelism cannot help or when already on a pool worker, whose pool is
/// busy with the outer fork. The first exception thrown by any body is
/// rethrown after completion. `body` must make any cross-index writes to
/// disjoint slots.
void parallel_for(std::size_t n, unsigned n_threads,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr);

}  // namespace cny::exec
