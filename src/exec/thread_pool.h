// Execution subsystem: a small reusable thread pool.
//
// The pool is deliberately minimal — a fixed set of workers draining one
// FIFO queue — because every parallel construct in this library is built on
// `parallel_mc_reduce` (parallel_mc.h), which owns determinism: the pool
// only ever decides *when* work runs, never *what* is computed.
//
// Re-entrancy rule: code must never block on a task that has not started
// (the classic nested-fork deadlock). `parallel_for` honours it by
// construction: the calling thread runs every index no helper has claimed,
// and waits only for indices a running helper is already executing, so it
// completes even while every worker of its pool is busy.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
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

/// Runs body(0) .. body(n-1) on up to `n_threads` threads (0 = hardware
/// concurrency): the caller plus up to `n_threads` - 1 helper tasks posted
/// to `pool` (null = shared()), capped at the pool size. Indices are
/// claimed from an atomic counter by whichever thread gets there first, the
/// caller included; a helper that finds nothing left returns to the pool at
/// once, and one that starts after the call has returned touches nothing.
/// Every write a body makes happens-before the return. Runs inline when
/// parallelism cannot help or when already on a pool worker, whose pool is
/// busy with the outer fork. The first exception thrown by any body is
/// rethrown after every index has finished. `body` must make any
/// cross-index writes to disjoint slots.
void parallel_for(std::size_t n, unsigned n_threads,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr);

}  // namespace cny::exec
