#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>

#include "obs/metrics.h"

namespace cny::exec {

namespace {
thread_local bool t_on_worker = false;

/// Process-wide pool metrics (obs::Registry::global(), "exec." prefix):
/// queue depth and busy/live worker gauges answer "is the pool the
/// bottleneck" from a stats frame. References resolved once; every update
/// is a relaxed atomic add next to a mutex the pool already takes.
struct PoolMetrics {
  obs::Gauge& queue_depth;
  obs::Gauge& workers_busy;
  obs::Gauge& workers_live;
  obs::Counter& tasks_posted;
  obs::Counter& tasks_executed;
  obs::Counter& parallel_for_calls;
  obs::Counter& parallel_for_inline;
};

PoolMetrics& metrics() {
  static auto& registry = obs::Registry::global();
  static PoolMetrics m{registry.gauge("exec.queue_depth"),
                       registry.gauge("exec.workers_busy"),
                       registry.gauge("exec.workers_live"),
                       registry.counter("exec.tasks_posted"),
                       registry.counter("exec.tasks_executed"),
                       registry.counter("exec.parallel_for_calls"),
                       registry.counter("exec.parallel_for_inline")};
  return m;
}

/// Spin-wait hint: lets a sibling hyperthread run while we poll.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls a helper makes for the next step before it sleeps: long enough to
/// bridge the serial work a caller does between short steps, short enough
/// that an idle fork never holds a core away from other pool work.
constexpr int kHelperSpins = 4096;

}  // namespace

unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

ThreadPool::ThreadPool(unsigned n_threads) {
  const unsigned n = n_threads == 0 ? hardware_threads() : n_threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  metrics().tasks_posted.add(1);
  metrics().queue_depth.add(1);
  cv_.notify_one();
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;  // sized to hardware_threads(); lives forever
  return pool;
}

/// Indices are numbered across the fork's whole life: step s owns
/// [base, end) and the next step starts at this one's end, so `next` and
/// `finished` never reset. A claim is a CAS of `next` below the `end` the
/// claimant loaded; an index that is still unclaimed belongs to a step
/// that cannot have finished, so a successful claim always lands in the
/// caller's current step, and `base`/`body` are stable until it finishes.
struct Fork::State {
  std::atomic<std::uint64_t> next{0};      ///< first unclaimed index
  std::atomic<std::uint64_t> end{0};       ///< one past the current step
  std::atomic<std::uint64_t> finished{0};  ///< indices completed
  std::atomic<std::uint32_t> epoch{0};     ///< bumped per step and on retire
  std::atomic<bool> retired{false};
  std::uint64_t base = 0;  ///< first index of the current step
  const std::function<void(std::size_t)>* body = nullptr;
  std::mutex error_mutex;
  std::exception_ptr error;

  bool claim(std::uint64_t& index) {
    const std::uint64_t limit = end.load(std::memory_order_acquire);
    std::uint64_t cur = next.load(std::memory_order_relaxed);
    while (cur < limit) {
      if (next.compare_exchange_weak(cur, cur + 1,
                                     std::memory_order_relaxed)) {
        index = cur;
        return true;
      }
    }
    return false;
  }

  void execute(std::uint64_t index) {
    try {
      (*body)(static_cast<std::size_t>(index - base));
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
    // The index that completes a step wakes a caller asleep on `finished`.
    const std::uint64_t done =
        finished.fetch_add(1, std::memory_order_release) + 1;
    if (done == end.load(std::memory_order_relaxed)) finished.notify_one();
  }

  void help() {
    for (;;) {
      const std::uint32_t seen = epoch.load(std::memory_order_acquire);
      std::uint64_t index;
      while (claim(index)) execute(index);
      if (retired.load(std::memory_order_acquire)) {
        // Retired by a last step, whose `end` this claim now sees.
        while (claim(index)) execute(index);
        return;
      }
      for (int spin = 0; epoch.load(std::memory_order_acquire) == seen;
           ++spin) {
        if (spin == kHelperSpins) {
          epoch.wait(seen, std::memory_order_acquire);
          break;
        }
        cpu_relax();
      }
    }
  }

  void publish() {
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
  }
};

Fork::Fork(unsigned n_threads, ThreadPool* pool)
    : state_(std::make_shared<State>()) {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  const unsigned threads = n_threads == 0 ? hardware_threads() : n_threads;
  const unsigned helpers = std::min(threads - 1, p.size());
  for (unsigned t = 0; t < helpers; ++t) {
    p.post([state = state_] { state->help(); });
  }
}

Fork::~Fork() {
  state_->retired.store(true, std::memory_order_release);
  state_->publish();
}

void Fork::run(std::size_t n, const std::function<void(std::size_t)>& body) {
  step(n, body, false);
}

void Fork::run_last(std::size_t n,
                    const std::function<void(std::size_t)>& body) {
  step(n, body, true);
}

void Fork::step(std::size_t n, const std::function<void(std::size_t)>& body,
                bool last) {
  if (n == 0) return;
  State& s = *state_;
  // No index is claimable here (next == end), so no helper reads these.
  s.body = &body;
  s.base = s.end.load(std::memory_order_relaxed);
  const std::uint64_t step_end = s.base + n;
  s.end.store(step_end, std::memory_order_release);
  if (last) s.retired.store(true, std::memory_order_release);
  s.publish();

  std::uint64_t index;
  while (s.claim(index)) s.execute(index);
  // Whatever is left is running on a started helper: poll briefly, then
  // sleep until the helper that finishes the step's last index wakes us.
  std::uint64_t done = s.finished.load(std::memory_order_acquire);
  for (int spin = 0; done < step_end && spin < kHelperSpins; ++spin) {
    cpu_relax();
    done = s.finished.load(std::memory_order_acquire);
  }
  while (done < step_end) {
    s.finished.wait(done, std::memory_order_acquire);
    done = s.finished.load(std::memory_order_acquire);
  }
  if (s.error) {
    std::exception_ptr error = std::move(s.error);
    s.error = nullptr;
    std::rethrow_exception(error);
  }
}

void parallel_for(std::size_t n, unsigned n_threads,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool) {
  if (n == 0) return;
  metrics().parallel_for_calls.add(1);
  const unsigned threads = n_threads == 0 ? hardware_threads() : n_threads;
  if (threads <= 1 || n == 1 || ThreadPool::on_worker_thread()) {
    metrics().parallel_for_inline.add(1);
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  Fork(static_cast<unsigned>(std::min<std::size_t>(threads, n)), pool)
      .run_last(n, body);
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  PoolMetrics& m = metrics();  // global registry is never destroyed
  m.workers_live.add(1);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        m.workers_live.add(-1);
        return;  // stop_ set and nothing left to drain
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    m.queue_depth.add(-1);
    m.workers_busy.add(1);
    task();
    m.workers_busy.add(-1);
    m.tasks_executed.add(1);
  }
}

}  // namespace cny::exec
