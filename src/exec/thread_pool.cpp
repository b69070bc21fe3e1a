#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

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

/// Polls parallel_for's caller makes for a helper's last index before it
/// sleeps.
constexpr int kCallerSpins = 4096;

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

namespace {

/// One parallel_for call's shared state. Helpers hold it by shared_ptr, so
/// one that starts after the call has returned finds every index claimed
/// and leaves without touching `body`.
struct ForkState {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};      ///< first unclaimed index
  std::atomic<std::size_t> finished{0};  ///< indices completed
  std::mutex error_mutex;
  std::exception_ptr error;

  std::size_t claim() { return next.fetch_add(1, std::memory_order_relaxed); }

  /// Runs index `i` (already claimed), then claims until none is left.
  void help(std::size_t i) {
    for (; i < n; i = claim()) {
      try {
        (*body)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      // The index that completes the call wakes a caller asleep on
      // `finished`.
      if (finished.fetch_add(1, std::memory_order_release) + 1 == n) {
        finished.notify_one();
      }
    }
  }
};

}  // namespace

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
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  const auto state = std::make_shared<ForkState>();
  state->n = n;
  state->body = &body;
  const std::size_t helpers =
      std::min<std::size_t>({threads - 1u, n - 1, p.size()});
  // The caller claims its first index before any helper exists, so it
  // always takes part however fast the helpers wake.
  const std::size_t first = state->claim();
  for (std::size_t t = 0; t < helpers; ++t) {
    p.post([state] { state->help(state->claim()); });
  }
  state->help(first);
  // Whatever is left is running on a started helper: poll briefly, then
  // sleep until the helper that finishes the last index wakes us.
  std::size_t done = state->finished.load(std::memory_order_acquire);
  for (int spin = 0; done < n && spin < kCallerSpins; ++spin) {
    cpu_relax();
    done = state->finished.load(std::memory_order_acquire);
  }
  while (done < n) {
    state->finished.wait(done, std::memory_order_acquire);
    done = state->finished.load(std::memory_order_acquire);
  }
  if (state->error) std::rethrow_exception(state->error);
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
