// Tests for the execution subsystem: the thread pool, the deterministic
// parallel MC reduction, the ported MC kernels, the thread-safe p_F cache,
// and concurrent flows sharing one model.
//
// The determinism contract under test (see exec/parallel_mc.h):
//   * results depend on the RNG stream count, never on the thread count;
//   * one stream reproduces the legacy serial loop bit-for-bit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "celllib/generator.h"
#include "device/failure_model.h"
#include "exec/parallel_mc.h"
#include "exec/thread_pool.h"
#include "netlist/design_generator.h"
#include "stats/bootstrap.h"
#include "yield/empty_window.h"
#include "yield/flow.h"
#include "yield/monte_carlo.h"
#include "yield/wmin_solver.h"

namespace {

using namespace cny;

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsEveryPostedTask) {
  exec::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.post([&] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  exec::parallel_for(hits.size(), 8,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  EXPECT_THROW(
      exec::parallel_for(64, 4,
                         [](std::size_t i) {
                           if (i == 13) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

TEST(Fork, EveryStepRunsEachIndexOnceAndSeesThePreviousStep) {
  // Many short steps on one fork, the term-loop pattern: step s reads what
  // step s-1 wrote to other indices' slots, so a missing happens-before
  // edge between steps shows up as a wrong sum (and under TSan as a race).
  constexpr std::size_t kSlots = 37;
  std::vector<long> prev(kSlots, 0);
  std::vector<long> cur(kSlots, 0);
  exec::Fork fork(4);
  for (long step = 1; step <= 200; ++step) {
    std::vector<std::atomic<int>> hits(kSlots);
    fork.run(kSlots, [&](std::size_t i) {
      hits[i].fetch_add(1);
      cur[i] = prev[(i + 1) % kSlots] + 1;
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
    std::swap(prev, cur);
  }
  for (const long v : prev) EXPECT_EQ(v, 200);
}

TEST(Fork, PropagatesTheFirstExceptionAndStaysUsable) {
  exec::Fork fork(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(fork.run(16,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 5) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // the step still completes every index
  std::atomic<int> after{0};
  fork.run(8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(Fork, CallerFinishesAloneWhenNoHelperStartsAndLateHelpersAreHarmless) {
  // A one-worker pool whose worker is parked: the fork's helpers cannot
  // start, so the caller must run every index itself and never wait on
  // them. They start only after the fork is gone, and must find it retired.
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  exec::ThreadPool pool(1);  // joined before the flags above go away
  pool.post([&] {
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();
  std::size_t total = 0;
  {
    exec::Fork fork(4, &pool);
    for (int step = 0; step < 10; ++step) {
      fork.run(5, [&](std::size_t i) { total += i; });
    }
  }
  EXPECT_EQ(total, 100u);
  release.store(true);  // the late helper runs now; ~ThreadPool drains it
}

TEST(Fork, ParallelForHelpersReturnToThePoolOnceNothingIsLeftToClaim) {
  // parallel_for is a fork's last step: a helper that runs out of indices
  // must go back to the pool while the caller is still busy, not sleep
  // until the fork is destroyed. The pool has one worker; its helper
  // claims an index and posts a probe there, and the caller's index waits
  // for the probe to run. A helper held by the fork keeps the probe queued
  // until the caller gives up.
  exec::ThreadPool pool(1);
  std::atomic<bool> probe_ran{false};
  std::atomic<bool> probe_posted{false};
  bool ran_in_time = false;
  exec::parallel_for(
      2, 2,
      [&](std::size_t) {
        if (exec::ThreadPool::on_worker_thread()) {
          if (!probe_posted.exchange(true)) {
            pool.post([&] { probe_ran.store(true); });
          }
          return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (!probe_ran.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        ran_in_time = ran_in_time || probe_ran.load();
      },
      &pool);
  EXPECT_TRUE(ran_in_time);
  while (!probe_ran.load()) std::this_thread::yield();  // before ~pool
}

TEST(ThreadPool, WorkerThreadDetection) {
  EXPECT_FALSE(exec::ThreadPool::on_worker_thread());
  exec::ThreadPool pool(1);
  std::atomic<bool> seen{false};
  std::atomic<bool> done{false};
  pool.post([&] {
    seen = exec::ThreadPool::on_worker_thread();
    done = true;
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(seen.load());
}

// -------------------------------------------------- parallel_mc_reduce

TEST(ParallelMcReduce, ShardCountsPartitionExactly) {
  const auto counts = exec::shard_counts(103, 8);
  ASSERT_EQ(counts.size(), 8u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    EXPECT_GE(counts[i], 12u);
    EXPECT_LE(counts[i], 13u);
  }
  EXPECT_EQ(total, 103u);
}

double mc_sum(unsigned n_threads, unsigned n_streams, std::uint64_t seed) {
  const rng::Xoshiro256 base(seed);
  return exec::parallel_mc_reduce<double>(
      10000, n_threads, exec::make_streams(base, n_streams),
      [](unsigned, std::uint64_t n, rng::Xoshiro256& rng) {
        double s = 0.0;
        for (std::uint64_t i = 0; i < n; ++i) s += rng.uniform();
        return s;
      },
      [](double& into, double&& part) { into += part; });
}

TEST(ParallelMcReduce, BitIdenticalAcrossThreadCounts) {
  const double t1 = mc_sum(1, 8, 42);
  const double t2 = mc_sum(2, 8, 42);
  const double t8 = mc_sum(8, 8, 42);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(ParallelMcReduce, StreamCountChangesTheSequence) {
  // Different stream counts are different (equally valid) estimators.
  EXPECT_NE(mc_sum(1, 4, 42), mc_sum(1, 8, 42));
}

TEST(ParallelMcReduce, SingleStreamIsTheLegacySerialLoop) {
  rng::Xoshiro256 serial(42);
  double expect = 0.0;
  for (int i = 0; i < 10000; ++i) expect += serial.uniform();
  EXPECT_EQ(mc_sum(8, 1, 42), expect);
}

// ----------------------------------------------------- ported MC kernels

TEST(UnionConditionalMcParallel, ThreadCountInvariant) {
  const double lambda = 0.117, w = 145.0;
  const std::vector<geom::Interval> windows = {
      {0.0, w}, {20.0, 20.0 + w}, {47.0, 47.0 + w}, {95.0, 95.0 + w}};
  std::vector<yield::UnionMcResult> results;
  for (unsigned threads : {1u, 2u, 8u}) {
    rng::Xoshiro256 rng(7);
    results.push_back(yield::union_conditional_mc(
        lambda, windows, 4000, rng, exec::McPolicy{threads, 8}));
  }
  EXPECT_EQ(results[0].estimate, results[1].estimate);
  EXPECT_EQ(results[0].estimate, results[2].estimate);
  EXPECT_EQ(results[0].std_error, results[2].std_error);
}

TEST(UnionConditionalMcParallel, OneStreamMatchesLegacySerial) {
  const double lambda = 0.117, w = 145.0;
  const std::vector<geom::Interval> windows = {
      {0.0, w}, {20.0, 20.0 + w}, {60.0, 60.0 + w}};
  rng::Xoshiro256 legacy(11), sharded(11);
  const auto a = yield::union_conditional_mc(lambda, windows, 3000, legacy);
  const auto b = yield::union_conditional_mc(lambda, windows, 3000, sharded,
                                             exec::McPolicy{8, 1});
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.std_error, b.std_error);
  // Both paths must leave the caller's engine in the same state.
  EXPECT_EQ(legacy(), sharded());
}

TEST(UnionConditionalMcParallel, ShardedStaysUnbiased) {
  const double lambda = 0.117, w = 145.0;
  const std::vector<geom::Interval> windows = {
      {0.0, w}, {15.0, 15.0 + w}, {33.0, 33.0 + w}, {78.0, 78.0 + w}};
  const double exact = yield::poisson_union_exact(lambda, windows);
  rng::Xoshiro256 rng(13);
  const auto mc = yield::union_conditional_mc(lambda, windows, 40000, rng,
                                              exec::McPolicy{0, 16});
  EXPECT_NEAR(mc.estimate / exact, 1.0, 0.05);
}

TEST(ChipMcParallel, ThreadCountInvariantTallies) {
  const cnt::DirectionalGrowth growth(cnt::PitchModel(4.0, 1.0),
                                      cnt::fig21_worst(), 200.0e3);
  yield::ChipSpec spec;
  spec.row_windows = std::vector<geom::Interval>(6, geom::Interval{0.0, 30.0});
  spec.n_rows = 3;
  std::vector<yield::ChipMcResult> results;
  for (unsigned threads : {1u, 2u, 8u}) {
    rng::Xoshiro256 rng(19);
    results.push_back(yield::simulate_chip_yield(
        growth, spec, yield::GrowthStyle::Directional, 2000, rng,
        exec::McPolicy{threads, 8}));
  }
  EXPECT_EQ(results[0].chip_yield, results[1].chip_yield);
  EXPECT_EQ(results[0].chip_yield, results[2].chip_yield);
  EXPECT_EQ(results[0].p_rf, results[2].p_rf);
  EXPECT_EQ(results[0].rows_simulated, results[2].rows_simulated);
}

TEST(ChipMcParallel, OneStreamMatchesLegacySerial) {
  const cnt::DirectionalGrowth growth(cnt::PitchModel(4.0, 1.0),
                                      cnt::fig21_worst(), 200.0e3);
  yield::ChipSpec spec;
  spec.row_windows = {{0.0, 30.0}, {10.0, 40.0}};
  spec.n_rows = 2;
  for (auto style :
       {yield::GrowthStyle::Directional, yield::GrowthStyle::Uncorrelated}) {
    rng::Xoshiro256 legacy(23), sharded(23);
    const auto a = yield::simulate_chip_yield(growth, spec, style, 500, legacy);
    const auto b = yield::simulate_chip_yield(growth, spec, style, 500, sharded,
                                              exec::McPolicy{4, 1});
    EXPECT_EQ(a.chip_yield, b.chip_yield);
    EXPECT_EQ(a.p_rf, b.p_rf);
    EXPECT_EQ(legacy(), sharded());
  }
}

TEST(BootstrapParallel, ThreadCountInvariant) {
  std::vector<double> data;
  rng::Xoshiro256 gen(5);
  for (int i = 0; i < 200; ++i) data.push_back(gen.uniform());
  const auto stat = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x * x;
    return s / static_cast<double>(v.size());
  };
  std::vector<stats::Interval> cis;
  for (unsigned threads : {1u, 2u, 8u}) {
    rng::Xoshiro256 rng(29);
    cis.push_back(stats::bootstrap_ci(data, stat, rng, 1000, 0.95,
                                      exec::McPolicy{threads, 8}));
  }
  EXPECT_EQ(cis[0].lo, cis[1].lo);
  EXPECT_EQ(cis[0].lo, cis[2].lo);
  EXPECT_EQ(cis[0].hi, cis[2].hi);
}

TEST(BootstrapParallel, OneStreamMatchesLegacySerial) {
  std::vector<double> data;
  rng::Xoshiro256 gen(5);
  for (int i = 0; i < 100; ++i) data.push_back(gen.uniform());
  rng::Xoshiro256 legacy(31), sharded(31);
  const auto a = stats::bootstrap_mean_ci(data, legacy, 500);
  const auto b = stats::bootstrap_mean_ci(data, sharded, 500, 0.95,
                                          exec::McPolicy{8, 1});
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(legacy(), sharded());
}

// ------------------------------------------------- p_F cache thread-safety

TEST(FailureModelThreadSafety, ConcurrentQueriesMatchSerialModel) {
  const device::FailureModel hot(cnt::PitchModel(4.0, 0.9),
                                 cnt::fig21_worst());
  const device::FailureModel reference(cnt::PitchModel(4.0, 0.9),
                                       cnt::fig21_worst());
  // Hammer overlapping widths from 8 threads (cache insert races), then
  // compare every value against an untouched serial model.
  std::vector<double> widths;
  for (int i = 0; i < 40; ++i) widths.push_back(20.0 + 3.0 * i);
  exec::parallel_for(widths.size() * 8, 8, [&](std::size_t i) {
    (void)hot.p_f(widths[i % widths.size()]);
  });
  for (double w : widths) {
    EXPECT_EQ(hot.p_f(w), reference.p_f(w)) << "W = " << w;
  }
}

TEST(FailureModelThreadSafety, InterpolantRacesStayConsistent) {
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                   cnt::fig21_worst());
  // Builders and readers race; readers must always see either the exact
  // value or the interpolated one — both within tolerance of exact.
  exec::parallel_for(64, 8, [&](std::size_t i) {
    if (i % 8 == 0) {
      model.enable_interpolation(4.0, 400.0, 33);
    } else {
      const double w = 30.0 + static_cast<double>(i);
      const double exact = model.p_f_exact(w);
      const double seen = model.p_f(w);
      EXPECT_NEAR(std::log(seen) / std::log(exact), 1.0, 1e-3);
    }
  });
  EXPECT_TRUE(model.interpolation_covers(100.0));
  EXPECT_FALSE(model.interpolation_covers(1000.0));
}

TEST(FailureModel, InterpolantAccuracy) {
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                   cnt::fig21_worst());
  const device::FailureModel exact_model(cnt::PitchModel(4.0, 0.9),
                                         cnt::fig21_worst());
  model.enable_interpolation(4.0, 400.0);
  for (double w = 10.0; w <= 390.0; w += 7.3) {
    const double approx = model.p_f(w);
    const double exact = exact_model.p_f(w);
    // Relative accuracy in log-domain: what the W_min inversion consumes.
    EXPECT_NEAR(std::log(approx) / std::log(exact), 1.0, 2e-4)
        << "W = " << w;
  }
}

// ------------------------------------------------------- flow determinism

const celllib::Library& flow_library() {
  static const celllib::Library lib = celllib::make_nangate45_like();
  return lib;
}

yield::FlowResult tiny_flow(unsigned n_threads) {
  const auto design = netlist::make_openrisc_like(flow_library());
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                   cnt::fig21_worst());
  yield::FlowParams params;
  params.mc_samples = 500;  // determinism needs no MC accuracy
  params.n_threads = n_threads;
  return yield::run_flow(flow_library(), design, model, params);
}

TEST(FlowParallel, ThreadCountInvariantEndToEnd) {
  const auto t1 = tiny_flow(1);
  const auto t2 = tiny_flow(2);
  const auto t8 = tiny_flow(8);
  ASSERT_EQ(t1.strategies.size(), 4u);
  for (std::size_t i = 0; i < t1.strategies.size(); ++i) {
    EXPECT_EQ(t1.strategies[i].w_min, t2.strategies[i].w_min);
    EXPECT_EQ(t1.strategies[i].w_min, t8.strategies[i].w_min);
    EXPECT_EQ(t1.strategies[i].relaxation, t8.strategies[i].relaxation);
    EXPECT_EQ(t1.strategies[i].power_penalty, t8.strategies[i].power_penalty);
  }
}

// Concurrent flows on one shared exact model (its memo fills under them)
// answer exactly what each flow answers alone on a fresh model.
TEST(FlowBatch, MatchesIndividualRunsExactlyWithoutInterpolant) {
  const auto design = netlist::make_openrisc_like(flow_library());
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                   cnt::fig21_worst());
  std::vector<yield::FlowParams> params(2);
  params[0].mc_samples = 500;
  params[0].yield_desired = 0.85;
  params[1].mc_samples = 500;
  params[1].yield_desired = 0.95;

  std::vector<yield::FlowResult> results(params.size());
  exec::parallel_for(params.size(), 2, [&](std::size_t j) {
    results[j] = yield::run_flow(flow_library(), design, model, params[j]);
  });
  for (std::size_t j = 0; j < params.size(); ++j) {
    const device::FailureModel fresh(cnt::PitchModel(4.0, 0.9),
                                     cnt::fig21_worst());
    const auto solo =
        yield::run_flow(flow_library(), design, fresh, params[j]);
    for (std::size_t i = 0; i < solo.strategies.size(); ++i) {
      EXPECT_EQ(results[j].strategies[i].w_min, solo.strategies[i].w_min);
      EXPECT_EQ(results[j].strategies[i].relaxation,
                solo.strategies[i].relaxation);
    }
  }
}

// Concurrent flows reading one warm bracket table (the way a service
// session shares it) agree with each other exactly, and with the exact
// path to interpolation accuracy.
TEST(FlowBatch, SharedInterpolantStaysWithinTolerance) {
  const auto design = netlist::make_openrisc_like(flow_library());
  const device::FailureModel warm(cnt::PitchModel(4.0, 0.9),
                                  cnt::fig21_worst());
  const yield::WminRequest bracket;
  warm.enable_interpolation(bracket.w_lo, bracket.w_hi);
  yield::FlowParams params;
  params.mc_samples = 500;

  std::vector<yield::FlowResult> shared(2);
  exec::parallel_for(shared.size(), 2, [&](std::size_t j) {
    shared[j] = yield::run_flow(flow_library(), design, warm, params);
  });
  const device::FailureModel clean(cnt::PitchModel(4.0, 0.9),
                                   cnt::fig21_worst());
  const auto solo = yield::run_flow(flow_library(), design, clean, params);
  for (std::size_t i = 0; i < solo.strategies.size(); ++i) {
    EXPECT_EQ(shared[0].strategies[i].w_min, shared[1].strategies[i].w_min);
    EXPECT_NEAR(shared[0].strategies[i].w_min / solo.strategies[i].w_min,
                1.0, 1e-3);
  }
}

}  // namespace
