// Exactness pins for the truncated-PGF kernel (cnt/pf_kernel.h): the
// truncated evaluator must agree with the full-PMF reference path to
// ≤ 1e-12 relative everywhere the library evaluates p_F, while certifying
// its own truncation remainder.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "cnt/count_distribution.h"
#include "cnt/pf_kernel.h"
#include "cnt/pf_kernel_internal.h"
#include "cnt/process.h"
#include "exec/thread_pool.h"
#include "numeric/special.h"
#include "obs/metrics.h"
#include "rng/engine.h"
#include "util/contracts.h"

namespace {

using cny::cnt::CountDistribution;
using cny::cnt::pf_truncated;
using cny::cnt::PitchModel;

/// |a-b| relative to the reference b, safe at b = 0.
double rel_err(double a, double b) {
  if (b == 0.0) return std::fabs(a);
  return std::fabs(a - b) / std::fabs(b);
}

TEST(PfKernel, MatchesFullPmfAcrossWidthsCvsAndZ) {
  // Integer shapes (cv = 1, 1/√2) exercise the exact ladder; the rest the
  // seeded prefactor path. z spans deep-tail through near-certain failure.
  for (double cv : {0.6, 0.7071067811865476, 0.9, 1.0, 1.2}) {
    for (double w : {8.0, 20.0, 80.0, 155.0, 500.0}) {
      const PitchModel pitch(4.0, cv);
      const CountDistribution full(pitch, w);
      for (double z : {0.0, 0.1, 0.33, 0.531, 0.9, 1.0}) {
        const double reference = full.pgf(z);
        const auto truncated = pf_truncated(pitch, w, z);
        EXPECT_LE(rel_err(truncated.value, reference), 1e-12)
            << "cv=" << cv << " w=" << w << " z=" << z
            << " full=" << reference << " trunc=" << truncated.value;
      }
    }
  }
}

TEST(PfKernel, MatchesFullPmfOnFig21SweepGrid) {
  // The exact width grid of the Fig 2.1 experiment (20..180 nm) under all
  // three processing conditions, paper pitch CV = 0.9.
  const PitchModel pitch(4.0, 0.9);
  for (double w = 20.0; w <= 180.0; w += 16.0) {
    const CountDistribution full(pitch, w);
    for (const auto& proc : {cny::cnt::fig21_worst(), cny::cnt::fig21_mid(),
                             cny::cnt::fig21_ideal()}) {
      const double z = proc.p_fail();
      EXPECT_LE(rel_err(pf_truncated(pitch, w, z).value, full.pgf(z)), 1e-12)
          << "w=" << w << " z=" << z;
    }
  }
}

TEST(PfKernel, PgfAtMatchesNaivePmfSumRandomised) {
  // Property test: against the naive Σ pmf(n)·z^n for randomised pitch
  // parameters, widths and z.
  cny::rng::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const double mean = 2.0 + 6.0 * rng.uniform();
    const double cv = 0.5 + 0.9 * rng.uniform();
    const double w = 10.0 + 190.0 * rng.uniform();
    const double z = 0.95 * rng.uniform();
    const PitchModel pitch(mean, cv);
    const CountDistribution dist(pitch, w);
    double naive = 0.0;
    double zn = 1.0;
    for (long n = 0; n <= dist.max_n(); ++n) {
      naive += dist.pmf(n) * zn;
      zn *= z;
    }
    EXPECT_LE(rel_err(CountDistribution::pgf_at(pitch, w, z), naive), 1e-12)
        << "mean=" << mean << " cv=" << cv << " w=" << w << " z=" << z;
  }
}

TEST(PfKernel, RemainderBoundIsCertifiedAndSmall) {
  const PitchModel pitch(4.0, 0.9);
  for (double w : {40.0, 155.0, 500.0}) {
    const auto res = pf_truncated(pitch, w, 0.531);
    EXPECT_GE(res.remainder_bound, 0.0);
    // The loop only stops once the certified remainder is inside rel_tol
    // (default 1e-14) of the accumulated value.
    EXPECT_LE(res.remainder_bound, 1e-13 * res.value + 1e-300) << "w=" << w;
  }
}

TEST(PfKernel, TruncatesWellShortOfTheFullPmfSupport) {
  // The point of the kernel: at large W only O(p_f·W/μ + log(1/ε)) terms
  // are evaluated, not the full bulk + 12σ sweep.
  const PitchModel pitch(4.0, 0.9);
  const double w = 500.0;
  const CountDistribution full(pitch, w);
  const auto res = pf_truncated(pitch, w, 0.531);
  EXPECT_GT(res.terms, 0);
  EXPECT_LT(res.terms, (full.max_n() * 2) / 3)
      << "terms=" << res.terms << " full support=" << full.max_n();
}

TEST(PfKernel, DegenerateInputs) {
  const PitchModel pitch(4.0, 0.9);
  EXPECT_DOUBLE_EQ(pf_truncated(pitch, 0.0, 0.5).value, 1.0);
  EXPECT_DOUBLE_EQ(pf_truncated(pitch, 120.0, 1.0).value, 1.0);
  const CountDistribution d(pitch, 60.0);
  EXPECT_NEAR(pf_truncated(pitch, 60.0, 0.0).value, d.pmf(0), 1e-15);
  EXPECT_THROW((void)pf_truncated(pitch, -1.0, 0.5), cny::ContractViolation);
  EXPECT_THROW((void)pf_truncated(pitch, 10.0, 1.5), cny::ContractViolation);
  EXPECT_THROW((void)pf_truncated(pitch, 10.0, 0.5, 0.0),
               cny::ContractViolation);
}

TEST(PfKernel, EdgeCasesHonourTheContract) {
  const PitchModel pitch(4.0, 0.9);
  // z endpoints: z = 0 collapses the PGF to P{N(W) = 0} with nothing
  // truncated; z = 1 is the total mass, exactly 1 with a zero remainder.
  for (double w : {2.0, 60.0, 500.0}) {
    const CountDistribution full(pitch, w);
    const auto at0 = pf_truncated(pitch, w, 0.0);
    EXPECT_LE(rel_err(at0.value, full.pmf(0)), 1e-13) << "w=" << w;
    EXPECT_LE(at0.remainder_bound, 1e-14 * at0.value);
    const auto at1 = pf_truncated(pitch, w, 1.0);
    EXPECT_EQ(at1.value, 1.0);
    EXPECT_EQ(at1.remainder_bound, 0.0);
  }
  // Sub-pitch devices (W below one mean pitch): P{N = 0} dominates, the
  // value must stay a probability and match the full-PMF reference.
  for (double w : {0.25, 1.0, 3.9}) {
    const CountDistribution full(pitch, w);
    const auto res = pf_truncated(pitch, w, 0.531);
    EXPECT_GT(res.value, 0.0);
    EXPECT_LE(res.value, 1.0);
    EXPECT_LE(rel_err(res.value, full.pgf(0.531)), 1e-12) << "w=" << w;
  }
  // Extreme tolerances: the certified remainder inequality
  // (remainder_bound <= rel_tol * value) must hold on exit at both a
  // loose 1e-4 and a near-machine 1e-15, and the loose answer must agree
  // with the tight one to within its own certificate.
  for (double w : {2.0, 60.0, 155.0, 500.0}) {
    const auto tight = pf_truncated(pitch, w, 0.531, 1e-15);
    EXPECT_LE(tight.remainder_bound, 1e-15 * tight.value) << "w=" << w;
    const auto loose = pf_truncated(pitch, w, 0.531, 1e-4);
    EXPECT_LE(loose.remainder_bound, 1e-4 * loose.value) << "w=" << w;
    EXPECT_LE(loose.terms, tight.terms);
    EXPECT_LE(rel_err(loose.value, tight.value), 2e-4) << "w=" << w;
  }
}

TEST(PfKernel, GammaQPrefactoredMatchesGammaQ) {
  // The inline prefactored variant must reproduce gamma_q when handed the
  // exact prefactor τ = x^a e^{-x}/Γ(a+1) and the tight tolerance.
  for (double a : {0.8, 1.2345679, 5.0, 40.0, 176.0}) {
    for (double x : {0.3, 4.0, 38.0, 102.0, 154.0}) {
      const double tau =
          std::exp(a * std::log(x) - x - cny::numeric::log_gamma(a + 1.0));
      const double got =
          cny::numeric::gamma_q_prefactored(a, x, tau, 1e-15);
      const double want = cny::numeric::gamma_q(a, x);
      EXPECT_LE(rel_err(got, want), 1e-12) << "a=" << a << " x=" << x;
    }
  }
}

// ------------------------------------------- node-sharded term loop

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The three result fields compared bit for bit.
void expect_bit_identical(const cny::cnt::PfKernelResult& got,
                          const cny::cnt::PfKernelResult& want,
                          const std::string& where) {
  EXPECT_TRUE(same_bits(got.value, want.value))
      << where << " value " << got.value << " vs " << want.value;
  EXPECT_EQ(got.terms, want.terms) << where;
  EXPECT_TRUE(same_bits(got.remainder_bound, want.remainder_bound))
      << where << " remainder " << got.remainder_bound << " vs "
      << want.remainder_bound;
}

std::uint64_t tasks_posted() {
  return cny::obs::Registry::global().counter("exec.tasks_posted").value();
}

TEST(PfKernelSharded, BitIdenticalAtEveryBudgetOnAllThreePaths) {
  // CV 0.9: non-integer shape, prefactored series/CF path. CV 1.0 and 0.5:
  // the integer-shape ladder (k = 1 and k = 4). CV 0.3 at 250 nm:
  // W/θ ≥ 650, the per-node gamma_q fallback.
  struct Case {
    double cv;
    double width;
    bool ladder;
    bool prefactored;
  };
  const Case cases[] = {
      {0.9, 20.0, false, true},  {0.9, 100.0, false, true},
      {0.9, 155.0, false, true}, {0.9, 400.0, false, true},
      {1.0, 60.0, true, true},   {1.0, 155.0, true, true},
      {0.5, 60.0, true, true},   {0.5, 155.0, true, true},
      {0.3, 250.0, false, false},
  };
  for (const Case& c : cases) {
    const PitchModel pitch(4.0, c.cv);
    const auto grid = cny::cnt::detail::pf_setup(pitch, c.width);
    ASSERT_EQ(grid.ladder, c.ladder) << "cv=" << c.cv;
    ASSERT_EQ(grid.prefactored, c.prefactored) << "cv=" << c.cv;
    for (const double z : {0.1, 0.531}) {
      const auto serial = pf_truncated(pitch, c.width, z, 1e-14, 1);
      for (const unsigned budget : {2u, 3u, 4u, 8u}) {
        const std::uint64_t posted = tasks_posted();
        const auto sharded = pf_truncated(pitch, c.width, z, 1e-14, budget);
        expect_bit_identical(sharded, serial,
                             "cv=" + std::to_string(c.cv) +
                                 " w=" + std::to_string(c.width) +
                                 " z=" + std::to_string(z) +
                                 " budget=" + std::to_string(budget));
        if (cny::exec::ThreadPool::shared().size() > 1) {
          EXPECT_GT(tasks_posted(), posted) << "budget " << budget
                                            << " never forked";
        }
      }
    }
  }
}

TEST(PfKernelSharded, GridsWithFewerShardsThanThreadsStayBitIdentical) {
  // Truncated copies of a real grid: 100 nodes is under one shard (no
  // fork at all), 300 nodes is three shards against budgets up to 8.
  const PitchModel pitch(4.0, 0.9);
  const double z = 0.531;
  for (const std::size_t nodes : {std::size_t{100}, std::size_t{300}}) {
    auto grid = cny::cnt::detail::pf_setup(pitch, 155.0);
    ASSERT_GT(grid.xs.size(), nodes);
    grid.xs.resize(nodes);
    grid.fw.resize(nodes);
    grid.tau0.resize(nodes);
    grid.xk.resize(nodes);
    const auto serial = cny::cnt::detail::pf_terms_scalar(grid, z, 1e-14);
    ASSERT_GT(serial.terms, 0);
    for (const unsigned budget : {2u, 3u, 4u, 8u}) {
      cny::exec::Fork fork(budget);
      expect_bit_identical(
          cny::cnt::detail::pf_terms_scalar(grid, z, 1e-14, &fork), serial,
          "nodes=" + std::to_string(nodes) +
              " budget=" + std::to_string(budget));
    }
  }
}

TEST(PfKernelSharded, FinishesInsideAPoolTaskWhileEveryOtherWorkerIsBlocked) {
  // The deadlock regression: the stage-1 solves call the kernel from pool
  // workers. Park every other worker of the shared pool, then run a
  // budget-4 query from the one free worker. Its helpers queue behind the
  // parked workers and never start; the caller must finish every shard
  // itself and never wait on them.
  auto& pool = cny::exec::ThreadPool::shared();
  const PitchModel pitch(4.0, 0.9);
  const auto serial = pf_truncated(pitch, 130.0, 0.531, 1e-14, 1);

  std::atomic<unsigned> parked{0};
  std::atomic<bool> release{false};
  for (unsigned i = 0; i + 1 < pool.size(); ++i) {
    pool.post([&] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      parked.fetch_sub(1);
    });
  }
  while (parked.load() + 1 < pool.size()) std::this_thread::yield();

  std::atomic<bool> done{false};
  cny::cnt::PfKernelResult nested;
  pool.post([&] {
    nested = pf_truncated(pitch, 130.0, 0.531, 1e-14, 4);
    done.store(true);
  });
  // A deadlock shows up as a failure, not a hang: past the deadline the
  // parked workers are released, so the queued helpers can finish it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const bool finished_alone = done.load();
  release.store(true);
  while (!done.load() || parked.load() != 0) std::this_thread::yield();
  EXPECT_TRUE(finished_alone) << "the query waited on helpers that never "
                                 "started";
  expect_bit_identical(nested, serial, "nested w=130");
}

}  // namespace
