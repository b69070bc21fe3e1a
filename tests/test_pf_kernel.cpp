// Exactness pins for the truncated-PGF kernel (cnt/pf_kernel.h): the
// truncated evaluator must agree with the full-PMF reference path to
// ≤ 1e-12 relative everywhere the library evaluates p_F, while certifying
// its own truncation remainder.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cnt/count_distribution.h"
#include "cnt/pf_kernel.h"
#include "cnt/pf_kernel_internal.h"
#include "cnt/process.h"
#include "exec/thread_pool.h"
#include "kernels/dispatch.h"
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

/// The term loop over `grid` with every node update on the scalar
/// reference.
cny::cnt::PfKernelResult scalar_terms(const cny::cnt::detail::PfGrid& grid,
                                      double z, double rel_tol) {
  return cny::cnt::detail::pf_terms(grid, z, rel_tol,
                                    &cny::cnt::detail::pf_nodes_scalar);
}

/// The term loop over `grid` on the dispatched node pass.
cny::cnt::PfKernelResult dispatched_terms(const cny::cnt::detail::PfGrid& grid,
                                          double z, double rel_tol,
                                          cny::exec::Fork* fork = nullptr) {
  return cny::cnt::detail::pf_terms(
      grid, z, rel_tol, cny::cnt::detail::pf_node_pass(grid), fork);
}

/// The scalar reference for one width: pf_truncated's short-circuits,
/// then the term loop with every node update on pf_nodes_scalar.
cny::cnt::PfKernelResult reference(const PitchModel& pitch, double width,
                                   double z, double rel_tol) {
  if (width == 0.0 || z == 1.0) return {1.0, 0, 0.0};
  return scalar_terms(cny::cnt::detail::pf_setup(pitch, width), z, rel_tol);
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
      const auto serial = reference(pitch, c.width, z, 1e-14);
      for (const unsigned budget : {1u, 2u, 3u, 4u, 8u}) {
        const std::uint64_t posted = tasks_posted();
        const auto sharded = pf_truncated(pitch, c.width, z, 1e-14, budget);
        expect_bit_identical(sharded, serial,
                             "cv=" + std::to_string(c.cv) +
                                 " w=" + std::to_string(c.width) +
                                 " z=" + std::to_string(z) +
                                 " budget=" + std::to_string(budget));
        if (budget > 1 && cny::exec::ThreadPool::shared().size() > 1) {
          EXPECT_GT(tasks_posted(), posted) << "budget " << budget
                                            << " never forked";
        }
      }
    }
  }
}

/// The first `nodes` nodes of a real grid: node counts no width produces
/// (every real grid is whole 32-node panels).
cny::cnt::detail::PfGrid truncated_grid(const PitchModel& pitch, double width,
                                        std::size_t nodes) {
  auto grid = cny::cnt::detail::pf_setup(pitch, width);
  EXPECT_GT(grid.xs.size(), nodes);
  grid.xs.resize(nodes);
  grid.fw.resize(nodes);
  grid.tau0.resize(nodes);
  if (!grid.xk.empty()) grid.xk.resize(nodes);
  return grid;
}

TEST(PfKernelSharded, GridsWithFewerShardsThanThreadsStayBitIdentical) {
  // Truncated copies of a real grid: 100 nodes is under one shard, 300
  // nodes is three shards against budgets up to 8. The dispatched kernel,
  // forked or not, against the unforked scalar reference.
  const PitchModel pitch(4.0, 0.9);
  const double z = 0.531;
  for (const std::size_t nodes : {std::size_t{100}, std::size_t{300}}) {
    const auto grid = truncated_grid(pitch, 155.0, nodes);
    const auto serial = scalar_terms(grid, z, 1e-14);
    ASSERT_GT(serial.terms, 0);
    expect_bit_identical(dispatched_terms(grid, z, 1e-14), serial,
                         "nodes=" + std::to_string(nodes) + " unforked");
    for (const unsigned budget : {2u, 3u, 4u, 8u}) {
      cny::exec::Fork fork(budget);
      expect_bit_identical(
          dispatched_terms(grid, z, 1e-14, &fork), serial,
          "nodes=" + std::to_string(nodes) +
              " budget=" + std::to_string(budget));
    }
  }
}

// ------------------------------------------- AVX2 node lanes

/// True when the four adjacent nodes of some AVX2 register straddle a
/// term's series/CF split x = n·k + 1 in the first `terms` terms.
bool some_block_straddles_the_split(const cny::cnt::detail::PfGrid& grid,
                                    long terms) {
  for (std::size_t j = 0; j + 4 <= grid.xs.size(); j += 4) {
    const auto [lo, hi] =
        std::minmax({grid.xs[j], grid.xs[j + 1], grid.xs[j + 2],
                     grid.xs[j + 3]});
    for (long n = 1; n <= terms; ++n) {
      const double split = static_cast<double>(n) * grid.k + 1.0;
      if (lo < split && split <= hi) return true;
    }
  }
  return false;
}

/// Runs `pass` on copies of one term's node state over [begin, end).
struct NodeRun {
  std::vector<double> tau, q_prev, d;
};
NodeRun run_pass(cny::cnt::detail::PfNodePass pass,
                 const cny::cnt::detail::PfGrid& grid,
                 const std::vector<double>& q_prev,
                 const cny::cnt::detail::PfTermStep& step, std::size_t begin,
                 std::size_t end) {
  NodeRun r{grid.tau0, q_prev, std::vector<double>(grid.xs.size(), -1.0)};
  const cny::cnt::detail::PfNodes nodes{grid.xs.data(), grid.xk.data(),
                                        r.tau.data(), r.q_prev.data(),
                                        r.d.data()};
  pass(nodes, step, begin, end);
  return r;
}

TEST(PfNodeLanes, BlockPassMatchesScalarNodeUpdate) {
  // One term's node update in isolation, on states the term loop never
  // produces: every third node's Q((n-1)k, x) is set to 1, so its diff is
  // ≤ 0 and only the diff > 0 mask keeps it out of the sum. The term sits
  // mid-grid, so blocks straddle the series/CF split; the ranges end in
  // whole blocks and in part blocks of 1–7 nodes. τ, Q and the increment
  // are compared bit for bit.
  if (!cny::kernels::simd_supported()) {
    GTEST_SKIP() << "no AVX2 node pass (backend="
                 << cny::kernels::backend_name() << ")";
  }
  for (const double cv : {0.6, 0.7071067811865476, 0.9, 1.0, 1.2}) {
    const auto grid = cny::cnt::detail::pf_setup(PitchModel(4.0, cv), 101.0);
    const auto pass = cny::cnt::detail::pf_node_pass(grid);
    ASSERT_NE(pass, &cny::cnt::detail::pf_nodes_scalar);
    std::vector<double> xs = grid.xs;
    std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
    const long n = std::max(2L, std::lround((xs[xs.size() / 2] - 1.0) / grid.k));
    cny::cnt::detail::PfTermStep step;
    step.ladder_steps = grid.ladder ? grid.k_int : 0;
    step.prefactored = true;
    step.shape = static_cast<double>((n - 1) * grid.k_int);
    step.a_hi = static_cast<double>(n) * grid.k;
    step.rho = std::exp(cny::numeric::log_gamma(step.a_hi - grid.k + 1.0) -
                        cny::numeric::log_gamma(step.a_hi + 1.0));
    std::vector<double> inv(grid.inv_len);
    for (std::size_t i = 1; i < inv.size(); ++i) {
      inv[i] = 1.0 / (step.a_hi + static_cast<double>(i));
    }
    step.inv = inv.data();
    step.inv_len = inv.size();
    std::vector<double> q_prev(grid.xs.size(), 0.0);
    for (std::size_t j = 0; j < q_prev.size(); j += 3) q_prev[j] = 1.0;
    for (const double eps : {1e-15, 1e-9, 1e-6}) {
      step.eps = eps;
      for (const std::size_t cut : {0, 1, 3, 4, 7}) {
        const std::size_t end = grid.xs.size() - cut;
        const auto want = run_pass(&cny::cnt::detail::pf_nodes_scalar, grid,
                                   q_prev, step, 0, end);
        const auto got = run_pass(pass, grid, q_prev, step, 0, end);
        for (std::size_t j = 0; j < grid.xs.size(); ++j) {
          const std::string where = "cv=" + std::to_string(cv) +
                                    " eps=" + std::to_string(eps) +
                                    " end=" + std::to_string(end) +
                                    " node=" + std::to_string(j);
          ASSERT_TRUE(same_bits(got.tau[j], want.tau[j])) << where;
          ASSERT_TRUE(same_bits(got.q_prev[j], want.q_prev[j])) << where;
          ASSERT_TRUE(same_bits(got.d[j], want.d[j])) << where;
        }
      }
    }
  }
}

TEST(PfNodeLanes, BitIdenticalToScalarReference) {
  // The dispatched kernel — the AVX2 block pass over adjacent nodes
  // wherever the grid is prefactored — against the scalar reference node
  // update, all three result fields bit for bit. CV 1/√2 and 1.0 are the
  // ladder shapes (k = 2, 1); 0.6/0.9/1.2 the series/CF split. The widths
  // are sub-pitch (1.5, 3.9 nm), solver-sized (37, 101 nm) and the
  // W/θ ≥ 650 gamma_q fallback (2,200 nm at CV 0.9, scalar on both sides).
  if (!cny::kernels::simd_supported()) {
    GTEST_SKIP() << "no AVX2 node pass: the dispatched kernel is the "
                    "reference (backend="
                 << cny::kernels::backend_name() << ")";
  }
  const auto label = [](double cv, double w, double z, double tol,
                        unsigned threads) {
    return "cv=" + std::to_string(cv) + " w=" + std::to_string(w) +
           " z=" + std::to_string(z) + " tol=" + std::to_string(tol) +
           " threads=" + std::to_string(threads);
  };
  for (const double cv : {0.6, 0.7071067811865476, 0.9, 1.0, 1.2}) {
    const PitchModel pitch(4.0, cv);
    for (const double w : {1.5, 3.9, 37.0, 101.0}) {
      for (const double z : {0.0, 0.2, 0.531, 0.9, 1.0}) {
        for (const double tol : {1e-4, 1e-14, 1e-15}) {
          const auto want = reference(pitch, w, z, tol);
          for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            expect_bit_identical(pf_truncated(pitch, w, z, tol, threads), want,
                                 label(cv, w, z, tol, threads));
          }
        }
      }
    }
    // Node counts that are not a multiple of 4: the part block alone
    // (3 nodes), after whole shards (130 = 128 + 2, 301 = 2·128 + 45).
    for (const std::size_t nodes :
         {std::size_t{3}, std::size_t{130}, std::size_t{301}}) {
      const auto grid = truncated_grid(pitch, 101.0, nodes);
      for (const double z : {0.2, 0.531, 0.9}) {
        const auto want = scalar_terms(grid, z, 1e-14);
        const std::string where =
            "cv=" + std::to_string(cv) + " nodes=" + std::to_string(nodes) +
            " z=" + std::to_string(z);
        expect_bit_identical(dispatched_terms(grid, z, 1e-14), want,
                             where);
        for (const unsigned threads : {2u, 4u, 8u}) {
          cny::exec::Fork fork(threads);
          expect_bit_identical(
              dispatched_terms(grid, z, 1e-14, &fork), want,
              where + " threads=" + std::to_string(threads));
        }
      }
    }
  }
  // Blocks that straddle the split run the series and the CF in one
  // register and blend; make sure the widths above produce them.
  {
    const PitchModel pitch(4.0, 0.9);
    const auto grid = cny::cnt::detail::pf_setup(pitch, 101.0);
    const auto r = reference(pitch, 101.0, 0.531, 1e-14);
    EXPECT_TRUE(some_block_straddles_the_split(grid, r.terms));
  }
  const PitchModel pitch(4.0, 0.9);
  ASSERT_FALSE(cny::cnt::detail::pf_setup(pitch, 2200.0).prefactored);
  const auto want = reference(pitch, 2200.0, 0.531, 1e-14);
  for (const unsigned threads : {1u, 4u}) {
    expect_bit_identical(pf_truncated(pitch, 2200.0, 0.531, 1e-14, threads),
                         want, label(0.9, 2200.0, 0.531, 1e-14, threads));
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
  const auto serial = reference(pitch, 130.0, 0.531, 1e-14);

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
