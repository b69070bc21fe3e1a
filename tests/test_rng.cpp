#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "numeric/special.h"
#include "rng/distributions.h"
#include "rng/engine.h"
#include "stats/accumulator.h"
#include "util/contracts.h"

namespace {

using namespace cny::rng;

TEST(Engine, DeterministicFromSeed) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  // A different seed diverges immediately with overwhelming probability.
  Xoshiro256 a2(42);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a2() != c());
  EXPECT_TRUE(any_diff);
}

TEST(Engine, JumpProducesDisjointStreams) {
  Xoshiro256 base(7);
  Xoshiro256 s0 = base.make_stream(0);
  Xoshiro256 s1 = base.make_stream(1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(s0());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(seen.count(s1()), 0u) << "streams collided";
  }
}

TEST(Engine, UniformInUnitInterval) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Engine, ScaleUniformNeverReturnsHi) {
  // The largest u, 1 - 2^-53, rounds 300 + 159 u up to 459 exactly; the
  // helper returns the double just below instead.
  const double u_max = 1.0 - 0x1.0p-53;
  ASSERT_EQ(300.0 + (459.0 - 300.0) * u_max, 459.0);
  EXPECT_EQ(scale_uniform(300.0, 459.0, u_max), std::nextafter(459.0, 0.0));
  EXPECT_LT(scale_uniform(-459.0, -300.0, u_max), -300.0);
  // Everywhere else it is lo + (hi - lo) u, bit for bit.
  EXPECT_EQ(scale_uniform(0.0, 1.0, u_max), u_max);
  EXPECT_EQ(scale_uniform(300.0, 459.0, 0.0), 300.0);
  EXPECT_EQ(scale_uniform(300.0, 459.0, 0.5), 379.5);
  EXPECT_EQ(scale_uniform(-1.0, 1.0, 0.25), -0.5);
  EXPECT_EQ(scale_uniform(7.0, 7.0, 0.5), 7.0);
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double y = rng.uniform(1.0e16, 1.0e16 + 4.0);
    EXPECT_GE(y, 1.0e16);
    EXPECT_LT(y, 1.0e16 + 4.0);
  }
}

TEST(Engine, UniformIndexBoundsAndCoverage) {
  Xoshiro256 rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Engine, DeriveSeedIsStable) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 2), derive_seed(1, 3));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 2));
}

// Moment checks: sample mean within ~5 standard errors of the target.
void expect_moments(const std::function<double(Xoshiro256&)>& sampler,
                    double mean, double sd, std::uint64_t seed,
                    int n = 200000) {
  Xoshiro256 rng(seed);
  cny::stats::Accumulator acc;
  for (int i = 0; i < n; ++i) acc.add(sampler(rng));
  EXPECT_NEAR(acc.mean(), mean, 5.0 * sd / std::sqrt(double(n)) + 1e-12);
  EXPECT_NEAR(acc.stddev(), sd, 0.05 * sd + 1e-12);
}

TEST(Distributions, NormalMoments) {
  expect_moments([](Xoshiro256& r) { return sample_normal(r, 3.0, 2.0); }, 3.0,
                 2.0, 11);
}

TEST(Distributions, ExponentialMoments) {
  expect_moments([](Xoshiro256& r) { return sample_exponential(r, 4.0); }, 4.0,
                 4.0, 12);
}

TEST(Distributions, GammaMomentsShapeAboveOne) {
  const double k = 2.5, theta = 1.6;
  expect_moments([&](Xoshiro256& r) { return sample_gamma(r, k, theta); },
                 k * theta, std::sqrt(k) * theta, 13);
}

TEST(Distributions, GammaMomentsShapeBelowOne) {
  const double k = 0.6, theta = 2.0;
  expect_moments([&](Xoshiro256& r) { return sample_gamma(r, k, theta); },
                 k * theta, std::sqrt(k) * theta, 14);
}

TEST(Distributions, LognormalLinearMoments) {
  expect_moments(
      [](Xoshiro256& r) { return sample_lognormal_mean_sd(r, 1.5, 0.3); }, 1.5,
      0.3, 15);
}

TEST(Distributions, LognormalZeroSdIsDeterministic) {
  Xoshiro256 rng(16);
  EXPECT_DOUBLE_EQ(sample_lognormal_mean_sd(rng, 2.0, 0.0), 2.0);
}

TEST(Distributions, BernoulliFrequency) {
  Xoshiro256 rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += sample_bernoulli(rng, 0.3) ? 1 : 0;
  EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Distributions, PoissonSmallLambdaMatchesPmf) {
  Xoshiro256 rng(18);
  const double lambda = 3.0;
  const int n = 200000;
  std::vector<int> counts(30, 0);
  for (int i = 0; i < n; ++i) {
    const long v = sample_poisson(rng, lambda);
    if (v < 30) ++counts[static_cast<std::size_t>(v)];
  }
  for (long k = 0; k <= 10; ++k) {
    const double expected = cny::numeric::poisson_pmf(k, lambda);
    const double observed = double(counts[static_cast<std::size_t>(k)]) / n;
    EXPECT_NEAR(observed, expected, 5.0 * std::sqrt(expected / n) + 1e-4)
        << "k=" << k;
  }
}

TEST(Distributions, PoissonSplitDrawsItsHalvesInSequence) {
  // λ = 61 splits into two λ = 30.5 leaves drawn one after the other: the
  // same count, and the same engine state after, as two draws in sequence.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256 split(seed), sequence(seed);
    const long whole = sample_poisson(split, 61.0);
    const long first = sample_poisson(sequence, 30.5);
    const long second = sample_poisson(sequence, 30.5);
    EXPECT_EQ(whole, first + second) << "seed " << seed;
    EXPECT_EQ(split.state(), sequence.state()) << "seed " << seed;
  }
}

TEST(Distributions, PoissonLargeLambdaMoments) {
  // Exercises the recursive-halving branch (lambda > 30).
  expect_moments([](Xoshiro256& r) {
    return double(sample_poisson(r, 120.0));
  }, 120.0, std::sqrt(120.0), 19);
}

TEST(Distributions, BinomialSmallN) {
  expect_moments([](Xoshiro256& r) { return double(sample_binomial(r, 20, 0.3)); },
                 6.0, std::sqrt(20 * 0.3 * 0.7), 20);
}

TEST(Distributions, BinomialLargeNUsesSkipping) {
  expect_moments(
      [](Xoshiro256& r) { return double(sample_binomial(r, 1000, 0.02)); },
      20.0, std::sqrt(1000 * 0.02 * 0.98), 21);
}

TEST(Distributions, BinomialEdgeCases) {
  Xoshiro256 rng(22);
  EXPECT_EQ(sample_binomial(rng, 0, 0.5), 0);
  EXPECT_EQ(sample_binomial(rng, 10, 0.0), 0);
  EXPECT_EQ(sample_binomial(rng, 10, 1.0), 10);
}

TEST(DiscreteSampler, MatchesWeights) {
  Xoshiro256 rng(23);
  DiscreteSampler sampler({1.0, 2.0, 7.0});
  EXPECT_NEAR(sampler.probability(0), 0.1, 1e-12);
  EXPECT_NEAR(sampler.probability(2), 0.7, 1e-12);
  std::vector<int> counts(3, 0);
  const int n = 300000;
  for (int i = 0; i < n; ++i) ++counts[sampler(rng)];
  EXPECT_NEAR(double(counts[0]) / n, 0.1, 0.005);
  EXPECT_NEAR(double(counts[1]) / n, 0.2, 0.007);
  EXPECT_NEAR(double(counts[2]) / n, 0.7, 0.008);
}

TEST(DiscreteSampler, HandlesZeroWeights) {
  Xoshiro256 rng(24);
  DiscreteSampler sampler({0.0, 1.0, 0.0});
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler(rng), 1u);
}

TEST(DiscreteSampler, RejectsInvalidWeights) {
  EXPECT_THROW(DiscreteSampler({}), cny::ContractViolation);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), cny::ContractViolation);
  EXPECT_THROW(DiscreteSampler({-1.0, 2.0}), cny::ContractViolation);
}

}  // namespace
