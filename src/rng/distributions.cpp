#include "rng/distributions.h"

#include <cmath>
#include <deque>

#include "util/contracts.h"

namespace cny::rng {

double sample_normal(Xoshiro256& rng) {
  // Marsaglia polar method; discards the second variate for simplicity
  // (engine is cheap, statistical quality is what matters here).
  for (;;) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double sample_normal(Xoshiro256& rng, double mu, double sigma) {
  CNY_EXPECT(sigma >= 0.0);
  return mu + sigma * sample_normal(rng);
}

double sample_exponential(Xoshiro256& rng, double mean) {
  CNY_EXPECT(mean > 0.0);
  // -log(1-U) with U in [0,1) avoids log(0).
  return -mean * std::log1p(-rng.uniform());
}

double sample_gamma(Xoshiro256& rng, double k, double theta) {
  CNY_EXPECT(k > 0.0 && theta > 0.0);
  if (k < 1.0) {
    // Boost: Gamma(k) = Gamma(k+1) * U^{1/k}.
    const double u = rng.uniform();
    return sample_gamma(rng, k + 1.0, theta) * std::pow(u, 1.0 / k);
  }
  const double d = k - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = sample_normal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * theta;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * theta;
    }
  }
}

double sample_lognormal_mean_sd(Xoshiro256& rng, double mean, double sd) {
  CNY_EXPECT(mean > 0.0 && sd >= 0.0);
  if (sd == 0.0) return mean;
  const double cv2 = (sd / mean) * (sd / mean);
  const double sigma2 = std::log1p(cv2);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return std::exp(sample_normal(rng, mu, std::sqrt(sigma2)));
}

bool sample_bernoulli(Xoshiro256& rng, double p) {
  CNY_EXPECT(p >= 0.0 && p <= 1.0);
  return rng.uniform() < p;
}

long sample_poisson(Xoshiro256& rng, double lambda) {
  CNY_EXPECT(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda > 30.0) {
    // Poisson additivity: split until inversion is numerically safe.
    // The left half is drawn first, by statement order: the operands of
    // `+` are evaluated in an unspecified order, and the draw order fixes
    // every result bit.
    const double half = 0.5 * lambda;
    const long left = sample_poisson(rng, half);
    return left + sample_poisson(rng, lambda - half);
  }
  // Knuth/inversion in the probability domain.
  const double limit = std::exp(-lambda);
  long n = 0;
  double prod = rng.uniform();
  while (prod > limit) {
    prod *= rng.uniform();
    ++n;
  }
  return n;
}

long sample_binomial(Xoshiro256& rng, long n, double p) {
  CNY_EXPECT(n >= 0);
  CNY_EXPECT(p >= 0.0 && p <= 1.0);
  if (p == 0.0 || n == 0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - sample_binomial(rng, n, 1.0 - p);
  if (n <= 64) {
    long c = 0;
    for (long i = 0; i < n; ++i) c += sample_bernoulli(rng, p) ? 1 : 0;
    return c;
  }
  // Waiting-time (geometric skipping) method — exact, O(np) expected.
  const double log_q = std::log1p(-p);
  long count = 0;
  double pos = 0.0;
  for (;;) {
    pos += std::floor(std::log1p(-rng.uniform()) / log_q) + 1.0;
    if (pos > static_cast<double>(n)) return count;
    ++count;
  }
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  CNY_EXPECT(!weights.empty());
  double sum = 0.0;
  for (double w : weights) {
    CNY_EXPECT_MSG(w >= 0.0, "negative weight");
    sum += w;
  }
  CNY_EXPECT_MSG(sum > 0.0, "all weights zero");

  const std::size_t n = weights.size();
  norm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) norm_[i] = weights[i] / sum;

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::deque<std::size_t> small, large;
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = norm_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.front();
    small.pop_front();
    const std::size_t l = large.front();
    prob_[s] = scaled[s];
    alias_[s] = static_cast<std::uint32_t>(l);
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_front();
      small.push_back(l);
    }
  }
  for (std::size_t i : large) prob_[i] = 1.0;
  for (std::size_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

std::size_t DiscreteSampler::operator()(Xoshiro256& rng) const {
  const std::size_t bucket =
      static_cast<std::size_t>(rng.uniform_index(prob_.size()));
  return rng.uniform() < prob_[bucket] ? bucket : alias_[bucket];
}

double DiscreteSampler::probability(std::size_t i) const {
  CNY_EXPECT(i < norm_.size());
  return norm_[i];
}

}  // namespace cny::rng
