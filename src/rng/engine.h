// Deterministic random-number engine for all Monte Carlo components.
//
// xoshiro256++ seeded through SplitMix64, with jump() / long_jump() for
// constructing statistically independent streams — every experiment in this
// library is reproducible from a single 64-bit master seed.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace cny::rng {

/// xoshiro256++ 1.0 (Blackman & Vigna), a small, fast, high-quality PRNG.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from a 64-bit seed via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()();

  /// Advances 2^128 steps: use to split one seed into parallel streams.
  void jump();

  /// Advances 2^192 steps: use to split into groups of streams.
  void long_jump();

  /// Returns a new engine jumped `n`+1 times past this one (this engine is
  /// left untouched). Stream 0 of a seed is the engine itself.
  [[nodiscard]] Xoshiro256 make_stream(unsigned n) const;

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform();

  /// Uniform double in [lo, hi): scale_uniform(lo, hi, uniform()).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n); n >= 1.
  std::uint64_t uniform_index(std::uint64_t n);

  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const { return s_; }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Maps u in [0, 1) onto [lo, hi) as lo + (hi - lo) * u. Where that rounds
/// up to hi (|lo| large next to hi - lo, u near 1) it returns the largest
/// double below hi instead, so the result never leaves [lo, hi); lo == hi
/// gives lo.
[[nodiscard]] inline double scale_uniform(double lo, double hi, double u) {
  const double y = lo + (hi - lo) * u;
  return y < hi || lo == hi ? y : std::nextafter(hi, lo);
}

/// SplitMix64 step — also exposed for hashing experiment identifiers into
/// per-experiment seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Derives a child seed from (master seed, stream label) deterministically.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master,
                                        std::uint64_t label);

}  // namespace cny::rng
