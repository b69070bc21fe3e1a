#include "rng/engine.h"

#include "util/contracts.h"

namespace cny::rng {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t label) {
  std::uint64_t s = master ^ (0xA0761D6478BD642Full + label * 0xE7037ED1A0B428DBull);
  return splitmix64(s);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // zero outputs in a row, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

namespace {
void apply_jump(std::array<std::uint64_t, 4>& s, Xoshiro256& self,
                const std::uint64_t* table) {
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 64; ++b) {
      if (table[i] & (1ull << b)) {
        s0 ^= s[0];
        s1 ^= s[1];
        s2 ^= s[2];
        s3 ^= s[3];
      }
      (void)self();
    }
  }
  s = {s0, s1, s2, s3};
}
}  // namespace

void Xoshiro256::jump() {
  static const std::uint64_t kJump[] = {0x180EC6D33CFD0ABAull,
                                        0xD5A61266F0C9392Cull,
                                        0xA9582618E03FC9AAull,
                                        0x39ABDC4529B1661Cull};
  apply_jump(s_, *this, kJump);
}

void Xoshiro256::long_jump() {
  static const std::uint64_t kLongJump[] = {0x76E15D3EFEFDCBBFull,
                                            0xC5004E441C522FB3ull,
                                            0x77710069854EE241ull,
                                            0x39109BB02ACBE635ull};
  apply_jump(s_, *this, kLongJump);
}

Xoshiro256 Xoshiro256::make_stream(unsigned n) const {
  Xoshiro256 child = *this;
  for (unsigned i = 0; i <= n; ++i) child.jump();
  return child;
}

double Xoshiro256::uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Xoshiro256::uniform(double lo, double hi) {
  CNY_EXPECT(lo <= hi);
  return scale_uniform(lo, hi, uniform());
}

std::uint64_t Xoshiro256::uniform_index(std::uint64_t n) {
  CNY_EXPECT(n >= 1);
  // Lemire's nearly-divisionless bounded integers (rejection for exactness).
  const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t x = (*this)();
    const unsigned __int128 m = static_cast<unsigned __int128>(x) * n;
    const std::uint64_t lo = static_cast<std::uint64_t>(m);
    if (lo >= threshold) return static_cast<std::uint64_t>(m >> 64);
  }
}

}  // namespace cny::rng
