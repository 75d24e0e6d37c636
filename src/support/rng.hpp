// Deterministic, seedable PRNG (xoshiro256**) for workload generation and
// property tests. Not cryptographic. Deterministic across platforms, unlike
// std::uniform_int_distribution.
#pragma once

#include <cstdint>

namespace parcm {

// splitmix64 finalizer: a bijective 64-bit mix. Derives decorrelated
// stream seeds from one user-visible seed (mix64(seed ^ mix64(stream)))
// and seeds Rng itself.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  std::uint64_t next();

  // Uniform in [0, bound); bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  // True with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den);

  // Uniform double in [0, 1).
  double uniform();

 private:
  std::uint64_t s_[4];
};

}  // namespace parcm
