#include "support/rng.hpp"

#include <bit>
#include <cassert>

namespace parcm {

Rng::Rng(std::uint64_t seed) {
  // splitmix64 stream: state word i is mix64(seed + i * 0x9E3779B97F4A7C15).
  std::uint64_t x = seed;
  for (auto& s : s_) {
    s = mix64(x);
    x += 0x9E3779B97F4A7C15ull;
  }
  // All-zero state would be a fixed point; splitmix64 cannot produce four
  // zeros from any seed, but keep the guard cheap and explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling for an unbiased result.
  std::uint64_t threshold = -bound % bound;
  for (;;) {
    std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

bool Rng::chance(std::uint64_t num, std::uint64_t den) {
  assert(den > 0);
  return below(den) < num;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

}  // namespace parcm
