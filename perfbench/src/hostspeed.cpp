#include "hostspeed.hpp"

#include <algorithm>
#include <array>
#include <memory_resource>
#include <unordered_set>

#include "gen.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

// Kernel time on the reference host (4-vCPU Xeon VM), in milliseconds.
constexpr double kNominalMs = 0.27;

// Allocation, hashing and pointer chasing, like the compiles it stands
// beside. Of three kernels tried on five seeds per workload, this one cut
// the spread of compile_ms_p50 most (validate 0.22 -> 0.04, large_pcm
// 0.13 -> 0.06); a walk over an L2-sized table (core speed only) and one
// over a 4 MiB table (cache misses) did about half as well. It allocates
// from a buffer of its own: on the process heap its time followed the
// heap's state, which depends on the library's work (after the corpus's
// 3000 programs it ran ~1.5x slower than after mid_full's 60).
std::uint64_t kernel() {
  static std::array<std::byte, 1u << 20> buffer;
  std::pmr::monotonic_buffer_resource arena(buffer.data(), buffer.size(),
                                            std::pmr::null_memory_resource());
  std::pmr::unordered_set<std::uint64_t> set(&arena);
  for (std::uint64_t i = 0; i < 3000; ++i) set.insert(mix(i * 7));
  std::uint64_t found = 0;
  for (std::uint64_t i = 0; i < 6000; ++i) found += set.count(mix(i * 3));
  return found + set.size();
}

volatile std::uint64_t g_sink;

}  // namespace

void HostSpeed::maybe_tick(double every_ms) {
  if (static_cast<double>(now_ns() - last_ns_) / 1e6 >= every_ms) tick();
}

void HostSpeed::tick() {
  // The first run warms the allocator and caches, so the timed one does
  // not depend on what the library's work left there.
  std::int64_t t0 = now_ns();
  g_sink = kernel();
  std::int64_t t1 = now_ns();
  g_sink = kernel();
  last_ns_ = now_ns();
  times_ms_.push_back(static_cast<double>(last_ns_ - t1) / 1e6);
  spent_ms_ += static_cast<double>(last_ns_ - t0) / 1e6;
}

void HostSpeed::ticks(std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) tick();
}

double HostSpeed::take_factor() {
  if (times_ms_.empty()) return 1.0;
  std::sort(times_ms_.begin(), times_ms_.end());
  double median = times_ms_[times_ms_.size() / 2];
  times_ms_.clear();
  return kNominalMs / median;
}

}  // namespace perfbench
