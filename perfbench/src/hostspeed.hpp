// Host speed, from a fixed kernel that never calls the library.
//
// On a shared host the same code runs up to 30% slower for tens of seconds
// at a time: a fixed loop timed back to back in one process ranged from 158
// to 283 ms within a minute, with no steal time. The harness times this
// kernel between the programs of each round and scales the round's samples
// by nominal ÷ measured kernel time, so they read as times on a host of the
// nominal speed. Only the host's speed cancels out: the kernel does not
// change with the library, so a slower or less parallel library still shows
// in full.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  // Times one kernel run (~0.3 ms, after an untimed one) if at least
  // `every_ms` of wall time passed since the previous one.
  void maybe_tick(double every_ms);
  // Times one kernel run (after an untimed one).
  void tick();
  // tick() n times.
  void ticks(std::size_t n);
  // Nominal ÷ median kernel time over the runs since the previous call,
  // and forgets them; 1 when there were none.
  double take_factor();
  // Wall time spent in the kernel so far, in milliseconds.
  double spent_ms() const { return spent_ms_; }

 private:
  std::vector<double> times_ms_;
  std::int64_t last_ns_ = 0;
  double spent_ms_ = 0;
};

}  // namespace perfbench
