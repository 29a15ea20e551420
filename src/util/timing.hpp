// High-resolution timing helpers used by the scheduler, the simulated
// fabric's cost model and every benchmark.
//
// All durations in the public API are expressed in nanoseconds (int64_t) or
// microseconds (double) to match the units the paper reports (ns for the
// scheduling micro-benchmarks, µs for latency/overlap figures).
#pragma once

#include <chrono>
#include <cstdint>

namespace piom::util {

/// Monotonic clock reading in nanoseconds. Safe across threads.
[[nodiscard]] inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic clock reading in microseconds (fractional).
[[nodiscard]] inline double now_us() {
  return static_cast<double>(now_ns()) * 1e-3;
}

/// Wait for `duration_ns`: sleeps for the bulk when the wait is long,
/// then spins the remainder for precision.
void precise_wait_ns(int64_t duration_ns);

/// Burn CPU for approximately `duration_us` microseconds. This is the
/// "computation" phase of the overlap benchmarks (paper §V-C): it must be
/// real CPU work that occupies a core, not a sleep, because the whole point
/// is whether communication can progress while the core is busy.
void burn_cpu_us(double duration_us);

/// Simple stopwatch for benchmark loops.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(now_ns()) {}
  void reset() { start_ns_ = now_ns(); }
  [[nodiscard]] int64_t elapsed_ns() const { return now_ns() - start_ns_; }
  [[nodiscard]] double elapsed_us() const {
    return static_cast<double>(elapsed_ns()) * 1e-3;
  }

 private:
  int64_t start_ns_;
};

}  // namespace piom::util
