#include "util/timing.hpp"

#include <thread>

#include "sync/backoff.hpp"

namespace piom::util {

void precise_wait_ns(int64_t duration_ns) {
  const int64_t deadline = now_ns() + duration_ns;
  // Sleeping can overshoot by a full scheduling quantum (>1 ms in
  // containers); only sleep when the wait is long enough to amortise that,
  // then spin the rest.
  constexpr int64_t kSleepSlackNs = 2'500'000;
  int64_t remaining = deadline - now_ns();
  while (remaining > kSleepSlackNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(remaining - kSleepSlackNs));
    remaining = deadline - now_ns();
  }
  while (now_ns() < deadline) sync::cpu_relax();
}

void burn_cpu_us(double duration_us) {
  const int64_t deadline = now_ns() + static_cast<int64_t>(duration_us * 1e3);
  // Volatile accumulator defeats dead-code elimination without needing
  // per-iteration clock reads (check the clock every 64 rounds).
  volatile uint64_t sink = 1;
  while (true) {
    for (int i = 0; i < 64; ++i) {
      sink = sink * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    if (now_ns() >= deadline) break;
  }
}

}  // namespace piom::util
