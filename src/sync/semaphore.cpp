#include "sync/semaphore.hpp"

#include "sync/backoff.hpp"

namespace piom::sync {

void Semaphore::post() {
  const int prev = count_.fetch_add(1, std::memory_order_release);
  if (prev < 0) {
    // At least one waiter is parked (or about to park): hand it a wakeup.
    std::lock_guard<std::mutex> lk(mutex_);
    ++wakeups_;
    cv_.notify_one();
  }
}

bool Semaphore::spin_then_register(int spin_iterations) {
  // Fast path / bounded spin: completions from the progression engine are
  // typically a few µs away, cheaper to spin than to park. Plain relax —
  // NOT exponential backoff — so the spin phase stays a few µs total and a
  // machine full of waiting threads (Fig 4 at 128 threads) does not burn
  // whole cores before parking.
  for (int i = 0; i < spin_iterations; ++i) {
    if (try_wait()) return true;
    cpu_relax();
  }
  const int prev = count_.fetch_sub(1, std::memory_order_acquire);
  return prev > 0;  // grabbed an available unit after all
}

void Semaphore::wait(int spin_iterations) {
  if (spin_then_register(spin_iterations)) return;
  std::unique_lock<std::mutex> lk(mutex_);
  cv_.wait(lk, [this] { return wakeups_ > 0; });
  --wakeups_;
}

bool Semaphore::wait_for(std::chrono::microseconds timeout,
                         int spin_iterations) {
  if (spin_then_register(spin_iterations)) return true;
  std::unique_lock<std::mutex> lk(mutex_);
  if (!cv_.wait_for(lk, timeout, [this] { return wakeups_ > 0; })) {
    // Timed out. While count_ < 0 some registered waiter is still
    // unclaimed: withdraw ours. Otherwise a post() already counted this
    // waiter and its wakeup is in flight (it needs mutex_, held here), so
    // take the unit rather than leak it.
    int cur = count_.load(std::memory_order_relaxed);
    while (cur < 0) {
      if (count_.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_relaxed)) {
        return false;
      }
    }
    cv_.wait(lk, [this] { return wakeups_ > 0; });
  }
  --wakeups_;
  return true;
}

bool Semaphore::try_wait() {
  int cur = count_.load(std::memory_order_relaxed);
  while (cur > 0) {
    if (count_.compare_exchange_weak(cur, cur - 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace piom::sync
