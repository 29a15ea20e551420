// Counting semaphore used for task/request completion notification
// (PIOMan's piom_sem_t). The fast path is a lock-free counter; a waiter
// first spins briefly (completions are often microseconds away), then
// parks on a condition variable so blocked MPI_Recv threads do not burn
// cores — this is exactly what keeps the Fig 4 multithreaded latency flat.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace piom::sync {

class Semaphore {
 public:
  explicit Semaphore(int initial = 0) : count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// V(): release one unit and wake a waiter if any.
  void post();

  /// P(): acquire one unit; spins up to `spin_iterations` (~20 ns each, so
  /// the default covers roughly the fabric's small-message latency) before
  /// parking on the condvar.
  void wait(int spin_iterations = 4096);

  /// P() with a deadline: spins up to `spin_iterations`, then parks for at
  /// most `timeout`. True when a unit was taken; false on timeout, with the
  /// count left exactly as if this call had never been made.
  bool wait_for(std::chrono::microseconds timeout, int spin_iterations);

  /// Non-blocking P(). True on success.
  bool try_wait();

  /// Current value (may be stale under concurrency; for tests/stats).
  [[nodiscard]] int value() const {
    return count_.load(std::memory_order_acquire);
  }

 private:
  /// Spin, then register as a waiter. True when a unit was taken.
  bool spin_then_register(int spin_iterations);

  // count_ >= 0: available units. count_ < 0: -count_ parked waiters.
  std::atomic<int> count_;
  std::mutex mutex_;
  std::condition_variable cv_;
  // Wakeups already produced by post() but not yet consumed by a parked
  // waiter (protected by mutex_).
  int wakeups_ = 0;
};

}  // namespace piom::sync
