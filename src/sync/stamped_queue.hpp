// StampedQueue — the core of a simulated device that serves one op at a
// time (simnet::Nic's wire, aio::SimDisk). It owns no thread: enqueue()
// stamps each op with `ready_ns = max(now, free_ns) + cost`, and whichever
// poll call first finds the head due runs it through the device's executor,
// a template callable `Completion(const Op&)` (no virtual call on the hot
// path), then dequeues it and posts the completion it returned.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <thread>

#include "sync/spinlock.hpp"
#include "util/timing.hpp"

namespace piom::sync {

template <typename Op, typename Completion>
class StampedQueue {
 public:
  /// `time_scale` multiplies every op's cost (tests compress time with <1).
  explicit StampedQueue(double time_scale) : time_scale_(time_scale) {}

  /// Queue `op` to complete `cost_ns` (times the scale) after both now and
  /// the op before it.
  void enqueue(const Op& op, int64_t cost_ns) PIOM_EXCLUDES(lock_) {
    const auto cost =
        static_cast<int64_t>(static_cast<double>(cost_ns) * time_scale_);
    const int64_t now = util::now_ns();
    LockGuard<SpinLock> lk(lock_);
    free_ns_ = std::max(now, free_ns_) + cost;
    if (queue_.empty()) {
      head_ready_ns_.store(free_ns_, std::memory_order_release);
    }
    queue_.push_back(Entry{op, free_ns_});
  }

  /// Run the due ops through `exec`, in FIFO order. A no-op when another
  /// thread is already executing.
  template <typename Exec>
  void advance(Exec&& exec) PIOM_EXCLUDES(exec_lock_, lock_) {
    // Lock-free pre-check: hot pollers must not take a lock while nothing
    // is due (the overwhelmingly common case).
    const int64_t due = head_ready_ns_.load(std::memory_order_acquire);
    if (due == kIdle || util::now_ns() < due) return;
    // The one executor keeps the device FIFO; a poller that loses the race
    // has nothing to do, the winner runs every due op.
    if (!exec_lock_.try_lock()) return;
    LockGuard<SpinLock> ex(exec_lock_, kAdoptLock);
    for (;;) {
      Op op;
      {
        const int64_t now = util::now_ns();
        LockGuard<SpinLock> lk(lock_);
        if (queue_.empty() || queue_.front().ready_ns > now) return;
        op = queue_.front().op;
      }
      const Completion done = exec(op);
      // The head stays queued while it executes, so an empty queue means
      // nothing is in flight (quiesce relies on it).
      LockGuard<SpinLock> lk(lock_);
      queue_.pop_front();
      head_ready_ns_.store(queue_.empty() ? kIdle : queue_.front().ready_ns,
                           std::memory_order_release);
      cq_.push_back(done);
      cq_size_.fetch_add(1, std::memory_order_release);
    }
  }

  /// Pop one completion; true when `out` was filled.
  bool poll(Completion& out) PIOM_EXCLUDES(lock_) {
    if (cq_size_.load(std::memory_order_acquire) == 0) return false;
    LockGuard<SpinLock> lk(lock_);
    if (cq_.empty()) return false;
    out = cq_.front();
    cq_.pop_front();
    cq_size_.fetch_sub(1, std::memory_order_release);
    return true;
  }

  /// Ops queued and not yet executed.
  [[nodiscard]] std::size_t backlog() const PIOM_EXCLUDES(lock_) {
    LockGuard<SpinLock> lk(lock_);
    return queue_.size();
  }

  /// Execute every queued op, waiting out its modelled time.
  template <typename Exec>
  void quiesce(Exec&& exec) PIOM_EXCLUDES(exec_lock_, lock_) {
    for (advance(exec); backlog() > 0; advance(exec)) {
      std::this_thread::yield();  // the head is not due yet
    }
  }

 private:
  struct Entry {
    Op op;
    int64_t ready_ns = 0;
  };

  static constexpr int64_t kIdle = std::numeric_limits<int64_t>::max();

  const double time_scale_;
  // The atomic mirrors let hot pollers skip the lock when nothing is due or
  // complete (same double-check idea as the task queues' Algorithm 2).
  mutable SpinLock lock_;
  std::deque<Entry> queue_ PIOM_GUARDED_BY(lock_);
  std::deque<Completion> cq_ PIOM_GUARDED_BY(lock_);
  int64_t free_ns_ PIOM_GUARDED_BY(lock_) = 0;  ///< last op's ready_ns
  std::atomic<int64_t> head_ready_ns_{kIdle};   ///< head's ready_ns, or kIdle
  std::atomic<std::size_t> cq_size_{0};
  SpinLock exec_lock_;  ///< held (try-locked) by the one executor
};

}  // namespace piom::sync
