// RxQueue — the receive half every channel backend shares. It owns the
// receive contract of IChannel: posted buffers match arrivals in FIFO
// order, an arrival that finds no buffer is staged driver-side (a copy, the
// way MX buffers unexpected short messages) until the next post_recv, a
// message larger than its buffer is truncated to the buffer's capacity,
// and RX completions queue up behind a lock-free empty pre-check.
//
// Backends differ only in how bytes arrive: simnet::Nic delivers from the
// peer's wire executor, ShmemChannel from its inbound ring (holding
// lock() across a whole ring drain), TcpChannel from its frame parser —
// which may also read a frame body straight into a posted buffer
// (take_direct + complete) when that cannot reorder it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <utility>
#include <vector>

#include "sync/spinlock.hpp"
#include "transport/channel.hpp"

namespace piom::transport {

class RxQueue {
 public:
  /// One posted receive buffer.
  struct Desc {
    void* buf = nullptr;
    std::size_t cap = 0;
    uint64_t wrid = 0;
  };

  /// The lock guarding every queue below; hold it to batch deliveries
  /// through deliver_locked.
  sync::SpinLock& lock() PIOM_RETURN_CAPABILITY(lock_) { return lock_; }

  /// Post a buffer: the oldest staged arrival fills it at once, else it
  /// waits for the next delivery.
  void post(void* buf, std::size_t cap, uint64_t wrid) PIOM_EXCLUDES(lock_) {
    sync::LockGuard<sync::SpinLock> lk(lock_);
    if (staged_.empty()) {
      descs_.push_back(Desc{buf, cap, wrid});
      return;
    }
    const std::vector<uint8_t> data = std::move(staged_.front());
    staged_.pop_front();
    fill_locked(Desc{buf, cap, wrid}, data.data(), data.size());
  }

  /// An arrival of `len` bytes: copied into the oldest posted buffer
  /// (truncated to its capacity), else staged.
  void deliver(const void* data, std::size_t len) PIOM_EXCLUDES(lock_) {
    sync::LockGuard<sync::SpinLock> lk(lock_);
    deliver_locked(data, len);
  }

  void deliver_locked(const void* data, std::size_t len)
      PIOM_REQUIRES(lock_) {
    if (take_head_locked(data, len)) return;
    const auto* bytes = static_cast<const uint8_t*>(data);
    staged_.emplace_back(bytes, bytes + len);
  }

  /// An arrival the caller already copied out: staged without a second
  /// copy when no buffer is posted.
  void deliver(std::vector<uint8_t>&& data) PIOM_EXCLUDES(lock_) {
    sync::LockGuard<sync::SpinLock> lk(lock_);
    if (!take_head_locked(data.data(), data.size())) {
      staged_.push_back(std::move(data));
    }
  }

  /// Hand out the oldest posted buffer for a zero-copy write of `len`
  /// bytes — only when it fits, so the arrival is not truncated (a posted
  /// buffer means nothing is staged ahead of it, so nothing is overtaken).
  /// complete() finishes it.
  bool take_direct(std::size_t len, Desc& out) PIOM_EXCLUDES(lock_) {
    sync::LockGuard<sync::SpinLock> lk(lock_);
    if (descs_.empty() || descs_.front().cap < len) return false;
    out = descs_.front();
    descs_.pop_front();
    return true;
  }

  /// Post the receive completion of a take_direct buffer.
  void complete(uint64_t wrid, std::size_t n) PIOM_EXCLUDES(lock_) {
    sync::LockGuard<sync::SpinLock> lk(lock_);
    push_locked(wrid, n);
  }

  /// True when no completion is waiting (lock-free).
  [[nodiscard]] bool empty() const {
    return cq_size_.load(std::memory_order_acquire) == 0;
  }

  /// Pop one receive completion; true when `out` was filled. Hot pollers
  /// take no lock while the queue is empty.
  bool poll(Completion& out) PIOM_EXCLUDES(lock_) {
    if (empty()) return false;
    sync::LockGuard<sync::SpinLock> lk(lock_);
    if (cq_.empty()) return false;
    out = cq_.front();
    cq_.pop_front();
    cq_size_.fetch_sub(1, std::memory_order_release);
    return true;
  }

 private:
  /// Copy into the oldest posted buffer; false when none is posted.
  bool take_head_locked(const void* data, std::size_t len)
      PIOM_REQUIRES(lock_) {
    if (descs_.empty()) return false;
    const Desc d = descs_.front();
    descs_.pop_front();
    fill_locked(d, data, len);
    return true;
  }

  void fill_locked(const Desc& d, const void* data, std::size_t len)
      PIOM_REQUIRES(lock_) {
    const std::size_t n = len < d.cap ? len : d.cap;
    if (n > 0) std::memcpy(d.buf, data, n);
    push_locked(d.wrid, n);
  }

  void push_locked(uint64_t wrid, std::size_t n) PIOM_REQUIRES(lock_) {
    cq_.push_back(Completion{Completion::Kind::kRecv, wrid, n});
    cq_size_.fetch_add(1, std::memory_order_release);
  }

  sync::SpinLock lock_;
  std::deque<Desc> descs_ PIOM_GUARDED_BY(lock_);  ///< posted, unfilled
  /// Arrivals that found no posted buffer (at most one of descs_ and
  /// staged_ is non-empty).
  std::deque<std::vector<uint8_t>> staged_ PIOM_GUARDED_BY(lock_);
  std::deque<Completion> cq_ PIOM_GUARDED_BY(lock_);
  std::atomic<std::size_t> cq_size_{0};  ///< cq_.size(), read lock-free
};

}  // namespace piom::transport
