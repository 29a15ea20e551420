// Intra-node shared-memory transport: the "two processes on one node"
// fast path. Unlike simnet::Nic there is no modelled wire — a send publishes a descriptor {caller buffer, len, wrid} into a
// bounded lock-free SPSC ring; the receiver's poll copies the payload
// straight from the sender's buffer into the posted receive buffer
// (zero-copy: no staging hop on the matched path) and releases the
// descriptor. RDMA-Read degenerates to a direct memcpy on the caller's
// core: an intra-node "remote read" is just a load, with no NIC
// instruction round-trip.
//
// Completion protocol (the repo-wide invariant from sync/ and
// core/task.hpp): the receiver performs every touch of a descriptor
// *before* its final `done.store(release)` — the sender side polls `done`
// and may recycle the descriptor the instant it observes it set.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sync/cache.hpp"
#include "sync/spinlock.hpp"
#include "transport/channel.hpp"
#include "transport/rx_queue.hpp"

namespace piom::transport {

/// Slots per direction ring (a power of two). A full ring backpressures
/// into an unbounded spill queue — senders never block, the ring bounds
/// only how much is *in flight* towards the consumer.
inline constexpr std::size_t kShmemRingSlots = 256;
static_assert((kShmemRingSlots & (kShmemRingSlots - 1)) == 0,
              "ring indices wrap with kShmemRingSlots - 1");
/// Small-message one-way latency estimate (µs) reported to the strategy
/// layer. Ring handoff + one cache-to-cache copy: well under a µs.
inline constexpr double kShmemLatencyUs = 0.15;

struct ShmemConfig {
  /// Bandwidth (GB/s) reported for stripe weighting. 0 = measure the
  /// host's memcpy throughput once per process (see measured_memcpy_GBps).
  double bandwidth_GBps = 0.0;
};

class ShmemTransport;

class ShmemChannel final : public IChannel {
 public:
  ~ShmemChannel() override;
  ShmemChannel(const ShmemChannel&) = delete;
  ShmemChannel& operator=(const ShmemChannel&) = delete;

  [[nodiscard]] Backend backend() const override { return Backend::kShmem; }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] ShmemChannel* peer() const override { return peer_; }

  void post_send(const void* buf, std::size_t len, uint64_t wrid) override;
  void post_recv(void* buf, std::size_t cap, uint64_t wrid) override;
  void post_rdma_read(void* local, const void* remote, std::size_t len,
                      uint64_t wrid) override;
  bool poll_tx(Completion& out) override;
  bool poll_rx(Completion& out) override;
  [[nodiscard]] ChannelStats stats() const override;
  [[nodiscard]] std::size_t tx_backlog() const override;
  void quiesce() override;

  /// Peer-dead signal for the intra-node path (see IChannel::sever).
  /// Shared memory never drops bytes, so without this hook a dead peer is
  /// indistinguishable from a slow one: severed, this endpoint completes
  /// sends without publishing them, consumes inbound descriptors without
  /// delivering, and fails RDMA reads — all without ever blocking on the
  /// (possibly gone) peer host.
  void sever() override { severed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool severed() const override {
    return severed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] double bandwidth_GBps() const override { return bandwidth_; }
  [[nodiscard]] double latency_us() const override { return kShmemLatencyUs; }

 private:
  friend class ShmemTransport;
  ShmemChannel(std::string name, double bandwidth);
  static void connect(ShmemChannel& a, ShmemChannel& b);

  /// One in-flight send, owned by the sending endpoint and recycled through
  /// its freelist. The ring carries pointers to these.
  struct Msg {
    const void* src = nullptr;
    std::size_t len = 0;
    uint64_t wrid = 0;
    /// Set by the consumer as its very LAST touch; the producer recycles
    /// the descriptor (and completes the send) once it observes 1.
    std::atomic<uint32_t> done{0};
    Msg* free_next = nullptr;
  };

  /// Bounded SPSC ring of Msg*. Producer and consumer indices live on their
  /// own cache lines so the two sides never false-share; slot publication
  /// is ordered by the release store of `head` (push) / `tail` (pop).
  /// Producer side is serialized by the owner's tx lock, consumer side by
  /// the consumer's RxQueue lock (drain_rx) — the ring itself never takes
  /// a lock.
  struct Ring {
    [[nodiscard]] bool try_push(Msg* m);  // producer only
    [[nodiscard]] Msg* try_pop();         // consumer only
    [[nodiscard]] std::size_t size() const;

    std::array<Msg*, kShmemRingSlots> slots{};
    alignas(sync::kCacheLine) std::atomic<uint64_t> head{0};  // producer
    alignas(sync::kCacheLine) std::atomic<uint64_t> tail{0};  // consumer
  };

  Msg* acquire_msg() PIOM_REQUIRES(tx_lock_);
  void release_msg(Msg* m) PIOM_REQUIRES(tx_lock_);
  /// Spill queue -> ring.
  void pump_tx_locked() PIOM_REQUIRES(tx_lock_);
  /// Locked wrapper around pump_tx_locked (peer-driven re-pump).
  void pump_tx() PIOM_EXCLUDES(tx_lock_);
  /// Done descriptors -> tx cq.
  void retire_done_sends_locked() PIOM_REQUIRES(tx_lock_);
  /// Consume every message currently in the inbound ring: copy it straight
  /// from the sender's buffer into a posted buffer, or stage a copy so the
  /// sender's descriptor can be released now. One hold of rx_.lock() covers
  /// the whole drain; it is also the inbound ring's consumer-side
  /// serialisation.
  void drain_rx();

  const std::string name_;
  const double bandwidth_;
  ShmemChannel* peer_ = nullptr;
  Ring inbound_;  ///< peer -> us; our rx side consumes, peer's tx produces

  // TX side (descriptors towards the peer + send/rdma completions).
  mutable sync::SpinLock tx_lock_;
  /// Sends that found the ring full (FIFO).
  std::deque<Msg*> spill_ PIOM_GUARDED_BY(tx_lock_);
  /// Pushed to the ring, completion pending.
  std::deque<Msg*> inflight_ PIOM_GUARDED_BY(tx_lock_);
  std::deque<Completion> tx_cq_ PIOM_GUARDED_BY(tx_lock_);
  std::atomic<std::size_t> tx_cq_size_{0};
  std::atomic<std::size_t> tx_backlog_{0};   ///< spill_.size()
  std::atomic<std::size_t> inflight_count_{0};  ///< inflight_.size()
  Msg* msg_free_ PIOM_GUARDED_BY(tx_lock_) = nullptr;
  std::vector<std::unique_ptr<Msg>> msg_storage_ PIOM_GUARDED_BY(tx_lock_);

  RxQueue rx_;  ///< RX side (posted buffers, staging, recv completions)

  mutable sync::SpinLock stats_lock_;
  ChannelStats stats_ PIOM_GUARDED_BY(stats_lock_);

  std::atomic<bool> severed_{false};
};

/// Factory + owner of shmem channel pairs (one "node's memory bus").
class ShmemTransport final : public ITransport {
 public:
  explicit ShmemTransport(ShmemConfig config = {});

  [[nodiscard]] Backend backend() const override { return Backend::kShmem; }
  std::pair<IChannel*, IChannel*> create_channel_pair(
      const std::string& name) override;
  [[nodiscard]] std::size_t channel_count() const override {
    return channels_.size();
  }


 private:
  double bandwidth_ = 0.0;
  std::vector<std::unique_ptr<ShmemChannel>> channels_;
};

/// Host memcpy throughput (GB/s), measured once per process and cached —
/// the "measured bandwidth ratio" the strategy layer stripes by when a
/// gate mixes shmem and NIC rails.
[[nodiscard]] double measured_memcpy_GBps();

}  // namespace piom::transport
