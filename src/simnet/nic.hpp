// Simulated NIC with a verbs/MX-like host interface.
//
// The NIC owns no thread. Its wire is a timestamp model: every posted
// operation is stamped with the time it leaves the link (`ready_ns`),
// queued behind the operation before it exactly as a one-op-at-a-time
// NIC would serialise them, and executed by whichever host poll call first
// finds it due — `poll_tx` and `quiesce` advance this NIC's queue,
// `poll_rx` advances the peer's. The queue is a sync::StampedQueue, the
// core aio::SimDisk shares. This keeps the two properties the paper's
// evaluation depends on:
//   1. data transfer needs no host CPU on the *receiving* side: a sender
//      that polls its own TX queue pushes its arrivals across, so
//      sender-side overlap is possible for everyone;
//   2. protocol decisions (matching a rendezvous, posting the data send)
//      need host code to run — and *when* that host code runs is exactly
//      what distinguishes PIOMan from the caller-driven baselines.
//
// RDMA-Read runs no target-host code: the reader's own poll_tx executes
// the pull against the target's memory (paper §II-B, [10]).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "simnet/link_model.hpp"
#include "sync/spinlock.hpp"
#include "sync/stamped_queue.hpp"
#include "transport/channel.hpp"
#include "transport/rx_queue.hpp"

namespace piom::simnet {

class Fabric;

/// The "simnet" transport backend: a modelled cluster NIC.
class Nic final : public transport::IChannel {
 public:
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] transport::Backend backend() const override {
    return transport::Backend::kSimnet;
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const LinkModel& link() const { return link_; }
  [[nodiscard]] Nic* peer() const override { return peer_; }

  // ---- host-side API (thread-safe) ----

  /// Post a message send. `buf` must stay valid until the kSend completion
  /// for `wrid` is polled (it is read when the op executes: zero-copy).
  void post_send(const void* buf, std::size_t len, uint64_t wrid) override;

  /// Post a receive buffer of capacity `cap`. Buffers match arrivals in
  /// FIFO order (connected queue pair; message matching is nmad's job).
  void post_recv(void* buf, std::size_t cap, uint64_t wrid) override;

  /// RDMA-Read `len` bytes from the peer's memory at `remote` into `local`.
  /// Executed by this side's polls alone: no peer host CPU involved.
  void post_rdma_read(void* local, const void* remote, std::size_t len,
                      uint64_t wrid) override;

  /// Execute this NIC's due operations, then poll the send/rdma completion
  /// queue. True when `out` was filled.
  bool poll_tx(transport::Completion& out) override;

  /// Execute the peer's due operations (its arrivals land here), then poll
  /// the receive completion queue.
  bool poll_rx(transport::Completion& out) override;

  [[nodiscard]] transport::ChannelStats stats() const override;

  /// Posted operations not yet executed (tests).
  [[nodiscard]] std::size_t tx_backlog() const override;

  /// Execute every posted operation, waiting out its wire time. After
  /// quiescing this NIC *and its peer*, nothing touches host buffers again.
  void quiesce() override;

  /// Cut this endpoint off the wire (see IChannel::sever): queued and
  /// future sends are counted as dropped after the modelled wire delay
  /// (still TX-completing, like the drop model), inbound deliveries are
  /// discarded, RDMA reads complete failed without touching memory.
  void sever() override { severed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool severed() const override {
    return severed_.load(std::memory_order_acquire);
  }

  /// Link bandwidth, the strategy layer's stripe weight.
  [[nodiscard]] double bandwidth_GBps() const override {
    return link_.bandwidth_GBps;
  }
  /// Effective small-message one-way latency (wire + per-packet cost).
  [[nodiscard]] double latency_us() const override {
    return link_.latency_us + link_.packet_overhead_us;
  }

 private:
  friend class Fabric;
  Nic(Fabric& fabric, std::string name, LinkModel link);

  struct TxOp {
    enum class Kind : uint8_t { kSend, kRdmaRead } kind = Kind::kSend;
    const void* src = nullptr;   // send: source buffer; rdma: remote address
    void* dst = nullptr;         // rdma: local destination
    std::size_t len = 0;
    uint64_t wrid = 0;
  };

  /// Execute this NIC's due operations (see sync::StampedQueue::advance).
  void advance();
  /// Run one queued op (drop draw, delivery, stats); the queue dequeues it
  /// and posts the returned completion.
  transport::Completion execute(const TxOp& op) PIOM_EXCLUDES(stats_lock_);
  /// Deterministic per-NIC PRNG draw in [0,1) for drop decisions.
  double drop_draw() PIOM_REQUIRES(stats_lock_);
  /// Called from the *peer's* execute to deliver `len` bytes into our RX side.
  void deliver(const void* data, std::size_t len);

  Fabric& fabric_;
  const std::string name_;
  const LinkModel link_;
  Nic* peer_ = nullptr;

  /// TX side: the wire, one op at a time.
  sync::StampedQueue<TxOp, transport::Completion> tx_;
  /// RX side: the peer's executed sends land here (MX-style staging when
  /// no buffer is posted).
  transport::RxQueue rx_;

  mutable sync::SpinLock stats_lock_;
  transport::ChannelStats stats_ PIOM_GUARDED_BY(stats_lock_);
  // Only the queue's one executor draws drops and counts sends; they share
  // the stats lock it takes once per op anyway.
  uint64_t rng_state_ PIOM_GUARDED_BY(stats_lock_) = 0;
  uint64_t sends_executed_ PIOM_GUARDED_BY(stats_lock_) = 0;

  std::atomic<bool> severed_{false};
};

}  // namespace piom::simnet
