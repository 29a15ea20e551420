#include "transport/shmem.hpp"

#include <cstring>
#include <stdexcept>

#include "sync/backoff.hpp"
#include "util/timing.hpp"

namespace piom::transport {

double measured_memcpy_GBps() {
  // One probe per process: the ratio between this and the NIC link models
  // is what the stripe split uses, so a coarse single measurement is fine.
  static const double measured = [] {
    constexpr std::size_t kProbeBytes = 4u << 20;
    std::vector<uint8_t> src(kProbeBytes, 0x5A);
    std::vector<uint8_t> dst(kProbeBytes);
    double best_GBps = 0.0;
    for (int round = 0; round < 3; ++round) {
      const int64_t t0 = util::now_ns();
      std::memcpy(dst.data(), src.data(), kProbeBytes);
      const int64_t dt = util::now_ns() - t0;
      if (dt > 0) {
        const double gbps = static_cast<double>(kProbeBytes) /
                            static_cast<double>(dt);  // bytes/ns == GB/s
        if (gbps > best_GBps) best_GBps = gbps;
      }
    }
    // Clamp against clock glitches and instrumentation (sanitizer builds
    // slow memcpy severalfold): any intra-node memory bus beats the
    // modelled NICs, so the floor must stay above the default LinkModel's
    // 1.25 GB/s — the "shmem is the fast rail" invariant the strategy
    // layer relies on. 500 GB/s is a generous cap.
    if (best_GBps < 4.0) best_GBps = 4.0;
    if (best_GBps > 500.0) best_GBps = 500.0;
    return best_GBps;
  }();
  return measured;
}

// ----------------------------------------------------------------- Ring

bool ShmemChannel::Ring::try_push(Msg* m) {
  const uint64_t h = head.load(std::memory_order_relaxed);
  if (h - tail.load(std::memory_order_acquire) >= slots.size()) {
    return false;  // full: caller spills (bounded ring = backpressure)
  }
  slots[h & (kShmemRingSlots - 1)] = m;
  head.store(h + 1, std::memory_order_release);
  return true;
}

ShmemChannel::Msg* ShmemChannel::Ring::try_pop() {
  const uint64_t t = tail.load(std::memory_order_relaxed);
  if (head.load(std::memory_order_acquire) == t) return nullptr;
  Msg* m = slots[t & (kShmemRingSlots - 1)];
  tail.store(t + 1, std::memory_order_release);
  return m;
}

std::size_t ShmemChannel::Ring::size() const {
  const uint64_t h = head.load(std::memory_order_acquire);
  const uint64_t t = tail.load(std::memory_order_acquire);
  return h >= t ? static_cast<std::size_t>(h - t) : 0;
}

// ---------------------------------------------------------------- channel

ShmemChannel::ShmemChannel(std::string name, double bandwidth)
    : name_(std::move(name)), bandwidth_(bandwidth) {}

ShmemChannel::~ShmemChannel() = default;

void ShmemChannel::connect(ShmemChannel& a, ShmemChannel& b) {
  a.peer_ = &b;
  b.peer_ = &a;
}

ShmemChannel::Msg* ShmemChannel::acquire_msg() {
  Msg* m = msg_free_;
  if (m != nullptr) {
    msg_free_ = m->free_next;
    m->free_next = nullptr;
    m->done.store(0, std::memory_order_relaxed);
    return m;
  }
  msg_storage_.push_back(std::make_unique<Msg>());
  return msg_storage_.back().get();
}

void ShmemChannel::release_msg(Msg* m) {
  m->src = nullptr;
  m->len = 0;
  m->free_next = msg_free_;
  msg_free_ = m;
}

void ShmemChannel::pump_tx_locked() {
  while (!spill_.empty() && peer_->inbound_.try_push(spill_.front())) {
    spill_.pop_front();
  }
  tx_backlog_.store(spill_.size(), std::memory_order_release);
}

void ShmemChannel::retire_done_sends_locked() {
  while (!inflight_.empty() &&
         inflight_.front()->done.load(std::memory_order_acquire) != 0) {
    Msg* m = inflight_.front();
    inflight_.pop_front();
    inflight_count_.fetch_sub(1, std::memory_order_release);
    tx_cq_.push_back(Completion{Completion::Kind::kSend, m->wrid, m->len});
    tx_cq_size_.fetch_add(1, std::memory_order_release);
    release_msg(m);
  }
}

void ShmemChannel::post_send(const void* buf, std::size_t len,
                             uint64_t wrid) {
  if (peer_ == nullptr) {
    throw std::logic_error("ShmemChannel::post_send: unconnected");
  }
  if (severed()) {
    // Dead endpoint: the send completes without ever being published —
    // unfailed, like the NIC drop model ("sent" never means "delivered").
    // Completing directly also keeps this path peer-independent: nothing
    // is enqueued that would need the (possibly gone) peer to consume it.
    tx_lock_.lock();
    tx_cq_.push_back(Completion{Completion::Kind::kSend, wrid, len});
    tx_cq_size_.fetch_add(1, std::memory_order_release);
    tx_lock_.unlock();
    stats_lock_.lock();
    stats_.packets_dropped++;
    stats_lock_.unlock();
    return;
  }
  tx_lock_.lock();
  Msg* m = acquire_msg();
  m->src = buf;
  m->len = len;
  m->wrid = wrid;
  inflight_.push_back(m);
  inflight_count_.fetch_add(1, std::memory_order_release);
  // FIFO across the spill boundary: the ring only ever takes the oldest
  // not-yet-published descriptor.
  pump_tx_locked();
  if (!spill_.empty() || !peer_->inbound_.try_push(m)) {
    spill_.push_back(m);
    tx_backlog_.store(spill_.size(), std::memory_order_release);
  }
  tx_lock_.unlock();
  stats_lock_.lock();
  stats_.packets_tx++;
  stats_.bytes_tx += len;
  stats_lock_.unlock();
}

void ShmemChannel::post_recv(void* buf, std::size_t cap, uint64_t wrid) {
  rx_.post(buf, cap, wrid);
}

void ShmemChannel::post_rdma_read(void* local, const void* remote,
                                  std::size_t len, uint64_t wrid) {
  if (peer_ == nullptr) {
    throw std::logic_error("ShmemChannel::post_rdma_read: unconnected");
  }
  // Intra-node "RDMA" is a plain load/store pass on the calling core: no
  // engine round-trip, no modelled wire time. On a severed channel (either
  // end) the read must not touch the peer's memory — the failed completion
  // is the caller's only signal.
  const bool read_failed = severed() || peer_->severed();
  if (!read_failed) {
    if (len > 0) std::memcpy(local, remote, len);
    peer_->stats_lock_.lock();
    peer_->stats_.rdma_reads_served++;
    peer_->stats_lock_.unlock();
  }
  stats_lock_.lock();
  stats_.packets_tx++;  // the read request
  if (!read_failed) stats_.bytes_rx += len;
  stats_lock_.unlock();
  tx_lock_.lock();
  tx_cq_.push_back(
      Completion{Completion::Kind::kRdmaRead, wrid, len, read_failed});
  tx_cq_size_.fetch_add(1, std::memory_order_release);
  tx_lock_.unlock();
}

bool ShmemChannel::poll_tx(Completion& out) {
  // Lock-free emptiness pre-check for hot poll loops: nothing completed,
  // nothing in flight, nothing spilled -> nothing to do.
  if (tx_cq_size_.load(std::memory_order_acquire) == 0 &&
      tx_backlog_.load(std::memory_order_acquire) == 0 &&
      inflight_count_.load(std::memory_order_acquire) == 0) {
    return false;
  }
  // Sends must complete without the peer's host polling (the NIC model's
  // DMA property — caller-driven engines depend on it): the poller of the
  // TX side drives delivery of its published descriptors itself. The rx
  // lock serializes this against the peer's own pollers.
  if (inflight_count_.load(std::memory_order_acquire) != 0) {
    peer_->drain_rx();
  }
  tx_lock_.lock();
  pump_tx_locked();
  retire_done_sends_locked();
  if (tx_cq_.empty()) {
    tx_lock_.unlock();
    return false;
  }
  out = tx_cq_.front();
  tx_cq_.pop_front();
  tx_cq_size_.fetch_sub(1, std::memory_order_release);
  tx_lock_.unlock();
  return true;
}

void ShmemChannel::drain_rx() {
  sync::LockGuard<sync::SpinLock> lk(rx_.lock());
  uint64_t dropped_count = 0;
  uint64_t rx_count = 0;
  uint64_t rx_bytes = 0;
  for (;;) {
    Msg* m = inbound_.try_pop();
    if (m == nullptr) break;
    const std::size_t len = m->len;
    // A dead endpoint still consumes the descriptor (so the producer's
    // pipeline keeps draining and its quiesce terminates) but delivers
    // nothing.
    const bool dropped = severed();
    if (!dropped) rx_.deliver_locked(m->src, len);
    // Completion protocol: this release store is the consumer's final
    // touch — the producer may recycle `m` the instant it observes it.
    m->done.store(1, std::memory_order_release);
    if (dropped) {
      ++dropped_count;
    } else {
      ++rx_count;
      rx_bytes += len;
    }
  }
  if (dropped_count + rx_count == 0) return;
  stats_lock_.lock();
  stats_.packets_dropped += dropped_count;
  stats_.packets_rx += rx_count;
  stats_.bytes_rx += rx_bytes;
  stats_lock_.unlock();
}

void ShmemChannel::pump_tx() {
  tx_lock_.lock();
  pump_tx_locked();
  tx_lock_.unlock();
}

bool ShmemChannel::poll_rx(Completion& out) {
  // A full ring backpressured the peer into its spill queue; a NIC keeps
  // feeding the wire as the queue drains, so the consumer side
  // re-pumps the producer here — without it, a receiver polling a drained
  // ring against an idle sender would wait forever.
  if (peer_ != nullptr &&
      peer_->tx_backlog_.load(std::memory_order_acquire) != 0) {
    peer_->pump_tx();
  }
  if (inbound_.size() != 0) drain_rx();
  return rx_.poll(out);
}

ChannelStats ShmemChannel::stats() const {
  stats_lock_.lock();
  const ChannelStats s = stats_;
  stats_lock_.unlock();
  return s;
}

std::size_t ShmemChannel::tx_backlog() const {
  return tx_backlog_.load(std::memory_order_acquire);
}

void ShmemChannel::quiesce() {
  if (peer_ == nullptr) return;  // unconnected: nothing can be in flight
  // There is no engine thread to wait for: "quiet" means every descriptor
  // this endpoint published has been consumed. The consumer role of both
  // ring directions is driven from here (locks serialize against live
  // pollers), so quiesce makes progress even when the peer's host never
  // polls again — the teardown case.
  sync::Backoff backoff;
  for (;;) {
    tx_lock_.lock();
    pump_tx_locked();
    tx_lock_.unlock();
    peer_->drain_rx();  // consume our published descriptors
    drain_rx();         // consume the peer's towards us
    tx_lock_.lock();
    bool idle = spill_.empty();
    for (const Msg* m : inflight_) {
      idle = idle && m->done.load(std::memory_order_acquire) != 0;
    }
    tx_lock_.unlock();
    if (idle) return;
    backoff.spin();
  }
}

// -------------------------------------------------------------- transport

ShmemTransport::ShmemTransport(ShmemConfig config)
    : bandwidth_(config.bandwidth_GBps > 0.0 ? config.bandwidth_GBps
                                             : measured_memcpy_GBps()) {}

std::pair<IChannel*, IChannel*> ShmemTransport::create_channel_pair(
    const std::string& name) {
  channels_.push_back(std::unique_ptr<ShmemChannel>(
      new ShmemChannel(name + ".a", bandwidth_)));
  ShmemChannel* a = channels_.back().get();
  channels_.push_back(std::unique_ptr<ShmemChannel>(
      new ShmemChannel(name + ".b", bandwidth_)));
  ShmemChannel* b = channels_.back().get();
  ShmemChannel::connect(*a, *b);
  return {a, b};
}

}  // namespace piom::transport
