#include "simnet/nic.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "simnet/fabric.hpp"
#include "util/timing.hpp"
#include "util/trace.hpp"

namespace piom::simnet {

namespace {
using Guard = sync::LockGuard<sync::SpinLock>;
}  // namespace

Nic::Nic(Fabric& fabric, std::string name, LinkModel link)
    : fabric_(fabric), name_(std::move(name)), link_(link) {
  // Deterministic seed: same fabric + same creation order => same drops.
  rng_state_ = 0x9e3779b97f4a7c15ULL ^ std::hash<std::string>{}(name_);
  if (rng_state_ == 0) rng_state_ = 1;
}

double Nic::drop_draw() {
  // xorshift64*: cheap, deterministic; ops execute one at a time in FIFO
  // order, so the n-th send always sees the n-th draw.
  uint64_t x = rng_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state_ = x;
  return static_cast<double>((x * 0x2545F4914F6CDD1DULL) >> 11) /
         static_cast<double>(1ULL << 53);
}

void Nic::enqueue(TxOp op, int64_t cost_ns) {
  const auto scaled =
      static_cast<int64_t>(static_cast<double>(cost_ns) * fabric_.time_scale());
  const int64_t now = util::now_ns();
  Guard lk(tx_lock_);
  // The link carries one op at a time: this one starts when the previous
  // one has left the wire.
  op.ready_ns = std::max(now, wire_free_ns_) + scaled;
  wire_free_ns_ = op.ready_ns;
  if (tx_queue_.empty()) {
    head_ready_ns_.store(op.ready_ns, std::memory_order_release);
  }
  tx_queue_.push_back(op);
}

void Nic::post_send(const void* buf, std::size_t len, uint64_t wrid) {
  if (peer_ == nullptr) throw std::logic_error("Nic::post_send: unconnected");
  // The link is busy for overhead + latency + serialisation.
  enqueue(TxOp{TxOp::Kind::kSend, buf, nullptr, len, wrid},
          link_.transfer_ns(len));
}

void Nic::post_rdma_read(void* local, const void* remote, std::size_t len,
                         uint64_t wrid) {
  if (peer_ == nullptr) {
    throw std::logic_error("Nic::post_rdma_read: unconnected");
  }
  // Request goes over (latency), peer NIC serves from memory with no host
  // involvement, data streams back (latency + occupancy).
  enqueue(TxOp{TxOp::Kind::kRdmaRead, remote, local, len, wrid},
          2 * static_cast<int64_t>(
                  (link_.latency_us + link_.packet_overhead_us) * 1e3) +
              link_.occupancy_ns(len));
}

void Nic::post_recv(void* buf, std::size_t cap, uint64_t wrid) {
  Guard lk(rx_lock_);
  if (!staged_.empty()) {
    // A message already arrived unmatched: consume it right away.
    StagedArrival arrival = std::move(staged_.front());
    staged_.pop_front();
    const std::size_t n = std::min(cap, arrival.data.size());
    if (n > 0) std::memcpy(buf, arrival.data.data(), n);
    rx_cq_.push_back(Completion{Completion::Kind::kRecv, wrid, n});
    rx_cq_size_.fetch_add(1, std::memory_order_release);
    return;
  }
  rx_descs_.push_back(RecvDesc{buf, cap, wrid});
}

void Nic::advance() {
  // Lock-free pre-check: hot pollers must not take a lock while nothing is
  // due on the wire (the overwhelmingly common case).
  const int64_t due = head_ready_ns_.load(std::memory_order_acquire);
  if (due == kIdle || util::now_ns() < due) return;
  // One executor at a time keeps the link FIFO; a poller that loses the
  // race has nothing to do, the winner runs every due op.
  if (!exec_lock_.try_lock()) return;
  Guard exec(exec_lock_, sync::kAdoptLock);
  for (;;) {
    TxOp op;
    {
      const int64_t now = util::now_ns();
      Guard lk(tx_lock_);
      if (tx_queue_.empty() || tx_queue_.front().ready_ns > now) return;
      op = tx_queue_.front();
    }
    execute(op);
  }
}

void Nic::execute(const TxOp& op) {
  assert(peer_ != nullptr);
  Completion done{Completion::Kind::kSend, op.wrid, op.len};
  switch (op.kind) {
    case TxOp::Kind::kSend: {
      // The payload materialises at the peer — unless the fault injector
      // eats it (the sender still gets its TX completion).
      const bool dropped =
          severed() ||
          (link_.drop_rate > 0.0 && drop_draw() < link_.drop_rate);
      if (dropped) {
        Guard slk(stats_lock_);
        stats_.packets_dropped++;
      } else {
        peer_->deliver(op.src, op.len);
      }
      if (link_.sever_after_packets > 0 &&
          ++sends_executed_ >= link_.sever_after_packets) {
        sever();  // deterministic mid-run link death (fault injection)
      }
      {
        Guard slk(stats_lock_);
        stats_.packets_tx++;
        stats_.bytes_tx += op.len;
      }
      PIOM_TRACE(util::trace::Kind::kPacketTx, 0, op.len);
      break;
    }
    case TxOp::Kind::kRdmaRead: {
      // A read over a severed link (either end) fails without touching
      // either host's memory — the failed completion is the caller's
      // only signal, since no peer host code runs on this path.
      const bool read_failed = severed() || peer_->severed();
      if (!read_failed) {
        if (op.len > 0) std::memcpy(op.dst, op.src, op.len);
        Guard slk(peer_->stats_lock_);
        peer_->stats_.rdma_reads_served++;
      }
      {
        Guard slk(stats_lock_);
        stats_.packets_tx++;  // the read request
        if (!read_failed) stats_.bytes_rx += op.len;
      }
      done = Completion{Completion::Kind::kRdmaRead, op.wrid, op.len,
                        read_failed};
      break;
    }
  }
  // Dequeue and complete in one critical section: an empty queue means
  // nothing is in flight (quiesce relies on it).
  Guard lk(tx_lock_);
  tx_queue_.pop_front();
  head_ready_ns_.store(tx_queue_.empty() ? kIdle : tx_queue_.front().ready_ns,
                       std::memory_order_release);
  tx_cq_.push_back(done);
  tx_cq_size_.fetch_add(1, std::memory_order_release);
}

bool Nic::poll_tx(Completion& out) {
  advance();
  if (tx_cq_size_.load(std::memory_order_acquire) == 0) return false;
  Guard lk(tx_lock_);
  if (tx_cq_.empty()) return false;
  out = tx_cq_.front();
  tx_cq_.pop_front();
  tx_cq_size_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool Nic::poll_rx(Completion& out) {
  // Arrivals are the peer's sends: run them, so a receiver polling on its
  // own makes progress against a sender that never polls.
  if (peer_ != nullptr) peer_->advance();
  if (rx_cq_size_.load(std::memory_order_acquire) == 0) return false;
  Guard lk(rx_lock_);
  if (rx_cq_.empty()) return false;
  out = rx_cq_.front();
  rx_cq_.pop_front();
  rx_cq_size_.fetch_sub(1, std::memory_order_release);
  return true;
}

NicStats Nic::stats() const {
  Guard lk(stats_lock_);
  return stats_;
}

std::size_t Nic::tx_backlog() const {
  Guard lk(tx_lock_);
  return tx_queue_.size();
}

void Nic::quiesce() {
  for (;;) {
    advance();
    {
      Guard lk(tx_lock_);
      if (tx_queue_.empty()) return;
    }
    std::this_thread::yield();  // the head is still on the wire
  }
}

void Nic::deliver(const void* data, std::size_t len) {
  if (severed()) {
    // A dead endpoint hears nothing: the arrival evaporates on our side of
    // the wire (the sender already paid the transfer and got its TX
    // completion — exactly the drop model's asymmetry).
    Guard slk(stats_lock_);
    stats_.packets_dropped++;
    return;
  }
  PIOM_TRACE(util::trace::Kind::kPacketRx, 0, len);
  {
    Guard slk(stats_lock_);
    stats_.packets_rx++;
    stats_.bytes_rx += len;
  }
  Guard lk(rx_lock_);
  if (!rx_descs_.empty()) {
    RecvDesc desc = rx_descs_.front();
    rx_descs_.pop_front();
    const std::size_t n = std::min(desc.cap, len);
    if (n > 0) std::memcpy(desc.buf, data, n);
    rx_cq_.push_back(Completion{Completion::Kind::kRecv, desc.wrid, n});
    rx_cq_size_.fetch_add(1, std::memory_order_release);
    return;
  }
  // No buffer posted: stage a copy (driver-level buffering of unexpected
  // packets, as MX does for short messages).
  StagedArrival arrival;
  arrival.data.assign(static_cast<const uint8_t*>(data),
                      static_cast<const uint8_t*>(data) + len);
  staged_.push_back(std::move(arrival));
}

}  // namespace piom::simnet
