#include "simnet/nic.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "simnet/fabric.hpp"
#include "util/trace.hpp"

namespace piom::simnet {

namespace {
using Guard = sync::LockGuard<sync::SpinLock>;
using transport::Completion;
}  // namespace

Nic::Nic(Fabric& fabric, std::string name, LinkModel link)
    : fabric_(fabric),
      name_(std::move(name)),
      link_(link),
      tx_(fabric.time_scale()) {
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

void Nic::post_send(const void* buf, std::size_t len, uint64_t wrid) {
  if (peer_ == nullptr) throw std::logic_error("Nic::post_send: unconnected");
  // The link is busy for overhead + latency + serialisation.
  tx_.enqueue(TxOp{TxOp::Kind::kSend, buf, nullptr, len, wrid},
              link_.transfer_ns(len));
}

void Nic::post_rdma_read(void* local, const void* remote, std::size_t len,
                         uint64_t wrid) {
  if (peer_ == nullptr) {
    throw std::logic_error("Nic::post_rdma_read: unconnected");
  }
  // Request goes over (latency), peer NIC serves from memory with no host
  // involvement, data streams back (latency + occupancy).
  tx_.enqueue(TxOp{TxOp::Kind::kRdmaRead, remote, local, len, wrid},
              2 * static_cast<int64_t>(
                      (link_.latency_us + link_.packet_overhead_us) * 1e3) +
                  link_.occupancy_ns(len));
}

void Nic::post_recv(void* buf, std::size_t cap, uint64_t wrid) {
  rx_.post(buf, cap, wrid);
}

void Nic::advance() {
  tx_.advance([this](const TxOp& op) { return execute(op); });
}

Completion Nic::execute(const TxOp& op) {
  assert(peer_ != nullptr);
  if (op.kind == TxOp::Kind::kRdmaRead) {
    // A read over a severed link (either end) fails without touching
    // either host's memory — the failed completion is the caller's only
    // signal, since no peer host code runs on this path.
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
    return Completion{Completion::Kind::kRdmaRead, op.wrid, op.len,
                      read_failed};
  }
  // The payload materialises at the peer — unless the fault injector eats
  // it (the sender still gets its TX completion).
  bool dropped = false;
  bool sever_now = false;
  {
    Guard slk(stats_lock_);
    dropped = severed() ||
              (link_.drop_rate > 0.0 && drop_draw() < link_.drop_rate);
    if (dropped) stats_.packets_dropped++;
    stats_.packets_tx++;
    stats_.bytes_tx += op.len;
    sever_now = link_.sever_after_packets > 0 &&
                ++sends_executed_ >= link_.sever_after_packets;
  }
  if (!dropped) peer_->deliver(op.src, op.len);
  if (sever_now) sever();  // deterministic mid-run link death
  PIOM_TRACE(util::trace::Kind::kPacketTx, 0, op.len);
  return Completion{Completion::Kind::kSend, op.wrid, op.len};
}

bool Nic::poll_tx(Completion& out) {
  advance();
  return tx_.poll(out);
}

bool Nic::poll_rx(Completion& out) {
  // Arrivals are the peer's sends: run them, so a receiver polling on its
  // own makes progress against a sender that never polls.
  if (peer_ != nullptr) peer_->advance();
  return rx_.poll(out);
}

transport::ChannelStats Nic::stats() const {
  Guard lk(stats_lock_);
  return stats_;
}

std::size_t Nic::tx_backlog() const { return tx_.backlog(); }

void Nic::quiesce() {
  tx_.quiesce([this](const TxOp& op) { return execute(op); });
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
  rx_.deliver(data, len);
}

}  // namespace piom::simnet
