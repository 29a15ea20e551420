#include "nmad/session.hpp"

#include <stdexcept>

namespace piom::nmad {

const char* pkt_kind_name(PktKind k) {
  switch (k) {
    case PktKind::kEager: return "eager";
    case PktKind::kPack: return "pack";
    case PktKind::kRts: return "rts";
    case PktKind::kFin: return "fin";
    case PktKind::kAck: return "ack";
    case PktKind::kPing: return "ping";
    case PktKind::kNack: return "nack";
    case PktKind::kForward: return "forward";
  }
  return "?";
}

static_assert(kEagerThreshold + sizeof(PktHeader) <= kPoolBufSize,
              "an eager packet must fit a pool buffer");
static_assert(kMaxPackBytes + sizeof(PktHeader) <= kPoolBufSize,
              "a kPack packet must fit a pool buffer");

Session::Session(std::string name, SessionConfig config)
    : name_(std::move(name)), config_(config), strategy_(config.aggregation) {
  if (config_.pool_bufs_per_rail < 1) {
    throw std::invalid_argument("Session: need at least one pool buffer");
  }
  if (config_.pool_bufs_initial < 1) {
    throw std::invalid_argument("Session: need at least one initial buffer");
  }
}

Session::~Session() = default;

Gate& Session::create_gate(std::vector<transport::IChannel*> rails,
                           int peer_rank) {
  if (rails.empty()) {
    throw std::invalid_argument("Session::create_gate: no rails");
  }
  for (transport::IChannel* ch : rails) {
    if (ch == nullptr || !ch->connected()) {
      throw std::invalid_argument(
          "Session::create_gate: rail channel missing or unconnected");
    }
  }
  auto gate = std::make_unique<Gate>(*this, std::move(rails), peer_rank);
  Gate& ref = *gate;
  gates_lock_.lock();
  gates_.push_back(std::move(gate));
  gates_lock_.unlock();
  return ref;
}

int Session::progress() {
  // Snapshot the table into thread-local scratch (allocation-free in
  // steady state) and iterate outside the lock: a gate's progress can
  // create new gates — forwarded traffic for an unwired peer triggers the
  // lazy connector — which must not deadlock against this very loop.
  thread_local std::vector<Gate*> scratch;
  scratch.clear();
  gates_lock_.lock();
  scratch.reserve(gates_.size());
  for (auto& g : gates_) scratch.push_back(g.get());
  gates_lock_.unlock();
  int events = 0;
  for (Gate* g : scratch) events += g->progress();
  return events;
}

}  // namespace piom::nmad
