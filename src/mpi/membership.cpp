#include "mpi/membership.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "mpi/failure.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace piom::mpi {

const char* overlay_mode_name(OverlayMode m) {
  switch (m) {
    case OverlayMode::kDense: return "dense";
    case OverlayMode::kSparse: return "sparse";
  }
  return "?";
}

OverlayMode resolve_overlay_mode(const OverlayConfig& config, int nranks) {
  if (config.mode.has_value()) return *config.mode;
  const std::string v = util::env::str("PIOM_OVERLAY", "auto");
  if (v == "dense") return OverlayMode::kDense;
  if (v == "sparse") return OverlayMode::kSparse;
  if (v != "auto") {
    // Junk must not silently pick a topology — a suite forced onto the
    // wrong overlay tests nothing (same rule as $PIOM_TRANSPORT).
    throw std::invalid_argument("PIOM_OVERLAY: expected dense|sparse|auto, got '" +
                                v + "'");
  }
  return nranks >= kSparseThreshold ? OverlayMode::kSparse
                                    : OverlayMode::kDense;
}

// ---------------------------------------------------------------------------
// ForwardInbox
// ---------------------------------------------------------------------------

ForwardInbox::ForwardInbox(nmad::Session& session, nmad::WildSet& wilds,
                           int nranks)
    : session_(session),
      wilds_(wilds),
      nranks_(nranks),
      origin_(new std::atomic<nmad::Gate*>[static_cast<std::size_t>(nranks)]) {
  for (int r = 0; r < nranks_; ++r) {
    origin_[static_cast<std::size_t>(r)].store(nullptr,
                                               std::memory_order_relaxed);
  }
}

ForwardInbox::~ForwardInbox() {
  for (int r = 0; r < nranks_; ++r) {
    delete origin_[static_cast<std::size_t>(r)].load(
        std::memory_order_acquire);
  }
}

nmad::Gate& ForwardInbox::origin(int src) {
  std::atomic<nmad::Gate*>& slot = origin_[static_cast<std::size_t>(src)];
  nmad::Gate* g = slot.load(std::memory_order_acquire);
  if (g != nullptr) return *g;
  std::lock_guard<std::mutex> lk(create_lock_);
  g = slot.load(std::memory_order_relaxed);
  if (g != nullptr) return *g;
  // Not Session::create_gate: the session's table is what the failure
  // detector pings and times out, and a rail-less gate never hears from
  // its peer. Parked any-source receives are registered before the gate
  // is published, so they precede every directed receive posted on it.
  g = new nmad::Gate(session_, {}, src);
  wilds_.add_gate(g);
  slot.store(g, std::memory_order_release);
  return *g;
}

void ForwardInbox::deliver(const nmad::ForwardFrame& frame) {
  if (frame.src < 0 || frame.src >= nranks_) return;
  nmad::Gate& g = origin(frame.src);
  if (frame.nfrags <= 1) {
    if (!g.peer_dead()) {
      g.arrive_eager(frame.tag, frame.fseq, frame.data, frame.len);
    }
    return;
  }
  // Reassembly keyed by (src, fseq). Fragments may arrive out of order
  // (per-hop retransmission on lossy links reorders), so each lands in its
  // own slot; offsets are implied by frag * kForwardChunk.
  std::vector<uint8_t> msg;
  Tag tag = 0;
  lock_.lock();
  if (g.peer_dead()) {
    lock_.unlock();
    return;  // verdict already delivered — nothing may match this data
  }
  auto [it, fresh] =
      assembling_.try_emplace(std::make_pair(frame.src, frame.fseq));
  Assembly& a = it->second;
  if (fresh) {
    a.tag = frame.tag;
    a.frags.resize(frame.nfrags);
  }
  if (frame.frag >= a.frags.size() ||
      !a.frags[frame.frag].empty()) {  // malformed or duplicate
    lock_.unlock();
    return;
  }
  a.frags[frame.frag].assign(frame.data, frame.data + frame.len);
  if (++a.landed < a.frags.size()) {
    lock_.unlock();
    return;
  }
  tag = a.tag;
  std::size_t total = 0;
  for (const auto& f : a.frags) total += f.size();
  msg.reserve(total);
  for (const auto& f : a.frags) msg.insert(msg.end(), f.begin(), f.end());
  assembling_.erase(it);
  lock_.unlock();
  g.arrive_eager(tag, frame.fseq, msg.data(), msg.size());
}

void ForwardInbox::fail_source(int src) {
  if (src < 0 || src >= nranks_) return;
  // Evict first: a deliver() that takes lock_ after the sweep below sees
  // the dead gate and drops its fragment instead of starting a reassembly.
  origin(src).fail_peer();
  lock_.lock();
  for (auto it = assembling_.begin(); it != assembling_.end();) {
    it = (it->first.first == src) ? assembling_.erase(it) : std::next(it);
  }
  lock_.unlock();
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

Membership::Membership(nmad::Session& session, int rank, int nranks,
                       OverlayMode mode, int fanout)
    : session_(session),
      rank_(rank),
      nranks_(nranks),
      mode_(mode),
      fanout_(std::max(1, fanout)),
      gate_(new std::atomic<nmad::Gate*>[static_cast<std::size_t>(nranks)]),
      inbox_(session, wilds_, nranks),
      fseq_(new std::atomic<uint64_t>[static_cast<std::size_t>(nranks)]),
      flooded_(static_cast<std::size_t>(nranks), false) {
  for (int r = 0; r < nranks_; ++r) {
    gate_[static_cast<std::size_t>(r)].store(nullptr,
                                             std::memory_order_relaxed);
    fseq_[static_cast<std::size_t>(r)].store(0, std::memory_order_relaxed);
  }
  // Tree shape (meaningful in both modes — the tree collectives read it).
  if (rank_ > 0) parent_ = (rank_ - 1) / fanout_;
  for (int c = fanout_ * rank_ + 1;
       c <= fanout_ * rank_ + fanout_ && c < nranks_; ++c) {
    children_.push_back(c);
  }
  if (sparse()) {
    in_view_.assign(static_cast<std::size_t>(nranks_), false);
    auto add = [&](int peer) {
      if (peer < 0 || peer >= nranks_ || peer == rank_) return;
      if (in_view_[static_cast<std::size_t>(peer)]) return;
      in_view_[static_cast<std::size_t>(peer)] = true;
      view_.push_back(peer);
    };
    add(parent_);
    for (int c : children_) add(c);
    // Ring neighbours: a second, tree-independent path for the death
    // flood, and the wrap-around edge that keeps leaf-to-leaf hop counts
    // bounded.
    add((rank_ + 1) % nranks_);
    add((rank_ + nranks_ - 1) % nranks_);
  }
  session_.set_forward_handler(
      [this](const nmad::ForwardFrame& f) { handle_forward(f); });
}

Membership::~Membership() = default;

bool Membership::in_view(int peer) const {
  if (peer < 0 || peer >= nranks_ || peer == rank_) return false;
  if (!sparse()) return true;
  return in_view_[static_cast<std::size_t>(peer)];
}

int Membership::next_hop(int dst) const {
  if (!sparse() || in_view(dst)) return dst;
  // Walk dst's ancestor chain: if some ancestor is one of our children,
  // dst sits in that child's subtree; otherwise route up through our
  // parent. Terminates because the chain reaches the root.
  int a = dst;
  while (a > 0) {
    const int p = (a - 1) / fanout_;
    if (p == rank_) return a;
    a = p;
  }
  return parent_;
}

void Membership::set_connector(GateConnector connector) {
  connector_ = std::move(connector);
}

void Membership::set_on_gate_created(std::function<void(nmad::Gate&)> cb) {
  on_gate_created_ = std::move(cb);
}

void Membership::attach_detector(FailureDetector* fd) {
  fd_.store(fd, std::memory_order_release);
  fd->on_rank_failed([this](int dead) { on_local_failure(dead); });
}

void Membership::establish_view() {
  if (!sparse()) return;
  for (int peer : view_) ensure_gate(peer);
}

nmad::Gate& Membership::ensure_gate(int peer) {
  if (peer < 0 || peer >= nranks_ || peer == rank_) {
    throw std::invalid_argument("Membership::ensure_gate: bad peer");
  }
  nmad::Gate* g =
      gate_[static_cast<std::size_t>(peer)].load(std::memory_order_acquire);
  if (g != nullptr) return *g;
  if (!connector_) {
    throw std::logic_error("Membership::ensure_gate: no connector installed");
  }
  // The connector wires the transport pair and installs BOTH sides' gates
  // (peer first). Deliberately called without install_lock_ held: it takes
  // the cluster's wiring lock and the peer's install lock, each acquired
  // and released in sequence — never nested with ours. Concurrent calls
  // for the same peer are safe because every step is idempotent.
  connector_(peer);
  g = gate_[static_cast<std::size_t>(peer)].load(std::memory_order_acquire);
  if (g == nullptr) {
    throw std::logic_error("Membership::ensure_gate: connector failed");
  }
  return *g;
}

nmad::Gate* Membership::existing_gate(int peer) const {
  if (peer < 0 || peer >= nranks_ || peer == rank_) return nullptr;
  return gate_[static_cast<std::size_t>(peer)].load(std::memory_order_acquire);
}

nmad::Gate& Membership::install_gate(
    int peer, const std::vector<transport::IChannel*>& rails) {
  std::lock_guard<std::mutex> lk(install_lock_);
  nmad::Gate* existing =
      gate_[static_cast<std::size_t>(peer)].load(std::memory_order_relaxed);
  if (existing != nullptr) return *existing;
  nmad::Gate& g = session_.create_gate(rails, peer);
  // A late gate must behave as if it had existed all along: replay every
  // recorded revocation window (a dying collective's NACK guarantee must
  // hold on gates created after the revoke), and adopt an already-issued
  // death verdict before the gate is reachable.
  {
    windows_lock_.lock();
    const auto windows = windows_;
    windows_lock_.unlock();
    for (const auto& [mask, value] : windows) g.revoke_tags(mask, value);
  }
  FailureDetector* fd = fd_.load(std::memory_order_acquire);
  if (fd != nullptr && fd->rank_failed(peer)) g.fail_peer();
  wilds_.add_gate(&g);  // pending any-source receives start covering it
  if (on_gate_created_) on_gate_created_(g);  // engine starts polling it
  // Publish last: a reader that sees the pointer sees a fully wired gate.
  gate_[static_cast<std::size_t>(peer)].store(&g, std::memory_order_release);
  installed_.fetch_add(1, std::memory_order_release);
  return g;
}

void Membership::forward_send(nmad::SendRequest& req, int dst, Tag tag,
                              const void* buf, std::size_t len) {
  req.gate = nullptr;
  req.tag = tag;
  req.buf = buf;
  req.len = len;
  req.rdv = false;
  req.core.reset();
  if (dst < 0 || dst >= nranks_ || dst == rank_) {
    throw std::invalid_argument("Membership::forward_send: bad dst");
  }
  FailureDetector* fd = fd_.load(std::memory_order_acquire);
  if (fd != nullptr && fd->rank_failed(dst)) {
    req.core.mark_failed();
    req.core.complete();
    return;
  }
  const uint64_t fseq = fseq_[static_cast<std::size_t>(dst)].fetch_add(
      1, std::memory_order_relaxed);
  stats_.originated.fetch_add(1, std::memory_order_relaxed);
  // isend_forward error-completes the request itself when the first hop's
  // peer is already declared dead.
  ensure_gate(next_hop(dst)).isend_forward(req, rank_, dst, tag, fseq, buf,
                                           len);
}

void Membership::handle_forward(const nmad::ForwardFrame& frame) {
  if (frame.dst == nmad::kForwardFloodDst) {
    if (frame.tag == kDeathNoticeTag && frame.len >= sizeof(uint32_t)) {
      uint32_t dead = 0;
      std::memcpy(&dead, frame.data, sizeof(dead));
      flood_death(static_cast<int>(dead), frame.via);
      FailureDetector* fd = fd_.load(std::memory_order_acquire);
      // mark_dead_external is idempotent, which is what terminates the
      // epidemic: an already-known verdict neither evicts nor re-floods.
      if (fd != nullptr) fd->mark_dead_external(static_cast<int>(dead));
    } else {
      PIOM_LOG_WARN("membership[%d]: unknown flood frame tag=0x%x", rank_,
                    frame.tag);
    }
    return;
  }
  if (frame.dst == rank_) {
    stats_.delivered.fetch_add(1, std::memory_order_relaxed);
    inbox_.deliver(frame);
    return;
  }
  if (frame.dst < 0 || frame.dst >= nranks_) {
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    PIOM_LOG_WARN("membership[%d]: dropping forward frame for bad dst %d",
                  rank_, frame.dst);
    return;
  }
  const int next = next_hop(frame.dst);
  FailureDetector* fd = fd_.load(std::memory_order_acquire);
  if (next < 0 ||
      (fd != nullptr &&
       (fd->rank_failed(frame.dst) || fd->rank_failed(next)))) {
    // No route (dead hop / dead destination). The per-hop ack already
    // covered this fragment, so the loss is end-to-end: the origin learns
    // of the death through the detector, not through a send error.
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stats_.relayed.fetch_add(1, std::memory_order_relaxed);
  ensure_gate(next).forward_raw(frame);
}

void Membership::flood_death(int dead, int via) {
  if (!sparse()) return;  // dense ranks detect locally on their own gates
  if (dead < 0 || dead >= nranks_) return;
  flood_lock_.lock();
  if (flooded_[static_cast<std::size_t>(dead)]) {
    flood_lock_.unlock();
    return;
  }
  flooded_[static_cast<std::size_t>(dead)] = true;
  flood_lock_.unlock();
  stats_.death_notices.fetch_add(1, std::memory_order_relaxed);
  const uint32_t payload = static_cast<uint32_t>(dead);
  nmad::ForwardFrame notice;
  notice.src = rank_;
  notice.dst = nmad::kForwardFloodDst;
  notice.tag = kDeathNoticeTag;
  notice.fseq = 0;
  notice.frag = 0;
  notice.nfrags = 1;
  notice.data = reinterpret_cast<const uint8_t*>(&payload);
  notice.len = sizeof(payload);
  FailureDetector* fd = fd_.load(std::memory_order_acquire);
  for (int peer : view_) {
    if (peer == via || peer == dead) continue;
    if (fd != nullptr && fd->rank_failed(peer)) continue;
    ensure_gate(peer).forward_raw(notice);  // no-op on a dead gate
  }
}

void Membership::on_local_failure(int dead) {
  // Messages routed *through* the dead rank are lost; messages *from* it
  // must stop matching (gate-eviction semantics for the forwarded path).
  inbox_.fail_source(dead);
  flood_death(dead, /*via=*/-1);
  FailureDetector* fd = fd_.load(std::memory_order_acquire);
  if (fd == nullptr) return;
  // Isolation rule: when every peer this rank has a gate to is dead, the
  // rank is cut off — in sparse mode it can never hear another heartbeat,
  // so adopt the verdict for everyone rather than hang. The exchange guard
  // keeps the sweep out of the nested callbacks it itself triggers.
  if (isolating_.exchange(true, std::memory_order_acq_rel)) return;
  int installed = 0;
  int dead_peers = 0;
  for (int r = 0; r < nranks_; ++r) {
    if (gate_[static_cast<std::size_t>(r)].load(std::memory_order_acquire) ==
        nullptr) {
      continue;
    }
    ++installed;
    if (fd->rank_failed(r)) ++dead_peers;
  }
  if (installed > 0 && installed == dead_peers) {
    for (int r = 0; r < nranks_; ++r) {
      if (r != rank_) fd->mark_dead_external(r);
    }
  }
  isolating_.store(false, std::memory_order_release);
}

void Membership::revoke_all(Tag mask, Tag value) {
  windows_lock_.lock();
  windows_.emplace_back(mask, value);
  windows_lock_.unlock();
  for (int r = 0; r < nranks_; ++r) {
    nmad::Gate* g =
        gate_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
    if (g != nullptr) g->revoke_tags(mask, value);
  }
}

MembershipStats Membership::stats() const {
  MembershipStats out;
  out.forwards_originated = stats_.originated.load(std::memory_order_relaxed);
  out.forwards_relayed = stats_.relayed.load(std::memory_order_relaxed);
  out.forwards_delivered = stats_.delivered.load(std::memory_order_relaxed);
  out.forwards_dropped = stats_.dropped.load(std::memory_order_relaxed);
  out.death_notices = stats_.death_notices.load(std::memory_order_relaxed);
  return out;
}

}  // namespace piom::mpi
