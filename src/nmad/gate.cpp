#include "nmad/gate.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "nmad/session.hpp"
#include "nmad/wildset.hpp"
#include "util/log.hpp"
#include "util/timing.hpp"

namespace piom::nmad {

Gate::Gate(Session& session, std::vector<transport::IChannel*> rails,
           int peer_rank)
    : session_(session),
      peer_rank_(peer_rank),
      matcher_(session.config().matcher) {
  // Warm-up is lazy: post a small initial buffer set per rail and let
  // poll_rail() grow it towards pool_bufs_per_rail under RX pressure, so
  // an N-rank world doesn't pay O(N^2) x 64KiB for mostly-idle pairs.
  // Safe because both transports stage arrivals (driver-side copy) when no
  // receive buffer is posted — exhaustion degrades, never drops.
  const int bufs = std::min(session_.config().pool_bufs_initial,
                            session_.config().pool_bufs_per_rail);
  for (std::size_t i = 0; i < rails.size(); ++i) {
    RailState& r = rails_.emplace_back();
    r.ch = rails[i];
    r.index = static_cast<int>(i);
    rail_latency_us_.push_back(r.ch->latency_us());
    rail_bandwidths_.push_back(r.ch->bandwidth_GBps());
    for (int b = 0; b < bufs; ++b) {
      r.pool.push_back(PoolBuf{this, r.index, std::vector<uint8_t>(kPoolBufSize)});
    }
    // deque references are stable under push_back (lazy growth included):
    // post every pool buffer now and recycle them forever after.
    for (PoolBuf& pb : r.pool) {
      r.ch->post_recv(pb.data.data(), pb.data.size(),
                      reinterpret_cast<uint64_t>(&pb));
    }
    r.posted_bufs = bufs;
  }
  recv_bufs_hw_.store(static_cast<uint64_t>(bufs), std::memory_order_relaxed);
  // Liveness anchor: a lazily-created gate has heard nothing yet, but the
  // peer is not thereby suspect — grant it one full silence window from
  // creation (the detector also anchors against its own start time).
  last_heard_ns_.store(util::now_ns(), std::memory_order_release);
}

Gate::~Gate() {
  // Teardown protocol: wait until the hardware is quiet on both ends of
  // every rail, then drain the completion queues so in-flight packet
  // wrappers are reclaimed. Requests still incomplete at this point are
  // abandoned (their owner is responsible for waiting before teardown) —
  // we deliberately do NOT touch them, they may already be destroyed.
  for (RailState& rail : rails_) {
    rail.ch->quiesce();
    if (rail.ch->peer() != nullptr) rail.ch->peer()->quiesce();
  }
  transport::Completion c;
  for (RailState& rail : rails_) {
    while (rail.ch->poll_tx(c)) {
      if (c.kind == transport::Completion::Kind::kSend) {
        auto* pw = reinterpret_cast<PacketWrapper*>(c.wrid);
        // Unacknowledged reliable packets are reclaimed from unacked_
        // below — don't double-release them here.
        if (!pw->awaiting_ack) pw_pool_.release(pw);
      }
    }
    while (rail.ch->poll_rx(c)) {
      // Discard: the arrival sits in our (still-alive) pool buffer.
    }
  }
  for (PacketWrapper* pw : unacked_) pw_pool_.release(pw);
  unacked_.clear();
}

// ---------------------------------------------------------------- send path

void Gate::isend(SendRequest& req, Tag tag, const void* buf, std::size_t len,
                 bool defer) {
  req.gate = this;
  req.tag = tag;
  req.buf = buf;
  req.len = len;
  req.next = nullptr;
  req.rdv = len > kEagerThreshold;
  req.core.reset();
  req.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  lock_.lock();
  if (peer_dead_.load(std::memory_order_acquire)) {
    // Checked under lock_: fail_peer() flips the flag before sweeping the
    // pending FIFO, so a request enqueued after its sweep would hang.
    lock_.unlock();
    req.core.mark_failed();
    req.core.complete();
    return;
  }
  if (pending_tail_ != nullptr) {
    pending_tail_->next = &req;
    pending_tail_ = &req;
  } else {
    pending_head_ = pending_tail_ = &req;
  }
  ++pending_count_;
  lock_.unlock();
  if (!defer) flush();
}

void Gate::flush() {
  // One flusher at a time: each pops under lock_ but posts outside it, so
  // two concurrent drains could put same-tag sends on the wire swapped
  // (MPI's non-overtaking rule). A caller that finds a drain running asks
  // the owner for another pass and leaves; the owner re-drains until no
  // pass is asked for. The re-check after releasing ownership (seq_cst,
  // paired with the caller's store-then-exchange) loses no request.
  struct Release {  // gives ownership back even if a drain throws
    std::atomic<bool>& owner;
    ~Release() { owner.store(false); }
  };
  flush_again_.store(true);
  while (flush_again_.load()) {
    if (flushing_.exchange(true)) return;  // the owner will see the request
    const Release release{flushing_};
    while (flush_again_.exchange(false)) drain_pending();
  }
}

void Gate::drain_pending() {
  // The strategy layer: drain the pending FIFO, turning requests into wire
  // packets — one per eager message, one RTS per rendezvous, or one kPack
  // covering a run of small messages when aggregation is enabled.
  const bool aggregation = session_.strategy().aggregation();
  for (;;) {
    lock_.lock();
    SendRequest* first = pending_head_;
    if (first == nullptr) {
      lock_.unlock();
      return;
    }
    // Pop the head.
    pending_head_ = first->next;
    if (pending_head_ == nullptr) pending_tail_ = nullptr;
    --pending_count_;

    if (first->rdv) {
      rdv_waiting_fin_.push_back(first);
      stats_.rdv_sent++;
      lock_.unlock();
      PacketWrapper* pw = pw_pool_.acquire();
      PktHeader hdr;
      hdr.kind = static_cast<uint8_t>(PktKind::kRts);
      hdr.tag = first->tag;
      hdr.seq = first->seq;
      hdr.len = first->len;
      hdr.raddr = reinterpret_cast<uint64_t>(first->buf);
      pw->begin(hdr);
      // RTS is control traffic: rail 0 keeps the handshake ordered.
      post_pw(pw, 0);
      continue;
    }

    // Gather a batch of eager messages for aggregation by detaching an
    // intrusive sub-chain [first..last] of the pending FIFO — the requests
    // are already linked, so batching allocates nothing. Stop at the first
    // rendezvous request to keep the FIFO order of RTS vs eager simple.
    SendRequest* last = first;
    int nmsgs = 1;
    std::size_t body_bytes = sizeof(PackEntry) + first->len;
    if (aggregation) {
      while (pending_head_ != nullptr && !pending_head_->rdv &&
             nmsgs < kMaxPackMsgs &&
             body_bytes + sizeof(PackEntry) + pending_head_->len <=
                 kMaxPackBytes) {
        last = pending_head_;
        pending_head_ = last->next;
        if (pending_head_ == nullptr) pending_tail_ = nullptr;
        --pending_count_;
        body_bytes += sizeof(PackEntry) + last->len;
        ++nmsgs;
      }
    }
    // Terminate the chain: `last` may still point into the remaining FIFO.
    last->next = nullptr;
    if (nmsgs >= 2) {
      stats_.packs_sent++;
      stats_.msgs_packed += static_cast<uint64_t>(nmsgs);
      stats_.eager_sent += static_cast<uint64_t>(nmsgs);
    } else {
      stats_.eager_sent++;
    }
    lock_.unlock();

    // Serialize outside the lock, straight into a recycled wrapper (wire
    // image and request list keep their capacity across reuse): payload
    // buffers are caller-owned and stable until completion.
    PacketWrapper* pw = pw_pool_.acquire();
    if (nmsgs == 1) {
      PktHeader hdr;
      hdr.kind = static_cast<uint8_t>(PktKind::kEager);
      hdr.tag = first->tag;
      hdr.seq = first->seq;
      hdr.len = first->len;
      pw->begin(hdr);
      pw->append(first->buf, first->len);
      pw->reqs.push_back(first);
    } else {
      PktHeader hdr;
      hdr.kind = static_cast<uint8_t>(PktKind::kPack);
      hdr.nmsgs = static_cast<uint16_t>(nmsgs);
      hdr.seq = first->seq;
      pw->begin(hdr);
      for (SendRequest* req = first; req != nullptr; req = req->next) {
        PackEntry entry;
        entry.tag = req->tag;
        entry.seq = req->seq;
        entry.len = req->len;
        pw->append(&entry, sizeof(entry));
        pw->append(req->buf, req->len);
        pw->reqs.push_back(req);
      }
      pw->header().len = pw->wire.size() - sizeof(PktHeader);
    }
    post_pw(pw, Strategy::select_eager_rail(rail_latency_us_));
  }
}

void Gate::post_pw(PacketWrapper* pw, int rail_index) {
  pw->gate = this;
  pw->rail = rail_index;
  const bool reliable = session_.config().reliable;
  const auto kind = static_cast<PktKind>(pw->header().kind);
  // Acks and pings live outside the reliability layer. They must not
  // consume a sequence number either: a consumed-but-never-tracked seq is
  // a permanent hole the receiver's dedup floor can never slide past,
  // which would pin every later seq in the sparse set.
  const bool sequenced = kind != PktKind::kAck && kind != PktKind::kPing;
  lock_.lock();
  if (sequenced) {
    pw->pkt_seq = next_pkt_seq_++;
  } else {
    pw->pkt_seq = 0;
  }
  pw->header().pkt_seq = pw->pkt_seq;
  // Once the peer is declared dead nothing acks anymore: leave the packet
  // untracked so its TX completion finishes the requests on the spot
  // ("sent", never "delivered" — same meaning as the lossy-drop model).
  const bool track = reliable && sequenced &&
                     !peer_dead_.load(std::memory_order_acquire);
  if (track) {
    // Register BEFORE posting: the ack may arrive arbitrarily fast.
    pw->awaiting_ack = true;
    pw->in_flight = true;
    pw->acked = false;
    pw->last_post_ns = util::now_ns();
    unacked_.push_back(pw);
  }
  lock_.unlock();
  rails_[static_cast<std::size_t>(rail_index)].ch->post_send(
      pw->wire.data(), pw->wire.size(), reinterpret_cast<uint64_t>(pw));
}

bool Gate::dedup_mark(uint64_t pkt_seq) {
  if (pkt_seq <= dedup_floor_) return false;
  if (!dedup_sparse_.insert(pkt_seq).second) return false;
  // Compact: slide the floor over contiguously-seen sequence numbers.
  while (dedup_sparse_.erase(dedup_floor_ + 1) != 0) ++dedup_floor_;
  return true;
}

void Gate::send_ack(uint64_t pkt_seq) {
  PacketWrapper* pw = pw_pool_.acquire();
  PktHeader hdr;
  hdr.kind = static_cast<uint8_t>(PktKind::kAck);
  hdr.seq = pkt_seq;  // the acknowledged wire packet
  pw->begin(hdr);
  post_pw(pw, 0);
  lock_.lock();
  stats_.acks_sent++;
  lock_.unlock();
}

void Gate::finalize_reliable_pw(PacketWrapper* pw) {
  for (SendRequest* req : pw->reqs) req->core.complete();
  pw_pool_.release(pw);
}

void Gate::handle_ack(const PktHeader& hdr) {
  PacketWrapper* to_finalize = nullptr;
  lock_.lock();
  for (auto it = unacked_.begin(); it != unacked_.end(); ++it) {
    if ((*it)->pkt_seq == hdr.seq) {
      PacketWrapper* pw = *it;
      pw->acked = true;
      if (!pw->in_flight) {
        unacked_.erase(it);
        to_finalize = pw;
      }
      break;
    }
  }
  lock_.unlock();
  if (to_finalize != nullptr) finalize_reliable_pw(to_finalize);
}

void Gate::check_retransmits() {
  if (!session_.config().reliable) return;
  // A dead peer never acks: without this cut-off the RTO loop would repost
  // the same packets forever (the lossy-link livelock). fail_peer()
  // error-completes the senders parked behind them instead.
  if (peer_dead_.load(std::memory_order_acquire)) return;
  const int64_t now = util::now_ns();
  const auto rto_ns = static_cast<int64_t>(session_.config().rto_us * 1e3);
  std::vector<PacketWrapper*> to_repost;
  lock_.lock();
  for (PacketWrapper* pw : unacked_) {
    if (!pw->in_flight && !pw->acked && now - pw->last_post_ns > rto_ns) {
      pw->in_flight = true;
      pw->last_post_ns = now;
      stats_.retransmits++;
      to_repost.push_back(pw);
    }
  }
  lock_.unlock();
  for (PacketWrapper* pw : to_repost) {
    rails_[static_cast<std::size_t>(pw->rail)].ch->post_send(
        pw->wire.data(), pw->wire.size(), reinterpret_cast<uint64_t>(pw));
  }
}

// ---------------------------------------------- failure detection / eviction

void Gate::send_ping() {
  if (peer_dead_.load(std::memory_order_acquire)) return;
  PacketWrapper* pw = pw_pool_.acquire();
  PktHeader hdr;
  hdr.kind = static_cast<uint8_t>(PktKind::kPing);
  pw->begin(hdr);
  post_pw(pw, 0);
  lock_.lock();
  stats_.pings_sent++;
  lock_.unlock();
}

void Gate::fail_peer() {
  if (peer_dead_.exchange(true, std::memory_order_acq_rel)) return;
  // 1) Quiesce the hardware on both ends of every rail. After this no
  //    engine touches a caller buffer again, so the owners of the requests
  //    error-completed below may free their buffers immediately — the same
  //    guarantee normal completion gives. (Shmem quiesce self-drives the
  //    consumer role, so it terminates even when the peer host is gone.)
  for (RailState& rail : rails_) {
    rail.ch->quiesce();
    if (rail.ch->peer() != nullptr) rail.ch->peer()->quiesce();
  }
  // 2) Collect everything parked on the peer under the lock; complete
  //    outside it (completion wakes waiters that may re-enter the gate).
  std::vector<SendRequest*> dead_sends;
  std::vector<RecvRequest*> dead_recvs;
  std::vector<PacketWrapper*> to_release;
  lock_.lock();
  for (SendRequest* s = pending_head_; s != nullptr;) {
    SendRequest* next = s->next;
    dead_sends.push_back(s);
    s = next;
  }
  pending_head_ = pending_tail_ = nullptr;
  pending_count_ = 0;
  for (SendRequest* s : rdv_waiting_fin_) dead_sends.push_back(s);
  rdv_waiting_fin_.clear();
  for (auto it = unacked_.begin(); it != unacked_.end();) {
    PacketWrapper* pw = *it;
    for (SendRequest* s : pw->reqs) dead_sends.push_back(s);
    pw->reqs.clear();
    if (pw->in_flight) {
      // The rail still owes a TX completion (it is sitting in the CQ after
      // the quiesce above): flag the wrapper acked so the normal completion
      // path finalizes and recycles it — its requests are already ours.
      pw->acked = true;
      ++it;
    } else {
      it = unacked_.erase(it);
      to_release.push_back(pw);
    }
  }
  lock_.unlock();
  // Matching state drains under the matcher's own lock. The peer_dead_
  // flag flipped above, so an irecv that enters the matcher after this
  // drain fails fast, and one that entered before is swept here — the same
  // flag-then-sweep handshake the pending FIFO uses with lock_.
  matcher_.lock();
  matcher_.drain_posted(dead_recvs);  // claim-checked: stale entries drop
  // Staged unexpected arrivals are unreachable once the peer is evicted
  // (every later irecv on this gate fails fast, so nothing can ever match
  // them) — drop them now instead of pinning memory until destruction.
  matcher_.clear_unexpected();
  matcher_.unlock();
  for (PacketWrapper* pw : to_release) pw_pool_.release(pw);
  for (SendRequest* req : dead_sends) {
    req->core.mark_failed();
    req->core.complete();
  }
  for (RecvRequest* req : dead_recvs) {
    if (req->wild_set != nullptr) req->wild_set->purge(*req, this);
    req->source = peer_rank_;
    req->core.mark_failed();
    req->core.complete();
  }
}

bool Gate::cancel_recv(RecvRequest& req) {
  matcher_.lock();
  const TagMatcher::Cancel outcome = matcher_.cancel_posted(req);
  matcher_.unlock();
  // kAbsent: matched already (delivery may still be in flight — the caller
  // keeps polling completion) or registered on another gate. kStale: a
  // sibling gate won the wildcard.
  if (outcome != TagMatcher::Cancel::kClaimed) return false;
  if (req.wild_set != nullptr) req.wild_set->purge(req, this);
  req.source = peer_rank_;
  req.core.mark_failed();
  req.core.complete();
  return true;
}

void Gate::revoke_tags(Tag mask, Tag value) {
  // Dead gate: fail_peer already error-completed the peer's senders and
  // dropped the staged arrivals, and a NACK towards a quiesced rail would
  // go nowhere anyway.
  if (peer_dead_.load(std::memory_order_acquire)) return;
  std::vector<RdvStub> to_nack;
  matcher_.lock();
  matcher_.revoke(mask, value, to_nack);
  matcher_.unlock();
  recv_stats_.rts_nacked.fetch_add(to_nack.size(), std::memory_order_relaxed);
  for (const RdvStub& rts : to_nack) send_nack(rts.tag, rts.seq);
}

void Gate::send_nack(Tag tag, uint64_t seq) {
  PacketWrapper* pw = pw_pool_.acquire();
  PktHeader hdr;
  hdr.kind = static_cast<uint8_t>(PktKind::kNack);
  hdr.tag = tag;
  hdr.seq = seq;
  pw->begin(hdr);
  // Control traffic on rail 0, like RTS/FIN. post_pw runs it through the
  // reliability layer (sequenced + retransmitted), so on a lossy link the
  // refusal cannot itself be lost.
  post_pw(pw, 0);
}

// ------------------------------------------------- multi-hop forwarding

void Gate::post_forward_frag(int src, int dst, Tag tag, uint64_t fseq,
                             uint32_t frag, uint16_t nfrags, const void* data,
                             std::size_t len, SendRequest* req) {
  assert(len + sizeof(PktHeader) <= kPoolBufSize);
  PacketWrapper* pw = pw_pool_.acquire();
  PktHeader hdr;
  hdr.kind = static_cast<uint8_t>(PktKind::kForward);
  hdr.nmsgs = nfrags;
  hdr.tag = tag;
  hdr.seq = fseq;
  hdr.len = len;
  hdr.raddr = (static_cast<uint64_t>(static_cast<uint16_t>(src)) << 48) |
              (static_cast<uint64_t>(static_cast<uint16_t>(dst)) << 32) |
              frag;
  pw->begin(hdr);
  if (len > 0) pw->append(data, len);
  if (req != nullptr) pw->reqs.push_back(req);
  // Control-framed like RTS/NACK: rail 0 keeps per-hop FIFO order (the
  // deterministic route plus per-hop FIFO gives end-to-end fragment order),
  // and post_pw runs the packet through the reliability layer, so the
  // guarantee composes hop by hop.
  post_pw(pw, 0);
}

void Gate::isend_forward(SendRequest& req, int src, int dst, Tag tag,
                         uint64_t fseq, const void* buf, std::size_t len) {
  req.gate = this;
  req.tag = tag;
  req.buf = buf;
  req.len = len;
  req.next = nullptr;
  req.rdv = false;
  req.seq = fseq;
  req.core.reset();
  if (peer_dead_.load(std::memory_order_acquire)) {
    // The first hop is already gone; nothing can relay this message.
    req.core.mark_failed();
    req.core.complete();
    return;
  }
  const auto* bytes = static_cast<const uint8_t*>(buf);
  const auto nfrags = static_cast<uint16_t>(
      len == 0 ? 1 : (len + kForwardChunk - 1) / kForwardChunk);
  for (uint32_t f = 0; f < nfrags; ++f) {
    const std::size_t off = static_cast<std::size_t>(f) * kForwardChunk;
    const std::size_t flen = len == 0 ? 0 : std::min(kForwardChunk, len - off);
    // The request rides the LAST fragment: per-hop FIFO means its ack
    // implies every earlier fragment was acked too.
    const bool last = f + 1 == nfrags;
    post_forward_frag(src, dst, tag, fseq, f, nfrags,
                      flen > 0 ? bytes + off : nullptr, flen,
                      last ? &req : nullptr);
  }
}

void Gate::forward_raw(const ForwardFrame& frame) {
  // Relays are fire-and-forget: a dead next hop drops the fragment, and
  // the failure detector's verdict (not this relay) error-completes
  // whatever end-to-end operation was waiting on it.
  if (peer_dead_.load(std::memory_order_acquire)) return;
  post_forward_frag(frame.src, frame.dst, frame.tag, frame.fseq, frame.frag,
                    frame.nfrags, frame.data, frame.len, nullptr);
}

void Gate::arrive_eager(Tag tag, uint64_t seq, const uint8_t* payload,
                        std::size_t len) {
  PktHeader hdr;
  hdr.kind = static_cast<uint8_t>(PktKind::kEager);
  hdr.tag = tag;
  hdr.seq = seq;
  hdr.len = len;
  handle_eager(hdr, payload);
}

// ---------------------------------------------------------------- recv path

void Gate::irecv(RecvRequest& req, Tag tag, void* buf, std::size_t cap) {
  req.gate = this;
  req.tag = tag;
  req.buf = buf;
  req.cap = cap;
  req.received = 0;
  req.matched_seq = 0;
  req.source = -1;
  req.wild_set = nullptr;
  req.wild_claim.store(0, std::memory_order_relaxed);
  req.core.reset();
  match_or_post(req);
}

bool Gate::post_wild(RecvRequest& req) {
  if (req.wild_claim.load(std::memory_order_acquire) != 0) {
    // An arrival at a gate registered earlier already claimed the request
    // (delivery may still be in flight) — stop registering. This unlocked
    // read is only a fast path; the authoritative re-check happens in
    // match_or_post under the matcher lock.
    return true;
  }
  return match_or_post(req);
}

bool Gate::match_or_post(RecvRequest& req) {
  matcher_.lock();
  if (req.wild_set != nullptr &&
      req.wild_claim.load(std::memory_order_acquire) != 0) {
    // Re-checked under the matcher lock: a sibling member may have claimed
    // the request and already run WildSet::purge past this gate (its
    // remove_posted found nothing because we had not inserted yet). The
    // purge's remove_posted and this check are serialized by this lock, so
    // either our insert lands before the purge (and is removed by it) or
    // the claim is visible here and we never insert. Without this check a
    // stale registration would outlive the request — the owner completes
    // and frees it — and a later scan would dereference the dangling
    // pointer. This also covers late registrations from WildSet::add_gate
    // (a gate created while the wildcard is parked).
    matcher_.unlock();
    return true;
  }
  if (peer_dead_.load(std::memory_order_acquire)) {
    // Checked under the matcher lock: fail_peer() flips the flag before
    // draining the posted structure, so a receive enqueued after its drain
    // would hang. ULFM-style: a receive from a failed rank fails even if
    // matching unexpected data is still staged — the failure is permanent.
    // For any-source requests one dead candidate fails the whole wildcard,
    // because "no matching sender exists anymore" cannot be distinguished
    // from "the dead one was the sender".
    matcher_.unlock();
    if (!try_claim(req)) return true;  // sibling delivered concurrently
    if (req.wild_set != nullptr) req.wild_set->purge(req, this);
    req.source = peer_rank_;
    req.core.mark_failed();
    req.core.complete();
    return true;
  }
  bool lost = false;
  UnexEntry* entry = matcher_.claim_unexpected(req, lost);
  if (entry == nullptr && !lost) {
    matcher_.insert_posted(req);
    matcher_.unlock();
    return false;
  }
  matcher_.unlock();
  if (lost) return true;  // any-source request claimed by a sibling gate
  if (req.wild_set != nullptr) req.wild_set->purge(req, this);
  deliver_unexpected(req, entry);
  return true;
}

void Gate::deliver_unexpected(RecvRequest& req, UnexEntry* entry) {
  if (entry->rdv) {
    recv_stats_.rdv_recv.fetch_add(1, std::memory_order_relaxed);
    start_pull(req, RdvStub{entry->tag, entry->seq, entry->len, entry->raddr});
  } else {
    deliver_eager(req, entry->data.data(), entry->data.size(), entry->seq,
                  entry->tag);
  }
  matcher_.recycle(entry);
}

void Gate::remove_expected(RecvRequest& req) {
  matcher_.lock();
  matcher_.remove_posted(req);
  matcher_.unlock();
}

void Gate::deliver_eager(RecvRequest& req, const uint8_t* payload,
                         std::size_t len, uint64_t seq, Tag tag) {
  const std::size_t n = std::min(req.cap, len);
  if (n > 0) std::memcpy(req.buf, payload, n);
  req.received = n;
  req.matched_seq = seq;
  req.matched_tag = tag;
  req.gate = this;
  req.source = peer_rank_;
  req.core.complete();
}

// -------------------------------------------------------------- progression

int Gate::progress() {
  flush();
  int events = 0;
  for (int r = 0; r < nrails(); ++r) events += poll_rail(r);
  check_retransmits();
  return events;
}

int Gate::poll_rail(int rail_index) {
  RailState& rail = rails_[static_cast<std::size_t>(rail_index)];
  // Two pollers on the same rail would only duplicate work; skip instead of
  // queueing (other rails / other gates remain pollable concurrently).
  if (!rail.poll_lock.try_lock()) return 0;
  int events = 0;
  int rx = 0;
  transport::Completion c;
  while (rail.ch->poll_rx(c)) {
    auto* pb = reinterpret_cast<PoolBuf*>(c.wrid);
    handle_wire(pb->data.data(), c.bytes, rail_index);
    // Recycle the pool buffer immediately (the wire data was consumed).
    rail.ch->post_recv(pb->data.data(), pb->data.size(),
                       reinterpret_cast<uint64_t>(pb));
    ++events;
    ++rx;
  }
  // Lazy pool growth: a sweep that drained as many arrivals as there are
  // posted buffers means the ring saturated — later arrivals were staged
  // (driver-side copy) instead of landing in our buffers. Double the pool
  // towards the configured ceiling. Guarded by poll_lock; deque push_back
  // keeps references to already-posted buffers stable.
  const int ceiling = session_.config().pool_bufs_per_rail;
  if (rx >= rail.posted_bufs && rail.posted_bufs < ceiling) {
    const int target = std::min(2 * rail.posted_bufs, ceiling);
    for (int b = rail.posted_bufs; b < target; ++b) {
      rail.pool.push_back(
          PoolBuf{this, rail.index, std::vector<uint8_t>(kPoolBufSize)});
      PoolBuf& pb = rail.pool.back();
      rail.ch->post_recv(pb.data.data(), pb.data.size(),
                         reinterpret_cast<uint64_t>(&pb));
    }
    rail.posted_bufs = target;
    recv_pool_growths_.fetch_add(1, std::memory_order_relaxed);
    uint64_t hw = recv_bufs_hw_.load(std::memory_order_relaxed);
    while (hw < static_cast<uint64_t>(target) &&
           !recv_bufs_hw_.compare_exchange_weak(
               hw, static_cast<uint64_t>(target), std::memory_order_relaxed)) {
    }
  }
  while (rail.ch->poll_tx(c)) {
    handle_tx_completion(c);
    ++events;
  }
  rail.poll_lock.unlock();
  return events;
}

void Gate::handle_wire(const uint8_t* data, std::size_t len, int rail_index) {
  (void)rail_index;
  assert(len >= sizeof(PktHeader));
  // Liveness: every arrival proves the peer's host was alive to send it —
  // acks and pings included. The failure detector compares this stamp
  // against its timeout.
  last_heard_ns_.store(util::now_ns(), std::memory_order_release);
  PktHeader hdr;
  std::memcpy(&hdr, data, sizeof(hdr));
  const uint8_t* body = data + sizeof(PktHeader);
  const auto kind = static_cast<PktKind>(hdr.kind);
  if (session_.config().reliable && kind != PktKind::kAck &&
      kind != PktKind::kPing) {
    lock_.lock();
    const bool fresh = dedup_mark(hdr.pkt_seq);
    if (!fresh) stats_.duplicates_dropped++;
    lock_.unlock();
    // Always (re-)acknowledge: the sender may have missed the first ack.
    send_ack(hdr.pkt_seq);
    if (!fresh) return;
  }
  switch (kind) {
    case PktKind::kEager:
      handle_eager(hdr, body);
      break;
    case PktKind::kPack:
      handle_pack(hdr, body, static_cast<std::size_t>(hdr.len));
      break;
    case PktKind::kRts:
      handle_rts(hdr);
      break;
    case PktKind::kFin:
      handle_fin(hdr);
      break;
    case PktKind::kNack:
      handle_nack(hdr);
      break;
    case PktKind::kForward:
      handle_forward(hdr, body);
      break;
    case PktKind::kAck:
      handle_ack(hdr);
      break;
    case PktKind::kPing:
      // Heartbeat: its entire payload is the last_heard_ns_ stamp above.
      lock_.lock();
      stats_.pings_recv++;
      lock_.unlock();
      break;
    default: {
      PIOM_LOG_ERROR(
          "gate: dropping packet with corrupt header (kind=%u len=%zu "
          "tag=%u seq=%llu)",
          hdr.kind, len, hdr.tag, static_cast<unsigned long long>(hdr.seq));
      if (util::log_enabled(util::LogLevel::kError)) {
        char dump[200];
        int off = 0;
        for (std::size_t i = 0; i < 48 && i < len; ++i) {
          off += std::snprintf(dump + off, sizeof(dump) - off, "%02x ", data[i]);
        }
        PIOM_LOG_ERROR("gate: corrupt packet head: %s", dump);
      }
      break;
    }
  }
}

void Gate::handle_forward(const PktHeader& hdr, const uint8_t* payload) {
  ForwardFrame f;
  f.src = static_cast<int>((hdr.raddr >> 48) & 0xFFFFu);
  f.dst = static_cast<int>((hdr.raddr >> 32) & 0xFFFFu);
  f.frag = static_cast<uint32_t>(hdr.raddr & 0xFFFFFFFFu);
  f.tag = hdr.tag;
  f.fseq = hdr.seq;
  f.nfrags = hdr.nmsgs;
  f.data = payload;
  f.len = static_cast<std::size_t>(hdr.len);
  f.via = peer_rank_;
  const Session::ForwardHandler& handler = session_.forward_handler();
  if (!handler) {
    PIOM_LOG_WARN(
        "gate: dropping kForward with no handler installed (src=%d dst=%d "
        "tag=%u)",
        f.src, f.dst, f.tag);
    return;
  }
  handler(f);
}

void Gate::handle_eager(const PktHeader& hdr, const uint8_t* payload) {
  recv_stats_.eager_recv.fetch_add(1, std::memory_order_relaxed);
  matcher_.lock();
  RecvRequest* req = matcher_.claim_for_arrival(hdr.tag);
  if (req != nullptr) {
    matcher_.unlock();
    if (req->wild_set != nullptr) req->wild_set->purge(*req, this);
    deliver_eager(*req, payload, static_cast<std::size_t>(hdr.len), hdr.seq,
                  hdr.tag);
    return;
  }
  // Unexpected: stage a copy into a recycled entry (the pool buffer is
  // reposted right after us).
  matcher_.stage_eager(hdr.tag, hdr.seq, payload,
                       static_cast<std::size_t>(hdr.len));
  matcher_.unlock();
  recv_stats_.unexpected_eager.fetch_add(1, std::memory_order_relaxed);
}

void Gate::handle_pack(const PktHeader& hdr, const uint8_t* body,
                       std::size_t len) {
  const uint8_t* p = body;
  const uint8_t* end = body + len;
  for (uint16_t i = 0; i < hdr.nmsgs; ++i) {
    // Framing is validated at runtime, like the corrupt-header drop in
    // handle_wire: a truncated pack must not read past the packet body.
    // Messages already unpacked stay delivered; the rest of the pack is
    // dropped (the reliability layer acked the packet as a whole, so a
    // corrupt pack is a bug or corruption, not a retransmit candidate).
    if (static_cast<std::size_t>(end - p) < sizeof(PackEntry)) {
      PIOM_LOG_ERROR(
          "gate: dropping truncated pack (msg %u/%u, %zu bytes left, "
          "need %zu entry header)",
          static_cast<unsigned>(i), static_cast<unsigned>(hdr.nmsgs),
          static_cast<std::size_t>(end - p), sizeof(PackEntry));
      return;
    }
    PackEntry entry;
    std::memcpy(&entry, p, sizeof(entry));
    p += sizeof(entry);
    if (static_cast<uint64_t>(end - p) < entry.len) {
      PIOM_LOG_ERROR(
          "gate: dropping truncated pack payload (msg %u/%u tag=%u "
          "len=%llu, %zu bytes left)",
          static_cast<unsigned>(i), static_cast<unsigned>(hdr.nmsgs),
          entry.tag, static_cast<unsigned long long>(entry.len),
          static_cast<std::size_t>(end - p));
      return;
    }
    PktHeader sub;
    sub.kind = static_cast<uint8_t>(PktKind::kEager);
    sub.tag = entry.tag;
    sub.seq = entry.seq;
    sub.len = entry.len;
    handle_eager(sub, p);
    p += entry.len;
  }
}

void Gate::handle_rts(const PktHeader& hdr) {
  matcher_.lock();
  if (matcher_.tag_revoked(hdr.tag)) {
    // No receive will ever be posted for this window (the collective it
    // belongs to is draining towards error completion): refuse the
    // rendezvous so the sender error-completes instead of parking for a
    // FIN that cannot come. Checked before the posted lookup on purpose —
    // a still-queued receive in a revoked window is itself about to be
    // cancelled, and matching it would race the cancel with a pull.
    matcher_.unlock();
    recv_stats_.rts_nacked.fetch_add(1, std::memory_order_relaxed);
    send_nack(hdr.tag, hdr.seq);
    return;
  }
  RecvRequest* req = matcher_.claim_for_arrival(hdr.tag);
  if (req != nullptr) {
    matcher_.unlock();
    recv_stats_.rdv_recv.fetch_add(1, std::memory_order_relaxed);
    if (req->wild_set != nullptr) req->wild_set->purge(*req, this);
    start_pull(*req, RdvStub{hdr.tag, hdr.seq, hdr.len, hdr.raddr});
    return;
  }
  matcher_.stage_rts(hdr.tag, hdr.seq, hdr.len, hdr.raddr);
  matcher_.unlock();
  recv_stats_.unexpected_rts.fetch_add(1, std::memory_order_relaxed);
}

void Gate::handle_fin(const PktHeader& hdr) {
  lock_.lock();
  for (auto it = rdv_waiting_fin_.begin(); it != rdv_waiting_fin_.end(); ++it) {
    if ((*it)->tag == hdr.tag && (*it)->seq == hdr.seq) {
      SendRequest* req = *it;
      rdv_waiting_fin_.erase(it);
      lock_.unlock();
      req->core.complete();
      return;
    }
  }
  lock_.unlock();
  PIOM_LOG_WARN("gate: FIN for unknown rendezvous (tag=%u seq=%llu)", hdr.tag,
                static_cast<unsigned long long>(hdr.seq));
}

void Gate::handle_nack(const PktHeader& hdr) {
  // The peer refused the rendezvous: it will never post a matching receive
  // (revoked window), so the parked send can only error-complete. Mirrors
  // handle_fin with the failure flag set.
  lock_.lock();
  for (auto it = rdv_waiting_fin_.begin(); it != rdv_waiting_fin_.end(); ++it) {
    if ((*it)->tag == hdr.tag && (*it)->seq == hdr.seq) {
      SendRequest* req = *it;
      rdv_waiting_fin_.erase(it);
      stats_.sends_nacked++;
      lock_.unlock();
      req->core.mark_failed();
      req->core.complete();
      return;
    }
  }
  lock_.unlock();
  // Benign race: fail_peer() may have error-completed the send already
  // (both verdicts agree on the outcome), so unlike FIN this is not worth
  // a warning.
}

void Gate::start_pull(RecvRequest& req, const RdvStub& rts) {
  req.matched_seq = rts.seq;
  req.matched_tag = rts.tag;
  req.gate = this;
  req.source = peer_rank_;
  const std::size_t n = std::min(req.cap, static_cast<std::size_t>(rts.len));
  req.received = n;
  const std::vector<StripeChunk> chunks =
      Strategy::stripe(n, rail_bandwidths_);
  req.pull.req = &req;
  req.pull.tag = rts.tag;
  req.pull.seq = rts.seq;
  req.pull.chunks_failed.store(0, std::memory_order_relaxed);
  req.pull.chunks_remaining.store(static_cast<int>(chunks.size()),
                                  std::memory_order_release);
  auto* base = reinterpret_cast<const uint8_t*>(rts.raddr);
  for (const StripeChunk& chunk : chunks) {
    rails_[static_cast<std::size_t>(chunk.rail)].ch->post_rdma_read(
        static_cast<uint8_t*>(req.buf) + chunk.offset, base + chunk.offset,
        chunk.len, reinterpret_cast<uint64_t>(&req.pull));
  }
}

void Gate::finish_pull(RdvPull& pull) {
  // All chunks have landed: notify the sender, then complete the receive.
  PacketWrapper* pw = pw_pool_.acquire();
  PktHeader hdr;
  hdr.kind = static_cast<uint8_t>(PktKind::kFin);
  hdr.tag = pull.tag;
  hdr.seq = pull.seq;
  pw->begin(hdr);
  post_pw(pw, 0);
  pull.req->core.complete();
}

void Gate::handle_tx_completion(const transport::Completion& c) {
  switch (c.kind) {
    case transport::Completion::Kind::kSend: {
      auto* pw = reinterpret_cast<PacketWrapper*>(c.wrid);
      if (pw->awaiting_ack) {
        // Reliable path: completion means "on the wire", not "delivered".
        PacketWrapper* to_finalize = nullptr;
        lock_.lock();
        pw->in_flight = false;
        if (pw->acked) {
          for (auto it = unacked_.begin(); it != unacked_.end(); ++it) {
            if (*it == pw) {
              unacked_.erase(it);
              break;
            }
          }
          to_finalize = pw;
        }
        lock_.unlock();
        if (to_finalize != nullptr) finalize_reliable_pw(to_finalize);
        break;
      }
      for (SendRequest* req : pw->reqs) req->core.complete();
      pw_pool_.release(pw);
      break;
    }
    case transport::Completion::Kind::kRdmaRead: {
      auto* pull = reinterpret_cast<RdvPull*>(c.wrid);
      if (c.failed) {
        pull->chunks_failed.fetch_add(1, std::memory_order_acq_rel);
      }
      if (pull->chunks_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (pull->chunks_failed.load(std::memory_order_acquire) > 0) {
          // The pull crossed a severed link: the data never landed and the
          // sender cannot use a FIN anyway — error-complete the receive.
          pull->req->core.mark_failed();
          pull->req->core.complete();
        } else {
          finish_pull(*pull);
        }
      }
      break;
    }
    case transport::Completion::Kind::kRecv:
      assert(false && "recv completions are handled in poll_rx loop");
      break;
  }
}

// -------------------------------------------------------------------- stats

GateStats Gate::stats() const {
  lock_.lock();
  GateStats s = stats_;
  lock_.unlock();
  // Receive-path counters moved off lock_ with the matcher split.
  s.eager_recv = recv_stats_.eager_recv.load(std::memory_order_relaxed);
  s.rdv_recv = recv_stats_.rdv_recv.load(std::memory_order_relaxed);
  s.unexpected_eager =
      recv_stats_.unexpected_eager.load(std::memory_order_relaxed);
  s.unexpected_rts =
      recv_stats_.unexpected_rts.load(std::memory_order_relaxed);
  s.rts_nacked = recv_stats_.rts_nacked.load(std::memory_order_relaxed);
  const MatcherStats m = matcher_.stats_snapshot();
  s.match_bucket_hits = m.bucket_hits;
  s.match_wildcard_scans = m.wildcard_scans;
  s.posted_depth_hw = m.posted_depth_hw;
  s.unexpected_depth_hw = m.unexpected_depth_hw;
  s.match_pool_hits = m.pool_hits;
  s.match_pool_misses = m.pool_misses;
  s.pw_pool_hits = pw_pool_.hits();
  s.pw_pool_misses = pw_pool_.allocated();
  s.recv_bufs_posted_hw = recv_bufs_hw_.load(std::memory_order_relaxed);
  s.recv_pool_growths = recv_pool_growths_.load(std::memory_order_relaxed);
  return s;
}

std::size_t Gate::pending_sends() const {
  lock_.lock();
  const std::size_t n = pending_count_;
  lock_.unlock();
  return n;
}

}  // namespace piom::nmad
