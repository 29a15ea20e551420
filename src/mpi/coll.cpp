// CollOp — the resumable state machines behind the nonblocking
// collectives (see coll.hpp for the progression model and the tag-epoch
// layout). Each step() call runs the continuation of the round that just
// completed (combine for allreduce, forwarding for bcast) and posts the
// next round's point-to-point requests; advance() loops step() as long as
// rounds complete instantly (shmem fast path), so a collective needs no
// more progression passes than it has network round trips.
//
// Algorithms (the same in dense and sparse overlays):
//   * barrier,
//     bcast,
//     allreduce  — over the membership's fanout tree (root rank 0): fan-in
//                  and/or fan-out along parent<->child edges, O(fanout)
//                  gates and O(log_f N) latency per rank;
//   * gather /
//     scatter    — linear fan-in/fan-out at the root, all peers at once;
//   * alltoall   — pairwise exchange, N-1 rounds of disjoint sendrecvs.
#include "mpi/coll.hpp"

#include <cstring>

#include "mpi/world.hpp"

namespace piom::mpi {

void CollOp::start(Comm& comm, Algo algo, uint32_t epoch) {
  comm_ = &comm;
  algo_ = algo;
  epoch_ = epoch;
  cursor_ = 0;
  reqs_.clear();
  active_ = true;
  failing_ = false;
  revoked_ = false;
  core_.reset();
}

void CollOp::start_barrier(Comm& comm, uint32_t epoch) {
  start(comm, Algo::kBarrier, epoch);
}

void CollOp::start_bcast(Comm& comm, uint32_t epoch, void* buf,
                         std::size_t len, int root) {
  start(comm, Algo::kBcast, epoch);
  buf_ = buf;
  len_ = len;
  root_ = root;
}

void CollOp::start_allreduce(Comm& comm, uint32_t epoch, void* data,
                             std::size_t count, std::size_t elem_size,
                             coll_detail::CombineFn combine, ReduceOp op) {
  start(comm, Algo::kAllreduce, epoch);
  buf_ = data;
  count_ = count;
  esize_ = elem_size;
  combine_ = combine;
  rop_ = op;
  // One slot per child: the up phase receives every child's partial
  // vector concurrently.
  scratch_.resize(comm.membership().children().size() * count * elem_size);
}

void CollOp::start_gather(Comm& comm, uint32_t epoch, const void* sendbuf,
                          std::size_t len, void* recvbuf, int root) {
  start(comm, Algo::kGather, epoch);
  sbuf_ = sendbuf;
  buf_ = recvbuf;
  len_ = len;
  root_ = root;
}

void CollOp::start_scatter(Comm& comm, uint32_t epoch, const void* sendbuf,
                           std::size_t len, void* recvbuf, int root) {
  start(comm, Algo::kScatter, epoch);
  sbuf_ = sendbuf;
  buf_ = recvbuf;
  len_ = len;
  root_ = root;
}

void CollOp::start_alltoall(Comm& comm, uint32_t epoch, const void* sendbuf,
                            std::size_t len, void* recvbuf) {
  start(comm, Algo::kAlltoall, epoch);
  sbuf_ = sendbuf;
  buf_ = recvbuf;
  len_ = len;
}

void CollOp::post_send(int dst, Tag t, const void* buf, std::size_t len) {
  reqs_.emplace_back();
  comm_->isend_reserved(reqs_.back(), dst, t, buf, len);
}

void CollOp::post_recv(int src, Tag t, void* buf, std::size_t cap) {
  reqs_.emplace_back();
  comm_->irecv_reserved(reqs_.back(), src, t, buf, cap);
}

bool CollOp::advance() {
  for (;;) {
    if (!failing_ &&
        (comm_->engine().has_failures() ||
         std::any_of(reqs_.begin(), reqs_.end(),
                     [](const Request& r) { return r.failed(); }))) {
      // A rank died — either our detector said so, or a round request
      // error-completed against an evicted gate. Stop running rounds: a
      // poisoned peer will never send its share, so the algorithm cannot
      // finish. Every survivor reaches this branch on its own detection.
      failing_ = true;
    }
    if (failing_) return advance_failing();
    for (const Request& r : reqs_) {
      if (!r.done()) return false;  // the round is still on the wire
      // Re-check failed() under the done() acquire: the detector's
      // fail_peer may error-complete a round request between the scan
      // above and this one, and a failed round that slips through here
      // would be cleared below and its rank's failure silently dropped.
      // (done() is read first on purpose — mark_failed happens-before the
      // completion store, so observing done==true makes failed() visible.)
      if (r.failed()) {
        failing_ = true;
        break;
      }
    }
    if (failing_) continue;
    reqs_.clear();
    if (!step()) return true;
  }
}

bool CollOp::advance_failing() {
  // Error-completion drain, two halves:
  //
  // Outbound (once): revoke this epoch's whole tag window on every live
  // gate. A peer that also entered its drain cancels its round receives —
  // or never posts them at all if it was a round behind — so our
  // *rendezvous* sends to it would park for a FIN that cannot come. The
  // revocation makes that peer NACK our RTS (staged or still in flight)
  // and the send error-completes. The sender cannot withdraw such a send
  // unilaterally: a matched RTS may have an RDMA pull in flight against
  // its buffer. Eager sends need none of this — they complete on ack/TX,
  // severed channels included.
  //
  // Inbound (every sweep): receives parked on *live* peers must be
  // cancelled — the sender is a survivor that also observed the failure
  // and will never run this round; waiting on it would trade a hang on
  // the dead rank for a hang on a live one. (Receives on the dead gate
  // were already error-completed by its eviction.)
  if (!revoked_) {
    revoked_ = true;
    comm_->revoke_coll_epoch(epoch_);
  }
  bool all_done = true;
  for (Request& r : reqs_) {
    if (r.done()) continue;
    if (!r.is_send()) comm_->cancel(r);
    if (!r.done()) all_done = false;  // matched mid-cancel: next sweep
  }
  if (!all_done) return false;
  reqs_.clear();
  // Failed BEFORE the registry's complete(): the done-acquire in the
  // owner's test()/wait() synchronizes the flag.
  core_.mark_failed();
  return true;
}

bool CollOp::step() {
  switch (algo_) {
    case Algo::kBarrier: return step_barrier_tree();
    case Algo::kBcast: return step_bcast_tree();
    case Algo::kAllreduce: return step_allreduce_tree();
    case Algo::kGather: return step_gather();
    case Algo::kScatter: return step_scatter();
    case Algo::kAlltoall: return step_alltoall();
  }
  return false;
}

bool CollOp::step_gather() {
  // Linear fan-in: one round — the root posts all N-1 receives at once
  // (the N-way gate contention case), everyone else one send.
  if (cursor_ > 0) return false;
  cursor_ = 1;
  const int n = comm_->size();
  const int rank = comm_->rank();
  const Tag t = tag(CollTagKind::kGather, 0);
  if (rank != root_) {
    post_send(root_, t, sbuf_, len_);
    return true;
  }
  auto* out = static_cast<uint8_t*>(buf_);
  if (len_ > 0) {
    std::memcpy(out + static_cast<std::size_t>(rank) * len_, sbuf_, len_);
  }
  for (int p = 0; p < n; ++p) {
    if (p == rank) continue;
    post_recv(p, t, out + static_cast<std::size_t>(p) * len_, len_);
  }
  return true;
}

bool CollOp::step_scatter() {
  // Linear fan-out: mirror of gather.
  if (cursor_ > 0) return false;
  cursor_ = 1;
  const int n = comm_->size();
  const int rank = comm_->rank();
  const Tag t = tag(CollTagKind::kScatter, 0);
  if (rank != root_) {
    post_recv(root_, t, buf_, len_);
    return true;
  }
  const auto* in = static_cast<const uint8_t*>(sbuf_);
  if (len_ > 0) {
    std::memcpy(buf_, in + static_cast<std::size_t>(rank) * len_, len_);
  }
  for (int p = 0; p < n; ++p) {
    if (p == rank) continue;
    post_send(p, t, in + static_cast<std::size_t>(p) * len_, len_);
  }
  return true;
}

bool CollOp::step_alltoall() {
  // Pairwise exchange: in round s every rank talks to ranks ±s — all N
  // ranks busy every round, no hot spot.
  const int n = comm_->size();
  const int rank = comm_->rank();
  const auto* in = static_cast<const uint8_t*>(sbuf_);
  auto* out = static_cast<uint8_t*>(buf_);
  if (cursor_ == 0) {
    if (len_ > 0) {
      std::memcpy(out + static_cast<std::size_t>(rank) * len_,
                  in + static_cast<std::size_t>(rank) * len_, len_);
    }
    cursor_ = 1;
  }
  if (cursor_ >= n) return false;
  const int s = cursor_;
  const int dst = (rank + s) % n;
  const int src = (rank - s + n) % n;
  const Tag t = tag(CollTagKind::kAlltoall, static_cast<uint32_t>(s));
  post_recv(src, t, out + static_cast<std::size_t>(src) * len_, len_);
  post_send(dst, t, in + static_cast<std::size_t>(dst) * len_, len_);
  ++cursor_;
  return true;
}

// -- tree algorithms -----------------------------------------------------
//
// All three walk the membership's heap tree (root rank 0, fanout f): every
// edge is parent<->child, so in a sparse overlay it is a view edge with a
// live gate, and in a dense one it is one of the O(f) gates a rank wires
// lazily. The tree is rooted at rank 0 regardless of the API-level root; a
// rooted bcast hands the payload to rank 0 for the rest of the tree.
// cursor_ is the stage within the algorithm.

bool CollOp::step_barrier_tree() {
  // Fan-in to rank 0 (a rank reports once its subtree has), then fan-out
  // back down: when the release token reaches a rank every rank has
  // entered the barrier.
  const Membership& m = comm_->membership();
  const int rank = comm_->rank();
  if (cursor_ == 0) {
    cursor_ = 1;
    for (int c : m.children()) {
      post_recv(c, tag(CollTagKind::kBarrier, 0), nullptr, 0);
    }
    if (!m.children().empty()) return true;
  }
  if (cursor_ == 1) {
    cursor_ = 2;
    if (rank != 0) {
      post_send(m.parent(), tag(CollTagKind::kBarrier, 0), nullptr, 0);
      post_recv(m.parent(), tag(CollTagKind::kBarrier, 1), nullptr, 0);
      return true;
    }
  }
  if (cursor_ == 2) {
    cursor_ = 3;
    for (int c : m.children()) {
      post_send(c, tag(CollTagKind::kBarrier, 1), nullptr, 0);
    }
    if (!m.children().empty()) return true;
  }
  return false;
}

bool CollOp::step_bcast_tree() {
  // A root other than rank 0 hands its payload to rank 0 (phase 1 tag)
  // and, in the same round, feeds its own subtree. Every other rank
  // receives from its tree parent (phase 0 tag) — rank 0 from the root
  // instead — and forwards to its children, skipping the root, whose
  // subtree is already served.
  const Membership& m = comm_->membership();
  const int rank = comm_->rank();
  if (cursor_ == 0) {
    cursor_ = 1;
    if (rank == root_) {
      if (rank != 0) post_send(0, tag(CollTagKind::kBcast, 1), buf_, len_);
    } else if (rank == 0) {
      post_recv(root_, tag(CollTagKind::kBcast, 1), buf_, len_);
      return true;  // forward only once the payload has landed
    } else {
      post_recv(m.parent(), tag(CollTagKind::kBcast, 0), buf_, len_);
      return true;
    }
  }
  if (cursor_ == 1) {
    cursor_ = 2;
    for (int c : m.children()) {
      if (c != root_) post_send(c, tag(CollTagKind::kBcast, 0), buf_, len_);
    }
    if (!reqs_.empty()) return true;
  }
  return false;
}

bool CollOp::step_allreduce_tree() {
  // Reduce up (every rank combines its children's partials into buf_, then
  // reports to its parent), broadcast the final vector back down. The
  // up-send and the down-receive are separate rounds on purpose: both name
  // buf_, and a rendezvous up-send pulls from the buffer at FIN time — the
  // down-receive must not be writing into it concurrently.
  const Membership& m = comm_->membership();
  const int rank = comm_->rank();
  const std::size_t bytes = count_ * esize_;
  if (cursor_ == 0) {
    cursor_ = 1;
    const Tag t = tag(CollTagKind::kAllreduceUp, 0);
    for (std::size_t i = 0; i < m.children().size(); ++i) {
      post_recv(m.children()[i], t, scratch_.data() + i * bytes, bytes);
    }
    if (!m.children().empty()) return true;
  }
  if (cursor_ == 1) {
    cursor_ = 2;
    for (std::size_t i = 0; i < m.children().size(); ++i) {
      combine_(buf_, scratch_.data() + i * bytes, count_, rop_);
    }
    if (rank != 0) {
      post_send(m.parent(), tag(CollTagKind::kAllreduceUp, 0), buf_, bytes);
      return true;
    }
  }
  if (cursor_ == 2) {
    cursor_ = 3;
    if (rank != 0) {
      post_recv(m.parent(), tag(CollTagKind::kAllreduceDown, 0), buf_, bytes);
      return true;
    }
  }
  if (cursor_ == 3) {
    cursor_ = 4;
    for (int c : m.children()) {
      post_send(c, tag(CollTagKind::kAllreduceDown, 0), buf_, bytes);
    }
    if (!m.children().empty()) return true;
  }
  return false;
}

}  // namespace piom::mpi
