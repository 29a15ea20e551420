// CollOp — the resumable state machines behind the nonblocking
// collectives (see coll.hpp for the progression model and the tag-epoch
// layout). Each step() call runs the continuation of the round that just
// completed (combine for allreduce, forwarding for bcast) and posts the
// next round's point-to-point requests; advance() loops step() as long as
// rounds complete instantly (shmem fast path), so a collective needs no
// more progression passes than it has network round trips.
//
// Algorithms (unchanged from the blocking originals; each exercises a
// different traffic pattern of the mesh):
//   * barrier    — dissemination: ceil(log2 N) rounds, round k exchanges a
//                  zero-byte token with ranks ±2^k;
//   * bcast      — binomial tree rooted at `root`, largest subtree first;
//   * allreduce  — recursive doubling (hypercube) when N is a power of
//                  two, ring reduce-scatter + allgather otherwise;
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
  stage_ = 0;
  mask_ = 0;
  reqs_.clear();
  active_ = true;
  failing_ = false;
  revoked_ = false;
  core_.reset();
}

void CollOp::start_barrier(Comm& comm, uint32_t epoch) {
  // Sparse overlays swap the dissemination pattern (ranks ±2^k — mostly
  // off-view peers) for a fan-in/fan-out over the membership tree, whose
  // edges all have live gates. Same for bcast/allreduce below; gather,
  // scatter and alltoall keep their dense algorithms (rooted/pairwise data
  // movement is inherently all-pairs — the reserved-direct rule in
  // Comm::isend_reserved wires their gates on demand).
  start(comm,
        comm.membership().sparse_collectives() ? Algo::kBarrierTree
                                               : Algo::kBarrier,
        epoch);
}

void CollOp::start_bcast(Comm& comm, uint32_t epoch, void* buf,
                         std::size_t len, int root) {
  start(comm,
        comm.membership().sparse_collectives() ? Algo::kBcastTree
                                               : Algo::kBcast,
        epoch);
  buf_ = buf;
  len_ = len;
  root_ = root;
}

void CollOp::start_allreduce(Comm& comm, uint32_t epoch, void* data,
                             std::size_t count, std::size_t elem_size,
                             coll_detail::CombineFn combine, ReduceOp op) {
  const int n = comm.size();
  if (comm.membership().sparse_collectives()) {
    start(comm, Algo::kAllreduceTree, epoch);
    buf_ = data;
    count_ = count;
    esize_ = elem_size;
    combine_ = combine;
    rop_ = op;
    // One slot per child: the up phase receives every child's partial
    // vector concurrently.
    scratch_.resize(comm.membership().children().size() * count * elem_size);
    return;
  }
  const bool pow2 = (n & (n - 1)) == 0;
  start(comm, pow2 ? Algo::kAllreduceRd : Algo::kAllreduceRing, epoch);
  buf_ = data;
  count_ = count;
  esize_ = elem_size;
  combine_ = combine;
  rop_ = op;
  if (pow2) {
    // Recursive doubling swaps the whole vector every phase.
    scratch_.resize(count * elem_size);
  } else {
    // The ring moves one of N near-equal chunks per step.
    scratch_.resize((count / static_cast<std::size_t>(n) + 1) * elem_size);
  }
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
    case Algo::kBarrier: return step_barrier();
    case Algo::kBcast: return step_bcast();
    case Algo::kAllreduceRd: return step_allreduce_rd();
    case Algo::kAllreduceRing: return step_allreduce_ring();
    case Algo::kGather: return step_gather();
    case Algo::kScatter: return step_scatter();
    case Algo::kAlltoall: return step_alltoall();
    case Algo::kBarrierTree: return step_barrier_tree();
    case Algo::kBcastTree: return step_bcast_tree();
    case Algo::kAllreduceTree: return step_allreduce_tree();
  }
  return false;
}

bool CollOp::step_barrier() {
  // Dissemination: after round k every rank has (transitively) heard from
  // 2^(k+1) predecessors; ceil(log2 N) rounds synchronize everyone.
  const int n = comm_->size();
  const int rank = comm_->rank();
  const int k = 1 << cursor_;
  if (k >= n) return false;
  const Tag t = tag(CollTagKind::kBarrier, static_cast<uint32_t>(cursor_));
  post_recv((rank - k + n) % n, t, nullptr, 0);
  post_send((rank + k) % n, t, nullptr, 0);
  ++cursor_;
  return true;
}

bool CollOp::step_bcast() {
  const int n = comm_->size();
  const int rank = comm_->rank();
  const int vrank = (rank - root_ + n) % n;
  const Tag t = tag(CollTagKind::kBcast, 0);
  if (stage_ == 0) {
    // The parent differs at vrank's lowest set bit; the root (vrank 0) has
    // none and the search runs off the top.
    int mask = 1;
    while (mask < n && (vrank & mask) == 0) mask <<= 1;
    mask_ = mask;
    stage_ = 1;
    if (mask < n) {
      post_recv((rank - mask + n) % n, t, buf_, len_);
      return true;  // forward only once the payload has landed
    }
    // Root: nothing to receive, fan out immediately.
  }
  if (stage_ == 1) {
    stage_ = 2;
    // Children, largest subtree first (they have the most forwarding of
    // their own left to do).
    for (int m = mask_ >> 1; m > 0; m >>= 1) {
      if (vrank + m < n) post_send((rank + m) % n, t, buf_, len_);
    }
    return true;  // leaves post nothing; the advance loop re-enters step()
  }
  return false;
}

bool CollOp::step_allreduce_rd() {
  // Power of two: phase k swaps the running result with the partner across
  // hypercube dimension k, then folds the partner's vector in.
  const int n = comm_->size();
  if (cursor_ > 0) combine_(buf_, scratch_.data(), count_, rop_);
  const int mask = 1 << cursor_;
  if (mask >= n) return false;
  const int partner = comm_->rank() ^ mask;
  const Tag t =
      tag(CollTagKind::kAllreduceRd, static_cast<uint32_t>(cursor_));
  post_recv(partner, t, scratch_.data(), count_ * esize_);
  post_send(partner, t, buf_, count_ * esize_);
  ++cursor_;
  return true;
}

bool CollOp::step_allreduce_ring() {
  // Non-power-of-two: ring reduce-scatter then ring allgather over N
  // near-equal element chunks (chunk c = elements [begin(c), begin(c+1))).
  const int n = comm_->size();
  const int rank = comm_->rank();
  const int next = (rank + 1) % n;
  const int prev = (rank - 1 + n) % n;
  auto* data = static_cast<uint8_t*>(buf_);
  if (stage_ == 0) {
    // Reduce-scatter: after step s, rank r holds the partial reduction of
    // s+2 ranks' chunk (r-s-1); after N-1 steps chunk (r+1) is complete.
    if (cursor_ > 0) {
      const int s = cursor_ - 1;
      const int recv_c = ((rank - s - 1) % n + n) % n;
      const std::size_t rlen = chunk_begin(recv_c + 1, n) - chunk_begin(recv_c, n);
      combine_(data + chunk_begin(recv_c, n) * esize_, scratch_.data(), rlen,
               rop_);
    }
    if (cursor_ < n - 1) {
      const int s = cursor_;
      const int send_c = ((rank - s) % n + n) % n;
      const int recv_c = ((rank - s - 1) % n + n) % n;
      const std::size_t rlen = chunk_begin(recv_c + 1, n) - chunk_begin(recv_c, n);
      const std::size_t slen = chunk_begin(send_c + 1, n) - chunk_begin(send_c, n);
      const Tag t = tag(CollTagKind::kAllreduceRs, static_cast<uint32_t>(s));
      post_recv(prev, t, scratch_.data(), rlen * esize_);
      post_send(next, t, data + chunk_begin(send_c, n) * esize_,
                slen * esize_);
      ++cursor_;
      return true;
    }
    stage_ = 1;
    cursor_ = 0;
  }
  // Allgather: circulate the completed chunks the rest of the way round.
  if (cursor_ >= n - 1) return false;
  const int s = cursor_;
  const int send_c = ((rank + 1 - s) % n + n) % n;
  const int recv_c = ((rank - s) % n + n) % n;
  const std::size_t rlen = chunk_begin(recv_c + 1, n) - chunk_begin(recv_c, n);
  const std::size_t slen = chunk_begin(send_c + 1, n) - chunk_begin(send_c, n);
  const Tag t = tag(CollTagKind::kAllreduceAg, static_cast<uint32_t>(s));
  post_recv(prev, t, data + chunk_begin(recv_c, n) * esize_, rlen * esize_);
  post_send(next, t, data + chunk_begin(send_c, n) * esize_, slen * esize_);
  ++cursor_;
  return true;
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

// -- sparse-overlay tree variants ------------------------------------------
//
// All three walk the membership's heap tree (root rank 0, fanout f): every
// edge is parent<->child and therefore has — or lazily gets — a live gate
// inside the view, so an N-rank collective costs each rank O(f) gates and
// O(log_f N) latency instead of the dense algorithms' O(N)/O(log2 N)-over-
// arbitrary-pairs pattern. The tree is rooted at rank 0 regardless of the
// API-level root; a rooted bcast first hands the payload to rank 0.

bool CollOp::step_barrier_tree() {
  // Fan-in to rank 0 (a rank reports once its subtree has), then fan-out
  // back down: when the release token reaches a rank every rank has
  // entered the barrier.
  const Membership& m = comm_->membership();
  const int rank = comm_->rank();
  if (stage_ == 0) {
    stage_ = 1;
    for (int c : m.children()) {
      post_recv(c, tag(CollTagKind::kBarrier, 0), nullptr, 0);
    }
    if (!m.children().empty()) return true;
  }
  if (stage_ == 1) {
    stage_ = 2;
    if (rank != 0) {
      post_send(m.parent(), tag(CollTagKind::kBarrier, 0), nullptr, 0);
      post_recv(m.parent(), tag(CollTagKind::kBarrier, 1), nullptr, 0);
      return true;
    }
  }
  if (stage_ == 2) {
    stage_ = 3;
    for (int c : m.children()) {
      post_send(c, tag(CollTagKind::kBarrier, 1), nullptr, 0);
    }
    if (!m.children().empty()) return true;
  }
  return false;
}

bool CollOp::step_bcast_tree() {
  // The tree is rooted at rank 0; a bcast from another root starts with a
  // direct handoff root -> rank 0 (phase 1 tag), then floods down the tree
  // (phase 0 tag). The root also gets its payload back through the tree —
  // a redundant copy into its own buffer, kept for uniformity.
  const Membership& m = comm_->membership();
  const int rank = comm_->rank();
  if (stage_ == 0) {
    stage_ = 1;
    if (root_ != 0) {
      const Tag t = tag(CollTagKind::kBcast, 1);
      if (rank == root_) {
        post_send(0, t, buf_, len_);
        return true;
      }
      if (rank == 0) {
        post_recv(root_, t, buf_, len_);
        return true;
      }
    }
  }
  if (stage_ == 1) {
    stage_ = 2;
    if (rank != 0) {
      post_recv(m.parent(), tag(CollTagKind::kBcast, 0), buf_, len_);
      return true;  // forward only once the payload has landed
    }
  }
  if (stage_ == 2) {
    stage_ = 3;
    for (int c : m.children()) {
      post_send(c, tag(CollTagKind::kBcast, 0), buf_, len_);
    }
    if (!m.children().empty()) return true;
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
  if (stage_ == 0) {
    stage_ = 1;
    const Tag t = tag(CollTagKind::kAllreduceUp, 0);
    for (std::size_t i = 0; i < m.children().size(); ++i) {
      post_recv(m.children()[i], t, scratch_.data() + i * bytes, bytes);
    }
    if (!m.children().empty()) return true;
  }
  if (stage_ == 1) {
    stage_ = 2;
    for (std::size_t i = 0; i < m.children().size(); ++i) {
      combine_(buf_, scratch_.data() + i * bytes, count_, rop_);
    }
    if (rank != 0) {
      post_send(m.parent(), tag(CollTagKind::kAllreduceUp, 0), buf_, bytes);
      return true;
    }
  }
  if (stage_ == 2) {
    stage_ = 3;
    if (rank != 0) {
      post_recv(m.parent(), tag(CollTagKind::kAllreduceDown, 0), buf_, bytes);
      return true;
    }
  }
  if (stage_ == 3) {
    stage_ = 4;
    for (int c : m.children()) {
      post_send(c, tag(CollTagKind::kAllreduceDown, 0), buf_, bytes);
    }
    if (!m.children().empty()) return true;
  }
  return false;
}

}  // namespace piom::mpi
