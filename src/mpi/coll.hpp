// Nonblocking collectives: every collective is a CollOp — a resumable
// state machine that owns its round/phase cursor and the in-flight
// point-to-point Requests of the current round. A CollOp never blocks:
// advance() polls the in-flight requests and, once the round has landed,
// runs the round's continuation (reduce-combine, forwarding) and posts the
// next round. The owning rank's progress engine keeps a registry of live
// CollOps and advances them opportunistically from its progress paths
// (pioman's background poll tasks, the global-lock engines' caller-driven
// progress) — so a rank that starts an iallreduce() and goes off to
// compute still drives the collective forward, which is the paper's core
// claim applied to collectives. Blocking collectives are i…() + wait().
//
// Tag-epoch layout. Collective traffic travels in the reserved tag space
// (nmad::kReservedTagBase and up) so it composes with application
// point-to-point traffic. Several collectives can be in flight on one
// communicator at once, so the reserved tag folds in a per-communicator
// collective sequence number (the epoch — every rank calls collectives in
// the same order, MPI semantics, so epochs agree cluster-wide):
//
//   bits 31..28   0xF      reserved-space marker (kReservedTagBase)
//   bits 27..16   epoch    per-Comm collective counter, mod 2^12
//   bits 15..12   kind     CollTagKind sub-window (barrier, bcast, ...)
//   bits 11..0    phase    round / step index within the collective
//
// Without the epoch two in-flight collectives of the same kind reuse
// identical tags and cross-match (e.g. two ibcasts from different roots:
// the second root's fan-out can overtake a slow first root and land in the
// first ibcast's posted receive). The 12-bit phase bounds cluster sizes at
// 2^12 ranks (alltoall runs N-1 rounds); epochs wrap mod 2^12, which
// collides only if 4096 collectives are simultaneously in flight.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "mpi/request.hpp"
#include "nmad/types.hpp"

namespace piom::mpi {

class Comm;
class Engine;

/// Reduction operators for allreduce() / iallreduce().
enum class ReduceOp { kSum, kMax, kMin };

/// Tag sub-window of one collective flavour (bits 15..12 of the reserved
/// tag; allreduce uses two windows, one per tree direction).
enum class CollTagKind : uint32_t {
  kBarrier = 0,
  kBcast = 1,
  kAllreduceUp = 2,    ///< child -> parent partials
  kAllreduceDown = 3,  ///< parent -> child result
  kGather = 4,
  kScatter = 5,
  kAlltoall = 6,
};

inline constexpr uint32_t kCollEpochMask = 0xfffu;
inline constexpr uint32_t kCollPhaseMask = 0xfffu;

/// Reserved-space tag of (collective epoch, flavour, round).
[[nodiscard]] constexpr Tag make_coll_tag(CollTagKind kind, uint32_t epoch,
                                          uint32_t phase) {
  return nmad::kReservedTagBase | ((epoch & kCollEpochMask) << 16) |
         (static_cast<uint32_t>(kind) << 12) | (phase & kCollPhaseMask);
}

/// Revocation window of one collective epoch — marker + epoch bits, kind
/// and phase left free, so (tag & mask) == window matches every round tag
/// the epoch can ever produce. A failing CollOp revokes this window on all
/// live gates (Gate::revoke_tags) so peers' rendezvous rounds aimed at a
/// rank that will never post the matching receives are NACKed instead of
/// parking forever.
inline constexpr Tag kCollEpochWindowMask =
    nmad::kReservedTagBase | (Tag{kCollEpochMask} << 16);
[[nodiscard]] constexpr Tag coll_epoch_window(uint32_t epoch) {
  return nmad::kReservedTagBase | ((epoch & kCollEpochMask) << 16);
}

namespace coll_detail {
/// Element-wise reduction, instantiated per arithmetic type and reached
/// through a function pointer so CollOp stays type-erased.
template <typename T>
void combine(void* into, const void* other, std::size_t count, ReduceOp op) {
  auto* a = static_cast<T*>(into);
  const auto* b = static_cast<const T*>(other);
  for (std::size_t i = 0; i < count; ++i) {
    switch (op) {
      case ReduceOp::kSum: a[i] = a[i] + b[i]; break;
      case ReduceOp::kMax: a[i] = std::max(a[i], b[i]); break;
      case ReduceOp::kMin: a[i] = std::min(a[i], b[i]); break;
    }
  }
}
using CombineFn = void (*)(void*, const void*, std::size_t, ReduceOp);
}  // namespace coll_detail

/// One in-flight collective: the handle Comm::i…() fills in (caller-owned
/// storage, like Request) and the state machine the engine advances. The
/// storage — and every buffer passed to the i…() call — must stay valid
/// until done() is observed true (via Comm::test()/wait()). A completed
/// CollOp may be reused for a later collective.
class CollOp {
 public:
  CollOp() = default;
  CollOp(const CollOp&) = delete;
  CollOp& operator=(const CollOp&) = delete;

  /// True once the collective has completed (stable until reuse).
  [[nodiscard]] bool done() const { return core_.completed(); }
  /// True when the collective error-completed because a rank failed
  /// mid-flight (ULFM-style: one dead rank poisons every in-flight and
  /// subsequent collective on the communicator — each survivor detects
  /// the failure independently, so no outcome-agreement protocol runs).
  /// Only meaningful once done().
  [[nodiscard]] bool failed() const {
    return done() && core_.has_failed();
  }
  /// True once the handle has carried a collective. Like Request::active()
  /// it stays true after completion (check done() for in-flight-ness).
  [[nodiscard]] bool active() const { return active_; }

  // -- engine-internal access --
  nmad::RequestCore& core() { return core_; }
  /// Advance as far as the in-flight requests allow. Returns true when the
  /// whole collective has finished (the engine then delists the op and
  /// calls core().complete() as its final touch). Must only be called by
  /// the owning engine's serialized progression sweep.
  bool advance();

 private:
  friend class Comm;

  /// Algorithm selected at start (kept distinct from CollTagKind: the
  /// allreduce uses two tag windows). Barrier, bcast and allreduce walk the
  /// membership's fanout tree, so an N-rank collective touches O(fanout)
  /// gates per rank in either overlay.
  enum class Algo : uint8_t {
    kBarrier,    ///< fan-in to the tree root, fan-out back
    kBcast,      ///< root feeds its subtree and rank 0, which floods the rest
    kAllreduce,  ///< reduce up the tree, broadcast the result down
    kGather,
    kScatter,
    kAlltoall,
  };

  // start_*: reset the handle, record parameters, pick the algorithm.
  // Called by Comm::i…(), which then hands the op to the engine.
  void start(Comm& comm, Algo algo, uint32_t epoch);
  void start_barrier(Comm& comm, uint32_t epoch);
  void start_bcast(Comm& comm, uint32_t epoch, void* buf, std::size_t len,
                   int root);
  void start_allreduce(Comm& comm, uint32_t epoch, void* data,
                       std::size_t count, std::size_t elem_size,
                       coll_detail::CombineFn combine, ReduceOp op);
  void start_gather(Comm& comm, uint32_t epoch, const void* sendbuf,
                    std::size_t len, void* recvbuf, int root);
  void start_scatter(Comm& comm, uint32_t epoch, const void* sendbuf,
                     std::size_t len, void* recvbuf, int root);
  void start_alltoall(Comm& comm, uint32_t epoch, const void* sendbuf,
                      std::size_t len, void* recvbuf);

  /// Failure teardown: cancel the round's parked receives, then finish
  /// with core_ marked failed once every request is terminal. Returns true
  /// when the op may be delisted (mirrors advance()).
  bool advance_failing();

  /// Run the current phase's continuation and post the next round's
  /// point-to-point requests. Returns false when the collective finished.
  bool step();
  bool step_gather();
  bool step_scatter();
  bool step_alltoall();
  bool step_barrier_tree();
  bool step_bcast_tree();
  bool step_allreduce_tree();

  [[nodiscard]] Tag tag(CollTagKind kind, uint32_t phase) const {
    return make_coll_tag(kind, epoch_, phase);
  }
  /// Post a send/receive for the current round (requests live in reqs_
  /// until the round completes; deque keeps them pinned in place).
  void post_send(int dst, Tag t, const void* buf, std::size_t len);
  void post_recv(int src, Tag t, void* buf, std::size_t cap);

  Comm* comm_ = nullptr;
  Algo algo_ = Algo::kBarrier;
  uint32_t epoch_ = 0;
  int cursor_ = 0;  ///< round / stage index (meaning per algorithm)
  std::deque<Request> reqs_;  ///< current round's in-flight p2p requests

  // Parameters (union-of-needs across the algorithms).
  void* buf_ = nullptr;         ///< in/out payload (bcast, allreduce, recv side)
  const void* sbuf_ = nullptr;  ///< read-only payload (gather/scatter/alltoall)
  std::size_t len_ = 0;         ///< per-block byte count
  int root_ = 0;
  std::size_t count_ = 0;       ///< allreduce: element count
  std::size_t esize_ = 0;       ///< allreduce: element size
  ReduceOp rop_ = ReduceOp::kSum;
  coll_detail::CombineFn combine_ = nullptr;
  std::vector<uint8_t> scratch_;  ///< allreduce: one slot per tree child

  bool active_ = false;
  bool failing_ = false;  ///< a rank died: draining towards error completion
  bool revoked_ = false;  ///< failure drain announced (epoch revoked)
  nmad::RequestCore core_;
};

/// The handle name the API speaks (MPI_Request for collectives).
using CollRequest = CollOp;

}  // namespace piom::mpi
