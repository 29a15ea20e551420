// Progress-engine interface behind the mini-MPI API. The three
// implementations reproduce the paper's §V contenders:
//   * PiomanEngine      — MAD-MPI: nmad + PIOMan background progression;
//   * GlobalLockEngine  — MVAPICH-like / OpenMPI-like: one big lock,
//                         progress happens only inside MPI calls.
// All engines speak the same nmad protocol over the same simulated fabric;
// the only difference is *when and where* the protocol code runs — which is
// precisely the paper's point.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "mpi/request.hpp"
#include "nmad/gate.hpp"
#include "sync/spinlock.hpp"

namespace piom::mpi {

class CollOp;
class FailureDetector;

enum class EngineKind {
  kPioman,       ///< MAD-MPI: nmad + PIOMan background progression
  kMvapichLike,  ///< global lock, caller-driven progress, hard spin
  kOpenMpiLike,  ///< global lock, caller-driven progress, yielding spin
};

[[nodiscard]] const char* engine_kind_name(EngineKind k);

class Engine {
 public:
  virtual ~Engine() = default;

  virtual void isend(Request& req, nmad::Gate& gate, Tag tag, const void* buf,
                     std::size_t len) = 0;
  virtual void irecv(Request& req, nmad::Gate& gate, Tag tag, void* buf,
                     std::size_t cap) = 0;
  /// Any-source receive (MPI_ANY_SOURCE): register with the membership's
  /// wildcard registry, which covers every existing gate, every gate
  /// created later (lazy wiring), and the origin gates of forwarded
  /// traffic. `wilds` must outlive completion.
  virtual void irecv_any(Request& req, nmad::WildSet& wilds, Tag tag,
                         void* buf, std::size_t cap) = 0;
  /// Block until `req` completes.
  virtual void wait(Request& req) = 0;
  /// Nonblocking completion check (may drive progress, like MPI_Test).
  virtual bool test(Request& req) = 0;

  /// Drive one round of protocol progress without a request to wait on
  /// (like poking MPI_Iprobe). Caller-driven engines poll the session here;
  /// engines with background progression have nothing to do. Needed e.g. to
  /// keep re-acknowledging retransmissions on a lossy link after this
  /// rank's last blocking call has returned.
  virtual void progress() {}

  // ---- engine-progressed collectives (CollOp state machines) ----

  /// Enlist a freshly started collective and kick its first advance, so
  /// round 0's point-to-point requests hit the wire before this returns.
  /// The op's storage is caller-owned and must stay valid until done().
  void start_coll(CollOp& op);
  /// Nonblocking completion check: drives one round of engine progress and
  /// advances every in-flight collective (like MPI_Test on an NBC request).
  virtual bool test_coll(CollOp& op);
  /// Block until the collective completes. The default spins on
  /// test_coll() — right for caller-driven engines, where the blocked
  /// caller IS the progress source; engines with background progression
  /// override it to park the caller instead.
  virtual void wait_coll(CollOp& op);

  [[nodiscard]] virtual std::string name() const = 0;

  // ---- failure detection (engine-progressed; see mpi/failure.hpp) ----

  /// Attach this rank's failure detector: advance_colls() — i.e. every
  /// progress path of every engine — ticks it from then on. The detector
  /// must outlive the engine's last progress call (World owns both).
  /// Atomic because PIOMan's background poll tasks are already calling
  /// advance_colls() by the time World attaches; they read null (no
  /// detector yet) or the pointer, never a torn value.
  void attach_detector(FailureDetector* fd) {
    fd_.store(fd, std::memory_order_release);
  }
  [[nodiscard]] FailureDetector* detector() const {
    return fd_.load(std::memory_order_acquire);
  }
  /// True once the detector declared any peer failed (false when no
  /// detector is attached). Collectives poison themselves on this.
  [[nodiscard]] bool has_failures() const;

  /// Stop background machinery (idempotent; called before teardown).
  virtual void shutdown() {}

 protected:
  /// Advance every enlisted collective as far as its in-flight requests
  /// allow; finished ops are delisted, then completed — the completion
  /// store is this registry's final touch, so the owner may reuse the
  /// handle the instant done() reads true. Serialized per engine by a
  /// try-lock: a caller that finds a sweep already running skips (the
  /// running sweep does the work). Every engine calls this from each of
  /// its progress paths, which is what makes the collectives progress
  /// while the application computes.
  void advance_colls();

 private:
  /// One pass over the registry: advance, delist + complete finished ops.
  void sweep_colls() PIOM_REQUIRES(coll_lock_);

  sync::SpinLock coll_lock_;        ///< guards colls_; serializes sweeps
  /// In-flight collectives of this rank.
  std::vector<CollOp*> colls_ PIOM_GUARDED_BY(coll_lock_);
  std::atomic<int> ncolls_{0};      ///< lock-free empty fast path
  /// Optional; ticked by advance_colls(). See attach_detector on atomicity.
  std::atomic<FailureDetector*> fd_{nullptr};
};

}  // namespace piom::mpi
