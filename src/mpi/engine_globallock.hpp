// GlobalLockEngine — the state-of-the-art comparators of the paper's §V
// (MVAPICH2 1.2p1 and OPENMPI 1.3.1), re-implemented over the same nmad
// protocol and simulated fabric:
//   * thread-safety via ONE lock around the whole library (the
//     MPI_THREAD_MULTIPLE big-lock approach of §II-A);
//   * progress happens ONLY inside MPI calls — no background progression.
//     A blocked MPI_Wait/MPI_Recv spins on {lock; progress; unlock}.
//
// Consequences (exactly what the paper measures):
//   * N receiving threads all polling ⇒ contention on the lock ⇒ the
//     multithreaded latency grows with N (Fig 4);
//   * rendezvous: the RDMA-Read data path needs no sender CPU, so overlap
//     works on the sender side, but an RTS arriving while the receiver
//     computes sits unhandled until the receiver re-enters MPI ⇒ no
//     receiver-side overlap (Figs 5–7).
#pragma once

#include <mutex>
#include <string>

#include "mpi/engine.hpp"
#include "nmad/session.hpp"

namespace piom::mpi {

class GlobalLockEngine final : public Engine {
 public:
  /// `kind` is kMvapichLike (hard spin in wait) or kOpenMpiLike (yield
  /// the CPU between progress attempts in wait — OpenMPI-flavoured
  /// politeness).
  GlobalLockEngine(nmad::Session& session, EngineKind kind);

  void isend(Request& req, nmad::Gate& gate, Tag tag, const void* buf,
             std::size_t len) override;
  void irecv(Request& req, nmad::Gate& gate, Tag tag, void* buf,
             std::size_t cap) override;
  void irecv_any(Request& req, nmad::WildSet& wilds, Tag tag, void* buf,
                 std::size_t cap) override;
  void wait(Request& req) override;
  bool test(Request& req) override;
  bool test_coll(CollOp& op) override;
  void wait_coll(CollOp& op) override;
  void progress() override {
    locked_progress();
    advance_colls();
  }
  [[nodiscard]] std::string name() const override {
    return engine_kind_name(kind_);
  }

  /// Lock acquisitions so far (the Fig-4 bench reports contention).
  [[nodiscard]] uint64_t lock_acquisitions() const {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  void locked_progress();

  nmad::Session& session_;
  const EngineKind kind_;
  std::mutex big_lock_;
  std::atomic<uint64_t> lock_acquisitions_{0};
};

}  // namespace piom::mpi
