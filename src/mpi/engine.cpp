// Engine base: the per-rank registry of in-flight collective state
// machines (CollOps) and the default caller-driven completion paths. The
// engines differ only in *where* advance_colls() runs from — pioman's
// background poll tasks vs. the global-lock engines' MPI-call-driven
// progress — which is the paper's progression argument extended to
// collectives.
#include "mpi/engine.hpp"

#include "mpi/coll.hpp"
#include "mpi/failure.hpp"

namespace piom::mpi {

const char* engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::kPioman: return "pioman";
    case EngineKind::kMvapichLike: return "mvapich-like";
    case EngineKind::kOpenMpiLike: return "openmpi-like";
  }
  return "?";
}

bool Engine::has_failures() const {
  const FailureDetector* fd = fd_.load(std::memory_order_acquire);
  return fd != nullptr && fd->any_failed();
}

void Engine::start_coll(CollOp& op) {
  // Take the lock blocking (unlike the opportunistic sweeps): round 0's
  // point-to-point requests must be on the wire when this returns, even if
  // a background sweep holds the registry right now.
  coll_lock_.lock();
  colls_.push_back(&op);
  ncolls_.fetch_add(1, std::memory_order_release);
  sweep_colls();
  coll_lock_.unlock();
}

void Engine::advance_colls() {
  // The detector ticks BEFORE the empty fast path: liveness must keep
  // flowing (and dead peers must keep being detected) when no collective
  // is in flight — a rank blocked in a p2p wait still calls this.
  FailureDetector* fd = fd_.load(std::memory_order_acquire);
  if (fd != nullptr) fd->tick();
  if (ncolls_.load(std::memory_order_acquire) == 0) return;
  if (!coll_lock_.try_lock()) return;  // a sweep is already running
  sweep_colls();
  coll_lock_.unlock();
}

void Engine::sweep_colls() {
  for (std::size_t i = 0; i < colls_.size();) {
    CollOp* op = colls_[i];
    if (op->advance()) {
      colls_.erase(colls_.begin() + static_cast<std::ptrdiff_t>(i));
      ncolls_.fetch_sub(1, std::memory_order_release);
      // Delist BEFORE completing: complete() is the engine's last touch of
      // the op — the owner may reuse or destroy the handle the instant it
      // observes done(), and no sweep may still hold a pointer to it.
      op->core().complete();
    } else {
      ++i;
    }
  }
}

bool Engine::test_coll(CollOp& op) {
  if (op.done()) return true;
  progress();
  advance_colls();
  return op.done();
}

void Engine::wait_coll(CollOp& op) {
  // Caller-driven default: the blocked caller is the progress source.
  while (!test_coll(op)) {
  }
}

}  // namespace piom::mpi
