#include "mpi/engine_globallock.hpp"

#include <thread>

#include "mpi/coll.hpp"
#include "nmad/wildset.hpp"

namespace piom::mpi {

GlobalLockEngine::GlobalLockEngine(nmad::Session& session, EngineKind kind)
    : session_(session), kind_(kind) {}

void GlobalLockEngine::locked_progress() {
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(big_lock_);
  session_.progress();
}

void GlobalLockEngine::isend(Request& req, nmad::Gate& gate, Tag tag,
                             const void* buf, std::size_t len) {
  req.arm(/*is_send=*/true);
  {
    lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(big_lock_);
    // Inline submission: the caller's CPU does the packing and posting.
    gate.isend(req.send_req(), tag, buf, len, /*defer=*/false);
    session_.progress();
  }
}

void GlobalLockEngine::irecv(Request& req, nmad::Gate& gate, Tag tag,
                             void* buf, std::size_t cap) {
  req.arm(/*is_send=*/false);
  {
    lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(big_lock_);
    gate.irecv(req.recv_req(), tag, buf, cap);
    session_.progress();
  }
}

void GlobalLockEngine::irecv_any(Request& req, nmad::WildSet& wilds, Tag tag,
                                 void* buf, std::size_t cap) {
  req.arm(/*is_send=*/false);
  {
    lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(big_lock_);
    wilds.post(req.recv_req(), tag, buf, cap);
    session_.progress();
  }
}

void GlobalLockEngine::wait(Request& req) {
  nmad::RequestCore& core = req.req_core();
  // Caller-driven progress: every blocked thread hammers the big lock.
  // In-flight collectives must advance here too — a rank blocked on a
  // point-to-point wait may owe other ranks its collective rounds.
  while (!core.completed()) {
    locked_progress();
    advance_colls();
    if (kind_ == EngineKind::kOpenMpiLike) std::this_thread::yield();
  }
}

bool GlobalLockEngine::test(Request& req) {
  if (req.done()) return true;
  locked_progress();
  advance_colls();
  return req.done();
}

bool GlobalLockEngine::test_coll(CollOp& op) {
  // Not the base default (progress() + advance_colls()): our progress()
  // already sweeps the registry, so that path would sweep twice per call —
  // wasteful on wait_coll's hard spin.
  if (op.done()) return true;
  locked_progress();
  advance_colls();
  return op.done();
}

void GlobalLockEngine::wait_coll(CollOp& op) {
  // Same spin as wait(): test_coll drives progress + collectives; the
  // OpenMPI flavour yields between attempts, MVAPICH hard-spins.
  while (!test_coll(op)) {
    if (kind_ == EngineKind::kOpenMpiLike) std::this_thread::yield();
  }
}

}  // namespace piom::mpi
