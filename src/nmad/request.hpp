// Send/receive request objects. The piom::Task used for submission
// offloading is *embedded* in the request (paper §IV-B: "the task structure
// does not require an allocation since it is included in the packet wrapper
// structure") — submitting a request to the scheduler allocates nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/task.hpp"
#include "sync/semaphore.hpp"
#include "nmad/types.hpp"

namespace piom::nmad {

class Gate;
class WildSet;
struct RecvRequest;

/// Completion flag + wakeup shared by both request kinds.
struct RequestCore {
  std::atomic<bool> done{false};
  /// Error-completion outcome: set (before complete()) when the operation
  /// terminated because the peer was declared failed instead of finishing
  /// normally. The done-acquire in completed() synchronizes it, so owners
  /// read it lock-free after observing done.
  std::atomic<bool> failed{false};
  sync::Semaphore sem{0};

  void complete() {
    // Post the wakeup *first*, publish `done` *last*: an owner polling
    // completed() (the engines' wait/test fast paths) may reclaim the
    // request's storage the instant it observes done == true, so the
    // `done` store must be the completer's final touch of this object.
    // Parked waiters wake on the post and spin the few remaining
    // instructions until the flag lands (wait_done below).
    sem.post();
    done.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool completed() const {
    return done.load(std::memory_order_acquire);
  }
  /// Mark the operation as error-terminated. Must be called BEFORE
  /// complete() (failure completers do mark_failed(); complete();) so the
  /// flag is published by the time the owner observes done.
  void mark_failed() { failed.store(true, std::memory_order_release); }
  /// Meaningful once completed() is true.
  [[nodiscard]] bool has_failed() const {
    return failed.load(std::memory_order_acquire);
  }
  /// Block until complete() has *fully finished* — consuming the post
  /// alone is not enough to reclaim storage, since the trailing `done`
  /// store is the completer's last write.
  void wait_done() {
    if (completed()) return;
    sem.wait();
    while (!completed()) {
      // complete() is between its post and its done store; normally a few
      // instructions away, but yield in case the completer was preempted
      // right there (otherwise this spin burns its whole timeslice on
      // single-CPU hosts).
      std::this_thread::yield();
    }
  }
  void reset() {
    done.store(false, std::memory_order_relaxed);
    failed.store(false, std::memory_order_relaxed);
    while (sem.try_wait()) {
    }
  }
};

struct SendRequest {
  Gate* gate = nullptr;
  Tag tag = 0;
  uint64_t seq = 0;
  const void* buf = nullptr;
  std::size_t len = 0;
  bool rdv = false;  ///< true: rendezvous (RTS/RDMA-Read/FIN) path
  RequestCore core;
  SendRequest* next = nullptr;  ///< intrusive pending-queue linkage

  SendRequest() = default;
  SendRequest(const SendRequest&) = delete;
  SendRequest& operator=(const SendRequest&) = delete;

  [[nodiscard]] bool completed() const { return core.completed(); }
  void wait() { core.wait_done(); }
};

/// Rendezvous pull bookkeeping: one RDMA-Read per rail chunk; the request
/// completes (and FIN is sent) when every chunk has landed.
struct RdvPull {
  std::atomic<int> chunks_remaining{0};
  /// Chunks whose RDMA read came back failed (severed rail). The single
  /// last-chunk completer reads this to decide between FIN and error
  /// completion — no extra arbitration needed.
  std::atomic<int> chunks_failed{0};
  RecvRequest* req = nullptr;
  Tag tag = 0;
  uint64_t seq = 0;
};

struct RecvRequest {
  Gate* gate = nullptr;
  Tag tag = 0;
  void* buf = nullptr;
  std::size_t cap = 0;
  std::size_t received = 0;
  uint64_t matched_seq = 0;
  Tag matched_tag = 0;  ///< actual tag when posted with kAnyTag
  int source = -1;      ///< peer rank of the matched gate (kAnySource recvs)
  /// Any-source receives are registered with several gates at once; the
  /// first gate to match claims the request through this flag (CAS 0 -> 1).
  /// Losing gates drop their now-stale registration instead of delivering.
  std::atomic<uint32_t> wild_claim{0};
  /// Non-null for any-source receives: the registry the request was posted
  /// through (WildSet::post). Must stay valid until the request completes;
  /// the claiming member purges every sibling registration — including
  /// gates that joined the set after the post — *before* signalling
  /// completion (WildSet::purge).
  WildSet* wild_set = nullptr;
  RequestCore core;
  RdvPull pull;  ///< embedded: no allocation on the rendezvous path either

  RecvRequest() = default;
  RecvRequest(const RecvRequest&) = delete;
  RecvRequest& operator=(const RecvRequest&) = delete;

  [[nodiscard]] bool completed() const { return core.completed(); }
  void wait() { core.wait_done(); }
};

}  // namespace piom::nmad
