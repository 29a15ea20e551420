// WildSet: the registry any-source receives are posted against. With eager
// full-mesh wiring the gate list was a fixed by-peer vector; with lazy gates
// the set of match candidates *grows while requests are parked*, so the
// registry is a first-class object: gates join it when they are created,
// and every pending wildcard is (exactly once) registered with each member.
// Members are direct gates and the rail-less origin gates that match
// forwarded traffic (mpi/membership.hpp) alike.
//
// Coverage invariant: for every (pending request, member) pair exactly one
// side performs the registration. post() appends the request and snapshots
// the membership under one lock; add_gate() appends the gate and snapshots
// the pending requests under the same lock. Whichever append lands second
// sees the other in its snapshot — and only that one registers the pair.
// The actual post_wild calls run OUTSIDE the lock: a registration can match
// staged data and complete the request inline, which re-enters the set via
// purge().
//
// Lifetime rule: no member touches a request after its claimer purged it
// (the owner may free it the moment it completes). add_gate() runs on
// another thread than the request's owner, so each of its registrations is
// announced under the lock: purge() drops the request from add_gate
// snapshots and waits out a registration of it running on another thread.
#pragma once

#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "nmad/types.hpp"
#include "sync/spinlock.hpp"

namespace piom::nmad {

class Gate;
struct RecvRequest;

class WildSet {
 public:
  WildSet() = default;
  WildSet(const WildSet&) = delete;
  WildSet& operator=(const WildSet&) = delete;

  /// Add a gate to the set and register every pending wildcard with it.
  /// Called once per gate, at creation.
  void add_gate(Gate* g);

  /// Post `req` as an any-source receive across the current membership
  /// (and, transparently, any gate added later). Initialises the request
  /// like Gate::irecv does. `req` must outlive its completion.
  void post(RecvRequest& req, Tag tag, void* buf, std::size_t cap);

  /// Remove a claimed request from every member except `claimer`. Must be
  /// called WITHOUT locks and BEFORE completing the request, by whoever won
  /// the claim CAS. Returns once no other thread is registering `req`.
  void purge(RecvRequest& req, const Gate* claimer);

  /// Cancel a parked wildcard: first member that still holds it withdraws
  /// and error-completes it. False when no member holds it (matched
  /// already, completion may be in flight).
  bool cancel(RecvRequest& req);

  [[nodiscard]] std::size_t gate_count() const;

 private:
  mutable sync::SpinLock lock_;
  std::vector<Gate*> gates_ PIOM_GUARDED_BY(lock_);
  std::vector<RecvRequest*> pending_ PIOM_GUARDED_BY(lock_);
  /// add_gate() registrations in flight, with the thread running each.
  std::vector<std::pair<RecvRequest*, std::thread::id>> registering_
      PIOM_GUARDED_BY(lock_);
};

}  // namespace piom::nmad
