#include "nmad/wildset.hpp"

#include <algorithm>

#include "nmad/gate.hpp"

namespace piom::nmad {

void WildSet::add_gate(Gate* g) {
  std::vector<RecvRequest*> parked;
  lock_.lock();
  gates_.push_back(g);
  parked.assign(pending_.begin(), pending_.end());
  lock_.unlock();
  // Register outside the lock: a registration can match staged data and
  // complete the request, which re-enters purge(). A request claimed in
  // the meantime is rejected by the claim re-check under g's matcher lock
  // (the same serialization that protects sibling-gate registrations).
  // Each registration is announced under lock_ first, and only while the
  // request is still pending: purge() erases it from pending_ and then
  // waits for the announcement to go, so the claimer cannot complete the
  // request (letting its owner free it) while post_wild still reads it.
  const std::thread::id me = std::this_thread::get_id();
  for (RecvRequest* r : parked) {
    lock_.lock();
    if (std::find(pending_.begin(), pending_.end(), r) == pending_.end()) {
      lock_.unlock();
      continue;  // purged since the snapshot: claimed, maybe freed
    }
    registering_.emplace_back(r, me);
    lock_.unlock();
    (void)g->post_wild(*r);
    lock_.lock();
    registering_.erase(std::find(registering_.begin(), registering_.end(),
                                 std::make_pair(r, me)));
    lock_.unlock();
  }
}

void WildSet::post(RecvRequest& req, Tag tag, void* buf, std::size_t cap) {
  req.gate = nullptr;
  req.tag = tag;
  req.buf = buf;
  req.cap = cap;
  req.received = 0;
  req.matched_seq = 0;
  req.source = -1;
  req.wild_claim.store(0, std::memory_order_relaxed);
  req.wild_set = this;
  req.core.reset();
  std::vector<Gate*> members;
  lock_.lock();
  pending_.push_back(&req);
  members.assign(gates_.begin(), gates_.end());
  lock_.unlock();
  for (Gate* g : members) {
    if (g->post_wild(req)) return;
  }
}

void WildSet::purge(RecvRequest& req, const Gate* claimer) {
  const std::thread::id me = std::this_thread::get_id();
  auto elsewhere = [&](const std::pair<RecvRequest*, std::thread::id>& e) {
    return e.first == &req && e.second != me;
  };
  std::vector<Gate*> members;
  lock_.lock();
  pending_.erase(std::remove(pending_.begin(), pending_.end(), &req),
                 pending_.end());
  // An add_gate registration of req on another thread must finish before
  // the claimer completes req. One this thread runs further up its own
  // stack (the registration matched and completed inline) is not waited
  // for: it cannot finish before this purge returns.
  while (std::any_of(registering_.begin(), registering_.end(), elsewhere)) {
    lock_.unlock();
    std::this_thread::yield();
    lock_.lock();
  }
  members.assign(gates_.begin(), gates_.end());
  lock_.unlock();
  // A gate added after this snapshot cannot re-register the request: its
  // add_gate snapshot no longer contains it (erased above, serialized by
  // lock_), and a registration racing the erase is rejected by the claim
  // re-check under that gate's matcher lock.
  for (Gate* g : members) {
    if (g != claimer) g->remove_expected(req);
  }
}

bool WildSet::cancel(RecvRequest& req) {
  std::vector<Gate*> members;
  lock_.lock();
  members.assign(gates_.begin(), gates_.end());
  lock_.unlock();
  for (Gate* g : members) {
    if (g->cancel_recv(req)) return true;
  }
  return false;
}

std::size_t WildSet::gate_count() const {
  lock_.lock();
  const std::size_t n = gates_.size();
  lock_.unlock();
  return n;
}

}  // namespace piom::nmad
