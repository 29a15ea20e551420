#include "nmad/matcher.hpp"

#include <algorithm>

namespace piom::nmad {

TagMatcher::TagMatcher(MatcherKind kind) : kind_(kind) {
  if (kind_ == MatcherKind::kBucket) {
    posted_buckets_.resize(kMatcherBuckets);
    unex_buckets_.resize(kMatcherBuckets);
  }
}

TagMatcher::~TagMatcher() {
  auto free_posted_list = [](PostedList& l) {
    for (PostedNode* n = l.head; n != nullptr;) {
      PostedNode* next = n->next;
      delete n;
      n = next;
    }
    l.head = l.tail = nullptr;
  };
  free_posted_list(posted_all_);
  free_posted_list(posted_wild_);
  for (PostedList& l : posted_buckets_) free_posted_list(l);
  for (UnexEntry* e = unex_ord_.head; e != nullptr;) {
    UnexEntry* next = e->ord_next;
    delete e;
    e = next;
  }
  for (PostedNode* n = node_free_; n != nullptr;) {
    PostedNode* next = n->next;
    delete n;
    n = next;
  }
  for (UnexEntry* e = entry_free_; e != nullptr;) {
    UnexEntry* next = e->ord_next;
    delete e;
    e = next;
  }
}

// ------------------------------------------------------------ list plumbing

void TagMatcher::posted_push_back(PostedList& l, PostedNode* n) {
  n->prev = l.tail;
  n->next = nullptr;
  if (l.tail != nullptr) {
    l.tail->next = n;
  } else {
    l.head = n;
  }
  l.tail = n;
}

void TagMatcher::posted_unlink(PostedList& l, PostedNode* n) {
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    l.head = n->next;
  }
  if (n->next != nullptr) {
    n->next->prev = n->prev;
  } else {
    l.tail = n->prev;
  }
  n->prev = n->next = nullptr;
}

void TagMatcher::ord_push_back(UnexList& l, UnexEntry* e) {
  e->ord_prev = l.tail;
  e->ord_next = nullptr;
  if (l.tail != nullptr) {
    l.tail->ord_next = e;
  } else {
    l.head = e;
  }
  l.tail = e;
}

void TagMatcher::ord_unlink(UnexList& l, UnexEntry* e) {
  if (e->ord_prev != nullptr) {
    e->ord_prev->ord_next = e->ord_next;
  } else {
    l.head = e->ord_next;
  }
  if (e->ord_next != nullptr) {
    e->ord_next->ord_prev = e->ord_prev;
  } else {
    l.tail = e->ord_prev;
  }
  e->ord_prev = e->ord_next = nullptr;
}

void TagMatcher::bkt_push_back(UnexList& l, UnexEntry* e) {
  e->bkt_prev = l.tail;
  e->bkt_next = nullptr;
  if (l.tail != nullptr) {
    l.tail->bkt_next = e;
  } else {
    l.head = e;
  }
  l.tail = e;
}

void TagMatcher::bkt_unlink(UnexList& l, UnexEntry* e) {
  if (e->bkt_prev != nullptr) {
    e->bkt_prev->bkt_next = e->bkt_next;
  } else {
    l.head = e->bkt_next;
  }
  if (e->bkt_next != nullptr) {
    e->bkt_next->bkt_prev = e->bkt_prev;
  } else {
    l.tail = e->bkt_prev;
  }
  e->bkt_prev = e->bkt_next = nullptr;
}

TagMatcher::PostedNode* TagMatcher::alloc_node() {
  PostedNode* n = node_free_;
  if (n != nullptr) {
    node_free_ = n->next;
    n->next = nullptr;
    ++pool_hits_;
    return n;
  }
  ++pool_misses_;
  return new PostedNode();
}

void TagMatcher::free_node(PostedNode* n) {
  n->req = nullptr;
  n->prev = nullptr;
  n->next = node_free_;
  node_free_ = n;
}

UnexEntry* TagMatcher::alloc_entry() {
  UnexEntry* e = entry_free_;
  if (e != nullptr) {
    entry_free_ = e->ord_next;
    e->ord_next = nullptr;
    ++pool_hits_;
    return e;
  }
  ++pool_misses_;
  return new UnexEntry();
}

void TagMatcher::free_entry(UnexEntry* e) {
  e->data.clear();  // capacity kept: the payload buffer is the recycled part
  e->ord_prev = e->bkt_prev = e->bkt_next = nullptr;
  e->ord_next = entry_free_;
  entry_free_ = e;
}

void TagMatcher::unlink_unexpected(UnexEntry* e) {
  ord_unlink(unex_ord_, e);
  if (kind_ == MatcherKind::kBucket) {
    bkt_unlink(unex_buckets_[bucket_of(e->tag)], e);
  }
  --unex_depth_;
}

// --------------------------------------------------------- posted receives

TagMatcher::PostedList& TagMatcher::posted_home(const RecvRequest& req) {
  if (kind_ == MatcherKind::kScan) return posted_all_;
  if (req.tag == kAnyTag) return posted_wild_;
  return posted_buckets_[bucket_of(req.tag)];
}

void TagMatcher::insert_posted(RecvRequest& req) {
  PostedNode* n = alloc_node();
  n->req = &req;
  n->order = next_order_++;
  posted_push_back(posted_home(req), n);
  ++posted_depth_;
  posted_hw_ = std::max(posted_hw_, static_cast<uint64_t>(posted_depth_));
}

bool TagMatcher::remove_posted(RecvRequest& req) {
  PostedList& l = posted_home(req);
  for (PostedNode* n = l.head; n != nullptr; n = n->next) {
    if (n->req == &req) {
      posted_unlink(l, n);
      free_node(n);
      --posted_depth_;
      return true;
    }
  }
  return false;
}

TagMatcher::Cancel TagMatcher::cancel_posted(RecvRequest& req) {
  PostedList& l = posted_home(req);
  for (PostedNode* n = l.head; n != nullptr; n = n->next) {
    if (n->req != &req) continue;
    posted_unlink(l, n);
    free_node(n);
    --posted_depth_;
    return try_claim(req) ? Cancel::kClaimed : Cancel::kStale;
  }
  return Cancel::kAbsent;
}

RecvRequest* TagMatcher::scan_posted(PostedList& l, Tag arrival) {
  for (PostedNode* n = l.head; n != nullptr;) {
    PostedNode* next = n->next;
    if (recv_tag_matches(n->req->tag, arrival)) {
      RecvRequest* req = n->req;
      posted_unlink(l, n);
      free_node(n);
      --posted_depth_;
      if (try_claim(*req)) return req;
      // Sibling-claimed any-source entry: stale, keep scanning.
    }
    n = next;
  }
  return nullptr;
}

RecvRequest* TagMatcher::claim_for_arrival(Tag arrival) {
  if (kind_ == MatcherKind::kScan) return scan_posted(posted_all_, arrival);

  PostedList& bkt = posted_buckets_[bucket_of(arrival)];
  const bool wild_eligible = !tag_is_reserved(arrival);
  for (;;) {
    // Exact candidate: first chain node with this tag — chains are FIFO, so
    // the first hit is the earliest-posted receive for the tag.
    PostedNode* exact = bkt.head;
    while (exact != nullptr && exact->req->tag != arrival) {
      exact = exact->next;
    }
    PostedNode* wild = wild_eligible ? posted_wild_.head : nullptr;
    // Exact vs wildcard compete by post order (MPI: the receive posted
    // first matches first among eligible ones).
    PostedNode* pick = exact;
    PostedList* pick_list = &bkt;
    if (wild != nullptr && (pick == nullptr || wild->order < pick->order)) {
      pick = wild;
      pick_list = &posted_wild_;
    }
    if (pick == nullptr) return nullptr;
    RecvRequest* req = pick->req;
    const bool from_bucket = pick_list == &bkt;
    posted_unlink(*pick_list, pick);
    free_node(pick);
    --posted_depth_;
    if (try_claim(*req)) {
      if (from_bucket) ++bucket_hits_;
      return req;
    }
    // Stale entry dropped; rerun the candidate selection.
  }
}

void TagMatcher::drain_posted(std::vector<RecvRequest*>& claimed) {
  auto drain_list = [&](PostedList& l) {
    for (PostedNode* n = l.head; n != nullptr;) {
      PostedNode* next = n->next;
      if (try_claim(*n->req)) claimed.push_back(n->req);
      n->prev = nullptr;
      free_node(n);
      n = next;
    }
    l.head = l.tail = nullptr;
  };
  drain_list(posted_all_);
  drain_list(posted_wild_);
  for (PostedList& l : posted_buckets_) drain_list(l);
  posted_depth_ = 0;
}

// ------------------------------------------------------ unexpected arrivals

void TagMatcher::stage_eager(Tag tag, uint64_t seq, const uint8_t* payload,
                             std::size_t len) {
  UnexEntry* e = alloc_entry();
  e->tag = tag;
  e->seq = seq;
  e->rdv = false;
  e->len = len;
  e->raddr = 0;
  e->data.assign(payload, payload + len);
  ord_push_back(unex_ord_, e);
  if (kind_ == MatcherKind::kBucket) {
    bkt_push_back(unex_buckets_[bucket_of(tag)], e);
  }
  ++unex_depth_;
  unex_hw_ = std::max(unex_hw_, static_cast<uint64_t>(unex_depth_));
}

void TagMatcher::stage_rts(Tag tag, uint64_t seq, uint64_t len,
                           uint64_t raddr) {
  UnexEntry* e = alloc_entry();
  e->tag = tag;
  e->seq = seq;
  e->rdv = true;
  e->len = len;
  e->raddr = raddr;
  ord_push_back(unex_ord_, e);
  if (kind_ == MatcherKind::kBucket) {
    bkt_push_back(unex_buckets_[bucket_of(tag)], e);
  }
  ++unex_depth_;
  unex_hw_ = std::max(unex_hw_, static_cast<uint64_t>(unex_depth_));
}

UnexEntry* TagMatcher::claim_unexpected(RecvRequest& req, bool& lost) {
  lost = false;
  UnexEntry* best = nullptr;
  if (kind_ == MatcherKind::kBucket && req.tag != kAnyTag) {
    // Bucket chains hold every staged arrival whose tag hashes here; filter
    // the exact tag and take the minimum sequence number (multirail
    // delivery may stage out of send order, so the head is not enough).
    const UnexList& l = unex_buckets_[bucket_of(req.tag)];
    for (UnexEntry* e = l.head; e != nullptr; e = e->bkt_next) {
      if (e->tag == req.tag && (best == nullptr || e->seq < best->seq)) {
        best = e;
      }
    }
    if (best != nullptr) ++bucket_hits_;
  } else {
    // Wildcard (or scan layout): every non-reserved tag competes, lowest
    // sequence number first — global arrival order across tags.
    if (req.tag == kAnyTag) ++wildcard_scans_;
    for (UnexEntry* e = unex_ord_.head; e != nullptr; e = e->ord_next) {
      if (recv_tag_matches(req.tag, e->tag) &&
          (best == nullptr || e->seq < best->seq)) {
        best = e;
      }
    }
  }
  if (best == nullptr) return nullptr;
  if (!try_claim(req)) {
    lost = true;  // sibling gate owns the request; entry stays staged
    return nullptr;
  }
  unlink_unexpected(best);
  return best;
}

void TagMatcher::recycle(UnexEntry* entry) {
  lock_.lock();
  free_entry(entry);
  lock_.unlock();
}

void TagMatcher::clear_unexpected() {
  for (UnexEntry* e = unex_ord_.head; e != nullptr;) {
    UnexEntry* next = e->ord_next;
    free_entry(e);
    e = next;
  }
  unex_ord_.head = unex_ord_.tail = nullptr;
  for (UnexList& l : unex_buckets_) l.head = l.tail = nullptr;
  unex_depth_ = 0;
}

// ---------------------------------------------------- revoked tag windows

bool TagMatcher::tag_revoked(Tag tag) const {
  for (const auto& [mask, value] : revoked_) {
    if ((tag & mask) == value) return true;
  }
  return false;
}

void TagMatcher::revoke(Tag mask, Tag value,
                        std::vector<RdvStub>& nack_rts) {
  const auto window = std::make_pair(mask, value);
  if (std::find(revoked_.begin(), revoked_.end(), window) == revoked_.end()) {
    revoked_.push_back(window);
  }
  for (UnexEntry* e = unex_ord_.head; e != nullptr;) {
    UnexEntry* next = e->ord_next;
    if ((e->tag & mask) == value) {
      if (e->rdv) {
        nack_rts.push_back(RdvStub{e->tag, e->seq, e->len, e->raddr});
      }
      // Eager data in the window is dropped: its sends completed on ack/TX
      // and nothing may match it later.
      unlink_unexpected(e);
      free_entry(e);
    }
    e = next;
  }
}

// ------------------------------------------------------------------- stats

MatcherStats TagMatcher::stats_snapshot() const {
  MatcherStats s;
  lock_.lock();
  s.bucket_hits = bucket_hits_;
  s.wildcard_scans = wildcard_scans_;
  s.posted_depth_hw = posted_hw_;
  s.unexpected_depth_hw = unex_hw_;
  s.pool_hits = pool_hits_;
  s.pool_misses = pool_misses_;
  lock_.unlock();
  return s;
}

}  // namespace piom::nmad
