// TagMatcher: the gate's tag-matching engine, factored out of Gate so the
// matching data structures (and their lock) live apart from the send-side
// pending/reliability state. Two interchangeable layouts behind one API:
//
//   kScan   — the reference matcher: one posted FIFO and one arrival-order
//             unexpected list, linearly scanned. O(depth) per operation,
//             trivially correct; kept as the equivalence-test oracle and
//             the `matcher=scan` ablation of bench_msgrate.
//   kBucket — MPICH-style hashed tag buckets (chained on tag & mask) for
//             exact-tag traffic, plus a wildcard *sidecar* FIFO holding the
//             kAnyTag receives. Exact-tag post/match touches only one
//             bucket chain; a wildcard receive falls back to scanning the
//             arrival-order list (it must see every tag anyway).
//
// Ordering semantics preserved from the linear matcher:
//   * per (tag, gate) the lowest-sequence staged arrival matches first —
//     bucket chains are searched for the minimum seq, not the head, since
//     multirail delivery may stage out of send order;
//   * a posted exact-tag receive and a posted wildcard compete by post
//     order (every posted node carries a monotonic order stamp; the bucket
//     candidate and the sidecar head are compared before claiming);
//   * kAnyTag never matches reserved-space (collective/internal) tags.
//
// Locking: the matcher owns one spinlock. Callers hold it across compound
// sequences (peer-dead check + match + insert) via lock()/unlock(); the
// few self-contained entry points (recycle, stats_snapshot) lock
// internally and say so. Counters are plain fields owned by the lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nmad/request.hpp"
#include "nmad/types.hpp"
#include "sync/spinlock.hpp"

namespace piom::nmad {

enum class MatcherKind : uint8_t {
  kScan = 0,    ///< linear reference matcher
  kBucket = 1,  ///< hashed tag buckets + wildcard sidecar
};

/// Bucket count of the kBucket layout (a power of two: tags that agree
/// mod kMatcherBuckets share a chain).
inline constexpr std::size_t kMatcherBuckets = 64;
static_assert((kMatcherBuckets & (kMatcherBuckets - 1)) == 0,
              "bucket_of masks with kMatcherBuckets - 1");

/// Tag-matching predicate shared by every lookup. kAnyTag is an
/// application-level wildcard: it never matches reserved-space
/// (collective/internal) traffic, so a wildcard receive posted while a
/// collective runs cannot claim its packets.
[[nodiscard]] inline bool recv_tag_matches(Tag req_tag, Tag arrival) {
  if (req_tag == arrival) return true;
  return req_tag == kAnyTag && !tag_is_reserved(arrival);
}

/// Take ownership of a matched receive. Any-source requests are registered
/// with several WildSet members and carry a claim flag; the first member to
/// CAS it wins and the losers drop their stale registrations. Single-gate
/// requests always succeed.
[[nodiscard]] inline bool try_claim(RecvRequest& req) {
  if (req.wild_set == nullptr) return true;
  uint32_t unclaimed = 0;
  return req.wild_claim.compare_exchange_strong(unclaimed, 1,
                                                std::memory_order_acq_rel);
}

/// One staged unexpected arrival: an eager payload (copied out of the
/// recycled pool buffer) or a rendezvous RTS. Entries are pooled; `data`
/// keeps its capacity across recycling, so steady-state unexpected traffic
/// allocates nothing.
struct UnexEntry {
  Tag tag = 0;
  uint64_t seq = 0;
  bool rdv = false;
  uint64_t len = 0;           ///< rdv: remote data size
  uint64_t raddr = 0;         ///< rdv: sender buffer address for RDMA-Read
  std::vector<uint8_t> data;  ///< eager payload
  // Arrival-order list (always maintained) + bucket chain (kBucket only).
  UnexEntry* ord_prev = nullptr;
  UnexEntry* ord_next = nullptr;
  UnexEntry* bkt_prev = nullptr;
  UnexEntry* bkt_next = nullptr;
};

/// The rendezvous coordinates of a staged RTS, detached from its entry
/// (start_pull input, revoke-sweep NACK list).
struct RdvStub {
  Tag tag = 0;
  uint64_t seq = 0;
  uint64_t len = 0;
  uint64_t raddr = 0;
};

/// Counter snapshot (Gate::stats() merges this into GateStats).
struct MatcherStats {
  uint64_t bucket_hits = 0;      ///< lookups resolved through a tag bucket
  uint64_t wildcard_scans = 0;   ///< full-list scans on behalf of kAnyTag
  uint64_t posted_depth_hw = 0;  ///< posted-receive high-water mark
  uint64_t unexpected_depth_hw = 0;
  uint64_t pool_hits = 0;        ///< node/entry reuses from the freelists
  uint64_t pool_misses = 0;      ///< allocations (freelist empty)
};

class TagMatcher {
 public:
  explicit TagMatcher(MatcherKind kind);
  ~TagMatcher();
  TagMatcher(const TagMatcher&) = delete;
  TagMatcher& operator=(const TagMatcher&) = delete;

  void lock() const PIOM_ACQUIRE(lock_) { lock_.lock(); }
  void unlock() const PIOM_RELEASE(lock_) { lock_.unlock(); }

  // ---- posted (expected) receives — all require the lock ----

  /// Append `req` to the posted structure (bucket / sidecar / scan list).
  void insert_posted(RecvRequest& req) PIOM_REQUIRES(lock_);

  /// Drop a registration (wildcard purge). False when not queued here.
  bool remove_posted(RecvRequest& req) PIOM_REQUIRES(lock_);

  /// Cancel outcome for cancel_posted().
  enum class Cancel { kAbsent, kStale, kClaimed };
  /// Withdraw `req`: kClaimed when this caller now owns it (entry removed),
  /// kStale when a sibling gate claimed it first (stale entry removed),
  /// kAbsent when it was not queued here.
  Cancel cancel_posted(RecvRequest& req) PIOM_REQUIRES(lock_);

  /// Match one arrival against the posted receives: the eligible request
  /// with the lowest post-order stamp wins (exact-tag bucket candidate vs
  /// wildcard-sidecar head). Claims the winner; stale (sibling-claimed)
  /// entries encountered on the way are dropped. Null when nothing matches.
  RecvRequest* claim_for_arrival(Tag arrival) PIOM_REQUIRES(lock_);

  /// Claim every still-unclaimed posted receive into `claimed` and empty
  /// the structure (fail_peer: all of them error-complete).
  void drain_posted(std::vector<RecvRequest*>& claimed) PIOM_REQUIRES(lock_);

  // ---- unexpected arrivals — all require the lock unless noted ----

  /// Stage an eager payload / an RTS that found no posted receive.
  void stage_eager(Tag tag, uint64_t seq, const uint8_t* payload,
                   std::size_t len) PIOM_REQUIRES(lock_);
  void stage_rts(Tag tag, uint64_t seq, uint64_t len, uint64_t raddr)
      PIOM_REQUIRES(lock_);

  /// Match `req` against the staged arrivals: lowest sequence number among
  /// eligible entries (eager and RTS compete by seq). On a match the entry
  /// is unlinked and returned — the caller delivers outside the lock, then
  /// recycle()s it. `lost` is set when the match existed but a sibling gate
  /// already claimed the (any-source) request; nothing is unlinked then.
  UnexEntry* claim_unexpected(RecvRequest& req, bool& lost)
      PIOM_REQUIRES(lock_);

  /// Return a claimed entry to the pool. Takes the lock itself.
  void recycle(UnexEntry* entry) PIOM_EXCLUDES(lock_);

  /// Drop every staged arrival (fail_peer: nothing may match a dead peer).
  void clear_unexpected() PIOM_REQUIRES(lock_);

  // ---- revoked tag windows — require the lock ----

  /// True when `tag` falls in a revoked window.
  [[nodiscard]] bool tag_revoked(Tag tag) const PIOM_REQUIRES(lock_);

  /// Add the window (idempotent) and sweep the staged arrivals: RTS
  /// entries in the window are collected into `nack_rts` (the caller NACKs
  /// them outside the lock), eager entries are dropped.
  void revoke(Tag mask, Tag value, std::vector<RdvStub>& nack_rts)
      PIOM_REQUIRES(lock_);

  // ---- introspection ----

  [[nodiscard]] MatcherKind kind() const { return kind_; }
  /// Counter snapshot. Takes the lock itself.
  [[nodiscard]] MatcherStats stats_snapshot() const PIOM_EXCLUDES(lock_);

 private:
  struct PostedNode {
    RecvRequest* req = nullptr;
    uint64_t order = 0;  ///< monotonic post stamp (exact vs wildcard FIFO)
    PostedNode* prev = nullptr;
    PostedNode* next = nullptr;
  };
  struct PostedList {
    PostedNode* head = nullptr;
    PostedNode* tail = nullptr;
  };
  struct UnexList {
    UnexEntry* head = nullptr;
    UnexEntry* tail = nullptr;
  };

  [[nodiscard]] std::size_t bucket_of(Tag tag) const {
    return static_cast<std::size_t>(tag) & (kMatcherBuckets - 1);
  }
  /// The posted list `req` lives in under the current layout.
  [[nodiscard]] PostedList& posted_home(const RecvRequest& req)
      PIOM_REQUIRES(lock_);

  static void posted_push_back(PostedList& l, PostedNode* n);
  static void posted_unlink(PostedList& l, PostedNode* n);
  static void ord_push_back(UnexList& l, UnexEntry* e);
  static void ord_unlink(UnexList& l, UnexEntry* e);
  static void bkt_push_back(UnexList& l, UnexEntry* e);
  static void bkt_unlink(UnexList& l, UnexEntry* e);

  PostedNode* alloc_node() PIOM_REQUIRES(lock_);
  void free_node(PostedNode* n) PIOM_REQUIRES(lock_);
  UnexEntry* alloc_entry() PIOM_REQUIRES(lock_);
  void free_entry(UnexEntry* e) PIOM_REQUIRES(lock_);  ///< capacity kept

  /// Unlink a matched/swept entry from every list it is on.
  void unlink_unexpected(UnexEntry* e) PIOM_REQUIRES(lock_);

  /// Claim-or-drop loop over one posted list in scan order (kScan layout
  /// and drain); returns the first claimed eligible request.
  RecvRequest* scan_posted(PostedList& l, Tag arrival) PIOM_REQUIRES(lock_);

  const MatcherKind kind_;

  mutable sync::SpinLock lock_;
  // Posted receives. kScan: posted_all_ only. kBucket: buckets + sidecar.
  PostedList posted_all_ PIOM_GUARDED_BY(lock_);
  std::vector<PostedList> posted_buckets_ PIOM_GUARDED_BY(lock_);
  PostedList posted_wild_ PIOM_GUARDED_BY(lock_);  ///< the kAnyTag sidecar
  uint64_t next_order_ PIOM_GUARDED_BY(lock_) = 1;
  std::size_t posted_depth_ PIOM_GUARDED_BY(lock_) = 0;

  // Unexpected arrivals: arrival-order list (always) + buckets (kBucket).
  UnexList unex_ord_ PIOM_GUARDED_BY(lock_);
  std::vector<UnexList> unex_buckets_ PIOM_GUARDED_BY(lock_);
  std::size_t unex_depth_ PIOM_GUARDED_BY(lock_) = 0;

  /// Revoked tag windows, (mask, value) pairs. Grows by one entry per
  /// dying collective epoch; never shrinks (tiny, and a failed
  /// communicator is terminal under ULFM semantics anyway).
  std::vector<std::pair<Tag, Tag>> revoked_ PIOM_GUARDED_BY(lock_);

  // Freelists (nodes and entries are recycled, never returned to malloc
  // before destruction).
  PostedNode* node_free_ PIOM_GUARDED_BY(lock_) = nullptr;
  UnexEntry* entry_free_ PIOM_GUARDED_BY(lock_) = nullptr;

  // Counters (owned by lock_).
  uint64_t bucket_hits_ PIOM_GUARDED_BY(lock_) = 0;
  uint64_t wildcard_scans_ PIOM_GUARDED_BY(lock_) = 0;
  uint64_t posted_hw_ PIOM_GUARDED_BY(lock_) = 0;
  uint64_t unex_hw_ PIOM_GUARDED_BY(lock_) = 0;
  uint64_t pool_hits_ PIOM_GUARDED_BY(lock_) = 0;
  uint64_t pool_misses_ PIOM_GUARDED_BY(lock_) = 0;
};

}  // namespace piom::nmad
