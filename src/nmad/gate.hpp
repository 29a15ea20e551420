// Gate: the per-peer connection object (NewMadeleine terminology). It owns
// the rails (NICs) towards one peer, the tag-matching state, the pending
// send queue the strategies operate on, and the rendezvous bookkeeping.
//
// Thread-safety is fine-grained (paper §IV-B: "The combination of PIOMan
// tasks and NewMadeleine fine-grain locking permits to process communication
// operations in parallel"): one spinlock per gate protects matching/pending
// state for *short* critical sections; NIC post/poll calls are outside the
// lock, so several rails can be polled concurrently and a poll can run
// concurrently with a submission.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "nmad/matcher.hpp"
#include "nmad/packet.hpp"
#include "nmad/request.hpp"
#include "nmad/strategy.hpp"
#include "nmad/types.hpp"
#include "sync/spinlock.hpp"
#include "transport/channel.hpp"

namespace piom::nmad {

class Session;

/// Gate-level counters (tests + Fig-1 bench).
struct GateStats {
  uint64_t eager_sent = 0;
  uint64_t eager_recv = 0;
  uint64_t packs_sent = 0;        ///< aggregated wire packets
  uint64_t msgs_packed = 0;       ///< messages shipped inside packs
  uint64_t rdv_sent = 0;
  uint64_t rdv_recv = 0;
  uint64_t unexpected_eager = 0;  ///< arrivals with no matching irecv
  uint64_t unexpected_rts = 0;
  // Reliability layer (SessionConfig::reliable):
  uint64_t acks_sent = 0;
  uint64_t retransmits = 0;
  uint64_t duplicates_dropped = 0;
  // Failure detector (mpi::FailureDetector drives these):
  uint64_t pings_sent = 0;
  uint64_t pings_recv = 0;
  // Failure drain (revoke_tags): RTS arrivals refused with a kNack, and
  // local rendezvous sends error-completed by a peer's kNack.
  uint64_t rts_nacked = 0;
  uint64_t sends_nacked = 0;
  // Matcher observability (TagMatcher snapshot):
  uint64_t match_bucket_hits = 0;     ///< lookups resolved via a tag bucket
  uint64_t match_wildcard_scans = 0;  ///< full scans on behalf of kAnyTag
  uint64_t posted_depth_hw = 0;       ///< posted-receive high-water
  uint64_t unexpected_depth_hw = 0;   ///< staged-arrival high-water
  uint64_t match_pool_hits = 0;       ///< matcher node/entry freelist reuses
  uint64_t match_pool_misses = 0;     ///< matcher allocations
  // Packet-wrapper pool (send path) and lazy receive-buffer pool:
  uint64_t pw_pool_hits = 0;
  uint64_t pw_pool_misses = 0;
  uint64_t recv_bufs_posted_hw = 0;  ///< max buffers posted on any one rail
  uint64_t recv_pool_growths = 0;    ///< lazy-growth events across rails
};

class Gate {
 public:
  /// `rails` are this side's connected transport channels towards the peer
  /// (any backend, freely mixed); they must outlive the gate. A small
  /// initial set of receive pool buffers is posted immediately; the pool
  /// grows lazily towards pool_bufs_per_rail under RX pressure (see
  /// SessionConfig::pool_bufs_initial). `peer_rank` identifies the peer in
  /// the owning cluster (reported as RecvRequest::source on every match;
  /// -1 when the caller doesn't care).
  ///
  /// A rail-less gate (empty `rails`) only matches: it never sends, pings
  /// or polls, and is fed through arrive_eager(). The membership layer
  /// builds one per origin of forwarded traffic, outside the session's
  /// gate table so the failure detector never pings or times it out.
  Gate(Session& session, std::vector<transport::IChannel*> rails,
       int peer_rank = -1);
  ~Gate();

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  // ---- application-facing API (thread-safe) ----

  /// Start a send. The request object is caller-owned and must outlive
  /// completion. When `defer` is false the message is packed and posted
  /// inline; when true it only joins the pending queue — the caller (the
  /// PIOMan engine) later triggers flush(), typically from an offloaded
  /// task on an idle core.
  void isend(SendRequest& req, Tag tag, const void* buf, std::size_t len,
             bool defer = false);

  /// Start a receive into `buf` (capacity `cap`).
  void irecv(RecvRequest& req, Tag tag, void* buf, std::size_t cap);

  /// Register an any-source receive (initialised by WildSet::post) with
  /// this gate: match immediately against staged unexpected arrivals, else
  /// join the expected queue. Returns true when the request needs no
  /// further registrations (matched here, or already claimed elsewhere).
  bool post_wild(RecvRequest& req);

  /// Drop a wildcard registration that was claimed by a sibling gate.
  /// No-op when the request is not queued here.
  void remove_expected(RecvRequest& req);

  /// Pack and post every pending send (strategy layer: aggregation, rail
  /// selection). Safe to call from any thread, including concurrently:
  /// one caller at a time drains the FIFO, so sends reach the wire in
  /// enqueue order; a caller that finds a drain running leaves its sends
  /// to it and returns at once.
  void flush();

  // ---- multi-hop forwarding (sparse overlays; see src/mpi/membership) ----

  /// Origin side: ship `buf` towards remote rank `dst` by handing it to
  /// this gate's peer for relaying. The message is cut into kForwardChunk
  /// fragments, each a kForward packet riding the reliability layer on
  /// every hop; `req` is attached to the LAST fragment and completes when
  /// it is acked/on the wire ("sent", eager semantics — delivery matching
  /// happens on the destination's origin gate for `src`). `fseq` is the
  /// origin's per-(src,dst) message number, used for reassembly and match
  /// order.
  void isend_forward(SendRequest& req, int src, int dst, Tag tag,
                     uint64_t fseq, const void* buf, std::size_t len);

  /// Relay side: re-emit one already-decoded forward fragment towards this
  /// gate's peer, fire-and-forget (no request; the per-hop reliability
  /// layer still acks/retransmits the packet itself).
  void forward_raw(const ForwardFrame& frame);

  /// Destination side: match one reassembled forwarded message (`seq` is
  /// the origin's fseq) exactly like an eager arrival on the wire. Called
  /// on the rail-less origin gate of the message's source.
  void arrive_eager(Tag tag, uint64_t seq, const uint8_t* payload,
                    std::size_t len);

  /// Poll one rail: drain RX (dispatch arrivals) and TX (complete sends,
  /// advance rendezvous pulls) completion queues. Returns events handled.
  int poll_rail(int rail_index);

  /// flush() + poll every rail + retransmission check. Returns events
  /// handled.
  int progress();

  /// Reliability layer: repost unacknowledged packets older than the RTO.
  /// No-op unless SessionConfig::reliable. Called by progress(); background
  /// progression engines whose polling bypasses progress() (per-rail tasks)
  /// must call it periodically themselves. Stops reposting once the peer
  /// is declared dead — fail_peer() error-completes the stuck senders
  /// instead, which is what breaks the lossy-link retransmit livelock.
  void check_retransmits();

  // ---- failure detection / error completion ----

  /// Send one heartbeat packet on rail 0 (no-op once the peer is dead).
  /// Pings live outside the reliability layer: never acked, retransmitted
  /// or dedup-tracked.
  void send_ping();

  /// Monotonic timestamp (util::now_ns) of the last wire arrival from the
  /// peer — any packet counts, including acks and pings. Initialised to
  /// the gate's creation time, so a lazily-created gate gets one full
  /// silence window before the failure detector may act on it.
  [[nodiscard]] int64_t last_heard_ns() const {
    return last_heard_ns_.load(std::memory_order_acquire);
  }

  /// Declare the peer failed and error-complete everything stuck on it:
  /// pending and unacknowledged sends, rendezvous sends parked for FIN,
  /// and every queued receive (wildcards are claimed, so an any-source
  /// request fails on the first dead gate — ULFM-style semantics). All are
  /// completed with RequestCore::failed set. Also quiesces both endpoints
  /// of every rail first, so owners of error-completed requests may free
  /// their buffers immediately, and drops the staged unexpected arrivals
  /// (eager + RTS): nothing may ever match a dead peer's data, so keeping
  /// it would only pin memory until gate destruction. Subsequent
  /// isend/irecv on this gate fail at once. Idempotent, thread-safe;
  /// called by the failure detector and usable directly by tests.
  void fail_peer();
  [[nodiscard]] bool peer_dead() const {
    return peer_dead_.load(std::memory_order_acquire);
  }

  /// Withdraw a queued receive and error-complete it (MPI_Cancel-style,
  /// used to release collective round receives whose sender died). False
  /// when the request is not queued here — it matched already (completion
  /// may still be in flight) or lives on another gate.
  bool cancel_recv(RecvRequest& req);

  /// Revoke a tag window: declare that no receive will ever be posted for
  /// tags with (tag & mask) == value. Staged unexpected RTS entries in the
  /// window are NACKed immediately and later-arriving ones are NACKed on
  /// arrival, so a peer's rendezvous send parked for FIN error-completes
  /// instead of hanging (the receiver must drive this — the sender cannot
  /// withdraw unilaterally, because a matched RTS may have an RDMA pull in
  /// flight against its buffer). Unexpected *eager* data in the window is
  /// dropped: its sends completed on ack/TX and nothing may match it
  /// later. Used by the collectives' failure drain, which revokes a dying
  /// collective's whole tag epoch on every live gate. Revocations are
  /// permanent for the gate's lifetime (epochs are not reused). No-op on a
  /// dead gate. Thread-safe.
  void revoke_tags(Tag mask, Tag value);

  [[nodiscard]] int peer_rank() const { return peer_rank_; }
  [[nodiscard]] int nrails() const { return static_cast<int>(rails_.size()); }
  [[nodiscard]] transport::IChannel& rail_channel(int rail_index) {
    return *rails_[static_cast<std::size_t>(rail_index)].ch;
  }
  [[nodiscard]] Session& session() { return session_; }
  [[nodiscard]] GateStats stats() const;
  [[nodiscard]] std::size_t pending_sends() const;

  /// Total pw allocations (tests assert wrapper recycling works).
  [[nodiscard]] uint64_t pw_allocated() const { return pw_pool_.allocated(); }

 private:
  struct PoolBuf {
    Gate* gate = nullptr;
    int rail = 0;
    std::vector<uint8_t> data;
  };

  struct RailState {
    transport::IChannel* ch = nullptr;
    int index = 0;
    std::deque<PoolBuf> pool;
    /// Buffers currently posted (== pool.size()); guarded by poll_lock
    /// after construction — growth happens on the poll path only.
    int posted_bufs = 0;
    // Serializes pollers of this rail so completions are handled once.
    sync::SpinLock poll_lock;
  };

  // Wire handling (called from poll_rail).
  void handle_wire(const uint8_t* data, std::size_t len, int rail_index);
  void handle_forward(const PktHeader& hdr, const uint8_t* payload);
  void handle_eager(const PktHeader& hdr, const uint8_t* payload);
  void handle_pack(const PktHeader& hdr, const uint8_t* body, std::size_t len);
  void handle_rts(const PktHeader& hdr);
  void handle_fin(const PktHeader& hdr);
  void handle_nack(const PktHeader& hdr);
  void handle_ack(const PktHeader& hdr);
  void handle_tx_completion(const transport::Completion& c);

  // Reliability layer.
  /// Record `pkt_seq` as received. False when it is a duplicate.
  bool dedup_mark(uint64_t pkt_seq) PIOM_REQUIRES(lock_);
  /// Send a kAck for `pkt_seq` on rail 0.
  void send_ack(uint64_t pkt_seq);
  /// Send a kNack refusing the rendezvous (tag, seq) on rail 0.
  void send_nack(Tag tag, uint64_t seq);
  /// Complete + release an acknowledged, landed packet. Call WITHOUT lock_
  /// (completion wakes waiters that may re-enter the gate).
  void finalize_reliable_pw(PacketWrapper* pw) PIOM_EXCLUDES(lock_);

  // Rendezvous pull: post the RDMA-Read chunks for a matched RTS.
  void start_pull(RecvRequest& req, const RdvStub& rts);
  void finish_pull(RdvPull& pull);

  /// Shared tail of irecv/post_wild: try the staged unexpected arrivals
  /// under the matcher lock, else enqueue as posted. Returns true when the
  /// request needs no further registrations (matched, or claimed
  /// elsewhere). Call with matcher_ UNlocked.
  bool match_or_post(RecvRequest& req);

  /// Deliver a claimed unexpected entry (eager copy or rendezvous pull)
  /// and recycle it. Call WITHOUT any lock.
  void deliver_unexpected(RecvRequest& req, UnexEntry* entry);

  /// Serialize + post one forward fragment (shared by isend_forward and
  /// forward_raw). `req` is attached to the packet when non-null.
  void post_forward_frag(int src, int dst, Tag tag, uint64_t fseq,
                         uint32_t frag, uint16_t nfrags, const void* data,
                         std::size_t len, SendRequest* req);

  // Pending-send packing (strategy layer). Must be called WITHOUT lock_.
  /// One in-order pass over the pending FIFO; only flush()'s owner runs it.
  void drain_pending() PIOM_EXCLUDES(lock_);
  void post_pw(PacketWrapper* pw, int rail_index);

  /// Deliver `payload` into a matched receive and complete it.
  void deliver_eager(RecvRequest& req, const uint8_t* payload,
                     std::size_t len, uint64_t seq, Tag tag);

  Session& session_;
  int peer_rank_ = -1;
  std::deque<RailState> rails_;  // deque: RailState holds a lock (immovable)
  /// Rail properties, cached for the strategy layer's hot paths (eager
  /// rail selection per packet, stripe weighting per rendezvous).
  std::vector<double> rail_latency_us_;
  std::vector<double> rail_bandwidths_;
  PwPool pw_pool_;

  /// Tag matching (posted receives, unexpected arrivals, revoked windows)
  /// lives behind its own lock inside the matcher, so the posted-receive
  /// fast path no longer contends with senders on lock_.
  TagMatcher matcher_;

  mutable sync::SpinLock lock_;  // pending sends + reliability + rdv state
  /// Intrusive FIFO of deferred sends.
  SendRequest* pending_head_ PIOM_GUARDED_BY(lock_) = nullptr;
  SendRequest* pending_tail_ PIOM_GUARDED_BY(lock_) = nullptr;
  std::size_t pending_count_ PIOM_GUARDED_BY(lock_) = 0;
  std::deque<SendRequest*> rdv_waiting_fin_ PIOM_GUARDED_BY(lock_);
  std::atomic<uint64_t> next_seq_{1};
  /// Single-flusher handshake of flush(): the owner flag, and a
  /// "drain once more" request from callers that found an owner.
  std::atomic<bool> flushing_{false};
  std::atomic<bool> flush_again_{false};

  // Reliability layer state (guarded by lock_).
  uint64_t next_pkt_seq_ PIOM_GUARDED_BY(lock_) = 1;
  std::deque<PacketWrapper*> unacked_ PIOM_GUARDED_BY(lock_);
  /// All pkt_seq <= floor seen.
  uint64_t dedup_floor_ PIOM_GUARDED_BY(lock_) = 0;
  /// Seen above the floor.
  std::unordered_set<uint64_t> dedup_sparse_ PIOM_GUARDED_BY(lock_);

  // Failure detection state. Lock-free: last_heard_ns_ is stamped on the
  // poll path (must not contend with lock_), peer_dead_ gates the fast
  // paths with a single acquire load.
  std::atomic<int64_t> last_heard_ns_{0};
  std::atomic<bool> peer_dead_{false};

  /// Send-side + reliability counters.
  GateStats stats_ PIOM_GUARDED_BY(lock_);

  /// Receive-path counters. The matcher refactor moved these paths off
  /// lock_, so they are atomics (relaxed: monotonic counters, snapshot
  /// consistency is not promised by stats()).
  struct RecvStats {
    std::atomic<uint64_t> eager_recv{0};
    std::atomic<uint64_t> rdv_recv{0};
    std::atomic<uint64_t> unexpected_eager{0};
    std::atomic<uint64_t> unexpected_rts{0};
    std::atomic<uint64_t> rts_nacked{0};
  };
  RecvStats recv_stats_;

  /// Lazy receive-pool telemetry (updated on the poll path).
  std::atomic<uint64_t> recv_bufs_hw_{0};
  std::atomic<uint64_t> recv_pool_growths_{0};
};

}  // namespace piom::nmad
