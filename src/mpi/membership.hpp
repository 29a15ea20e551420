// Membership: the per-rank overlay/routing layer that replaces the eager
// full mesh. Each rank owns a table of lazily created gates plus a *view* —
// the O(log N) set of peers it keeps (or is willing to keep) direct links
// to — and routes everything else hop by hop along the view.
//
// Two modes, selected by WorldConfig::overlay / $PIOM_OVERLAY:
//
//   * kDense  — the classic shape: every peer is "in view", next_hop(d) is
//     always d, nothing is ever forwarded. Gates are still created lazily
//     (on first send/recv towards a peer), so a world whose traffic touches
//     k pairs pays O(k) gates instead of O(N²) channels up front.
//   * kSparse — the view is a fanout-f heap tree (parent (r-1)/f, children
//     f·r+1 … f·r+f) plus the ring neighbours r±1: at most f+3 peers.
//     Application point-to-point traffic towards a peer OUTSIDE the view is
//     forwarded along the tree in kForward fragments (nmad/types.hpp) —
//     each hop rides the reliability layer, so the per-hop guarantee
//     composes end to end. The destination matches each forwarded
//     message on a rail-less gate standing for its origin (ForwardInbox),
//     so one TagMatcher per peer serves both paths. Traffic towards view
//     peers, and ALL reserved-tag (collective/internal) traffic, stays on
//     direct gates.
//
// The symmetry rule matters: in_view is symmetric (tree and ring edges are
// undirected), and both endpoints of a non-view pair forward — never one
// direct and one forwarded, which would deadlock tag matching (the direct
// half would land on a gate the other side never posts receives on).
//
// Failure handling in sparse mode needs one extra mechanism: a rank with no
// gate to the victim cannot time it out locally, so survivors that DO hold
// a verdict flood a death notice (kForward frame, dst = kForwardFloodDst,
// tag = kDeathNoticeTag, payload = the dead rank) along the view;
// receivers adopt it via FailureDetector::mark_dead_external and re-flood
// once (epidemic/gossip dissemination, deduplicated per dead rank).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "nmad/session.hpp"
#include "nmad/wildset.hpp"
#include "sync/spinlock.hpp"
#include "transport/channel.hpp"

namespace piom::mpi {

class FailureDetector;
class Membership;

using Tag = nmad::Tag;

enum class OverlayMode {
  kDense,   ///< full logical mesh, lazy gates, no forwarding
  kSparse,  ///< tree+ring view, multi-hop forwarding
};

[[nodiscard]] const char* overlay_mode_name(OverlayMode m);

/// `auto` cut-over: worlds with nranks >= this go sparse.
inline constexpr int kSparseThreshold = 32;

/// Overlay/membership knobs (RankConfig::overlay, so WorldConfig::overlay
/// too). An unset mode defers to the environment at World/LocalRank
/// construction.
struct OverlayConfig {
  /// Unset: $PIOM_OVERLAY = dense | sparse | auto (default auto). auto
  /// picks sparse when nranks >= kSparseThreshold, dense below it.
  std::optional<OverlayMode> mode{};
  /// Tree fanout (values below 1 act as 1).
  int fanout = 4;
};

/// Resolve the mode for an N-rank world (throws std::invalid_argument on a
/// malformed $PIOM_OVERLAY — junk must not silently pick a topology).
[[nodiscard]] OverlayMode resolve_overlay_mode(const OverlayConfig& config,
                                               int nranks);

/// Sentinel tag of a death-notice flood frame. Lives at the very top of the
/// reserved space (above every collective window, below kAnyTag), only ever
/// appears inside kForward frames with dst == kForwardFloodDst, and is
/// never posted to a gate matcher — so it cannot collide with, or be
/// claimed by, any receive. The value lives in nmad/types.hpp with the
/// rest of the reserved-tag constants (the lint keeps reserved-space
/// literals in one file).
inline constexpr Tag kDeathNoticeTag = nmad::kDeathNoticeTag;

/// Creates + installs the gate pair for (this rank, peer) on demand: wires
/// the transport channels (both directions) and calls
/// Membership::install_gate on BOTH ranks' memberships — the peer's side
/// first, so its gate is being polled before our first packet can arrive.
/// Installed by World (in-process) before any traffic; must be idempotent
/// and callable concurrently for the same peer.
using GateConnector = std::function<void(int peer)>;

/// Where forwarded messages (from ranks this rank has no direct gate to)
/// land: fragments are reassembled by (src, fseq), and each complete
/// message is matched on its origin's *rail-less gate* — one nmad::Gate per
/// source rank, built on first use and joined to the any-source registry
/// like any late gate. Forwarded traffic therefore follows the gate's own
/// matching, cancel and eviction rules (post order, per-source FIFO by
/// fseq, wildcard claims); directed receives from off-view sources are
/// posted straight on the origin gate.
class ForwardInbox {
 public:
  /// `session` and `wilds` must outlive the inbox.
  ForwardInbox(nmad::Session& session, nmad::WildSet& wilds, int nranks);
  ~ForwardInbox();

  ForwardInbox(const ForwardInbox&) = delete;
  ForwardInbox& operator=(const ForwardInbox&) = delete;

  /// The origin gate of `src`, built (and added to the wildcard registry)
  /// on first use. Thread-safe; `src` must be a valid rank.
  nmad::Gate& origin(int src);

  /// One kForward fragment addressed to this rank: reassemble by
  /// (src, fseq); on the last fragment hand the whole message to the
  /// origin gate. Fragments may arrive out of order (retransmission on
  /// lossy links).
  void deliver(const nmad::ForwardFrame& frame);

  /// A source rank was declared failed: drop its partial messages and
  /// evict its origin gate (Gate::fail_peer — parked receives, directed
  /// and any-source, error-complete; staged messages are dropped).
  /// Idempotent.
  void fail_source(int src);

 private:
  /// One in-flight reassembly (keyed by (src, fseq)).
  struct Assembly {
    Tag tag = 0;
    std::vector<std::vector<uint8_t>> frags;
    uint16_t landed = 0;
  };

  nmad::Session& session_;
  nmad::WildSet& wilds_;
  const int nranks_;
  /// Serializes origin-gate creation; the table itself is lock-free to
  /// read (one release store per entry, ever). Entries are owned.
  std::mutex create_lock_;
  std::unique_ptr<std::atomic<nmad::Gate*>[]> origin_;
  sync::SpinLock lock_;
  std::map<std::pair<int, uint64_t>, Assembly> assembling_
      PIOM_GUARDED_BY(lock_);
};

/// Counters for tests/benches (monotonic; snapshot consistency not
/// promised).
struct MembershipStats {
  uint64_t forwards_originated = 0;  ///< forward sends started here
  uint64_t forwards_relayed = 0;     ///< frames re-emitted towards next hop
  uint64_t forwards_delivered = 0;   ///< frames delivered to this rank
  uint64_t forwards_dropped = 0;     ///< undeliverable frames (dead hop…)
  uint64_t death_notices = 0;        ///< death floods originated or relayed
};

class Membership {
 public:
  /// `session` must outlive the membership. `mode` must already be
  /// resolved (resolve_overlay_mode); a `fanout` below 1 acts as 1.
  Membership(nmad::Session& session, int rank, int nranks, OverlayMode mode,
             int fanout);
  ~Membership();

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  // ---- topology ----

  [[nodiscard]] OverlayMode mode() const { return mode_; }
  [[nodiscard]] bool sparse() const { return mode_ == OverlayMode::kSparse; }
  [[nodiscard]] int fanout() const { return fanout_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nranks() const { return nranks_; }
  /// Tree parent (-1 at the root) and children — meaningful in both modes
  /// (barrier, bcast and allreduce run over them), but only the sparse
  /// view keeps the edges warm.
  [[nodiscard]] int parent() const { return parent_; }
  [[nodiscard]] const std::vector<int>& children() const { return children_; }
  /// The peers this rank keeps direct links to (sparse: tree + ring,
  /// <= fanout+3 entries; dense: everyone, represented implicitly).
  [[nodiscard]] const std::vector<int>& view() const { return view_; }
  /// True when `peer` may be talked to directly (always, in dense mode).
  /// Symmetric: in_view(a to b) == in_view(b to a).
  [[nodiscard]] bool in_view(int peer) const;
  /// First hop towards `dst`: dst itself when in view, else the child
  /// whose subtree contains dst, else the parent.
  [[nodiscard]] int next_hop(int dst) const;

  // ---- wiring (install order: connector, on_gate_created, detector —
  // ---- all before any traffic; see LocalRank::init / World) ----

  void set_connector(GateConnector connector);
  /// Hook run for every gate this membership installs (after the gate is
  /// fully initialised, before it is published): the pioman engine watches
  /// late gates here (PiomanEngine::watch_gate).
  void set_on_gate_created(std::function<void(nmad::Gate&)> cb);
  /// Attach the rank's failure detector: installs the membership's
  /// on_rank_failed callback (inbox eviction + sparse death flood +
  /// isolation rule) and lets gate installation mark gates to already-dead
  /// peers. The detector must outlive the membership's last use.
  void attach_detector(FailureDetector* fd);

  /// Eagerly create the sparse view's gates (no-op in dense mode). Called
  /// once at world construction so heartbeats flow along the overlay from
  /// the start — sparse failure detection depends on view gates existing.
  void establish_view();

  // ---- gate table ----

  /// Gate towards `peer`, creating it (and the peer's twin) through the
  /// connector on first use. Thread-safe; throws std::logic_error when no
  /// connector is installed and the gate does not exist.
  nmad::Gate& ensure_gate(int peer);
  /// Already-installed gate, or null. Never creates.
  [[nodiscard]] nmad::Gate* existing_gate(int peer) const;
  /// Install a gate over `rails` (idempotent — returns the existing gate
  /// when one is already installed). Applies recorded tag revocations and
  /// the dead-peer verdict to late gates, registers the gate with the
  /// any-source registry, and runs the on_gate_created hook.
  nmad::Gate& install_gate(int peer,
                           const std::vector<transport::IChannel*>& rails);
  /// Gates installed so far (the lazy-gate bound tests assert on this).
  [[nodiscard]] int installed_gates() const {
    return installed_.load(std::memory_order_acquire);
  }

  // ---- routing ----

  /// Origin side of a forwarded send: fragment + ship `buf` towards `dst`
  /// via next_hop(dst). Completion means "accepted by the first hop"
  /// (acked under reliability) — eager semantics, like Gate::isend below
  /// the rendezvous threshold. Error-completes immediately when dst (or
  /// synchronously, when the first hop) is already declared failed.
  void forward_send(nmad::SendRequest& req, int dst, Tag tag, const void* buf,
                    std::size_t len);

  /// Session forward handler (installed by the constructor): death notices
  /// are adopted + re-flooded, frames for this rank go to the inbox,
  /// everything else is relayed towards next_hop(frame.dst).
  void handle_forward(const nmad::ForwardFrame& frame);

  // ---- wildcard registry + forwarded-traffic inbox ----

  [[nodiscard]] nmad::WildSet& wilds() { return wilds_; }
  [[nodiscard]] ForwardInbox& inbox() { return inbox_; }

  // ---- revocation (Comm::revoke_coll_epoch, detector first verdict) ----

  /// Revoke a tag window on every installed gate AND record it for gates
  /// installed later — a late gate must refuse the same rendezvous traffic
  /// the eager ones do, or a dying collective's NACK guarantee would leak.
  void revoke_all(Tag mask, Tag value);

  [[nodiscard]] MembershipStats stats() const;

 private:
  /// Detector callback body: inbox eviction, sparse death flood, and the
  /// isolation rule (all gate peers dead => adopt the verdict for every
  /// rank — the shape of a rank whose node was cut off).
  void on_local_failure(int dead);
  /// Flood one death notice along the view, once per dead rank (deduped);
  /// `via` (the peer the notice arrived from, -1 for local verdicts) is
  /// excluded from the re-flood.
  void flood_death(int dead, int via);

  nmad::Session& session_;
  const int rank_;
  const int nranks_;
  const OverlayMode mode_;
  const int fanout_;
  int parent_ = -1;
  std::vector<int> children_;
  std::vector<int> view_;
  std::vector<bool> in_view_;  ///< by rank (sparse mode only)

  /// Serializes installation; the table itself is lock-free to read (one
  /// release store per entry, ever).
  std::mutex install_lock_;
  std::unique_ptr<std::atomic<nmad::Gate*>[]> gate_;
  std::atomic<int> installed_{0};
  GateConnector connector_;
  std::function<void(nmad::Gate&)> on_gate_created_;
  std::atomic<FailureDetector*> fd_{nullptr};

  nmad::WildSet wilds_;
  ForwardInbox inbox_;
  /// Origin message counters, per destination (reassembly + match order).
  std::unique_ptr<std::atomic<uint64_t>[]> fseq_;

  sync::SpinLock windows_lock_;
  /// Revocation windows, replayed on late gates.
  std::vector<std::pair<Tag, Tag>> windows_ PIOM_GUARDED_BY(windows_lock_);

  sync::SpinLock flood_lock_;
  /// Death notice already flooded, by rank.
  std::vector<bool> flooded_ PIOM_GUARDED_BY(flood_lock_);
  std::atomic<bool> isolating_{false};

  struct AtomicStats {
    std::atomic<uint64_t> originated{0};
    std::atomic<uint64_t> relayed{0};
    std::atomic<uint64_t> delivered{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> death_notices{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace piom::mpi
