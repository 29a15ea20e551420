// Session: one communication-library instance ("one node's NewMadeleine").
// Owns the gates towards peers, the strategy layer and the configuration.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nmad/gate.hpp"
#include "nmad/matcher.hpp"
#include "nmad/strategy.hpp"
#include "nmad/types.hpp"
#include "sync/spinlock.hpp"

namespace piom::nmad {

struct SessionConfig {
  /// Ceiling of posted receive buffers per rail (eager/control traffic).
  int pool_bufs_per_rail = 32;
  /// Receive buffers posted per rail at gate creation (clamped to
  /// pool_bufs_per_rail). The pool grows lazily towards the ceiling when a
  /// poll drains every posted buffer in one sweep — so an N-rank world pays
  /// O(N) idle-gate memory instead of O(N) x pool_bufs_per_rail x 64KiB,
  /// and only the hot pairs warm up. Safe because both transports stage
  /// arrivals (driver-side copy) when no buffer is posted.
  int pool_bufs_initial = 4;
  /// Tag-matching layout (kScan is the ablation baseline bench_msgrate
  /// and the equivalence tests pin).
  MatcherKind matcher = MatcherKind::kBucket;
  /// Reliability layer for lossy fabrics (LinkModel::drop_rate > 0): every
  /// data/control packet is acknowledged and retransmitted after `rto_us`;
  /// duplicates are filtered by packet sequence number. Send completions
  /// then mean "acknowledged" rather than "on the wire".
  bool reliable = false;
  double rto_us = 200.0;
  /// Pack pending eager messages into kPack wire packets (the strategy
  /// layer's aggregation). Unset defers to $PIOM_AGGREGATION (see
  /// Strategy).
  std::optional<bool> aggregation{};
};

class Session {
 public:
  explicit Session(std::string name, SessionConfig config = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Create a gate towards a peer over `rails` (this side's transport
  /// channels, already connected to the peer's; backends may be mixed).
  /// `peer_rank` names the peer in the cluster (reported by any-source
  /// receives; -1 when unused). Returned reference is stable. Thread-safe:
  /// with lazy wiring, gates are created from whichever thread first talks
  /// to a peer — including poll paths relaying forwarded traffic.
  Gate& create_gate(std::vector<transport::IChannel*> rails,
                    int peer_rank = -1);

  /// Flush pending sends and poll every rail of every gate.
  /// Returns events handled. Iterates a snapshot of the gate table, so
  /// gates created concurrently (or by handlers run from this very call)
  /// join the next iteration.
  int progress();

  /// Handler for kForward arrivals on any of this session's gates (the
  /// membership layer's relay/deliver entry point). Install once, before
  /// any forwarded traffic can arrive; frames on sessions without a
  /// handler are dropped with a warning.
  using ForwardHandler = std::function<void(const ForwardFrame&)>;
  void set_forward_handler(ForwardHandler h) { forward_ = std::move(h); }
  [[nodiscard]] const ForwardHandler& forward_handler() const {
    return forward_;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const SessionConfig& config() const { return config_; }
  [[nodiscard]] Strategy& strategy() { return strategy_; }
  [[nodiscard]] std::size_t gate_count() const {
    gates_lock_.lock();
    const std::size_t n = gates_.size();
    gates_lock_.unlock();
    return n;
  }
  [[nodiscard]] Gate& gate(std::size_t i) {
    gates_lock_.lock();
    Gate& g = *gates_[i];  // the Gate object itself is stable, not guarded
    gates_lock_.unlock();
    return g;
  }

 private:
  std::string name_;
  SessionConfig config_;
  Strategy strategy_;
  /// Guards the table only — Gate objects are stable once created (their
  /// pointers may be used without the lock).
  mutable sync::SpinLock gates_lock_;
  std::vector<std::unique_ptr<Gate>> gates_ PIOM_GUARDED_BY(gates_lock_);
  /// Installed once before any forwarded traffic can arrive (see
  /// set_forward_handler); read-only afterwards, so intentionally unguarded.
  ForwardHandler forward_;
};

}  // namespace piom::nmad
