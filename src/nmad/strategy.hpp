// Scheduling strategies applied to outgoing communication flows
// (NewMadeleine's optimisation layer, paper Fig 1 and §IV-B):
//   * aggregation   — pack several pending small messages to the same gate
//                     into one wire packet;
//   * multirail     — distribute bulk (rendezvous) data across every rail,
//                     proportionally to each rail's bandwidth;
//   * rail selection for eager traffic (the strictly fastest rail, else
//     rail 0).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace piom::nmad {

/// Aggregate at most this much payload+headers per wire packet.
inline constexpr std::size_t kMaxPackBytes = 48 * 1024;
/// Aggregate at most this many messages per wire packet.
inline constexpr int kMaxPackMsgs = 32;
/// Do not split stripe chunks below this size (per-packet overhead
/// dominates).
inline constexpr std::size_t kStripeMinChunk = 64 * 1024;

/// One striped slice of a rendezvous transfer.
struct StripeChunk {
  int rail = 0;
  std::size_t offset = 0;
  std::size_t len = 0;
};

class Strategy {
 public:
  /// `aggregation` unset defers to $PIOM_AGGREGATION (off when the variable
  /// is absent); an explicit value always wins, so tests pinning either
  /// behaviour survive a forced-aggregation environment.
  explicit Strategy(std::optional<bool> aggregation);

  /// Aggregation, resolved: the explicit value, else $PIOM_AGGREGATION,
  /// else off.
  [[nodiscard]] bool aggregation() const { return aggregation_; }

  /// Rail for the next eager/control packet: the rail with the strictly
  /// lowest one-way latency (the shmem fast path of a hybrid gate), else
  /// rail 0 (single rail, or a tie at the minimum).
  [[nodiscard]] static int select_eager_rail(
      const std::vector<double>& latencies_us);

  /// Split `len` bytes across rails weighted by `bandwidths` (GB/s per
  /// rail). Always returns at least one chunk; chunks are contiguous,
  /// cover [0, len) exactly, and respect kStripeMinChunk.
  [[nodiscard]] static std::vector<StripeChunk> stripe(
      std::size_t len, const std::vector<double>& bandwidths);

  /// True when `pending_count` messages of combined size `bytes` may be
  /// packed into a single wire packet.
  [[nodiscard]] bool should_pack(int pending_count, std::size_t bytes) const;

 private:
  bool aggregation_ = false;
};

}  // namespace piom::nmad
