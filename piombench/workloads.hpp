// The four piom_bench workloads, driven through the public mpi::World /
// Comm API. The same loops run on any engine: PIOMan for the end-to-end
// numbers, the caller-driven mvapich-like engine for the ladder's `mpi`
// rung (README.md explains the choice of each workload).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mpi/world.hpp"
#include "nmad/gate.hpp"
#include "spans.hpp"
#include "util/timing.hpp"

namespace piom::pbench {

enum class WorkloadId { kPingpongNic, kMsgrateShmem, kOverlapNic, kAllreduceShmem4 };

struct Spec {
  WorkloadId id;
  const char* name;
  /// What one sample of op_us is, and what ops_per_s counts.
  const char* op;
  int nranks;
  /// All ranks on one node (shared-memory pairs) rather than one node per
  /// rank (simnet NIC pairs).
  bool shmem;
  /// Rank pairs the traffic uses (bring-ups wire exactly these).
  std::vector<std::pair<int, int>> pairs;
};

[[nodiscard]] const std::vector<Spec>& specs();
/// nullptr for an unknown name.
[[nodiscard]] const Spec* find_spec(const std::string& name);

/// Library defaults (PIOMan engine, dense overlay, bucket matcher,
/// aggregation unset) except one polling worker per rank.
[[nodiscard]] mpi::WorldConfig world_config(const Spec& spec,
                                            mpi::EngineKind engine);

/// Loop stop rule: the first of a deadline and an op count.
struct Budget {
  int64_t deadline_ns = std::numeric_limits<int64_t>::max();
  int64_t max_ops = std::numeric_limits<int64_t>::max();

  [[nodiscard]] static Budget for_seconds(double s) {
    Budget b;
    b.deadline_ns = util::now_ns() + static_cast<int64_t>(s * 1e9);
    return b;
  }
  [[nodiscard]] static Budget for_ops(int64_t n) {
    Budget b;
    b.max_ops = n;
    return b;
  }
  [[nodiscard]] bool done(int64_t ops) const {
    return ops >= max_ops || util::now_ns() >= deadline_ns;
  }
};

/// Per-op timings of one measuring thread, in op order.
class Series {
 public:
  /// One op that ran from t0 to t1 and is worth `value_us` (e.g. RTT/2).
  void add(int64_t t0, int64_t t1, double value_us) {
    t0_.push_back(t0);
    last_t1_ = t1;
    us_.push_back(value_us);
  }
  [[nodiscard]] std::size_t size() const { return us_.size(); }
  [[nodiscard]] double value(std::size_t i) const { return us_[i]; }
  /// Index of the first op kept after the 10% warm-up discard.
  [[nodiscard]] std::size_t first_kept() const { return us_.size() / 10; }
  /// Kept values appended to `out`.
  void kept_values(std::vector<double>& out) const {
    out.insert(out.end(), us_.begin() + static_cast<long>(first_kept()),
               us_.end());
  }
  /// Wall seconds the kept ops span.
  [[nodiscard]] double kept_seconds() const {
    if (us_.empty()) return 0;
    return static_cast<double>(last_t1_ - t0_[first_kept()]) * 1e-9;
  }

 private:
  std::vector<int64_t> t0_;
  int64_t last_t1_ = 0;
  std::vector<double> us_;
};

/// Outcome of one world's timed loop.
struct WorldRun {
  /// op_us samples, warm-up discarded.
  std::vector<double> op_us;
  /// Rate units (round trips, messages, iterations, allreduce calls) the
  /// primary thread completed after warm-up, and the seconds they took.
  double units = 0;
  double units_s = 0;
  /// overlap_nic: Tcomp / Ttotal per kept iteration.
  std::vector<double> overlap_ratio;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// msgrate_shmem: messages delivered intact but out of per-tag send
  /// order (an MPI non-overtaking violation, counted apart from failures).
  uint64_t reordered = 0;
  /// Point-to-point messages the run caused (layer-metric normaliser).
  uint64_t msgs = 0;
};

// ---- traffic generators (shared with the ladder rungs) ----

/// msgrate_shmem window: kWindow 8 B messages spread over kTags tags.
inline constexpr int kWindow = 256;
inline constexpr int kTags = 64;
inline constexpr int kPerTag = kWindow / kTags;
/// Payload of the k-th message on `tag` in window `w`.
[[nodiscard]] uint64_t msgrate_value(uint64_t seed, uint64_t w, int tag, int k);
/// Sender order of window `w`: a seeded tag interleave; tags[i] and
/// values[i] describe the i-th send (both resized to kWindow).
void msgrate_send_order(uint64_t seed, uint64_t w, std::vector<int>& tags,
                        std::vector<uint64_t>& values);

/// overlap_nic message: 64 KiB (rendezvous), a seeded word pattern.
inline constexpr std::size_t kOverlapWords = 64 * 1024 / sizeof(uint64_t);
void overlap_fill(uint64_t seed, uint64_t op, std::vector<uint64_t>& words);
[[nodiscard]] bool overlap_check(uint64_t seed, uint64_t op,
                                 const std::vector<uint64_t>& words);

/// allreduce_shmem4 vector: 256 doubles holding small integers, so every
/// partial sum is exact whatever the reduction order.
inline constexpr int kReduceCount = 256;
[[nodiscard]] double reduce_input(uint64_t seed, uint64_t op, int rank, int j);

/// Run `spec`'s traffic on `world` until `budget` is spent. Spans go to
/// `tracer` when non-null.
[[nodiscard]] WorldRun run_world(const Spec& spec, mpi::World& world,
                                 const Budget& budget, uint64_t seed,
                                 Tracer* tracer);

/// One bring-up: construct a PIOMan world, complete one round trip on
/// every rank pair the workload uses, tear it down. Returns the seconds
/// until the last round trip completed (tear-down is not timed); throws
/// std::runtime_error on a corrupted round trip.
[[nodiscard]] double bring_up(const Spec& spec, uint64_t seed);

/// Library counters of one world, summed over the workload's ranks/pairs.
struct Counters {
  double packets = 0;  ///< wire packets sent on the used pairs' channels
  double bytes = 0;
  nmad::GateStats gate{};  ///< summed; *_hw fields hold the maximum
  double gates = 0;        ///< gates across all ranks
  double tasks_run = 0;
  double schedule_calls = 0;
  double submissions = 0;
};
[[nodiscard]] Counters read_counters(mpi::World& world, const Spec& spec);

}  // namespace piom::pbench
