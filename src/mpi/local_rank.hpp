// LocalRank: everything one MPI rank owns locally — its nmad session, the
// per-peer gates, a progress engine, an optional failure detector and the
// Comm handed to application code. Split out of World so a rank can exist
// in two shapes:
//
//   * in-process: World creates N of these over a loopback mesh (every
//     rank in one address space — the shape tests and benches use);
//   * multi-process: one LocalRank per OS process, wired to its peers by a
//     transport::Bootstrap (socket channels; see tools/piom_launch).
#pragma once

#include <memory>
#include <vector>

#include "mpi/engine.hpp"
#include "mpi/engine_pioman.hpp"
#include "mpi/failure.hpp"
#include "mpi/membership.hpp"
#include "nmad/session.hpp"
#include "transport/bootstrap.hpp"
#include "transport/channel.hpp"

namespace piom::mpi {

/// Per-rank configuration (the base of WorldConfig).
struct RankConfig {
  EngineKind engine = EngineKind::kPioman;
  nmad::SessionConfig session{};
  /// PIOMan node configuration (ignored by the baseline engines).
  PiomanEngineConfig pioman{};
  /// Heartbeat failure detection (off by default — see mpi/failure.hpp).
  FailureConfig failure{};
  /// Overlay topology (dense/sparse view + routing; see mpi/membership.hpp).
  OverlayConfig overlay{};
};

class Comm;

class LocalRank {
 public:
  /// In-process rank: the caller provides the rail channels towards each
  /// peer (rails_by_peer[peer]; the self entry must be empty). An empty
  /// peer entry means "no eager gate" — the pair is wired lazily through
  /// the membership's connector on first contact (World's default shape).
  /// Channels must outlive this rank — World keeps them alive via its
  /// Cluster.
  LocalRank(int rank, int nranks,
            const std::vector<std::vector<transport::IChannel*>>&
                rails_by_peer,
            const RankConfig& config = {});

  /// Multi-process rank: takes ownership of a completed Bootstrap (the
  /// socket transport it owns must outlive the session, so it moves in
  /// here) and wires one single-rail gate per peer data channel.
  explicit LocalRank(transport::Bootstrap bootstrap,
                     const RankConfig& config = {});

  ~LocalRank();

  LocalRank(const LocalRank&) = delete;
  LocalRank& operator=(const LocalRank&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] Comm& comm() { return *comm_; }
  [[nodiscard]] Engine& engine() { return *engine_; }
  [[nodiscard]] nmad::Session& session() { return *session_; }
  /// Overlay/routing layer (gate table, view, forwarding, wildcards).
  [[nodiscard]] Membership& membership() { return *membership_; }
  /// Null unless RankConfig::failure.enabled.
  [[nodiscard]] FailureDetector* detector() { return detector_.get(); }
  /// Null for in-process ranks.
  [[nodiscard]] transport::Bootstrap* bootstrap() { return bootstrap_.get(); }

  /// Stop background machinery (idempotent; dtor calls it).
  void shutdown();

 private:
  void init(const std::vector<std::vector<transport::IChannel*>>&
                rails_by_peer,
            const RankConfig& config);

  int rank_;
  int nranks_;
  // Destruction order matters: comm_ and detector_ go first, then the
  // engine (stops progress threads), then the membership and the session
  // it references, and the bootstrap's transport — which the session's
  // channels live on — very last.
  std::unique_ptr<transport::Bootstrap> bootstrap_;
  std::unique_ptr<nmad::Session> session_;
  std::unique_ptr<Membership> membership_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<FailureDetector> detector_;
  std::unique_ptr<Comm> comm_;
};

}  // namespace piom::mpi
