#include "mpi/local_rank.hpp"

#include <stdexcept>
#include <string>

#include "mpi/engine_globallock.hpp"
#include "mpi/world.hpp"

namespace piom::mpi {

LocalRank::LocalRank(
    int rank, int nranks,
    const std::vector<std::vector<transport::IChannel*>>& rails_by_peer,
    const RankConfig& config)
    : rank_(rank), nranks_(nranks) {
  if (nranks < 2) throw std::invalid_argument("LocalRank: nranks >= 2");
  if (rank < 0 || rank >= nranks) {
    throw std::invalid_argument("LocalRank: rank out of range");
  }
  if (rails_by_peer.size() != static_cast<std::size_t>(nranks)) {
    throw std::invalid_argument(
        "LocalRank: rails_by_peer must have one entry per rank");
  }
  init(rails_by_peer, config);
}

LocalRank::LocalRank(transport::Bootstrap bootstrap, const RankConfig& config)
    : rank_(bootstrap.rank()),
      nranks_(bootstrap.nranks()),
      bootstrap_(std::make_unique<transport::Bootstrap>(std::move(bootstrap))) {
  std::vector<std::vector<transport::IChannel*>> rails(
      static_cast<std::size_t>(nranks_));
  for (int peer = 0; peer < nranks_; ++peer) {
    if (peer == rank_) continue;
    rails[static_cast<std::size_t>(peer)] = {
        bootstrap_->channels()[static_cast<std::size_t>(peer)]};
  }
  init(rails, config);
}

void LocalRank::init(
    const std::vector<std::vector<transport::IChannel*>>& rails_by_peer,
    const RankConfig& config) {
  session_ = std::make_unique<nmad::Session>(
      "rank" + std::to_string(rank_), config.session);
  // The membership layer owns the by-peer gate table and the routing
  // policy; its constructor installs the session's forward handler, so it
  // must exist before any gate can receive traffic.
  membership_ = std::make_unique<Membership>(
      *session_, rank_, nranks_,
      resolve_overlay_mode(config.overlay, nranks_), config.overlay.fanout);
  // Eagerly install the gates whose rails the caller provided (the
  // multi-process bootstrap shape wires every peer upfront; World passes
  // all-empty entries and relies on lazy connection instead).
  for (int peer = 0; peer < nranks_; ++peer) {
    if (peer == rank_) continue;
    const auto& rails = rails_by_peer[static_cast<std::size_t>(peer)];
    if (!rails.empty()) membership_->install_gate(peer, rails);
  }
  switch (config.engine) {
    case EngineKind::kPioman: {
      auto engine = std::make_unique<PiomanEngine>(*session_, config.pioman);
      engine->start_progress();  // covers the eager gates above
      // Gates installed from here on (lazy wiring) join the poll set
      // through the membership's creation hook.
      PiomanEngine* raw = engine.get();
      membership_->set_on_gate_created(
          [raw](nmad::Gate& g) { raw->watch_gate(g); });
      engine_ = std::move(engine);
      break;
    }
    case EngineKind::kMvapichLike:
    case EngineKind::kOpenMpiLike:
      engine_ = std::make_unique<GlobalLockEngine>(*session_, config.engine);
      break;
  }
  if (config.failure.enabled) {
    detector_ = std::make_unique<FailureDetector>(*session_, rank_, nranks_,
                                                  config.failure);
    engine_->attach_detector(detector_.get());
    membership_->attach_detector(detector_.get());
  }
  comm_.reset(new Comm(rank_, engine_.get(), membership_.get(), nranks_));
}

LocalRank::~LocalRank() { shutdown(); }

void LocalRank::shutdown() {
  if (engine_) engine_->shutdown();
}

}  // namespace piom::mpi
