#include "mpi/world.hpp"

#include <stdexcept>

#include "mpi/local_rank.hpp"
#include "nmad/wildset.hpp"

namespace piom::mpi {

std::vector<int> rank_nodes_from_machine(const topo::Machine& machine,
                                         int nranks) {
  std::vector<int> node_of(static_cast<std::size_t>(nranks), 0);
  for (int r = 0; r < nranks; ++r) {
    const int cpu = r % machine.ncpus();
    // Deepest chip (preferred) or NUMA ancestor of the core; flat
    // machines collapse to one shared node.
    int node = 0;
    for (const topo::TopoNode* t : machine.path_to_root(cpu)) {
      if (t->level == topo::Level::kChip) {
        node = t->index_in_level;
        break;
      }
      if (t->level == topo::Level::kNuma) node = t->index_in_level;
    }
    node_of[static_cast<std::size_t>(r)] = node;
  }
  return node_of;
}

World::World(WorldConfig config) : config_(config) {
  if (config_.nranks < 2) throw std::invalid_argument("World: nranks >= 2");
  if (config_.rails < 1) throw std::invalid_argument("World: rails >= 1");
  const int n = config_.nranks;
  // Explicit rank placement wins; otherwise $PIOM_TRANSPORT picks the
  // backend for every pair (defaulting to all-simnet).
  const transport::BackendPolicy policy =
      config_.policy.node_of.empty() ? transport::BackendPolicy::from_env(n)
                                     : config_.policy;
  cluster_ = std::make_unique<transport::Cluster>(
      transport::ClusterConfig{config_.time_scale});
  // Lazy wiring: declare the mesh, create a pair's policy-selected channels
  // (`rails` dedicated NIC links, a shmem fast path, a socket, or a mix)
  // only when some rank first talks to the peer (connect_pair below).
  cluster_->init_lazy_mesh(n, config_.rails, config_.link, "link", policy);

  const std::vector<std::vector<transport::IChannel*>> no_rails(
      static_cast<std::size_t>(n));
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    ranks_.push_back(
        std::make_unique<LocalRank>(rank, n, no_rails, config_));
  }
  // Connectors go in only after EVERY rank's engine and detector exist:
  // the first connect_pair installs gates on both endpoints, and a
  // half-initialised peer must not receive one.
  for (int rank = 0; rank < n; ++rank) {
    ranks_[static_cast<std::size_t>(rank)]->membership().set_connector(
        [this, rank](int peer) { connect_pair(rank, peer); });
  }
  const OverlayMode mode = resolve_overlay_mode(config_.overlay, n);
  if (mode == OverlayMode::kSparse) {
    // The sparse view carries heartbeats and the death flood, so its gates
    // must exist before the application's first silence window.
    for (auto& rank : ranks_) rank->membership().establish_view();
  } else if (config_.failure.enabled) {
    // Dense + failure detection: establish the full mesh eagerly. The
    // detector only times out peers it has gates to, so lazy wiring would
    // silently shrink its coverage to the pairs that happened to talk.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) connect_pair(i, j);
    }
  }
}

World::~World() { shutdown(); }

void World::shutdown() {
  for (auto& rank : ranks_) {
    if (rank) rank->shutdown();
  }
}

std::unique_ptr<LocalRank> World::local(transport::Bootstrap bootstrap,
                                        const RankConfig& config) {
  return std::make_unique<LocalRank>(std::move(bootstrap), config);
}

void World::check_rank(int rank, const char* who) const {
  if (rank < 0 || rank >= config_.nranks) {
    throw std::out_of_range(std::string(who) + ": rank " +
                            std::to_string(rank));
  }
}

Comm& World::comm(int rank) {
  check_rank(rank, "World::comm");
  return ranks_[static_cast<std::size_t>(rank)]->comm();
}

LocalRank& World::local_rank(int rank) {
  check_rank(rank, "World::local_rank");
  return *ranks_[static_cast<std::size_t>(rank)];
}

const std::vector<transport::IChannel*>& World::pair_channels(int rank,
                                                              int peer) {
  check_rank(rank, "World::pair_channels");
  check_rank(peer, "World::pair_channels");
  if (rank == peer) {
    throw std::invalid_argument("World::pair_channels: rank == peer");
  }
  return cluster_->pair_rails(rank, peer);
}

void World::connect_pair(int rank, int peer) {
  // Wire the transport first (both directions land together — pair_rails
  // creates the unordered pair), then install the PEER's gate before the
  // initiator's: the peer's engine must be polling its side before the
  // initiator's first packet can arrive. Every step is idempotent, so
  // concurrent connects for the same pair (both ends first-messaging each
  // other at once) are safe.
  const std::vector<transport::IChannel*>& fwd = cluster_->pair_rails(rank, peer);
  const std::vector<transport::IChannel*>& rev = cluster_->pair_rails(peer, rank);
  ranks_[static_cast<std::size_t>(peer)]->membership().install_gate(rank, rev);
  ranks_[static_cast<std::size_t>(rank)]->membership().install_gate(peer, fwd);
  // kill_rank handshake: it inserts the victim into killed_ BEFORE sweeping
  // existing pairs, and we wire BEFORE checking — whichever order the race
  // resolves in, either its sweep sees our pair or our check sees its
  // victim, so a lazily wired pair can never outlive a kill.
  std::lock_guard<std::mutex> lk(killed_lock_);
  if (killed_.count(rank) == 0 && killed_.count(peer) == 0) return;
  for (const std::vector<transport::IChannel*>* rails : {&fwd, &rev}) {
    for (transport::IChannel* ch : *rails) {
      ch->sever();
      if (ch->peer() != nullptr) ch->peer()->sever();
    }
  }
}

Engine& World::engine(int rank) {
  check_rank(rank, "World::engine");
  return ranks_[static_cast<std::size_t>(rank)]->engine();
}

nmad::Session& World::session(int rank) {
  check_rank(rank, "World::session");
  return ranks_[static_cast<std::size_t>(rank)]->session();
}

FailureDetector* World::detector(int rank) {
  check_rank(rank, "World::detector");
  return ranks_[static_cast<std::size_t>(rank)]->detector();
}

void World::kill_rank(int victim) {
  check_rank(victim, "World::kill_rank");
  if (!config_.failure.enabled) {
    throw std::logic_error(
        "World::kill_rank: needs WorldConfig::failure.enabled (without a "
        "detector, peers of the dead rank would hang forever)");
  }
  // Record the victim FIRST, then sever: a connect_pair racing this call
  // either wires before our sweep (we sever it below) or checks killed_
  // after our insert (it severs its own pair). See connect_pair.
  {
    std::lock_guard<std::mutex> lk(killed_lock_);
    killed_.insert(victim);
  }
  // Sever both directions of every channel the victim owns: each wired
  // pair joins one victim endpoint with one survivor endpoint, so this
  // covers the full cut. Severing (not deleting) keeps every buffer and
  // queue alive — in-flight operations drain through the channels' severed
  // paths instead of crashing, exactly like NIC ports going dark. Pairs
  // that were never wired need nothing: they have no channels to cut, and
  // connect_pair severs any wired later.
  for (int peer = 0; peer < config_.nranks; ++peer) {
    if (peer == victim) continue;
    const std::vector<transport::IChannel*>* rails =
        cluster_->existing_pair_rails(victim, peer);
    if (rails == nullptr) continue;
    for (transport::IChannel* ch : *rails) {
      ch->sever();
      if (ch->peer() != nullptr) ch->peer()->sever();
    }
  }
}

void Comm::check_peer(int peer, const char* who) const {
  if (peer < 0 || peer >= size() || peer == rank_) {
    throw std::invalid_argument(std::string(who) + ": bad peer rank " +
                                std::to_string(peer));
  }
}

nmad::Gate& Comm::gate_to(int peer) {
  check_peer(peer, "Comm::gate_to");
  return membership_->ensure_gate(peer);
}

void Comm::check_app_tag(Tag tag, bool is_recv, const char* who) const {
  if (is_recv && tag == kAnyTag) return;
  if (nmad::tag_is_reserved(tag)) {
    throw std::invalid_argument(std::string(who) +
                                ": tag in reserved (collective) space");
  }
}

void Comm::isend(Request& req, int dst, Tag tag, const void* buf,
                 std::size_t len) {
  check_app_tag(tag, /*is_recv=*/false, "Comm::isend");
  check_peer(dst, "Comm::isend");
  // Sparse overlay: application traffic towards a peer outside the view is
  // forwarded along the tree instead of opening a direct gate. Both
  // endpoints of a non-view pair take this path (in_view is symmetric), so
  // the matching receive sits on the peer's origin gate for this rank —
  // never on a direct gate only one side knows about.
  if (membership_->sparse() && !membership_->in_view(dst)) {
    req.arm(/*is_send=*/true);
    membership_->forward_send(req.send_req(), dst, tag, buf, len);
    engine_->progress();  // kick caller-driven engines at the first hop
    return;
  }
  isend_reserved(req, dst, tag, buf, len);
}

void Comm::irecv(Request& req, int src, Tag tag, void* buf, std::size_t cap) {
  check_app_tag(tag, /*is_recv=*/true, "Comm::irecv");
  if (src != kAnySource && membership_->sparse() &&
      !membership_->in_view(src)) {
    check_peer(src, "Comm::irecv");
    engine_->irecv(req, membership_->inbox().origin(src), tag, buf, cap);
    return;
  }
  irecv_reserved(req, src, tag, buf, cap);
}

void Comm::isend_reserved(Request& req, int dst, Tag tag, const void* buf,
                          std::size_t len) {
  check_peer(dst, "Comm::isend");
  // Reserved-tag (collective/internal) traffic is always direct, even in
  // sparse mode: the tree collectives only ever address view peers, and
  // the few off-view edges (a non-zero bcast root's hand-off to rank 0)
  // would deadlock the relays if they themselves rode the forward path.
  engine_->isend(req, membership_->ensure_gate(dst), tag, buf, len);
}

void Comm::irecv_reserved(Request& req, int src, Tag tag, void* buf,
                          std::size_t cap) {
  if (src == kAnySource) {
    engine_->irecv_any(req, membership_->wilds(), tag, buf, cap);
    return;
  }
  check_peer(src, "Comm::irecv");
  engine_->irecv(req, membership_->ensure_gate(src), tag, buf, cap);
}

void Comm::revoke_coll_epoch(uint32_t epoch) {
  // Through the membership, so the revocation also reaches gates that are
  // created after this call (a late gate replays recorded windows).
  membership_->revoke_all(kCollEpochWindowMask, coll_epoch_window(epoch));
}

void Comm::send(int dst, Tag tag, const void* buf, std::size_t len) {
  Request req;
  isend(req, dst, tag, buf, len);
  wait(req);
}

void Comm::recv(int src, Tag tag, void* buf, std::size_t cap) {
  Request req;
  irecv(req, src, tag, buf, cap);
  wait(req);
}

bool Comm::rank_failed(int rank) const {
  const FailureDetector* fd = engine_->detector();
  return fd != nullptr && fd->rank_failed(rank);
}

std::vector<int> Comm::failed_ranks() const {
  const FailureDetector* fd = engine_->detector();
  if (fd == nullptr) return {};
  return fd->failed_ranks();
}

void Comm::on_rank_failed(std::function<void(int)> cb) {
  FailureDetector* fd = engine_->detector();
  if (fd != nullptr) fd->on_rank_failed(std::move(cb));
}

bool Comm::cancel(Request& req) {
  if (!req.active() || req.is_send() || req.done()) return false;
  nmad::RecvRequest& rr = req.recv_req();
  if (rr.wild_set != nullptr) {
    // Any-source: whichever registry member still holds the registration
    // cancels it; false means an arrival claimed the request concurrently.
    return rr.wild_set->cancel(rr);
  }
  if (rr.gate == nullptr) return false;
  return rr.gate->cancel_recv(rr);
}

}  // namespace piom::mpi
