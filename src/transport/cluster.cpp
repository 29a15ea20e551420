#include "transport/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace piom::transport {

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      fabric_(config.time_scale),
      shmem_(config.shmem) {}

ITransport& Cluster::transport(Backend backend) {
  switch (backend) {
    case Backend::kSimnet: return fabric_;
    case Backend::kShmem: return shmem_;
    case Backend::kTcp: return tcp_node(0);
  }
  throw std::invalid_argument("Cluster::transport: unknown backend");
}

TcpTransport& Cluster::tcp_node(int node) {
  if (node < 0) {
    throw std::invalid_argument("Cluster::tcp_node: negative node");
  }
  const auto idx = static_cast<std::size_t>(node);
  if (idx >= tcp_nodes_.size()) tcp_nodes_.resize(idx + 1);
  if (!tcp_nodes_[idx]) {
    tcp_nodes_[idx] = std::make_unique<TcpTransport>();
  }
  return *tcp_nodes_[idx];
}

std::pair<IChannel*, IChannel*> Cluster::create_pair(Backend backend,
                                                     const std::string& name) {
  switch (backend) {
    case Backend::kSimnet: return fabric_.create_channel_pair(name);
    case Backend::kShmem: return shmem_.create_channel_pair(name);
    case Backend::kTcp:
      // Two distinct nodes, so each endpoint pumps its own event loop —
      // the honest shape for "two ranks talking over a socket".
      return TcpTransport::create_loopback_pair(
          tcp_node(0), tcp_node(1), name, Endpoint::Scheme::kUds);
  }
  throw std::invalid_argument("Cluster::create_pair: unknown backend");
}

std::pair<IChannel*, IChannel*> Cluster::create_sim_link(
    const std::string& name, const simnet::LinkModel& link) {
  return fabric_.create_link(name, link);
}

void Cluster::wire_pair(int i, int j) {
  const std::string pair_name =
      lazy_prefix_ + "." + std::to_string(i) + "-" + std::to_string(j);
  auto& fwd =
      lazy_mesh_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  auto& rev =
      lazy_mesh_[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
  const PairWiring wiring = lazy_policy_.wiring(i, j);
  if (wiring == PairWiring::kTcp || wiring == PairWiring::kUds) {
    auto [a, b] = TcpTransport::create_loopback_pair(
        tcp_node(i), tcp_node(j), pair_name + ".sock",
        wiring == PairWiring::kTcp ? Endpoint::Scheme::kTcp
                                   : Endpoint::Scheme::kUds);
    fwd.push_back(a);
    rev.push_back(b);
    return;
  }
  if (wiring != PairWiring::kSimnet) {
    // The shmem fast path is rail 0: the strategy layer sends eager
    // and control traffic on the lowest-latency rail.
    auto [a, b] = shmem_.create_channel_pair(pair_name + ".shm");
    fwd.push_back(a);
    rev.push_back(b);
  }
  if (wiring != PairWiring::kShmem) {
    for (int r = 0; r < lazy_rails_per_pair_; ++r) {
      auto [a, b] = fabric_.create_link(pair_name + ".r" + std::to_string(r),
                                        lazy_link_);
      fwd.push_back(a);
      rev.push_back(b);
    }
  }
}

void Cluster::init_lazy_mesh(int nodes, int rails_per_pair,
                             const simnet::LinkModel& link,
                             const std::string& prefix,
                             const BackendPolicy& policy) {
  if (nodes < 2) {
    throw std::invalid_argument("Cluster::init_lazy_mesh: nodes >= 2");
  }
  if (rails_per_pair < 1) {
    throw std::invalid_argument("Cluster::init_lazy_mesh: rails >= 1");
  }
  policy.validate(nodes);
  std::lock_guard<std::mutex> g(lazy_lock_);
  if (lazy_nodes_ != 0) {
    throw std::logic_error("Cluster::init_lazy_mesh: already initialised");
  }
  lazy_nodes_ = nodes;
  lazy_rails_per_pair_ = rails_per_pair;
  lazy_link_ = link;
  lazy_prefix_ = prefix;
  lazy_policy_ = policy;
  lazy_mesh_.assign(static_cast<std::size_t>(nodes), {});
  for (auto& row : lazy_mesh_) row.resize(static_cast<std::size_t>(nodes));
}

const std::vector<IChannel*>& Cluster::pair_rails(int rank, int peer) {
  if (rank == peer || rank < 0 || peer < 0 || rank >= lazy_nodes_ ||
      peer >= lazy_nodes_) {
    throw std::invalid_argument("Cluster::pair_rails: bad rank pair");
  }
  std::lock_guard<std::mutex> g(lazy_lock_);
  auto& fwd =
      lazy_mesh_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(peer)];
  if (fwd.empty()) {
    wire_pair(std::min(rank, peer), std::max(rank, peer));
  }
  return fwd;
}

const std::vector<IChannel*>* Cluster::existing_pair_rails(int rank,
                                                           int peer) const {
  if (rank == peer || rank < 0 || peer < 0 || rank >= lazy_nodes_ ||
      peer >= lazy_nodes_) {
    return nullptr;
  }
  std::lock_guard<std::mutex> g(lazy_lock_);
  const auto& fwd =
      lazy_mesh_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(peer)];
  return fwd.empty() ? nullptr : &fwd;
}

}  // namespace piom::transport
