// Cluster: the multi-backend transport owner for one process — the neutral
// factory tests, benchmarks and mpi::World program against, so nothing
// outside the simnet tests has to name a concrete transport type.
//
// One Cluster owns:
//   * a simnet::Fabric        — the modelled NIC interconnect ("simnet");
//   * a ShmemTransport        — the intra-node fast path ("shmem");
//   * per-node TcpTransports  — socket channels ("tcp"/"uds"), one event
//     loop per in-process "rank" so each side pumps its own epoll set,
//     the same shape a real multi-process rank has (see Bootstrap).
//
// init_lazy_mesh() + pair_rails() wire N cluster nodes pairwise following
// a BackendPolicy — the per-pair wiring that used to live on
// simnet::Fabric, now covering the socket backends too.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "simnet/fabric.hpp"
#include "simnet/link_model.hpp"
#include "transport/channel.hpp"
#include "transport/shmem.hpp"
#include "transport/tcp.hpp"

namespace piom::transport {

struct ClusterConfig {
  /// Multiplies every modelled simnet delay (see simnet::Fabric).
  double time_scale = 1.0;
  ShmemConfig shmem{};
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // ---- backend access (ITransport faces) ----

  /// The factory for `backend` (kTcp resolves to node 0's transport).
  [[nodiscard]] ITransport& transport(Backend backend);
  [[nodiscard]] simnet::Fabric& fabric() { return fabric_; }
  [[nodiscard]] ShmemTransport& shmem() { return shmem_; }
  /// Socket transport of in-process "rank" `node` (created on first use).
  /// Each node owns its own event loop, so loopback socket pairs really
  /// exercise two independent pumps.
  [[nodiscard]] TcpTransport& tcp_node(int node);

  // ---- neutral channel factories ----

  /// Connected pair "<name>.a"/"<name>.b" on `backend` (socket pairs land
  /// on two distinct tcp nodes, one endpoint each).
  std::pair<IChannel*, IChannel*> create_pair(Backend backend,
                                              const std::string& name);
  /// Simnet pair over an explicit link model (drop rate, latency...).
  std::pair<IChannel*, IChannel*> create_sim_link(
      const std::string& name, const simnet::LinkModel& link);

  // ---- mesh construction (pairs wired on first use) ----

  /// Declare an N-node mesh without creating any channel: pairs are wired
  /// on first pair_rails() request instead of all upfront, so a world that
  /// only ever talks along a sparse overlay pays O(active pairs), not
  /// O(N²). `policy` decides each unordered pair's wiring:
  ///   * kSimnet — `rails_per_pair` NIC links over `link`, named
  ///     "<prefix>.<i>-<j>.r<k>.{a,b}" (a = lower rank's side);
  ///   * kShmem  — one shared-memory channel, "<prefix>.<i>-<j>.shm.{a,b}";
  ///   * kHybrid — the shmem channel as rail 0, then the NIC rails;
  ///   * kTcp / kUds — one socket channel, "<prefix>.<i>-<j>.sock.{a,b}",
  ///     each endpoint on its own node's transport (rails_per_pair does
  ///     not multiply sockets: one connection per pair, like real TCP).
  /// Requires nodes >= 2, rails_per_pair >= 1 and a well-formed policy
  /// (validated before anything is recorded; throws std::invalid_argument
  /// otherwise).
  void init_lazy_mesh(int nodes, int rails_per_pair,
                      const simnet::LinkModel& link = {},
                      const std::string& prefix = "mesh",
                      const BackendPolicy& policy = {});

  /// Node `rank`'s rail channels towards `peer`, creating the pair (both
  /// directions) on first request: pair_rails(i, j)[k]->peer() ==
  /// pair_rails(j, i)[k]. Thread-safe; the returned reference is stable
  /// for the cluster's lifetime. Requires init_lazy_mesh.
  const std::vector<IChannel*>& pair_rails(int rank, int peer);

  /// Rails already created for (rank, peer); nullptr when the pair was
  /// never requested. Does not create anything (kill_rank's sever sweep).
  [[nodiscard]] const std::vector<IChannel*>* existing_pair_rails(
      int rank, int peer) const;

  /// Nodes declared by init_lazy_mesh (0 = none).
  [[nodiscard]] int lazy_nodes() const { return lazy_nodes_; }

 private:
  /// mesh[i][j] = node i's rail channels towards node j (empty when i == j).
  using MeshWiring = std::vector<std::vector<std::vector<IChannel*>>>;

  /// Wire the unordered pair {i, j} (i < j) into lazy_mesh_ following
  /// the lazy policy (pair_rails' body; lazy_lock_ held).
  void wire_pair(int i, int j);

  ClusterConfig config_;
  simnet::Fabric fabric_;
  ShmemTransport shmem_;
  std::vector<std::unique_ptr<TcpTransport>> tcp_nodes_;

  /// Lazy-mesh state (guarded by lazy_lock_; the outer MeshWiring vectors
  /// are sized at init and never resized, so inner-vector references stay
  /// stable across later pair creations).
  mutable std::mutex lazy_lock_;
  int lazy_nodes_ = 0;
  int lazy_rails_per_pair_ = 1;
  simnet::LinkModel lazy_link_{};
  std::string lazy_prefix_;
  BackendPolicy lazy_policy_{};
  MeshWiring lazy_mesh_;
};

}  // namespace piom::transport
