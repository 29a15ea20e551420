// Transport backends: the intra-node shmem fast path beside the NIC model.
//
// A 4-rank cluster is placed on a 2-chip machine (ranks 0,1 on chip 0;
// ranks 2,3 on chip 1): same-chip pairs get a hybrid gate (shmem fast rail
// + NIC rail), cross-chip pairs the plain NIC. The example shows
//   1. small messages ride the shmem rail (no NIC packets),
//   2. bulk transfers stripe across both rails by measured bandwidth,
//   3. the same collectives run unchanged over the mixed mesh.
//
// Build & run:  ./build/examples/shmem_fastpath
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "mpi/world.hpp"
#include "topo/machine.hpp"
#include "util/timing.hpp"

using namespace piom;

int main() {
  const topo::Machine machine = topo::Machine::symmetric(1, 2, 2, false);
  mpi::WorldConfig cfg;
  cfg.engine = mpi::EngineKind::kPioman;
  cfg.nranks = 4;
  cfg.pioman.workers = 1;
  cfg.policy.node_of = mpi::rank_nodes_from_machine(machine, cfg.nranks);
  cfg.policy.intra = transport::PairWiring::kHybrid;
  mpi::World world(cfg);

  std::printf("rank placement (2 chips):");
  for (int r = 0; r < cfg.nranks; ++r) {
    std::printf(" rank%d->chip%d", r,
                cfg.policy.node_of[static_cast<std::size_t>(r)]);
  }
  std::printf("\n\npair wiring as seen from rank 0:\n");
  for (int peer = 1; peer < cfg.nranks; ++peer) {
    nmad::Gate& gate = world.comm(0).gate_to(peer);
    std::printf("  0 <-> %d: %d rail(s):", peer, gate.nrails());
    for (int r = 0; r < gate.nrails(); ++r) {
      transport::IChannel& ch = gate.rail_channel(r);
      std::printf(" [%s %.2fus %.1fGB/s]",
                  transport::backend_name(ch.backend()), ch.latency_us(),
                  ch.bandwidth_GBps());
    }
    std::printf("\n");
  }

  // 1. Small messages between rank 0 and its chip-mate rank 1: the
  // latency-aware strategy keeps them off the NIC rail entirely.
  {
    nmad::Gate& gate = world.comm(0).gate_to(1);
    const auto nic_before = gate.rail_channel(1).stats();
    std::thread echo([&] {
      int32_t v = 0;
      world.comm(1).recv(0, 1, &v, sizeof(v));
      world.comm(1).send(0, 2, &v, sizeof(v));
    });
    const int32_t ping = 77;
    int32_t back = 0;
    world.comm(0).send(1, 1, &ping, sizeof(ping));
    world.comm(0).recv(1, 2, &back, sizeof(back));
    echo.join();
    const auto shm_after = gate.rail_channel(0).stats();
    const auto nic_after = gate.rail_channel(1).stats();
    std::printf(
        "\nsmall-message ping-pong 0<->1: shmem rail sent %llu pkts, "
        "NIC rail sent %llu (echo=%d)\n",
        static_cast<unsigned long long>(shm_after.packets_tx),
        static_cast<unsigned long long>(nic_after.packets_tx -
                                        nic_before.packets_tx),
        back);
  }

  // 2. Bulk transfer 0 -> 1: rendezvous pull striped across both rails,
  // proportionally to their measured bandwidth. 8 MB keeps the NIC rail's
  // slice above the 64 KiB minimum stripe chunk even when the measured
  // memcpy bandwidth is ~100x the NIC's.
  {
    constexpr std::size_t kSize = 8 << 20;
    std::vector<uint8_t> data(kSize, 0xCD), out(kSize);
    std::thread rx([&] { world.comm(1).recv(0, 3, out.data(), out.size()); });
    world.comm(0).send(1, 3, data.data(), data.size());
    rx.join();
    // The receiver's rails initiate the RDMA reads; bytes_rx counts what
    // each rail pulled.
    nmad::Gate& gate = world.comm(1).gate_to(0);
    const auto shm = gate.rail_channel(0).stats();
    const auto nic = gate.rail_channel(1).stats();
    std::printf(
        "bulk 8 MB 0->1: shmem rail served %.2f MB, NIC rail %.2f MB "
        "(bandwidth-proportional stripe)\n",
        static_cast<double>(shm.bytes_rx) / 1e6,
        static_cast<double>(nic.bytes_rx) / 1e6);
  }

  // 3. Collectives are transport-agnostic: an allreduce over the mixed
  // mesh, every rank participating.
  {
    std::vector<std::thread> ranks;
    std::vector<int64_t> sums(4, -1);
    for (int r = 0; r < 4; ++r) {
      ranks.emplace_back([&world, &sums, r] {
        int64_t v = r + 1;
        world.comm(r).allreduce(&v, 1, mpi::ReduceOp::kSum);
        sums[static_cast<std::size_t>(r)] = v;
      });
    }
    for (auto& t : ranks) t.join();
    std::printf("allreduce over the mixed mesh: every rank got %lld "
                "(expected 10)\n",
                static_cast<long long>(sums[0]));
  }
  return 0;
}
