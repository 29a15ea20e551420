// Multirail: stripe bulk transfers across several NICs (paper §II-A:
// "Multirail clusters permit to reduce the pressure on NICs by extending
// the cumulated bandwidth").
//
// Two nodes are wired with 1, 2 and 4 rails; a large message (well above
// the 64 KiB minimum stripe chunk) is sent and the effective bandwidth is
// reported — rendezvous data always stripes, so it should scale with the
// rail count. A heterogeneous case (one fast + one slow
// rail) shows the bandwidth-proportional split.
//
// Build & run:  ./build/examples/multirail_stripe
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "mpi/world.hpp"
#include "util/timing.hpp"

using namespace piom;

namespace {

double transfer_bandwidth(mpi::World& world, std::size_t size, int reps) {
  std::vector<uint8_t> data(size, 0xEE), out(size);
  // Warm-up.
  std::thread w([&] { world.comm(1).recv(0, 1, out.data(), out.size()); });
  world.comm(0).send(1, 1, data.data(), data.size());
  w.join();
  const int64_t t0 = util::now_ns();
  for (int r = 0; r < reps; ++r) {
    std::thread rx([&] { world.comm(1).recv(0, 1, out.data(), out.size()); });
    world.comm(0).send(1, 1, data.data(), data.size());
    rx.join();
  }
  const double secs = static_cast<double>(util::now_ns() - t0) * 1e-9 / reps;
  return static_cast<double>(size) / secs / 1e9;  // GB/s
}

}  // namespace

int main() {
  constexpr std::size_t kSize = 8 << 20;  // 8 MB
  constexpr int kReps = 4;

  std::printf("message size: %zu MB, link model: 1.25 GB/s per rail\n\n",
              kSize >> 20);
  std::printf("%8s %18s %20s\n", "rails", "bandwidth (GB/s)", "scaling vs 1 rail");
  double base = 0;
  for (const int rails : {1, 2, 4}) {
    mpi::WorldConfig cfg;
    cfg.engine = mpi::EngineKind::kPioman;
    cfg.rails = rails;
    mpi::World world(cfg);
    const double bw = transfer_bandwidth(world, kSize, kReps);
    if (rails == 1) base = bw;
    std::printf("%8d %18.2f %19.2fx\n", rails, bw, bw / base);
  }

  // Heterogeneous rails: the strategy splits proportionally to bandwidth.
  std::printf("\nheterogeneous rails (manual setup): 1.25 GB/s + 2.5 GB/s\n");
  {
    transport::Cluster cluster;
    simnet::LinkModel slow;  // defaults: 1.25 GB/s
    simnet::LinkModel fast = slow;
    fast.bandwidth_GBps = 2.5;
    auto [a0, b0] = cluster.create_sim_link("slow", slow);
    auto [a1, b1] = cluster.create_sim_link("fast", fast);
    nmad::Session sa("A"), sb("B");
    nmad::Gate& ga = sa.create_gate({a0, a1});
    nmad::Gate& gb = sb.create_gate({b0, b1});
    std::vector<uint8_t> data(kSize, 0xAB), out(kSize);
    nmad::SendRequest sreq;
    nmad::RecvRequest rreq;
    gb.irecv(rreq, 1, out.data(), out.size());
    ga.isend(sreq, 1, data.data(), data.size());
    while (!rreq.completed()) {
      sa.progress();
      sb.progress();
    }
    // The receiver's NICs initiate the RDMA reads; bytes_rx counts what
    // each rail pulled.
    const auto s0 = b0->stats();
    const auto s1 = b1->stats();
    std::printf("  slow rail pulled %8.2f MB\n",
                static_cast<double>(s0.bytes_rx) / 1e6);
    std::printf("  fast rail pulled %8.2f MB (expect ~2x the slow rail)\n",
                static_cast<double>(s1.bytes_rx) / 1e6);
  }
  return 0;
}
