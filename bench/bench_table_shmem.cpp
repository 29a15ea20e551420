// Transport-backend comparison: shmem vs simnet vs hybrid on the two axes
// the strategy layer selects rails by — small-message latency (ping-pong/2)
// and large-message bandwidth (rendezvous pull). The shmem fast path has no
// NIC instruction round-trip and no modelled wire, so it should beat the
// NIC model by orders of magnitude on latency and track host memcpy speed
// on bandwidth; the hybrid gate must land at (or above) the better rail on
// both axes, proving the heterogeneous rail selection + striping works.
//
// Single-threaded caller-driven pumping: both gates live in this process,
// so driving progress from one loop keeps the numbers scheduler-noise-free
// on small hosts (see bench/README.md caveats).
//
// --quick shrinks the iteration counts; --json <path> records the
// BENCH_*.json layout.
#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "nmad/request.hpp"
#include "nmad/session.hpp"
#include "transport/cluster.hpp"
#include "transport/channel.hpp"
#include "transport/shmem.hpp"

namespace {

using piom::transport::PairWiring;

struct Endpoints {
  piom::nmad::Gate* a = nullptr;
  piom::nmad::Gate* b = nullptr;
};

/// One connected gate pair wired per `wiring` on a fresh cluster.
Endpoints make_endpoints(piom::transport::Cluster& cluster,
                         piom::nmad::Session& sa, piom::nmad::Session& sb,
                         PairWiring wiring) {
  std::vector<piom::transport::IChannel*> rails_a, rails_b;
  if (wiring != PairWiring::kSimnet) {
    auto [x, y] = cluster.shmem().create_channel_pair("bench.shm");
    rails_a.push_back(x);
    rails_b.push_back(y);
  }
  if (wiring != PairWiring::kShmem) {
    auto [x, y] = cluster.create_sim_link("bench.nic", {});
    rails_a.push_back(x);
    rails_b.push_back(y);
  }
  return {&sa.create_gate(rails_a), &sb.create_gate(rails_b)};
}

void pump_until(piom::nmad::Gate& ga, piom::nmad::Gate& gb,
                const piom::nmad::RequestCore& done) {
  while (!done.completed()) {
    ga.progress();
    gb.progress();
  }
}

/// Mean one-way small-message latency (us): ping-pong / 2.
double measure_latency_us(Endpoints ep, std::size_t bytes, int iterations) {
  std::vector<uint8_t> ping(bytes, 0x11), pong(bytes, 0x22);
  std::vector<uint8_t> rx(bytes + 1);
  const int64_t t0 = piom::util::now_ns();
  for (int i = 0; i < iterations; ++i) {
    piom::nmad::SendRequest s;
    piom::nmad::RecvRequest r;
    ep.b->irecv(r, 1, rx.data(), rx.size());
    ep.a->isend(s, 1, ping.data(), ping.size());
    pump_until(*ep.a, *ep.b, r.core);
    piom::nmad::SendRequest s2;
    piom::nmad::RecvRequest r2;
    ep.a->irecv(r2, 2, rx.data(), rx.size());
    ep.b->isend(s2, 2, pong.data(), pong.size());
    pump_until(*ep.a, *ep.b, r2.core);
    pump_until(*ep.a, *ep.b, s.core);
    pump_until(*ep.a, *ep.b, s2.core);
  }
  const int64_t dt = piom::util::now_ns() - t0;
  return static_cast<double>(dt) * 1e-3 / (2.0 * iterations);
}

/// Sustained large-message bandwidth (MB/s) over the rendezvous path.
double measure_bandwidth_MBps(Endpoints ep, std::size_t bytes,
                              int iterations) {
  std::vector<uint8_t> data(bytes, 0x5a);
  std::vector<uint8_t> rx(bytes);
  const int64_t t0 = piom::util::now_ns();
  for (int i = 0; i < iterations; ++i) {
    piom::nmad::SendRequest s;
    piom::nmad::RecvRequest r;
    ep.b->irecv(r, 3, rx.data(), rx.size());
    ep.a->isend(s, 3, data.data(), data.size());
    pump_until(*ep.a, *ep.b, r.core);
    pump_until(*ep.a, *ep.b, s.core);
  }
  const int64_t dt = piom::util::now_ns() - t0;
  return static_cast<double>(bytes) * iterations / 1e6 /
         (static_cast<double>(dt) * 1e-9);
}

constexpr PairWiring kWirings[] = {PairWiring::kSimnet, PairWiring::kShmem,
                                   PairWiring::kHybrid};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = piom::bench::quick_mode(argc, argv);
  const int lat_iters = quick ? 50 : 400;
  const int bw_iters = quick ? 4 : 16;
  const std::vector<std::size_t> lat_sizes = {8, 256, 4096};
  const std::vector<std::size_t> bw_sizes = {256u << 10, 4u << 20};
  piom::bench::JsonReport report("bench_table_shmem", argc, argv);

  std::printf(
      "=== transport backends — latency / bandwidth per rail wiring ===\n"
      "expected shape: shmem crushes the NIC model on latency (no wire,\n"
      "no engine round-trip) and tracks host memcpy on bandwidth; hybrid\n"
      "matches the better rail on each axis (rail selection + striping)\n\n");

  const int label_w = 16, cell_w = 14;
  {
    std::vector<std::string> header = {"simnet", "shmem", "hybrid"};
    piom::bench::print_row("latency (us)", header, label_w, cell_w);
  }
  for (const std::size_t bytes : lat_sizes) {
    std::vector<std::string> cells;
    report.row().str("test", "latency").num("bytes",
                                            static_cast<double>(bytes));
    for (const PairWiring wiring : kWirings) {
      piom::transport::Cluster cluster;
      piom::nmad::Session sa("a"), sb("b");
      const double us = measure_latency_us(
          make_endpoints(cluster, sa, sb, wiring), bytes, lat_iters);
      cells.push_back(piom::bench::fmt_us(us));
      report.num(std::string(piom::transport::pair_wiring_name(wiring)) +
                     "_us",
                 us);
    }
    piom::bench::print_row(std::to_string(bytes) + " B", cells, label_w,
                           cell_w);
  }

  std::printf("\n");
  {
    std::vector<std::string> header = {"simnet", "shmem", "hybrid"};
    piom::bench::print_row("bandwidth (MB/s)", header, label_w, cell_w);
  }
  for (const std::size_t bytes : bw_sizes) {
    std::vector<std::string> cells;
    report.row().str("test", "bandwidth").num("bytes",
                                              static_cast<double>(bytes));
    for (const PairWiring wiring : kWirings) {
      piom::transport::Cluster cluster;
      piom::nmad::Session sa("a"), sb("b");
      const double mbps = measure_bandwidth_MBps(
          make_endpoints(cluster, sa, sb, wiring), bytes, bw_iters);
      cells.push_back(piom::bench::fmt_us(mbps, 0));
      report.num(std::string(piom::transport::pair_wiring_name(wiring)) +
                     "_MBps",
                 mbps);
    }
    piom::bench::print_row(std::to_string(bytes >> 10) + " KiB", cells,
                           label_w, cell_w);
  }
  return 0;
}
