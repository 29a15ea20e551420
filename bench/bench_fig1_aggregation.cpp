// Fig 1 quantified: multiplexing several communication flows through one
// gate lets the optimization layer aggregate small messages into fewer,
// larger wire packets ("buffering packets and applying optimizations
// improve throughput and avoid NIC saturation", §II-A).
//
// Workload: a burst of small messages to the same gate, sent with and
// without the aggregation strategy, on both fast transports (the modelled
// NIC and the shmem rings). Reported: wire packets, elapsed time, effective
// throughput. Expected shape: aggregation sends far fewer packets and wins
// on per-packet-overhead-dominated bursts on either backend.
#include <cstdio>
#include <deque>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/common.hpp"
#include "nmad/session.hpp"
#include "transport/cluster.hpp"
#include "transport/channel.hpp"

namespace {

using namespace piom;

struct BurstResult {
  double elapsed_us = 0;
  uint64_t wire_packets = 0;
  double throughput_msgs_per_ms = 0;
};

BurstResult run_burst(const char* backend, bool aggregation, int nmsgs,
                      std::size_t msg_size, int iterations) {
  nmad::SessionConfig cfg;
  cfg.aggregation = aggregation;
  transport::Cluster cluster;
  transport::IChannel* na = nullptr;
  transport::IChannel* nb = nullptr;
  if (std::string_view(backend) == "shmem") {
    std::tie(na, nb) = cluster.shmem().create_channel_pair("fig1.shm");
  } else {
    std::tie(na, nb) = cluster.create_sim_link("rail0", {});
  }
  nmad::Session sa("A", cfg), sb("B", cfg);
  nmad::Gate& ga = sa.create_gate({na});
  nmad::Gate& gb = sb.create_gate({nb});

  std::vector<uint8_t> payload(msg_size, 0x77);
  std::vector<std::vector<uint8_t>> out(
      static_cast<std::size_t>(nmsgs), std::vector<uint8_t>(msg_size));
  const int64_t t0 = util::now_ns();
  for (int iter = 0; iter < iterations; ++iter) {
    std::deque<nmad::SendRequest> sreqs(static_cast<std::size_t>(nmsgs));
    std::deque<nmad::RecvRequest> rreqs(static_cast<std::size_t>(nmsgs));
    for (int i = 0; i < nmsgs; ++i) {
      gb.irecv(rreqs[static_cast<std::size_t>(i)], static_cast<nmad::Tag>(i),
               out[static_cast<std::size_t>(i)].data(), msg_size);
    }
    // The burst: defer all sends (they multiplex in the pending queue),
    // then one flush lets the strategy see the whole flow (Fig 1's collect
    // layer feeding the optimization layer).
    for (int i = 0; i < nmsgs; ++i) {
      ga.isend(sreqs[static_cast<std::size_t>(i)], static_cast<nmad::Tag>(i),
               payload.data(), msg_size, /*defer=*/true);
    }
    ga.flush();
    // Requests must stay alive until completed — wait for the sends too
    // (their TX completions), not only the receives.
    for (;;) {
      sa.progress();
      sb.progress();
      bool all = true;
      for (const auto& r : rreqs) {
        if (!r.completed()) {
          all = false;
          break;
        }
      }
      for (const auto& s : sreqs) {
        if (!s.completed()) {
          all = false;
          break;
        }
      }
      if (all) break;
    }
  }
  const int64_t t1 = util::now_ns();
  BurstResult res;
  res.elapsed_us = static_cast<double>(t1 - t0) * 1e-3;
  res.wire_packets = na->stats().packets_tx;
  res.throughput_msgs_per_ms =
      static_cast<double>(nmsgs) * iterations / (res.elapsed_us * 1e-3);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = piom::bench::quick_mode(argc, argv);
  const int iterations = quick ? 5 : 20;
  piom::bench::JsonReport report("bench_fig1_aggregation", argc, argv);
  std::printf(
      "=== Fig 1 — cross-flow aggregation (burst of small messages to one "
      "gate) ===\n");
  std::printf("expected shape: aggregation sends far fewer wire packets and "
              "achieves higher burst throughput, on both transports\n\n");
  for (const char* backend : {"simnet", "shmem"}) {
    std::printf("--- backend: %s ---\n", backend);
    std::printf("%8s %10s %12s %14s %14s %12s\n", "msgs", "size(B)",
                "strategy", "packets", "time(us)", "msgs/ms");
    for (const int nmsgs : {4, 16, 64}) {
      for (const std::size_t size : {64u, 512u, 2048u}) {
        for (const bool aggregation : {false, true}) {
          const BurstResult r =
              run_burst(backend, aggregation, nmsgs, size, iterations);
          std::printf("%8d %10zu %12s %14llu %14.1f %12.1f\n", nmsgs, size,
                      aggregation ? "aggreg" : "no-aggreg",
                      static_cast<unsigned long long>(r.wire_packets),
                      r.elapsed_us, r.throughput_msgs_per_ms);
          report.row()
              .str("backend", backend)
              .num("aggregation", aggregation ? 1 : 0)
              .num("msgs", nmsgs)
              .num("bytes", static_cast<double>(size))
              .num("wire_packets", static_cast<double>(r.wire_packets))
              .num("elapsed_us", r.elapsed_us)
              .num("msgs_per_ms", r.throughput_msgs_per_ms);
        }
      }
      std::printf("\n");
    }
  }
  return 0;
}
