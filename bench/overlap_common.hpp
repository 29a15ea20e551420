// Shared harness for the Fig 5/6/7 overlap benchmarks (paper §V-C).
//
// Micro-benchmark from [Shet et al.]: perform a nonblocking communication,
// compute for Tcomp, wait for completion. Overlap = Tcomp / Ttotal, where
// Ttotal is the time from Isend/Irecv to the end of Wait. A ratio near 1
// means communication was fully hidden behind the computation.
#pragma once

#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "mpi/world.hpp"
#include "sync/semaphore.hpp"

namespace piom::bench {

enum class ComputeSide { kSender, kReceiver, kBoth };

struct OverlapPoint {
  double compute_us = 0;
  double ratio = 0;
};

/// Measure the overlap ratio for one (engine, size, compute duration).
/// `iters` round trips are averaged.
inline double measure_overlap(mpi::World& world, std::size_t msg_size,
                              double compute_us, ComputeSide side, int iters) {
  std::vector<uint8_t> data(msg_size, 0x3C);
  std::vector<uint8_t> out(msg_size);
  double total_us_sum = 0;
  // One rank-1 (receiver) thread for every iteration, in lockstep with the
  // sender: it posts the irecv and signals `recv_posted` before the sender
  // starts (the paper's benchmark also posts the receive before the send),
  // and signals `recv_done` once its Ttotal is recorded.
  sync::Semaphore recv_posted;
  sync::Semaphore recv_done;
  double recv_total_us = 0;
  std::thread receiver([&] {
    for (int it = 0; it < iters; ++it) {
      mpi::Request r;
      const int64_t r0 = util::now_ns();
      world.comm(1).irecv(r, 0, 1, out.data(), out.size());
      recv_posted.post();
      if (side == ComputeSide::kReceiver || side == ComputeSide::kBoth) {
        util::burn_cpu_us(compute_us);
      }
      world.comm(1).wait(r);
      recv_total_us = static_cast<double>(util::now_ns() - r0) * 1e-3;
      recv_done.post();
    }
  });
  for (int it = 0; it < iters; ++it) {
    recv_posted.wait();
    mpi::Request s;
    const int64_t s0 = util::now_ns();
    world.comm(0).isend(s, 1, 1, data.data(), data.size());
    if (side == ComputeSide::kSender || side == ComputeSide::kBoth) {
      util::burn_cpu_us(compute_us);
    }
    world.comm(0).wait(s);
    const double send_total_us = static_cast<double>(util::now_ns() - s0) * 1e-3;
    // The receiver records recv_total_us before posting recv_done and only
    // overwrites it after the next send, which comes after this read.
    recv_done.wait();
    // Ttotal is measured on the side(s) that compute (per the benchmark
    // definition); for kBoth take the slower side.
    switch (side) {
      case ComputeSide::kSender: total_us_sum += send_total_us; break;
      case ComputeSide::kReceiver: total_us_sum += recv_total_us; break;
      case ComputeSide::kBoth:
        total_us_sum += std::max(send_total_us, recv_total_us);
        break;
    }
  }
  receiver.join();
  const double mean_total = total_us_sum / iters;
  if (mean_total <= 0) return 0;
  const double ratio = compute_us / mean_total;
  return ratio > 1.0 ? 1.0 : ratio;
}

/// Run one full figure: the compute-time sweep for one message size and all
/// three engines, printed as aligned columns.
inline void run_overlap_figure(const char* figure_name, ComputeSide side,
                               std::size_t msg_size, double max_compute_us,
                               int points, int iters) {
  std::printf("--- %s, message size %zu KB ---\n", figure_name,
              msg_size / 1024);
  std::printf("%14s %14s %14s %14s\n", "compute(us)", "mvapich-like",
              "openmpi-like", "pioman");
  struct EngineRun {
    mpi::EngineKind kind;
    std::unique_ptr<mpi::World> world;
  };
  std::vector<EngineRun> engines;
  for (const auto kind :
       {mpi::EngineKind::kMvapichLike, mpi::EngineKind::kOpenMpiLike,
        mpi::EngineKind::kPioman}) {
    mpi::WorldConfig cfg;
    cfg.engine = kind;
    cfg.pioman.workers = 4;
    engines.push_back({kind, std::make_unique<mpi::World>(cfg)});
  }
  for (int p = 0; p <= points; ++p) {
    const double compute_us = max_compute_us * p / points;
    std::printf("%14.0f", compute_us);
    for (auto& e : engines) {
      const double ratio =
          measure_overlap(*e.world, msg_size, compute_us, side, iters);
      std::printf(" %14.3f", ratio);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n");
}

}  // namespace piom::bench
