// Collective latency and per-rank gate cost vs cluster size, dense vs
// sparse overlay — the scaling story of docs/scaling.md in one table.
//
// Rows are (overlay, N); columns the per-call latency of barrier / 1 KiB
// bcast / 256-double allreduce plus the *maximum per-rank gate count* the
// run left behind. Both overlays run the same tree algorithms, so the
// columns compare one algorithm over two gate sets: dense wires only the
// tree edges the collectives use (fanout + 1 gates at most), while the
// sparse overlay eagerly holds its whole view — fanout + 3 gates per rank
// — no matter how large N grows.
//
// Everything runs on the caller-driven openmpi-like engine over a pure
// shmem mesh: no background progress threads and no per-channel NIC
// threads, so an N=256 world is N ranks' worth of *state* plus the N
// caller threads. Latencies at big N are those threads time-slicing the
// host's cores: treat the columns as relative (dense vs sparse at equal
// N), not absolute.
//
// --quick shrinks N and the iteration counts; --json <path> records the
// BENCH_*.json layout (baseline: BENCH_table_scale.json).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "mpi/world.hpp"

namespace {

using piom::mpi::Comm;
using piom::mpi::EngineKind;
using piom::mpi::OverlayMode;
using piom::mpi::ReduceOp;
using piom::mpi::World;
using piom::mpi::WorldConfig;

struct BenchShape {
  std::vector<int> cluster_sizes;
  int warmup = 3;
  int iterations = 20;
};

struct Sample {
  double barrier_us = 0;
  double bcast_us = 0;
  double allreduce_us = 0;
  int max_gates = 0;
};

WorldConfig scale_config(int nranks, OverlayMode overlay) {
  WorldConfig cfg;
  cfg.engine = EngineKind::kOpenMpiLike;
  cfg.nranks = nranks;
  cfg.session.pool_bufs_per_rail = 8;
  cfg.session.pool_bufs_initial = 1;
  cfg.overlay.mode = overlay;
  cfg.overlay.fanout = 4;
  cfg.policy.node_of.assign(static_cast<std::size_t>(nranks), 0);
  cfg.policy.intra = piom::transport::PairWiring::kShmem;
  return cfg;
}

/// One timed loop of `body` across the whole cluster; returns mean us.
template <typename Body>
double timed(World& world, int nranks, const BenchShape& shape, Body body) {
  int64_t t0 = 0, t1 = 0;
  std::vector<std::thread> ranks;
  for (int r = 0; r < nranks; ++r) {
    ranks.emplace_back([&, r] {
      Comm& comm = world.comm(r);
      for (int i = 0; i < shape.warmup; ++i) body(comm);
      comm.barrier();
      if (r == 0) t0 = piom::util::now_ns();
      for (int i = 0; i < shape.iterations; ++i) body(comm);
      comm.barrier();
      if (r == 0) t1 = piom::util::now_ns();
    });
  }
  for (auto& t : ranks) t.join();
  return static_cast<double>(t1 - t0) * 1e-3 / shape.iterations;
}

Sample measure(int nranks, OverlayMode overlay, const BenchShape& shape) {
  World world(scale_config(nranks, overlay));
  Sample s;
  s.barrier_us =
      timed(world, nranks, shape, [](Comm& c) { c.barrier(); });
  s.bcast_us = timed(world, nranks, shape, [](Comm& c) {
    static thread_local std::vector<uint8_t> buf(1024, 0x5a);
    c.bcast(buf.data(), buf.size(), 0);
  });
  s.allreduce_us = timed(world, nranks, shape, [](Comm& c) {
    static thread_local std::vector<double> v(256, 1.0);
    c.allreduce(v.data(), v.size(), ReduceOp::kSum);
  });
  for (int r = 0; r < nranks; ++r) {
    s.max_gates = std::max(s.max_gates,
                           world.comm(r).membership().installed_gates());
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  BenchShape shape;
  shape.cluster_sizes = {16, 64, 128, 256};
  if (piom::bench::quick_mode(argc, argv)) {
    shape.cluster_sizes = {16, 64};
    shape.warmup = 1;
    shape.iterations = 5;
  }
  piom::bench::JsonReport report("bench_coll_scale", argc, argv);

  std::printf(
      "=== collective scaling — dense vs sparse overlay (openmpi-like "
      "engine, shmem mesh) ===\n"
      "expected shape: one tree algorithm on two gate sets; the\n"
      "max_gates column stays flat — fanout+1 (tree edges) under dense,\n"
      "fanout+3 (tree + ring view) under sparse\n\n");

  const int label_w = 16, cell_w = 14;
  piom::bench::print_row(
      "overlay/N",
      {"barrier_us", "bcast1k_us", "allred256d_us", "max_gates"}, label_w,
      cell_w);
  for (const OverlayMode overlay :
       {OverlayMode::kDense, OverlayMode::kSparse}) {
    for (const int n : shape.cluster_sizes) {
      const Sample s = measure(n, overlay, shape);
      report.row()
          .str("overlay", piom::mpi::overlay_mode_name(overlay))
          .num("nranks", n)
          .num("barrier_us", s.barrier_us)
          .num("bcast1k_us", s.bcast_us)
          .num("allreduce256d_us", s.allreduce_us)
          .num("max_gates", s.max_gates);
      const std::string label =
          std::string(piom::mpi::overlay_mode_name(overlay)) + "/" +
          std::to_string(n);
      piom::bench::print_row(
          label,
          {piom::bench::fmt_us(s.barrier_us), piom::bench::fmt_us(s.bcast_us),
           piom::bench::fmt_us(s.allreduce_us), std::to_string(s.max_gates)},
          label_w, cell_w);
    }
  }
  return 0;
}
