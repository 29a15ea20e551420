// Scale tests for the overlay/membership layer (mpi/membership.hpp):
//   * ScaleMatrix — the same SPMD script (p2p inside and outside the view,
//     wildcard receives, every tree-capable collective) runs under forced
//     dense AND forced sparse overlays, all three engines, simnet and shmem
//     meshes, and asserts the same analytic results — sparse must be an
//     invisible drop-in for dense.
//   * Lazy gates — a dense world only pays for the pairs that talk; a
//     sparse world's per-rank gate count stays bounded by the view size
//     (fanout + ring + parent) no matter how many ranks the collective
//     spans (asserted at N=64 and N=256).
//   * Forwarding — off-view point-to-point traffic is relayed along the
//     tree (Membership::stats proves frames were originated, relayed by an
//     interior rank, and delivered), including payloads larger than the
//     kForward fragment size. Forwarded arrivals honour MPI post order
//     (earliest-posted matching receive wins) under both overlays and both
//     matcher layouts.
//   * Races — first-message gate creation racing a wildcard receive, and
//     two ranks first-messaging each other simultaneously (the connector's
//     idempotent-pair protocol).
//   * Death flood — in sparse mode a rank with no gate to the victim still
//     learns of the failure via the epidemic death notice.
//
// Every world forces overlay.mode explicitly, so the suite asserts the
// same things whether or not CI forces $PIOM_OVERLAY=sparse globally.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "mpi/world.hpp"
#include "util/timing.hpp"

namespace piom::mpi {
namespace {

#ifdef PIOM_TEST_SANITIZED
constexpr double kTimeDilation = 5.0;
#else
constexpr double kTimeDilation = 1.0;
#endif

enum class MeshKind { kSimnet, kShmem };

WorldConfig scale_config(EngineKind kind, int nranks, OverlayMode overlay,
                         MeshKind mesh, int fanout = 4) {
  WorldConfig cfg;
  cfg.engine = kind;
  cfg.nranks = nranks;
  cfg.time_scale = 0.05;
  cfg.session.pool_bufs_per_rail = 8;
  cfg.session.pool_bufs_initial = 1;  // big-N worlds: pay per active gate
  cfg.pioman.workers = 1;
  cfg.overlay.mode = overlay;
  cfg.overlay.fanout = fanout;
  if (mesh == MeshKind::kShmem) {
    cfg.policy.node_of.assign(static_cast<std::size_t>(nranks), 0);
    cfg.policy.intra = transport::PairWiring::kShmem;
  }
  return cfg;
}

std::string engine_tag(EngineKind k) {
  switch (k) {
    case EngineKind::kPioman: return "pioman";
    case EngineKind::kMvapichLike: return "mvapich";
    case EngineKind::kOpenMpiLike: return "openmpi";
  }
  return "unknown";
}

// ---- dense == sparse equivalence matrix ------------------------------------

using Param = std::tuple<EngineKind, OverlayMode, MeshKind>;
class ScaleMatrix : public ::testing::TestWithParam<Param> {};

// One SPMD script, identical assertions under both overlays. N=16 with
// fanout 2 gives the sparse tree real depth (4 levels) while keeping the
// pair count one CPU can progress; the p2p phase talks to the ring
// neighbour (in view) and the diametral rank (outside the sparse view, so
// it exercises forwarding), not all N-1 peers — the dense world stays lazy
// and wires O(N) pairs instead of the quadratic mesh.
TEST_P(ScaleMatrix, SparseIsADropInForDense) {
  const auto [kind, overlay, mesh] = GetParam();
  constexpr int n = 16;
  World world(scale_config(kind, n, overlay, mesh, /*fanout=*/2));
  std::vector<std::thread> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.emplace_back([&, r] {
      Comm& comm = world.comm(r);
      const int n = comm.size();

      // ---- p2p: ring neighbour (view edge) + diametral rank (forwarded
      // ---- in sparse mode) ----
      for (const int d : {1, n / 2}) {
        const int to = (r + d) % n;
        const int from = (r - d + n) % n;
        const int32_t mine = r * 100 + d;
        int32_t got = -1;
        comm.sendrecv(to, static_cast<Tag>(20 + d), &mine, sizeof(mine),
                      from, static_cast<Tag>(20 + d), &got, sizeof(got));
        EXPECT_EQ(got, from * 100 + d);
      }

      // ---- wildcard receive fed by an off-view sender ----
      comm.barrier();
      if (r == 0) {
        std::vector<bool> seen(static_cast<std::size_t>(n), false);
        for (int i = 0; i < n - 1; ++i) {
          int32_t v = -1;
          const Status st =
              comm.recv_status(Comm::kAnySource, 7, &v, sizeof(v));
          ASSERT_GE(st.source, 1);
          ASSERT_LT(st.source, n);
          EXPECT_FALSE(seen[static_cast<std::size_t>(st.source)]);
          seen[static_cast<std::size_t>(st.source)] = true;
          EXPECT_EQ(v, st.source * 10);
        }
      } else {
        const int32_t v = r * 10;
        comm.send(0, 7, &v, sizeof(v));
      }

      // ---- bcast from rank 0 and from a non-zero root (the tree variant
      // ---- hands off to rank 0 first) ----
      for (const int root : {0, n - 1}) {
        std::vector<int64_t> data(48);
        if (r == root) std::iota(data.begin(), data.end(), root * 100);
        comm.bcast(data.data(), data.size() * sizeof(int64_t), root);
        std::vector<int64_t> expect(48);
        std::iota(expect.begin(), expect.end(), root * 100);
        EXPECT_EQ(data, expect);
      }

      // ---- allreduce: sum and max ----
      {
        std::vector<int64_t> v{r + 1, -r, r % 3};
        comm.allreduce(v.data(), v.size(), ReduceOp::kSum);
        int64_t s0 = 0, s1 = 0, s2 = 0;
        for (int i = 0; i < n; ++i) {
          s0 += i + 1;
          s1 -= i;
          s2 += i % 3;
        }
        EXPECT_EQ(v[0], s0);
        EXPECT_EQ(v[1], s1);
        EXPECT_EQ(v[2], s2);
        double mx[2] = {static_cast<double>(r), static_cast<double>(-r)};
        comm.allreduce(mx, 2, ReduceOp::kMax);
        EXPECT_DOUBLE_EQ(mx[0], n - 1);
        EXPECT_DOUBLE_EQ(mx[1], 0.0);
      }

      // ---- gather + scatter stay dense algorithms in both modes ----
      {
        const int root = 1;
        const int32_t mine = 100 + r;
        std::vector<int32_t> all(r == root ? static_cast<std::size_t>(n) : 0);
        comm.gather(&mine, sizeof(mine), r == root ? all.data() : nullptr,
                    root);
        if (r == root) {
          for (int i = 0; i < n; ++i) {
            EXPECT_EQ(all[static_cast<std::size_t>(i)], 100 + i);
          }
          for (auto& x : all) x += 1000;
        }
        int32_t back = -1;
        comm.scatter(r == root ? all.data() : nullptr, sizeof(int32_t),
                     &back, root);
        EXPECT_EQ(back, 1100 + r);
      }

      comm.barrier();
    });
  }
  for (auto& t : ranks) t.join();
}

INSTANTIATE_TEST_SUITE_P(
    EnginesOverlaysMeshes, ScaleMatrix,
    ::testing::Combine(::testing::Values(EngineKind::kPioman,
                                         EngineKind::kMvapichLike,
                                         EngineKind::kOpenMpiLike),
                       ::testing::Values(OverlayMode::kDense,
                                         OverlayMode::kSparse),
                       ::testing::Values(MeshKind::kSimnet,
                                         MeshKind::kShmem)),
    [](const auto& info) {
      return engine_tag(std::get<0>(info.param)) + "_" +
             overlay_mode_name(std::get<1>(info.param)) +
             (std::get<2>(info.param) == MeshKind::kShmem ? "_shmem"
                                                          : "_simnet");
    });

// ---- lazy gates ------------------------------------------------------------

TEST(LazyGates, DenseWorldOnlyWiresPairsThatTalk) {
  constexpr int n = 16;
  World world(scale_config(EngineKind::kMvapichLike, n, OverlayMode::kDense,
                           MeshKind::kShmem));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(world.comm(r).membership().installed_gates(), 0)
        << "rank " << r << " paid for gates before any traffic";
  }
  std::thread rx([&] {
    int32_t v = -1;
    world.comm(1).recv(0, 5, &v, sizeof(v));
    EXPECT_EQ(v, 41);
  });
  const int32_t v = 41;
  world.comm(0).send(1, 5, &v, sizeof(v));
  rx.join();
  EXPECT_EQ(world.comm(0).membership().installed_gates(), 1);
  EXPECT_EQ(world.comm(1).membership().installed_gates(), 1);
  for (int r = 2; r < n; ++r) {
    EXPECT_EQ(world.comm(r).membership().installed_gates(), 0)
        << "rank " << r << " was wired by a conversation it is not part of";
  }
}

TEST(LazyGates, DenseCollectiveWiresItsPatternNotTheMesh) {
  // Barrier and allreduce at N=16 walk the fanout-4 tree: each rank talks
  // to its children and its parent only — at most 5 peers, not 15. The
  // lazy mesh must pay for exactly those edges.
  constexpr int n = 16;
  constexpr int fanout = 4;
  World world(scale_config(EngineKind::kOpenMpiLike, n, OverlayMode::kDense,
                           MeshKind::kShmem, fanout));
  std::vector<std::thread> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.emplace_back([&, r] {
      Comm& comm = world.comm(r);
      comm.barrier();
      int64_t v = r;
      comm.allreduce(&v, 1, ReduceOp::kSum);
      EXPECT_EQ(v, n * (n - 1) / 2) << "rank " << r;
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < n; ++r) {
    const Membership& m = world.comm(r).membership();
    const int tree_edges =
        static_cast<int>(m.children().size()) + (r != 0 ? 1 : 0);
    EXPECT_EQ(m.installed_gates(), tree_edges)
        << "rank " << r << " wired more than its tree edges";
    EXPECT_LE(m.installed_gates(), fanout + 1) << "rank " << r;
  }
}

TEST(LazyGates, SparseGateCountBoundedByViewAtN64) {
  // The headline scaling claim: at N=64 a full collective + off-view p2p
  // workload keeps every rank at <= fanout + 3 gates (children + parent +
  // ring), two orders below the dense mesh's 63.
  constexpr int n = 64;
  constexpr int fanout = 4;
  World world(scale_config(EngineKind::kOpenMpiLike, n, OverlayMode::kSparse,
                           MeshKind::kShmem, fanout));
  std::vector<std::thread> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.emplace_back([&, r] {
      Comm& comm = world.comm(r);
      comm.barrier();
      int64_t v = r;
      comm.allreduce(&v, 1, ReduceOp::kSum);
      EXPECT_EQ(v, n * (n - 1) / 2);
      std::vector<uint8_t> blob(512);
      if (r == 0) std::fill(blob.begin(), blob.end(), 0x5a);
      comm.bcast(blob.data(), blob.size(), 0);
      EXPECT_EQ(blob[511], 0x5a);
      // Off-view p2p: the diametral pairing is forwarded, not wired.
      const int to = (r + n / 2) % n;
      const int from = to;  // diametral pairing is an involution at even N
      const int32_t mine = 7000 + r;
      int32_t got = -1;
      comm.sendrecv(to, 9, &mine, sizeof(mine), from, 9, &got, sizeof(got));
      EXPECT_EQ(got, 7000 + from);
      comm.barrier();
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < n; ++r) {
    const Membership& m = world.comm(r).membership();
    EXPECT_LE(m.view().size(), static_cast<std::size_t>(fanout + 3));
    EXPECT_LE(m.installed_gates(), fanout + 3)
        << "rank " << r << " wired gates outside its view";
    // Routing sanity: every first hop is a view edge, and the view is
    // symmetric (both endpoints agree they are neighbours).
    for (int dst = 0; dst < n; ++dst) {
      if (dst == r) continue;
      EXPECT_TRUE(m.in_view(m.next_hop(dst)))
          << "rank " << r << " routes to " << dst << " via a non-view hop";
    }
    for (const int p : m.view()) {
      EXPECT_TRUE(world.comm(p).membership().in_view(r))
          << "view edge " << r << "<->" << p << " is not symmetric";
    }
  }
}

TEST(LazyGates, SparseSpotCheckAtN256) {
  // The ISSUE's headline size on a one-CPU container: caller-driven
  // engine, shmem mesh, minimal per-gate pools. Barrier + allreduce +
  // bcast over 256 ranks, then the same per-rank gate bound as N=64.
  constexpr int n = 256;
  constexpr int fanout = 4;
  World world(scale_config(EngineKind::kOpenMpiLike, n, OverlayMode::kSparse,
                           MeshKind::kShmem, fanout));
  std::vector<std::thread> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.emplace_back([&, r] {
      Comm& comm = world.comm(r);
      comm.barrier();
      int64_t v = 1;
      comm.allreduce(&v, 1, ReduceOp::kSum);
      EXPECT_EQ(v, n);
      int32_t word = r == 0 ? 424242 : -1;
      comm.bcast(&word, sizeof(word), 0);
      EXPECT_EQ(word, 424242);
    });
  }
  for (auto& t : ranks) t.join();
  int max_gates = 0;
  for (int r = 0; r < n; ++r) {
    max_gates = std::max(max_gates, world.comm(r).membership().installed_gates());
  }
  EXPECT_LE(max_gates, fanout + 3)
      << "a 256-rank collective should cost each rank a handful of gates";
}

// ---- forwarding ------------------------------------------------------------

TEST(Forwarding, OffViewTrafficRidesTheTree) {
  // fanout 2, N=16: ranks 0 and 13 are several tree hops apart. Small and
  // multi-fragment (> 32 KiB kForwardChunk) payloads must arrive intact,
  // and the membership counters must show origination, interior relaying
  // and delivery.
  constexpr int n = 16;
  World world(scale_config(EngineKind::kPioman, n, OverlayMode::kSparse,
                           MeshKind::kShmem, /*fanout=*/2));
  const int src = 13, dst = 0;
  ASSERT_FALSE(world.comm(src).membership().in_view(dst))
      << "pick a pair outside the view or the test asserts nothing";

  std::thread rx([&] {
    int32_t v = -1;
    world.comm(dst).recv(src, 11, &v, sizeof(v));
    EXPECT_EQ(v, 1311);
    // Wildcard receives must also see forwarded traffic.
    int32_t w = -1;
    const Status st =
        world.comm(dst).recv_status(Comm::kAnySource, 12, &w, sizeof(w));
    EXPECT_EQ(st.source, src);
    EXPECT_EQ(w, 1312);
    std::vector<uint8_t> big(100 * 1000);
    world.comm(dst).recv(src, 13, big.data(), big.size());
    bool ok = true;
    for (std::size_t i = 0; i < big.size(); ++i) {
      ok = ok && big[i] == static_cast<uint8_t>(i * 13);
    }
    EXPECT_TRUE(ok) << "fragmented forward corrupted the payload";
  });
  const int32_t v = 1311, w = 1312;
  world.comm(src).send(dst, 11, &v, sizeof(v));
  world.comm(src).send(dst, 12, &w, sizeof(w));
  std::vector<uint8_t> big(100 * 1000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 13);
  }
  world.comm(src).send(dst, 13, big.data(), big.size());
  rx.join();

  EXPECT_GE(world.comm(src).membership().stats().forwards_originated, 3u);
  EXPECT_GE(world.comm(dst).membership().stats().forwards_delivered, 3u);
  uint64_t relayed = 0;
  for (int r = 0; r < n; ++r) {
    relayed += world.comm(r).membership().stats().forwards_relayed;
  }
  EXPECT_GE(relayed, 1u) << "a 13->0 route at fanout 2 has interior hops";
}

// An any-source receive posted BEFORE a directed receive on the same tag
// must win the first message from that source (MPI: the earliest-posted
// matching receive matches). Forwarded traffic is matched on the origin's
// rail-less gate, whose post-order stamps enforce this exactly like a
// direct gate's — so the outcome may not depend on the overlay.
using OrderParam = std::tuple<OverlayMode, nmad::MatcherKind>;
class ForwardingOrder : public ::testing::TestWithParam<OrderParam> {};

TEST_P(ForwardingOrder, EarliestPostedReceiveWins) {
  const auto [overlay, matcher] = GetParam();
  constexpr int n = 16;
  WorldConfig cfg = scale_config(EngineKind::kPioman, n, overlay,
                                 MeshKind::kShmem, /*fanout=*/2);
  cfg.session.matcher = matcher;
  World world(cfg);
  const int src = 13, dst = 0;
  if (overlay == OverlayMode::kSparse) {
    ASSERT_FALSE(world.comm(src).membership().in_view(dst))
        << "pick a pair outside the view or the test asserts nothing";
  }
  Comm& rx = world.comm(dst);
  int32_t wild = -1, directed = -1;
  Request r_any, r_dir;
  rx.irecv(r_any, Comm::kAnySource, 21, &wild, sizeof(wild));
  rx.irecv(r_dir, src, 21, &directed, sizeof(directed));

  const int32_t first = 1301, second = 1302;
  world.comm(src).send(dst, 21, &first, sizeof(first));
  // Bounded: whichever receive took the message completes; a wrong match
  // must fail the assertions below, not hang the test.
  const int64_t deadline =
      util::now_ns() + static_cast<int64_t>(10e9 * kTimeDilation);
  while (!rx.test(r_any) && !rx.test(r_dir) && util::now_ns() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(r_any.done()) << "the earlier any-source receive lost";
  EXPECT_FALSE(r_dir.done()) << "the later directed receive won";

  world.comm(src).send(dst, 21, &second, sizeof(second));
  rx.wait(r_any);
  rx.wait(r_dir);
  EXPECT_EQ(wild, first);
  EXPECT_EQ(r_any.status().source, src);
  EXPECT_EQ(directed, second);
}

INSTANTIATE_TEST_SUITE_P(
    OverlaysMatchers, ForwardingOrder,
    ::testing::Combine(::testing::Values(OverlayMode::kDense,
                                         OverlayMode::kSparse),
                       ::testing::Values(nmad::MatcherKind::kBucket,
                                         nmad::MatcherKind::kScan)),
    [](const auto& info) {
      return std::string(overlay_mode_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == nmad::MatcherKind::kScan ? "_scan"
                                                                  : "_bucket");
    });

// ---- first-contact races ---------------------------------------------------

TEST(LazyGates, FirstMessageRacesWildcardReceive) {
  // The coverage-invariant race: rank 0's any-source receive is being
  // registered while senders trigger gate creation with their first-ever
  // message. A gate installed mid-registration must still be covered (the
  // WildSet add_gate/post protocol), or the wildcard hangs. Fresh world
  // every iteration so the gates really are created under fire.
  for (int iter = 0; iter < 8; ++iter) {
    constexpr int n = 4;
    World world(scale_config(EngineKind::kPioman, n, OverlayMode::kDense,
                             MeshKind::kShmem));
    std::vector<std::thread> senders;
    for (int s = 1; s < n; ++s) {
      senders.emplace_back([&world, s] {
        for (int i = 0; i < 8; ++i) {
          const int32_t v = s * 1000 + i;
          world.comm(s).send(0, 6, &v, sizeof(v));
        }
      });
    }
    std::vector<int> next(n, 0);
    for (int i = 0; i < (n - 1) * 8; ++i) {
      int32_t v = -1;
      const Status st =
          world.comm(0).recv_status(Comm::kAnySource, 6, &v, sizeof(v));
      ASSERT_GE(st.source, 1);
      ASSERT_LT(st.source, n);
      EXPECT_EQ(v,
                st.source * 1000 + next[static_cast<std::size_t>(st.source)]);
      ++next[static_cast<std::size_t>(st.source)];
    }
    for (auto& t : senders) t.join();
  }
}

TEST(LazyGates, SimultaneousFirstContactWiresOnePair) {
  // Both endpoints first-message each other at once: the connector runs
  // concurrently for the same pair from both sides and must converge on
  // exactly one gate pair (idempotent install), with neither send lost.
  for (const EngineKind kind :
       {EngineKind::kPioman, EngineKind::kMvapichLike}) {
    for (int iter = 0; iter < 8; ++iter) {
      World world(scale_config(kind, 4, OverlayMode::kDense,
                               MeshKind::kShmem));
      std::atomic<int> go{0};
      auto slam = [&world, &go](int me, int peer) {
        go.fetch_add(1);
        while (go.load() < 2) {}  // line both first-sends up
        const int32_t v = 100 + me;
        world.comm(me).send(peer, 3, &v, sizeof(v));
        int32_t got = -1;
        world.comm(me).recv(peer, 3, &got, sizeof(got));
        EXPECT_EQ(got, 100 + peer);
      };
      std::thread a(slam, 1, 2);
      std::thread b(slam, 2, 1);
      a.join();
      b.join();
      EXPECT_EQ(world.comm(1).membership().installed_gates(), 1);
      EXPECT_EQ(world.comm(2).membership().installed_gates(), 1);
    }
  }
}

// ---- sparse failure dissemination ------------------------------------------

TEST(DeathFlood, OffViewSurvivorLearnsOfTheFailure) {
  // fanout 2, N=8: the victim (7) is a leaf whose view is {parent 3, ring
  // 6, ring 0}. Rank 4 holds no gate to it, so its own detector can never
  // time the victim out — it must adopt the verdict from the death notice
  // flooded along the tree. Adopting it evicts rank 4's origin gate for the
  // victim, which must error-complete rank 4's receives parked on the
  // forwarded path: a directed one from the victim and an any-source one.
  constexpr int n = 8;
  WorldConfig cfg = scale_config(EngineKind::kOpenMpiLike, n,
                                 OverlayMode::kSparse, MeshKind::kShmem,
                                 /*fanout=*/2);
  cfg.failure.enabled = true;
  cfg.failure.heartbeat_period_us = 2000.0 * kTimeDilation;
  cfg.failure.timeout_periods = 40;
  World world(cfg);
  const int victim = 7;
  ASSERT_FALSE(world.comm(4).membership().in_view(victim));
  Comm& off_view = world.comm(4);
  int32_t from_victim = -1, wild = -1;
  Request r_dir, r_any;
  off_view.irecv(r_dir, victim, 31, &from_victim, sizeof(from_victim));
  off_view.irecv(r_any, Comm::kAnySource, 31, &wild, sizeof(wild));

  world.kill_rank(victim);
  const int64_t deadline =
      util::now_ns() +
      10 * static_cast<int64_t>(cfg.failure.heartbeat_period_us * 1e3) *
          (cfg.failure.timeout_periods + 1);
  std::vector<int> waiting;
  for (int r = 0; r < n - 1; ++r) waiting.push_back(r);
  while (!waiting.empty() && util::now_ns() < deadline) {
    std::vector<int> still;
    for (const int r : waiting) {
      world.comm(r).engine().progress();  // caller-driven engines
      if (!world.comm(r).rank_failed(victim)) still.push_back(r);
    }
    waiting.swap(still);
    std::this_thread::yield();
  }
  EXPECT_TRUE(waiting.empty())
      << waiting.size() << " survivors (first: rank "
      << (waiting.empty() ? -1 : waiting.front())
      << ") never learned of the death";
  uint64_t notices = 0;
  for (int r = 0; r < n; ++r) {
    notices += world.comm(r).membership().stats().death_notices;
  }
  EXPECT_GE(notices, 1u) << "nobody flooded a death notice";
  EXPECT_TRUE(off_view.test(r_dir) && r_dir.failed())
      << "directed receive from the victim outlived the verdict";
  EXPECT_TRUE(off_view.test(r_any) && r_any.failed())
      << "any-source receive outlived the verdict";
  EXPECT_EQ(r_dir.status().source, victim);
}

}  // namespace
}  // namespace piom::mpi
