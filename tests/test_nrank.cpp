// N-rank cluster tests: the full WorldConfig{.nranks = N} stack for all
// three progress engines at N in {2, 3, 4, 8} — point-to-point between
// every pair, any-source matching, and every collective
// (bcast/allreduce/barrier/gather/scatter/alltoall). One binary-wide
// script test per (engine, N) amortizes the mesh construction cost
// (N*(N-1) NICs per world). The whole matrix runs twice: over the pure
// simnet mesh and over a mixed mesh (a 2-chip machine spec places the
// ranks, so roughly half the pairs ride the shmem backend).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <tuple>
#include <vector>

#include "mpi/world.hpp"
#include "topo/machine.hpp"

namespace piom::mpi {
namespace {

/// Mesh flavor of a test instance.
enum class MeshKind {
  kSimnet,  ///< every pair over the NIC model (or $PIOM_TRANSPORT)
  kMixed,   ///< 2-chip placement: same-chip pairs shmem, others simnet
};

WorldConfig nrank_config(EngineKind kind, int nranks,
                         MeshKind mesh = MeshKind::kSimnet) {
  WorldConfig cfg;
  cfg.engine = kind;
  cfg.nranks = nranks;
  cfg.time_scale = 0.05;          // 20x faster network: keep tests snappy
  cfg.session.pool_bufs_per_rail = 8;  // full mesh: bound the pool memory
  cfg.pioman.workers = 1;         // one simulated core per rank
  if (mesh == MeshKind::kMixed) {
    // Two chips x two cores: rank r sits on core r % 4, so chips host
    // rank classes {0,1 mod 4} and {2,3 mod 4} — half the pairs of an
    // even-sized world share a chip and get the shmem backend.
    const topo::Machine machine = topo::Machine::symmetric(1, 2, 2, false);
    cfg.policy.node_of = rank_nodes_from_machine(machine, nranks);
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

using Param = std::tuple<EngineKind, int, MeshKind>;
class NRankAllEngines : public ::testing::TestWithParam<Param> {};

// The whole acceptance surface in one per-rank script: every rank runs the
// same program on its own thread, SPMD style.
TEST_P(NRankAllEngines, EndToEnd) {
  const auto [kind, n, mesh] = GetParam();
  World world(nrank_config(kind, n, mesh));
  std::vector<std::thread> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.emplace_back([&world, r, n = n] {
      Comm& comm = world.comm(r);
      EXPECT_EQ(comm.rank(), r);
      EXPECT_EQ(comm.size(), n);

      // ---- point-to-point between every ordered pair ----
      for (int p = 0; p < n; ++p) {
        if (p == r) continue;
        const int32_t mine = r * 1000 + p;
        int32_t got = -1;
        comm.sendrecv(p, static_cast<Tag>(100 + r), &mine, sizeof(mine), p,
                      static_cast<Tag>(100 + p), &got, sizeof(got));
        EXPECT_EQ(got, p * 1000 + r);
      }

      // ---- any-source, arrival-before-post (unexpected-queue path) ----
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
          EXPECT_EQ(st.bytes, sizeof(int32_t));
          EXPECT_EQ(st.tag, 7u);
        }
      } else {
        const int32_t v = r * 10;
        comm.send(0, 7, &v, sizeof(v));
      }

      // ---- any-source, post-before-arrival (expected-queue path) ----
      if (r == 0) {
        int32_t v = -1;
        Request rq;
        comm.irecv(rq, Comm::kAnySource, 8, &v, sizeof(v));
        comm.barrier();  // guarantees the wildcard is posted first
        comm.wait(rq);
        EXPECT_EQ(v, 4242);
      } else {
        comm.barrier();
        if (r == n - 1) {
          const int32_t v = 4242;
          comm.send(0, 8, &v, sizeof(v));
        }
      }

      // ---- bcast (tree rooted at rank 0), roots 0 and N-1 ----
      comm.barrier();
      for (const int root : {0, n - 1}) {
        std::vector<int64_t> data(48);
        if (r == root) std::iota(data.begin(), data.end(), root * 100);
        comm.bcast(data.data(), data.size() * sizeof(int64_t), root);
        std::vector<int64_t> expect(48);
        std::iota(expect.begin(), expect.end(), root * 100);
        EXPECT_EQ(data, expect);
      }

      // ---- bcast, rendezvous-sized payload (32 KB > eager threshold) ----
      {
        std::vector<uint8_t> big(1u << 15);
        if (r == 0) {
          for (std::size_t i = 0; i < big.size(); ++i) {
            big[i] = static_cast<uint8_t>(i * 7);
          }
        }
        comm.bcast(big.data(), big.size(), 0);
        bool ok = true;
        for (std::size_t i = 0; i < big.size(); ++i) {
          ok = ok && big[i] == static_cast<uint8_t>(i * 7);
        }
        EXPECT_TRUE(ok) << "rendezvous bcast corrupted payload";
      }

      // ---- allreduce (reduce up the tree, result back down) ----
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

        double mn[2] = {static_cast<double>(r), static_cast<double>(n - r)};
        comm.allreduce(mn, 2, ReduceOp::kMin);
        EXPECT_DOUBLE_EQ(mn[0], 0.0);
        EXPECT_DOUBLE_EQ(mn[1], 1.0);
      }

      // ---- allreduce with a count that doesn't divide N ----
      {
        std::vector<int32_t> v(static_cast<std::size_t>(n) + 1);
        for (std::size_t i = 0; i < v.size(); ++i) {
          v[i] = r + static_cast<int32_t>(i);
        }
        comm.allreduce(v.data(), v.size(), ReduceOp::kSum);
        const int32_t rank_sum = n * (n - 1) / 2;
        for (std::size_t i = 0; i < v.size(); ++i) {
          EXPECT_EQ(v[i], rank_sum + n * static_cast<int32_t>(i));
        }
      }

      // ---- gather + scatter round trip through root 1 ----
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
        comm.scatter(r == root ? all.data() : nullptr, sizeof(int32_t), &back,
                     root);
        EXPECT_EQ(back, 1100 + r);
      }

      // ---- alltoall: value encodes (sender, receiver) ----
      {
        std::vector<int32_t> src(static_cast<std::size_t>(n));
        std::vector<int32_t> dst(static_cast<std::size_t>(n), -1);
        for (int d = 0; d < n; ++d) {
          src[static_cast<std::size_t>(d)] = r * 100 + d;
        }
        comm.alltoall(src.data(), sizeof(int32_t), dst.data());
        for (int s = 0; s < n; ++s) {
          EXPECT_EQ(dst[static_cast<std::size_t>(s)], s * 100 + r);
        }
      }

      comm.barrier();
    });
  }
  for (auto& t : ranks) t.join();
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSizes, NRankAllEngines,
    ::testing::Combine(::testing::Values(EngineKind::kPioman,
                                         EngineKind::kMvapichLike,
                                         EngineKind::kOpenMpiLike),
                       ::testing::Values(2, 3, 4, 8),
                       ::testing::Values(MeshKind::kSimnet, MeshKind::kMixed)),
    [](const auto& info) {
      return engine_tag(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == MeshKind::kMixed ? "_mixed" : "");
    });

TEST(NRank, AnySourcePreservesPerSourceOrder) {
  // Three senders blast numbered messages at rank 0's wildcard receives:
  // interleaving across sources is arbitrary, but each source's stream
  // must arrive in order (per-gate FIFO matching).
  constexpr int kPerSender = 12;
  World world(nrank_config(EngineKind::kPioman, 4));
  std::vector<std::thread> senders;
  for (int s = 1; s < 4; ++s) {
    senders.emplace_back([&world, s] {
      for (int i = 0; i < kPerSender; ++i) {
        const int32_t v = s * 1000 + i;
        world.comm(s).send(0, 3, &v, sizeof(v));
      }
    });
  }
  std::vector<int> next(4, 0);
  for (int i = 0; i < 3 * kPerSender; ++i) {
    int32_t v = -1;
    const Status st =
        world.comm(0).recv_status(Comm::kAnySource, 3, &v, sizeof(v));
    ASSERT_GE(st.source, 1);
    ASSERT_LT(st.source, 4);
    EXPECT_EQ(v, st.source * 1000 + next[static_cast<std::size_t>(st.source)]);
    ++next[static_cast<std::size_t>(st.source)];
  }
  for (int s = 1; s < 4; ++s) {
    EXPECT_EQ(next[static_cast<std::size_t>(s)], kPerSender);
  }
  for (auto& t : senders) t.join();
}

TEST(NRank, AnySourceOrderHoldsOverMixedBackends) {
  // Same per-source FIFO property, but rank 0's three senders arrive over
  // different transports: rank 1 shares rank 0's chip (shmem pair), ranks
  // 2 and 3 sit on the other chip (simnet pairs). Wildcard matching must
  // not care which backend delivered the arrival.
  constexpr int kPerSender = 12;
  WorldConfig cfg = nrank_config(EngineKind::kPioman, 4);
  cfg.policy.node_of = {0, 0, 1, 1};
  World world(cfg);
  ASSERT_EQ(world.comm(0).gate_to(1).rail_channel(0).backend(),
            transport::Backend::kShmem);
  ASSERT_EQ(world.comm(0).gate_to(2).rail_channel(0).backend(),
            transport::Backend::kSimnet);
  std::vector<std::thread> senders;
  for (int s = 1; s < 4; ++s) {
    senders.emplace_back([&world, s] {
      for (int i = 0; i < kPerSender; ++i) {
        const int32_t v = s * 1000 + i;
        world.comm(s).send(0, 3, &v, sizeof(v));
      }
    });
  }
  std::vector<int> next(4, 0);
  for (int i = 0; i < 3 * kPerSender; ++i) {
    int32_t v = -1;
    const Status st =
        world.comm(0).recv_status(Comm::kAnySource, 3, &v, sizeof(v));
    ASSERT_GE(st.source, 1);
    ASSERT_LT(st.source, 4);
    EXPECT_EQ(v, st.source * 1000 + next[static_cast<std::size_t>(st.source)]);
    ++next[static_cast<std::size_t>(st.source)];
  }
  for (int s = 1; s < 4; ++s) {
    EXPECT_EQ(next[static_cast<std::size_t>(s)], kPerSender);
  }
  for (auto& t : senders) t.join();
}

TEST(NRank, AnySourceRegistrationVsClaimRace) {
  // Regression stress for the wildcard registration race: while rank 0 is
  // still walking the gate list registering an any-source receive, an
  // arrival at an earlier-registered gate may claim the request and run
  // the sibling purge past a gate that has not inserted yet. The matcher
  // must never leave a stale registration behind (it would dangle once the
  // request completes and its storage is reused next iteration). Seven
  // senders blasting a tight wildcard-recv loop over eight gates keeps the
  // registration window busy; ASan/TSan catch the stale-node dereference.
  constexpr int kPerSender = 64;
  constexpr int kRanks = 8;
  World world(nrank_config(EngineKind::kPioman, kRanks));
  std::vector<std::thread> senders;
  for (int s = 1; s < kRanks; ++s) {
    senders.emplace_back([&world, s] {
      for (int i = 0; i < kPerSender; ++i) {
        const int32_t v = s * 1000 + i;
        world.comm(s).send(0, 6, &v, sizeof(v));
      }
    });
  }
  std::vector<int> next(kRanks, 0);
  for (int i = 0; i < (kRanks - 1) * kPerSender; ++i) {
    int32_t v = -1;
    const Status st =
        world.comm(0).recv_status(Comm::kAnySource, 6, &v, sizeof(v));
    ASSERT_GE(st.source, 1);
    ASSERT_LT(st.source, kRanks);
    EXPECT_EQ(v, st.source * 1000 + next[static_cast<std::size_t>(st.source)]);
    ++next[static_cast<std::size_t>(st.source)];
  }
  for (int s = 1; s < kRanks; ++s) {
    EXPECT_EQ(next[static_cast<std::size_t>(s)], kPerSender);
  }
  for (auto& t : senders) t.join();
}

TEST(NRank, ZeroAndOneByteMessagesCrossBothBackends) {
  // Striping/eager edge sizes end to end: 0-byte and 1-byte payloads over
  // a shmem pair (0-1) and a simnet pair (0-2) of the same mixed world.
  WorldConfig cfg = nrank_config(EngineKind::kMvapichLike, 4);
  cfg.policy.node_of = {0, 0, 1, 1};
  World world(cfg);
  for (const int peer : {1, 2}) {
    std::thread echo([&world, peer] {
      char tiny = 0;
      world.comm(peer).recv(0, 50, nullptr, 0);  // zero-byte receive
      world.comm(peer).recv(0, 51, &tiny, 1);
      world.comm(peer).send(0, 52, &tiny, 1);
    });
    const char one = 'b' + static_cast<char>(peer);
    world.comm(0).send(peer, 50, nullptr, 0);
    world.comm(0).send(peer, 51, &one, 1);
    char back = 0;
    world.comm(0).recv(peer, 52, &back, 1);
    EXPECT_EQ(back, one);
    echo.join();
  }
}

TEST(NRank, MixedWildcardAndDirectedReceives) {
  // A directed recv and an any-source recv coexist: the directed one must
  // only take its own peer's message.
  World world(nrank_config(EngineKind::kMvapichLike, 3));
  std::thread r1([&world] {
    const int32_t v = 111;
    world.comm(1).send(0, 5, &v, sizeof(v));
  });
  std::thread r2([&world] {
    const int32_t v = 222;
    world.comm(2).send(0, 5, &v, sizeof(v));
  });
  int32_t directed = -1;
  world.comm(0).recv(2, 5, &directed, sizeof(directed));
  EXPECT_EQ(directed, 222);
  int32_t wild = -1;
  const Status st =
      world.comm(0).recv_status(Comm::kAnySource, 5, &wild, sizeof(wild));
  EXPECT_EQ(wild, 111);
  EXPECT_EQ(st.source, 1);
  r1.join();
  r2.join();
}

TEST(NRank, MultirailMeshTransfersCorrectly) {
  WorldConfig cfg = nrank_config(EngineKind::kPioman, 3);
  cfg.rails = 2;
  World world(cfg);
  // 32 min stripe chunks: each rail's half is far above the minimum.
  std::vector<uint8_t> data(32 * nmad::kStripeMinChunk);
  std::iota(data.begin(), data.end(), 0);
  std::vector<uint8_t> out(data.size(), 0);
  std::thread receiver(
      [&] { world.comm(2).recv(0, 2, out.data(), out.size()); });
  world.comm(0).send(2, 2, data.data(), data.size());
  receiver.join();
  EXPECT_EQ(out, data);
}

TEST(NRank, RejectsBadConfigAndPeers) {
  WorldConfig cfg;
  cfg.nranks = 1;
  EXPECT_THROW(World{cfg}, std::invalid_argument);
  cfg.nranks = 0;
  EXPECT_THROW(World{cfg}, std::invalid_argument);

  World world(nrank_config(EngineKind::kMvapichLike, 3));
  EXPECT_THROW((void)world.comm(3), std::out_of_range);
  EXPECT_THROW((void)world.comm(-1), std::out_of_range);
  Request r;
  char b = 0;
  EXPECT_THROW(world.comm(0).isend(r, 0, 1, &b, 1), std::invalid_argument);
  EXPECT_THROW(world.comm(0).isend(r, 3, 1, &b, 1), std::invalid_argument);
  EXPECT_THROW(world.comm(0).irecv(r, 3, 1, &b, 1), std::invalid_argument);
  EXPECT_THROW(world.comm(2).bcast(&b, 1, 3), std::invalid_argument);
  EXPECT_THROW(world.comm(2).gather(&b, 1, nullptr, -1),
               std::invalid_argument);
  EXPECT_THROW(world.comm(2).scatter(nullptr, 1, &b, 7),
               std::invalid_argument);
  EXPECT_THROW((void)world.comm(0).gate_to(0), std::invalid_argument);
  EXPECT_EQ(world.comm(0).gate_to(2).peer_rank(), 2);
}

}  // namespace
}  // namespace piom::mpi
