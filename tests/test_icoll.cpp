// Nonblocking collectives (CollOp state machines): the engine × N ×
// transport-backend matrix with several collectives in flight at once and
// test()-polled completion, plus the two safety properties that make
// overlap legal in the first place:
//   * tag-epoch regression — back-to-back same-kind collectives must not
//     cross-match rounds (two ibcasts from different roots, with the first
//     root slow: without the per-Comm epoch in the reserved tags, the
//     second root's fan-out lands in the first ibcast's posted receive);
//   * wildcard guard — a kAnySource/kAnyTag receive posted while
//     collectives run must never claim reserved-tag (collective) packets.
// A wire-count check pins the tree bcast's non-zero-root path: the root
// hands its payload to rank 0 and gets nothing back on that edge.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "mpi/world.hpp"

namespace piom::mpi {
namespace {

/// Transport flavor the whole mesh is forced onto.
enum class MeshKind {
  kSimnet,  ///< every pair over the NIC model (or $PIOM_TRANSPORT)
  kShmem,   ///< every pair on one node: pure shmem rings
  kHybrid,  ///< every pair on one node: shmem rail 0 + NIC rail
};

WorldConfig icoll_config(EngineKind kind, int nranks,
                         MeshKind mesh = MeshKind::kSimnet) {
  WorldConfig cfg;
  cfg.engine = kind;
  cfg.nranks = nranks;
  cfg.time_scale = 0.05;               // 20x faster network: keep tests snappy
  cfg.session.pool_bufs_per_rail = 8;  // full mesh: bound the pool memory
  cfg.pioman.workers = 1;              // one simulated core per rank
  if (mesh != MeshKind::kSimnet) {
    cfg.policy.node_of.assign(static_cast<std::size_t>(nranks), 0);
    cfg.policy.intra = mesh == MeshKind::kShmem
                           ? transport::PairWiring::kShmem
                           : transport::PairWiring::kHybrid;
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
class ICollAllEngines : public ::testing::TestWithParam<Param> {};

// The acceptance surface: every rank starts all six i…() collectives (two
// allreduces — so two of the same kind are in flight together), keeps them
// ALL in flight at once, completes one by test()-polling and the rest by
// wait(), in an order different from the start order.
TEST_P(ICollAllEngines, ConcurrentCollectivesCompleteViaTestAndWait) {
  const auto [kind, n, mesh] = GetParam();
  World world(icoll_config(kind, n, mesh));
  std::vector<std::thread> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.emplace_back([&world, r, n = n] {
      Comm& comm = world.comm(r);

      std::vector<int64_t> red(5);
      for (std::size_t i = 0; i < red.size(); ++i) {
        red[i] = r + static_cast<int64_t>(i);
      }
      std::vector<double> red2{static_cast<double>(r), 1.0};
      std::vector<int32_t> bc(17);
      if (r == 0) std::iota(bc.begin(), bc.end(), 300);
      const int32_t mine = 100 + r;
      std::vector<int32_t> gathered(r == 1 ? static_cast<std::size_t>(n) : 0);
      std::vector<int32_t> scat_src(static_cast<std::size_t>(n));
      if (r == 0) std::iota(scat_src.begin(), scat_src.end(), 1000);
      int32_t scat_got = -1;
      std::vector<int32_t> a2a_src(static_cast<std::size_t>(n));
      std::vector<int32_t> a2a_dst(static_cast<std::size_t>(n), -1);
      for (int d = 0; d < n; ++d) {
        a2a_src[static_cast<std::size_t>(d)] = r * 100 + d;
      }

      // Start everything before completing anything: 7 in flight.
      CollRequest bar, ar1, ar2, bcr, gat, sct, a2a;
      comm.ibarrier(bar);
      comm.iallreduce(ar1, red.data(), red.size(), ReduceOp::kSum);
      comm.iallreduce(ar2, red2.data(), red2.size(), ReduceOp::kMax);
      comm.ibcast(bcr, bc.data(), bc.size() * sizeof(int32_t), 0);
      comm.igather(gat, &mine, sizeof(mine),
                   r == 1 ? gathered.data() : nullptr, 1);
      comm.iscatter(sct, r == 0 ? scat_src.data() : nullptr, sizeof(int32_t),
                    &scat_got, 0);
      comm.ialltoall(a2a, a2a_src.data(), sizeof(int32_t), a2a_dst.data());
      EXPECT_TRUE(bar.active());
      EXPECT_TRUE(a2a.active());

      // Complete out of start order; ar2 by pure test()-polling.
      comm.wait(a2a);
      comm.wait(sct);
      while (!comm.test(ar2)) std::this_thread::yield();
      comm.wait(gat);
      comm.wait(bcr);
      comm.wait(ar1);
      comm.wait(bar);
      EXPECT_TRUE(ar2.done());

      // ---- results ----
      const int64_t rank_sum = n * (n - 1) / 2;
      for (std::size_t i = 0; i < red.size(); ++i) {
        EXPECT_EQ(red[i], rank_sum + n * static_cast<int64_t>(i));
      }
      EXPECT_DOUBLE_EQ(red2[0], n - 1);
      EXPECT_DOUBLE_EQ(red2[1], 1.0);
      for (std::size_t i = 0; i < bc.size(); ++i) {
        EXPECT_EQ(bc[i], 300 + static_cast<int32_t>(i));
      }
      if (r == 1) {
        for (int p = 0; p < n; ++p) {
          EXPECT_EQ(gathered[static_cast<std::size_t>(p)], 100 + p);
        }
      }
      EXPECT_EQ(scat_got, 1000 + r);
      for (int s = 0; s < n; ++s) {
        EXPECT_EQ(a2a_dst[static_cast<std::size_t>(s)], s * 100 + r);
      }
    });
  }
  for (auto& t : ranks) t.join();
}

// A CollRequest may be reused once completed, and a rendezvous-sized
// payload works through the state machine (RTS/RDMA-Read rounds).
TEST_P(ICollAllEngines, RequestReuseAndRendezvousPayload) {
  const auto [kind, n, mesh] = GetParam();
  if (n > 4) GTEST_SKIP() << "payload test capped at N=4 for runtime";
  World world(icoll_config(kind, n, mesh));
  std::vector<std::thread> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.emplace_back([&world, r, n = n] {
      Comm& comm = world.comm(r);
      CollRequest req;  // reused for every collective below
      std::vector<uint8_t> big(1u << 15);  // 32 KB > eager threshold
      for (const int root : {0, n - 1}) {
        if (r == root) {
          for (std::size_t i = 0; i < big.size(); ++i) {
            big[i] = static_cast<uint8_t>(i * 7 + root);
          }
        }
        comm.ibcast(req, big.data(), big.size(), root);
        comm.wait(req);
        bool ok = true;
        for (std::size_t i = 0; i < big.size(); ++i) {
          ok = ok && big[i] == static_cast<uint8_t>(i * 7 + root);
        }
        EXPECT_TRUE(ok) << "rendezvous ibcast corrupted payload";
        comm.ibarrier(req);
        comm.wait(req);
      }
    });
  }
  for (auto& t : ranks) t.join();
}

INSTANTIATE_TEST_SUITE_P(
    EnginesSizesMeshes, ICollAllEngines,
    ::testing::Combine(::testing::Values(EngineKind::kPioman,
                                         EngineKind::kMvapichLike,
                                         EngineKind::kOpenMpiLike),
                       ::testing::Values(2, 3, 4, 8),
                       ::testing::Values(MeshKind::kSimnet, MeshKind::kShmem,
                                         MeshKind::kHybrid)),
    [](const auto& info) {
      const char* mesh = "";
      switch (std::get<2>(info.param)) {
        case MeshKind::kSimnet: mesh = ""; break;
        case MeshKind::kShmem: mesh = "_shmem"; break;
        case MeshKind::kHybrid: mesh = "_hybrid"; break;
      }
      return engine_tag(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + mesh;
    });

// ---- tag-epoch regression --------------------------------------------------
//
// Two back-to-back ibcasts of the same kind but different roots, N=4,
// fanout 4 (rank 0's children are 1, 2 and 3): bcast A is rooted at the
// slow rank 3, bcast B at rank 0. Rank 0 cannot flood A before rank 3's
// handoff lands, but, as root of B, floods B at once — so B's payload
// reaches ranks 1 and 2 FIRST, while each has both receives from rank 0
// posted in order A, B. With epoch-less collective tags both floods carry
// the same tag and FIFO matching hands B's payload to A's receive
// (verified: masking the epoch out of make_coll_tag makes this fail). The
// per-Comm epoch keeps the tags distinct, so B's early arrival waits
// unexpected until B's own receive claims it.
TEST(ICollTagEpoch, BackToBackSameKindDoNotCrossMatch) {
  constexpr int kN = 4;
  for (const EngineKind kind :
       {EngineKind::kMvapichLike, EngineKind::kPioman}) {
    WorldConfig cfg = icoll_config(kind, kN);
    cfg.overlay.fanout = 4;
    World world(cfg);
    std::vector<std::thread> ranks;
    for (int r = 0; r < kN; ++r) {
      ranks.emplace_back([&world, r] {
        Comm& comm = world.comm(r);
        std::vector<int32_t> a(8), b(8);
        if (r == 3) std::iota(a.begin(), a.end(), 111);  // bcast A payload
        if (r == 0) std::iota(b.begin(), b.end(), 222);  // bcast B payload
        if (r == 3) {
          // The slow rank: hold A's handoff back until B (started after A
          // everywhere) has certainly reached ranks 1 and 2.
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        CollRequest ra, rb;
        comm.ibcast(ra, a.data(), a.size() * sizeof(int32_t), 3);
        comm.ibcast(rb, b.data(), b.size() * sizeof(int32_t), 0);
        comm.wait(ra);
        comm.wait(rb);
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i], 111 + static_cast<int32_t>(i))
              << "rank " << r << ": bcast A delivered foreign payload";
          EXPECT_EQ(b[i], 222 + static_cast<int32_t>(i))
              << "rank " << r << ": bcast B delivered foreign payload";
        }
      });
    }
    for (auto& t : ranks) t.join();
  }
}

// Many same-kind collectives in flight at once (deep epoch pipeline):
// results must match as if they ran one by one.
TEST(ICollTagEpoch, DeepPipelineOfSameKindCollectives) {
  constexpr int kN = 3;  // rank 0 folds two children's partials per round
  constexpr int kDepth = 8;
  World world(icoll_config(EngineKind::kPioman, kN));
  std::vector<std::thread> ranks;
  for (int r = 0; r < kN; ++r) {
    ranks.emplace_back([&world, r] {
      Comm& comm = world.comm(r);
      std::vector<std::vector<int64_t>> data(kDepth);
      std::vector<CollRequest> reqs(kDepth);
      for (int d = 0; d < kDepth; ++d) {
        data[static_cast<std::size_t>(d)] = {r + d, r * d, 7 - r + d};
        auto& v = data[static_cast<std::size_t>(d)];
        comm.iallreduce(reqs[static_cast<std::size_t>(d)], v.data(), v.size(),
                        ReduceOp::kSum);
      }
      for (int d = kDepth - 1; d >= 0; --d) {  // complete newest-first
        comm.wait(reqs[static_cast<std::size_t>(d)]);
      }
      for (int d = 0; d < kDepth; ++d) {
        int64_t s0 = 0, s1 = 0, s2 = 0;
        for (int i = 0; i < kN; ++i) {
          s0 += i + d;
          s1 += i * d;
          s2 += 7 - i + d;
        }
        const auto& v = data[static_cast<std::size_t>(d)];
        EXPECT_EQ(v[0], s0) << "depth " << d;
        EXPECT_EQ(v[1], s1) << "depth " << d;
        EXPECT_EQ(v[2], s2) << "depth " << d;
      }
    });
  }
  for (auto& t : ranks) t.join();
}

// ---- non-zero bcast root ---------------------------------------------------
//
// The bcast tree is rooted at rank 0, so a bcast from rank 2 hands the
// payload to rank 0 first. The root already holds the payload: rank 0 must
// not send it back down the 0→2 edge, which would cost a message and hold
// the root's completion for a round trip through rank 0. Counted on rank
// 2's gate to rank 0, between two quiescent points (all threads joined),
// in both overlays.
TEST(ICollBcastRoot, NonZeroRootReceivesNoEcho) {
  constexpr int kN = 4;
  constexpr int kRoot = 2;
  for (const auto& [kind, overlay] :
       {std::pair{EngineKind::kMvapichLike, OverlayMode::kDense},
        std::pair{EngineKind::kMvapichLike, OverlayMode::kSparse},
        std::pair{EngineKind::kPioman, OverlayMode::kSparse}}) {
    WorldConfig cfg = icoll_config(kind, kN);
    cfg.overlay.mode = overlay;
    cfg.overlay.fanout = 4;  // rank 0's children: 1, 2, 3
    World world(cfg);
    const auto run_all = [&world](auto&& body) {
      std::vector<std::thread> ranks;
      for (int r = 0; r < kN; ++r) {
        ranks.emplace_back([&world, &body, r] { body(world.comm(r), r); });
      }
      for (auto& t : ranks) t.join();
    };
    const auto arrivals = [](const nmad::Gate& g) {
      const nmad::GateStats s = g.stats();
      return s.eager_recv + s.rdv_recv;
    };
    run_all([](Comm& comm, int) { comm.barrier(); });  // wires 0<->2
    const uint64_t at_root = arrivals(world.comm(kRoot).gate_to(0));
    const uint64_t at_zero = arrivals(world.comm(0).gate_to(kRoot));
    run_all([](Comm& comm, int r) {
      std::vector<int32_t> v(16);
      if (r == kRoot) std::iota(v.begin(), v.end(), 700);
      comm.bcast(v.data(), v.size() * sizeof(int32_t), kRoot);
      for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_EQ(v[i], 700 + static_cast<int32_t>(i)) << "rank " << r;
      }
    });
    const std::string where =
        engine_tag(kind) + "/" + overlay_mode_name(overlay);
    EXPECT_EQ(arrivals(world.comm(kRoot).gate_to(0)), at_root)
        << where << ": the bcast echoed the payload to its root";
    EXPECT_EQ(arrivals(world.comm(0).gate_to(kRoot)), at_zero + 1)
        << where << ": the root's handoff to rank 0 went missing";
  }
}

// ---- wildcard guard --------------------------------------------------------
//
// A kAnySource + kAnyTag receive posted BEFORE collectives run sits first
// in every gate's expected queue; without the reserved-space guard in the
// nmad matcher it would claim the first collective packet to arrive
// (hanging the collective and corrupting the wildcard). With the guard it
// must sit out the collectives and catch only the application message.
TEST(ICollWildcardGuard, AnySourceNeverClaimsCollectivePackets) {
  constexpr int kN = 4;
  for (const EngineKind kind :
       {EngineKind::kMvapichLike, EngineKind::kOpenMpiLike,
        EngineKind::kPioman}) {
    World world(icoll_config(kind, kN));
    std::vector<std::thread> ranks;
    for (int r = 0; r < kN; ++r) {
      ranks.emplace_back([&world, r] {
        Comm& comm = world.comm(r);
        Request wild;
        int32_t wild_val = -1;
        if (r == 0) {
          comm.irecv(wild, Comm::kAnySource, Comm::kAnyTag, &wild_val,
                     sizeof(wild_val));
        }
        // Reserved-tag traffic into rank 0 from every direction.
        comm.barrier();
        int64_t sum = r;
        comm.allreduce(&sum, 1, ReduceOp::kSum);
        EXPECT_EQ(sum, kN * (kN - 1) / 2);
        std::vector<int32_t> bc{9, 8, 7};
        comm.bcast(bc.data(), bc.size() * sizeof(int32_t), 0);
        if (r == 2) {
          const int32_t v = 4321;  // the one application message
          comm.send(0, 6, &v, sizeof(v));
        }
        if (r == 0) {
          comm.wait(wild);
          EXPECT_EQ(wild_val, 4321);
          EXPECT_EQ(wild.recv_req().source, 2);
          EXPECT_EQ(wild.recv_req().matched_tag, 6u);
        }
        comm.barrier();
      });
    }
    for (auto& t : ranks) t.join();
  }
}

// The reserved space is enforced at the API boundary: application sends
// and receives may not name reserved tags (they would collide with the
// epoch-stamped collective traffic); kAnyTag stays legal on receives.
TEST(ICollWildcardGuard, ApplicationTrafficRejectsReservedTags) {
  World world(icoll_config(EngineKind::kMvapichLike, 2));
  Comm& comm = world.comm(0);
  Request req;
  char b = 0;
  EXPECT_THROW(comm.isend(req, 1, Comm::kReservedTagBase, &b, 1),
               std::invalid_argument);
  EXPECT_THROW(comm.isend(req, 1, Comm::kReservedTagBase + 0x12345u, &b, 1),
               std::invalid_argument);
  EXPECT_THROW(comm.isend(req, 1, Comm::kAnyTag, &b, 1),
               std::invalid_argument);  // never valid on the send side
  EXPECT_THROW(comm.irecv(req, 1, Comm::kReservedTagBase + 7, &b, 1),
               std::invalid_argument);
  EXPECT_THROW(comm.irecv(req, Comm::kAnySource, Comm::kReservedTagBase, &b, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(comm.irecv(req, Comm::kAnySource, Comm::kAnyTag, &b, 1));
  // Drain the one legally posted wildcard so teardown is clean.
  std::thread sender([&world] {
    const char v = 'x';
    world.comm(1).send(0, 1, &v, 1);
  });
  comm.wait(req);
  EXPECT_EQ(b, 'x');
  sender.join();
}

// Same property on the directed-receive path: a kAnyTag receive aimed at a
// specific peer must skip that peer's collective packets too.
TEST(ICollWildcardGuard, DirectedAnyTagSkipsCollectivePackets) {
  constexpr int kN = 2;
  World world(icoll_config(EngineKind::kMvapichLike, kN));
  std::thread r1([&world] {
    Comm& comm = world.comm(1);
    comm.barrier();
    const int32_t v = 77;
    comm.send(0, 5, &v, sizeof(v));
    comm.barrier();
  });
  Comm& comm = world.comm(0);
  Request any;
  int32_t got = -1;
  comm.irecv(any, 1, Comm::kAnyTag, &got, sizeof(got));
  comm.barrier();  // rank 1's barrier tokens must not land in `any`
  comm.wait(any);
  EXPECT_EQ(got, 77);
  EXPECT_EQ(any.recv_req().matched_tag, 5u);
  comm.barrier();
  r1.join();
}

}  // namespace
}  // namespace piom::mpi
