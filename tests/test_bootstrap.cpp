// Bootstrap + LocalRank tests: the multi-process wiring path, exercised
// in-process with one thread per "rank" (each thread owns a full
// Bootstrap → TcpTransport → LocalRank stack, exactly what one OS process
// owns under tools/piom_launch — only the address space is shared).
// Request::status() coverage rides along: it must be valid after
// completion on all three progress engines, in both World shapes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mpi/world.hpp"
#include "transport/bootstrap.hpp"
#include "transport/endpoint.hpp"
#include "transport/socket.hpp"

namespace piom {
namespace {

using transport::Bootstrap;
using transport::Endpoint;

/// Run `fn(rank, bootstrap)` on nranks threads wired by one rendezvous.
template <typename Fn>
void with_bootstrapped_ranks(int nranks, const Endpoint& root_addr, Fn fn) {
  std::vector<std::thread> threads;
  for (int rank = 0; rank < nranks; ++rank) {
    threads.emplace_back([&, rank] {
      Bootstrap bs = rank == 0 ? Bootstrap::root(nranks, root_addr)
                               : Bootstrap::join(rank, root_addr);
      fn(rank, std::move(bs));
    });
  }
  for (auto& t : threads) t.join();
}

/// Raw channel traffic ring: send my rank to rank+1, recv from rank-1.
void expect_raw_ring(int rank, Bootstrap& bs) {
  const int n = bs.nranks();
  const int right = (rank + 1) % n;
  const int left = (rank + n - 1) % n;
  int32_t tx = rank, rx = -1;
  transport::IChannel* to = bs.channels()[static_cast<std::size_t>(right)];
  transport::IChannel* from = bs.channels()[static_cast<std::size_t>(left)];
  from->post_recv(&rx, sizeof(rx), 1);
  to->post_send(&tx, sizeof(tx), 2);
  transport::Completion c{};
  while (!from->poll_rx(c)) {
  }
  EXPECT_EQ(rx, left);
  to->quiesce();
}

TEST(Bootstrap, WiresAFullMeshOverUnixSockets) {
  const Endpoint root_addr = Endpoint::uds("/tmp/piom-test-bs-mesh.sock");
  with_bootstrapped_ranks(3, root_addr, [](int rank, Bootstrap bs) {
    EXPECT_EQ(bs.rank(), rank);
    EXPECT_EQ(bs.nranks(), 3);
    ASSERT_EQ(bs.table().size(), 3u);
    ASSERT_EQ(bs.channels().size(), 3u);
    for (int peer = 0; peer < 3; ++peer) {
      if (peer == rank) {
        EXPECT_EQ(bs.channels()[static_cast<std::size_t>(peer)], nullptr);
      } else {
        ASSERT_NE(bs.channels()[static_cast<std::size_t>(peer)], nullptr);
        EXPECT_TRUE(
            bs.channels()[static_cast<std::size_t>(peer)]->connected());
      }
    }
    expect_raw_ring(rank, bs);
  });
}

TEST(Bootstrap, StrayConnectionsDoNotBreakTheRendezvous) {
  // Hello bytes come from outside the process: a connection that sends
  // junk, or hangs up before its hello, is dropped, and the root keeps
  // accepting the real joiners.
  namespace sock = transport::sock;
  const Endpoint root_addr = Endpoint::uds("/tmp/piom-test-bs-stray.sock");
  constexpr int kRanks = 3;
  std::vector<std::thread> ranks;
  ranks.emplace_back([&] {
    Bootstrap bs = Bootstrap::root(kRanks, root_addr);
    expect_raw_ring(0, bs);
  });
  {
    // Both strays are queued on the root's listener ahead of any joiner.
    const int64_t deadline = sock::setup_deadline_ms();
    sock::Fd junk = sock::connect(root_addr, deadline);
    const std::array<uint8_t, 16> bytes = {0xab, 0xcd, 0xef, 0x01};
    sock::write_full(junk.get(), bytes.data(), bytes.size());
    sock::Fd silent = sock::connect(root_addr, deadline);
  }  // both close here
  for (int rank = 1; rank < kRanks; ++rank) {
    ranks.emplace_back([&, rank] {
      Bootstrap bs = Bootstrap::join(rank, root_addr);
      expect_raw_ring(rank, bs);
    });
  }
  for (auto& t : ranks) t.join();
}

TEST(Bootstrap, SilentConnectionDoesNotStallTheRendezvous) {
  // A connection that opens and then says nothing, and stays open, gets a
  // short hello deadline of its own; the joiners queued behind it must not
  // wait out the whole setup timeout.
  namespace sock = transport::sock;
  const Endpoint root_addr = Endpoint::uds("/tmp/piom-test-bs-silent.sock");
  constexpr int kRanks = 3;
  const int64_t t0 = sock::now_ms();
  std::vector<std::thread> ranks;
  ranks.emplace_back([&] {
    Bootstrap bs = Bootstrap::root(kRanks, root_addr);
    expect_raw_ring(0, bs);
  });
  // Queued on the root's listener ahead of any joiner, open until the end.
  sock::Fd silent = sock::connect(root_addr, sock::setup_deadline_ms());
  for (int rank = 1; rank < kRanks; ++rank) {
    ranks.emplace_back([&, rank] {
      Bootstrap bs = Bootstrap::join(rank, root_addr);
      expect_raw_ring(rank, bs);
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_LT(sock::now_ms() - t0, 5'000);
}

TEST(Bootstrap, WiresAFullMeshOverTcp) {
  // Fixed port: joiners must know the root's control address up front
  // (ephemeral ports only work for the *data* listeners, whose resolved
  // addresses travel through the rendezvous).
  const Endpoint root_addr = Endpoint::tcp("127.0.0.1", 47613);
  with_bootstrapped_ranks(2, root_addr, [](int rank, Bootstrap bs) {
    const int peer = 1 - rank;
    transport::IChannel* ch = bs.channels()[static_cast<std::size_t>(peer)];
    ASSERT_NE(ch, nullptr);
    char tx[8] = "tcp!", rx[8] = {};
    ch->post_recv(rx, sizeof(rx), 1);
    ch->post_send(tx, sizeof(tx), 2);
    transport::Completion c{};
    while (!ch->poll_rx(c)) {
    }
    EXPECT_STREQ(rx, "tcp!");
    ch->quiesce();
  });
}

TEST(Bootstrap, RejectsBogusEnvironment) {
  EXPECT_THROW((void)Bootstrap::root(1, Endpoint::uds("/tmp/piom-bs-1.sock")),
               std::invalid_argument);
  EXPECT_THROW(
      (void)Bootstrap::join(-1, Endpoint::uds("/tmp/piom-bs-neg.sock")),
      std::invalid_argument);
  // Socket schemes only: the rendezvous needs a real address.
  EXPECT_THROW((void)Bootstrap::root(2, Endpoint::parse("sim://")),
               std::invalid_argument);
}

// ------------------------------------------------- LocalRank over sockets

class LocalRankEngines
    : public ::testing::TestWithParam<mpi::EngineKind> {};

INSTANTIATE_TEST_SUITE_P(AllEngines, LocalRankEngines,
                         ::testing::Values(mpi::EngineKind::kPioman,
                                           mpi::EngineKind::kMvapichLike,
                                           mpi::EngineKind::kOpenMpiLike),
                         [](const auto& info) {
                           std::string n = mpi::engine_kind_name(info.param);
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST_P(LocalRankEngines, RingAndCollectivesOverBootstrappedMesh) {
  const std::string path = std::string("/tmp/piom-test-lr-") +
                           mpi::engine_kind_name(GetParam()) + ".sock";
  constexpr int kRanks = 3;
  mpi::RankConfig rc;
  rc.engine = GetParam();
  with_bootstrapped_ranks(
      kRanks, Endpoint::uds(path), [&](int rank, Bootstrap bs) {
        std::unique_ptr<mpi::LocalRank> lr =
            mpi::World::local(std::move(bs), rc);
        EXPECT_EQ(lr->rank(), rank);
        EXPECT_EQ(lr->nranks(), kRanks);
        EXPECT_NE(lr->bootstrap(), nullptr);
        mpi::Comm& comm = lr->comm();

        // Token ring with status checks on the recv side.
        const int right = (rank + 1) % kRanks;
        const int left = (rank + 2) % kRanks;
        int64_t token = rank * 100;
        comm.send(right, 5, &token, sizeof(token));
        int64_t got = -1;
        const mpi::Status st =
            comm.recv_status(left, 5, &got, sizeof(got));
        EXPECT_EQ(got, static_cast<int64_t>(left) * 100);
        EXPECT_EQ(st.tag, 5u);
        EXPECT_EQ(st.source, left);
        EXPECT_EQ(st.bytes, sizeof(token));
        EXPECT_FALSE(st.peer_failed);

        // Collectives cross the socket mesh too.
        int32_t sum = rank;
        comm.allreduce(&sum, 1, mpi::ReduceOp::kSum);
        EXPECT_EQ(sum, kRanks * (kRanks - 1) / 2);
        comm.barrier();
      });
}

// -------------------------------------------------------- Request::status

class StatusEngines : public ::testing::TestWithParam<mpi::EngineKind> {};

INSTANTIATE_TEST_SUITE_P(AllEngines, StatusEngines,
                         ::testing::Values(mpi::EngineKind::kPioman,
                                           mpi::EngineKind::kMvapichLike,
                                           mpi::EngineKind::kOpenMpiLike),
                         [](const auto& info) {
                           std::string n = mpi::engine_kind_name(info.param);
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST_P(StatusEngines, ValidAfterCompletionOnSendsAndRecvs) {
  mpi::WorldConfig cfg;
  cfg.nranks = 2;
  cfg.engine = GetParam();
  mpi::World world(cfg);
  std::thread peer([&] {
    const char msg[] = "status";
    world.comm(1).send(0, 21, msg, sizeof(msg));
    char rx[16] = {};
    world.comm(1).recv(0, 22, rx, sizeof(rx));
  });

  // Recv status: matched tag, source and byte count of the arrival.
  char rx[16] = {};
  mpi::Request rreq;
  world.comm(0).irecv(rreq, mpi::Comm::kAnySource, mpi::Comm::kAnyTag, rx,
                      sizeof(rx));
  world.comm(0).wait(rreq);
  const mpi::Status rst = rreq.status();
  EXPECT_EQ(rst.tag, 21u);
  EXPECT_EQ(rst.source, 1);
  EXPECT_EQ(rst.bytes, sizeof("status"));
  EXPECT_FALSE(rst.peer_failed);

  // Send status: echoes tag and payload length.
  mpi::Request sreq;
  world.comm(0).isend(sreq, 1, 22, "ok", 3);
  world.comm(0).wait(sreq);
  const mpi::Status sst = sreq.status();
  EXPECT_EQ(sst.tag, 22u);
  EXPECT_EQ(sst.bytes, 3u);
  EXPECT_FALSE(sst.peer_failed);
  peer.join();
}

}  // namespace
}  // namespace piom
