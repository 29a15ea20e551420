// Tests for the simulated fabric: RDMA-Read zero-host-CPU semantics, the
// timestamped wire and its cost model, drops, mesh wiring. The receive
// contract every backend shares (FIFO matching, staging, truncation) is
// tests/test_transport.cpp's channel conformance suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "simnet/fabric.hpp"
#include "transport/cluster.hpp"
#include "util/timing.hpp"

namespace piom::simnet {
namespace {

using transport::Completion;

/// Spin until a TX/RX completion shows up (bounded).
template <typename PollFn>
bool poll_until(PollFn&& poll, Completion& out, int64_t timeout_ns = 2'000'000'000) {
  const int64_t deadline = util::now_ns() + timeout_ns;
  while (util::now_ns() < deadline) {
    if (poll(out)) return true;
  }
  return false;
}

class SimnetTest : public ::testing::Test {
 protected:
  SimnetTest() : fabric_(0.05) {  // 20x faster than real time: quick tests
    auto [a, b] = fabric_.create_link("test");
    a_ = a;
    b_ = b;
  }
  Fabric fabric_;
  Nic* a_ = nullptr;
  Nic* b_ = nullptr;
};

TEST_F(SimnetTest, RdmaReadPullsRemoteMemoryWithoutHostCode) {
  // Host code on side A never runs anything after exposing the buffer: the
  // pull is executed by B's own poll_tx alone.
  std::vector<uint8_t> remote(256 * 1024);
  std::iota(remote.begin(), remote.end(), 0);
  std::vector<uint8_t> local(remote.size(), 0);
  b_->post_rdma_read(local.data(), remote.data(), remote.size(), 77);
  Completion c{};
  ASSERT_TRUE(poll_until([&](Completion& cc) { return b_->poll_tx(cc); }, c));
  EXPECT_EQ(c.kind, Completion::Kind::kRdmaRead);
  EXPECT_EQ(c.wrid, 77u);
  EXPECT_EQ(c.bytes, remote.size());
  EXPECT_EQ(local, remote);
  EXPECT_EQ(a_->stats().rdma_reads_served, 1u);
}

TEST_F(SimnetTest, StatsCountTraffic) {
  char buf[32] = {};
  b_->post_recv(buf, sizeof(buf), 1);
  a_->post_send("abc", 4, 2);
  Completion c{};
  ASSERT_TRUE(poll_until([&](Completion& cc) { return a_->poll_tx(cc); }, c));
  ASSERT_TRUE(poll_until([&](Completion& cc) { return b_->poll_rx(cc); }, c));
  EXPECT_EQ(a_->stats().packets_tx, 1u);
  EXPECT_EQ(a_->stats().bytes_tx, 4u);
  EXPECT_EQ(b_->stats().packets_rx, 1u);
  EXPECT_EQ(b_->stats().bytes_rx, 4u);
}

TEST_F(SimnetTest, UnconnectedNicRejectsPosts) {
  Nic& lonely = fabric_.create_nic("lonely");
  EXPECT_THROW(lonely.post_send("x", 1, 0), std::logic_error);
  char b = 0;
  EXPECT_THROW(lonely.post_rdma_read(&b, &b, 1, 0), std::logic_error);
}

TEST_F(SimnetTest, ConnectRejectsReuseAndSelf) {
  Nic& c = fabric_.create_nic("c");
  EXPECT_THROW(Fabric::connect(*a_, c), std::logic_error);
  EXPECT_THROW(Fabric::connect(c, c), std::invalid_argument);
}

TEST_F(SimnetTest, ConnectErrorPathsLeaveNicsUsable) {
  // A fresh NIC self-link must throw without corrupting the NIC: it stays
  // connectable afterwards. Re-connecting either side of an established
  // link throws, and a half-failed connect leaves no dangling peer.
  Nic& c = fabric_.create_nic("c");
  Nic& d = fabric_.create_nic("d");
  EXPECT_THROW(Fabric::connect(c, c), std::invalid_argument);
  EXPECT_EQ(c.peer(), nullptr);  // failed self-link left no wiring behind
  Fabric::connect(c, d);
  EXPECT_EQ(c.peer(), &d);
  EXPECT_EQ(d.peer(), &c);
  EXPECT_THROW(Fabric::connect(c, d), std::logic_error);  // double-connect
  Nic& e = fabric_.create_nic("e");
  EXPECT_THROW(Fabric::connect(e, d), std::logic_error);  // d already taken
  EXPECT_THROW(Fabric::connect(c, e), std::logic_error);  // c already taken
  EXPECT_EQ(e.peer(), nullptr);  // rejected connects left e untouched
}

TEST(SimnetMesh, FullMeshWiresEveryPairWithEveryRail) {
  transport::ClusterConfig cc;
  cc.time_scale = 0.05;
  transport::Cluster cluster(cc);
  constexpr int kNodes = 4, kRails = 2;
  cluster.init_lazy_mesh(kNodes, kRails);
  for (int i = 0; i < kNodes; ++i) {
    for (int j = 0; j < kNodes; ++j) {
      if (i != j) static_cast<void>(cluster.pair_rails(i, j));
    }
  }
  // nodes*(nodes-1)/2 pairs, kRails links each, two NICs per link.
  EXPECT_EQ(cluster.fabric().nic_count(),
            static_cast<std::size_t>(kNodes * (kNodes - 1) * kRails));
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_THROW(static_cast<void>(cluster.pair_rails(i, i)),
                 std::invalid_argument);  // no rail towards oneself
    for (int j = 0; j < kNodes; ++j) {
      if (i == j) continue;
      const auto& rails = cluster.pair_rails(i, j);
      ASSERT_EQ(rails.size(), static_cast<std::size_t>(kRails));
      for (std::size_t r = 0; r < rails.size(); ++r) {
        // Rail k of i->j is the back-to-back peer of rail k of j->i.
        EXPECT_EQ(rails[r]->peer(), cluster.pair_rails(j, i)[r]);
      }
    }
  }
}

TEST(SimnetMesh, MeshLinksCarryTraffic) {
  transport::ClusterConfig cc;
  cc.time_scale = 0.05;
  transport::Cluster cluster(cc);
  cluster.init_lazy_mesh(3, 1);
  // Push one message across every directed pair and check delivery.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i == j) continue;
      const uint8_t msg = static_cast<uint8_t>(0x40 + i * 3 + j);
      uint8_t rx = 0;
      transport::IChannel* dst = cluster.pair_rails(j, i)[0];
      dst->post_recv(&rx, 1, 1);
      cluster.pair_rails(i, j)[0]->post_send(&msg, 1, 2);
      Completion c{};
      ASSERT_TRUE(
          poll_until([&](Completion& out) { return dst->poll_rx(out); }, c));
      EXPECT_EQ(rx, msg);
    }
  }
}

TEST(SimnetMesh, RejectsDegenerateShapes) {
  transport::ClusterConfig cc;
  cc.time_scale = 0.05;
  transport::Cluster cluster(cc);
  EXPECT_THROW(cluster.init_lazy_mesh(1, 1), std::invalid_argument);
  EXPECT_THROW(cluster.init_lazy_mesh(0, 1), std::invalid_argument);
  EXPECT_THROW(cluster.init_lazy_mesh(2, 0), std::invalid_argument);
  // failed meshes create nothing
  EXPECT_EQ(cluster.lazy_nodes(), 0);
  EXPECT_EQ(cluster.fabric().nic_count(), 0u);
}

TEST(LinkModel, CostsScaleWithSize) {
  LinkModel m;  // 1.5us latency, 1.25 GB/s, 0.3us overhead
  EXPECT_EQ(m.occupancy_ns(0), 0);
  // 1.25 GB/s == 1.25 bytes/ns -> 1 MB takes 800k ns.
  EXPECT_NEAR(static_cast<double>(m.occupancy_ns(1 << 20)), 1048576 / 1.25, 2.0);
  EXPECT_EQ(m.transfer_ns(0), 1800);
  EXPECT_GT(m.transfer_ns(4096), m.transfer_ns(64));
  EXPECT_EQ(m.rtt_ns(), 2 * m.transfer_ns(0));
}

TEST(LinkModel, TransferTimeObservedOnWire) {
  // With time_scale=1 a 1 MB transfer at 1.25 GB/s must take >= ~0.8 ms.
  Fabric fabric(1.0);
  auto [a, b] = fabric.create_link("timed");
  std::vector<uint8_t> payload(1 << 20, 0xAB);
  std::vector<uint8_t> rx(payload.size());
  b->post_recv(rx.data(), rx.size(), 1);
  const int64_t t0 = util::now_ns();
  a->post_send(payload.data(), payload.size(), 2);
  Completion c{};
  const int64_t deadline = util::now_ns() + 3'000'000'000;
  while (!b->poll_rx(c) && util::now_ns() < deadline) {
  }
  const int64_t elapsed = util::now_ns() - t0;
  EXPECT_EQ(c.wrid, 1u);
  EXPECT_GE(elapsed, 800'000);  // >= 0.8 ms serialisation
  EXPECT_LT(elapsed, 100'000'000);
}


/// Parameterized sweep: payload integrity for both transfer mechanisms at
/// sizes spanning 1 B to 4 MB.
class SimnetSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimnetSizeSweep, SendDeliversExactBytes) {
  Fabric fabric(0.02);
  auto [a, b] = fabric.create_link("sweep");
  const std::size_t size = GetParam();
  std::vector<uint8_t> data(size);
  for (std::size_t i = 0; i < size; ++i) data[i] = static_cast<uint8_t>(i * 7);
  std::vector<uint8_t> out(size, 0);
  b->post_recv(out.data(), out.size(), 1);
  a->post_send(data.data(), data.size(), 2);
  Completion c{};
  ASSERT_TRUE(poll_until([&](Completion& cc) { return b->poll_rx(cc); }, c));
  EXPECT_EQ(c.bytes, size);
  EXPECT_EQ(out, data);
}

TEST_P(SimnetSizeSweep, RdmaReadDeliversExactBytes) {
  Fabric fabric(0.02);
  auto [a, b] = fabric.create_link("sweep");
  (void)a;
  const std::size_t size = GetParam();
  std::vector<uint8_t> remote(size);
  for (std::size_t i = 0; i < size; ++i) remote[i] = static_cast<uint8_t>(i);
  std::vector<uint8_t> local(size, 0);
  b->post_rdma_read(local.data(), remote.data(), size, 3);
  Completion c{};
  ASSERT_TRUE(poll_until([&](Completion& cc) { return b->poll_tx(cc); }, c));
  EXPECT_EQ(c.kind, Completion::Kind::kRdmaRead);
  EXPECT_EQ(c.bytes, size);
  EXPECT_EQ(local, remote);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SimnetSizeSweep,
    ::testing::Values(1u, 32u, 4096u, 65536u, 1u << 20, 4u << 20),
    [](const auto& info) { return "b" + std::to_string(info.param); });

TEST(SimnetConcurrency, ManyPostersOneNic) {
  // post_send/post_recv are documented thread-safe: hammer them.
  Fabric fabric(0.01);
  auto [a, b] = fabric.create_link("mt");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::array<char, 8>> rx(kThreads * kPerThread);
  for (std::size_t i = 0; i < rx.size(); ++i) {
    b->post_recv(rx[i].data(), 8, i);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      char payload[8];
      std::snprintf(payload, sizeof(payload), "t%d", t);
      for (int i = 0; i < kPerThread; ++i) {
        a->post_send(payload, 8, static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  a->quiesce();
  int rx_seen = 0;
  Completion c{};
  while (b->poll_rx(c)) ++rx_seen;
  EXPECT_EQ(rx_seen, kThreads * kPerThread);
  int tx_seen = 0;
  while (a->poll_tx(c)) ++tx_seen;
  EXPECT_EQ(tx_seen, kThreads * kPerThread);
}

TEST(SimnetWire, BackToBackSendsSerialiseOnTheLink) {
  // The wire carries one op at a time: the k-th of N sends posted at once
  // cannot complete before k full transfer times have passed.
  Fabric fabric(1.0);
  auto [a, b] = fabric.create_link("serial");
  constexpr int kSends = 16;
  std::vector<uint8_t> payload(16 * 1024, 0x5A);
  const int64_t transfer = a->link().transfer_ns(payload.size());
  const int64_t t0 = util::now_ns();
  for (int i = 0; i < kSends; ++i) {
    a->post_send(payload.data(), payload.size(), static_cast<uint64_t>(i));
  }
  for (int i = 0; i < kSends; ++i) {
    Completion c{};
    ASSERT_TRUE(poll_until([&](Completion& cc) { return a->poll_tx(cc); }, c));
    EXPECT_EQ(c.wrid, static_cast<uint64_t>(i));
    EXPECT_GE(util::now_ns() - t0, (i + 1) * transfer) << "send " << i;
  }
  EXPECT_EQ(b->stats().packets_rx, static_cast<uint64_t>(kSends));
}

TEST_F(SimnetTest, ReceiverPollingAloneDeliversFromSilentSender) {
  // Delivery needs no host on the sending side: B's poll_rx runs A's wire.
  const char msg[] = "pulled across";
  char rxbuf[32] = {};
  b_->post_recv(rxbuf, sizeof(rxbuf), 3);
  a_->post_send(msg, sizeof(msg), 4);
  Completion rx{};
  ASSERT_TRUE(poll_until([&](Completion& c) { return b_->poll_rx(c); }, rx));
  EXPECT_EQ(rx.wrid, 3u);
  EXPECT_STREQ(rxbuf, "pulled across");
  EXPECT_EQ(a_->stats().packets_tx, 1u);
  EXPECT_EQ(a_->tx_backlog(), 0u);  // executed, though A never polled
}

TEST(SimnetWire, ConcurrentPollersKeepFifoOrder) {
  // Pollers on both sides race to execute the same queue while a thread
  // keeps posting: arrivals must still fill the posted buffers in send
  // order, and each TX poller must see completions in post order.
  Fabric fabric(0.01);
  auto [a, b] = fabric.create_link("race");
  constexpr int kMsgs = 4000;
  std::vector<uint32_t> sent(kMsgs), got(kMsgs, UINT32_MAX);
  for (int i = 0; i < kMsgs; ++i) {
    const auto k = static_cast<std::size_t>(i);
    sent[k] = static_cast<uint32_t>(i);
    b->post_recv(&got[k], sizeof(uint32_t), k);
  }
  std::atomic<int> rx_done{0}, tx_done{0};
  std::vector<std::vector<uint64_t>> tx_seen(2);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; i < kMsgs; ++i) {
      a->post_send(&sent[static_cast<std::size_t>(i)], sizeof(uint32_t),
                   static_cast<uint64_t>(i));
    }
  });
  const int64_t deadline = util::now_ns() + 20'000'000'000;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&] {
      Completion c{};
      while (rx_done.load() < kMsgs && util::now_ns() < deadline) {
        if (b->poll_rx(c)) rx_done.fetch_add(1);
      }
    });
    threads.emplace_back([&, p] {
      Completion c{};
      while (tx_done.load() < kMsgs && util::now_ns() < deadline) {
        if (a->poll_tx(c)) {
          tx_seen[static_cast<std::size_t>(p)].push_back(c.wrid);
          tx_done.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(rx_done.load(), kMsgs);
  ASSERT_EQ(tx_done.load(), kMsgs);
  EXPECT_EQ(got, sent);
  for (const auto& seen : tx_seen) {
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  }
}

TEST(SimnetWire, DropsRepeatAcrossRuns) {
  // Same fabric, same NIC names, same traffic => the same packets drop.
  auto dropped_indices = [] {
    Fabric fabric(0.01);
    LinkModel lossy;
    lossy.drop_rate = 0.3;
    auto [a, b] = fabric.create_link("lossy", lossy);
    constexpr int kMsgs = 200;
    std::vector<uint32_t> sent(kMsgs);
    std::iota(sent.begin(), sent.end(), 0u);
    for (int i = 0; i < kMsgs; ++i) {
      a->post_send(&sent[static_cast<std::size_t>(i)], sizeof(uint32_t),
                   static_cast<uint64_t>(i));
    }
    a->quiesce();
    std::vector<bool> arrived(kMsgs, false);
    const auto delivered = b->stats().packets_rx;
    for (uint64_t n = 0; n < delivered; ++n) {
      uint32_t v = UINT32_MAX;
      b->post_recv(&v, sizeof v, n);
      Completion c{};
      EXPECT_TRUE(b->poll_rx(c));
      if (v < kMsgs) arrived[v] = true;
    }
    std::vector<int> dropped;
    for (int i = 0; i < kMsgs; ++i) {
      if (!arrived[static_cast<std::size_t>(i)]) dropped.push_back(i);
    }
    EXPECT_EQ(dropped.size(), a->stats().packets_dropped);
    return dropped;
  };
  const std::vector<int> first = dropped_indices();
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 200u);
  EXPECT_EQ(dropped_indices(), first);
}

TEST(FabricConfig, RejectsBadTimeScale) {
  EXPECT_THROW(Fabric(-1.0), std::invalid_argument);
  EXPECT_THROW(Fabric(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace piom::simnet
