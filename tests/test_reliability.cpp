// Fault injection + reliability layer tests: lossy links drop packets;
// reliable sessions detect the loss, retransmit, and deduplicate until
// every message lands intact.
#include <gtest/gtest.h>

#include <deque>
#include <numeric>
#include <vector>

#include "nmad/session.hpp"
#include "transport/cluster.hpp"
#include "mpi/world.hpp"
#include "util/timing.hpp"

#include <atomic>
#include <thread>

namespace piom::nmad {
namespace {

struct LossyPair {
  transport::Cluster cluster;
  Session sa;
  Session sb;
  Gate* ga = nullptr;
  Gate* gb = nullptr;
  transport::IChannel* na = nullptr;
  transport::IChannel* nb = nullptr;

  explicit LossyPair(double drop_rate, SessionConfig cfg)
      : cluster(transport::ClusterConfig{0.05}), sa("A", cfg), sb("B", cfg) {
    simnet::LinkModel link;
    link.drop_rate = drop_rate;
    auto [a, b] = cluster.create_sim_link("lossy", link);
    na = a;
    nb = b;
    ga = &sa.create_gate({a});
    gb = &sb.create_gate({b});
  }
};

SessionConfig reliable_cfg() {
  SessionConfig cfg;
  cfg.reliable = true;
  cfg.rto_us = 50;  // aggressive timer: tests run at 20x time compression
  return cfg;
}

/// Progress both sides until pred() or timeout.
template <typename Pred>
bool progress_until(LossyPair& p, Pred&& pred,
                    int64_t timeout_ns = 10'000'000'000) {
  const int64_t deadline = util::now_ns() + timeout_ns;
  while (util::now_ns() < deadline) {
    p.sa.progress();
    p.sb.progress();
    if (pred()) return true;
  }
  return pred();
}

TEST(FaultInjection, DropsAreObservableAtNicLevel) {
  transport::Cluster cluster(transport::ClusterConfig{0.02});
  simnet::LinkModel link;
  link.drop_rate = 0.5;
  auto [a, b] = cluster.create_sim_link("half", link);
  char rx[16];
  transport::Completion c;
  constexpr int kSends = 200;
  for (int i = 0; i < kSends; ++i) b->post_recv(rx, sizeof(rx), 1);
  for (int i = 0; i < kSends; ++i) a->post_send("x", 2, 2);
  a->quiesce();
  const auto sa = a->stats();
  const auto sb = b->stats();
  // The sender sees every packet as transmitted (TX completions fire
  // regardless of loss); roughly half actually arrive.
  EXPECT_EQ(sa.packets_tx, kSends);
  EXPECT_GT(sa.packets_dropped, kSends / 5);
  EXPECT_LT(sa.packets_dropped, kSends * 4 / 5);
  EXPECT_EQ(sb.packets_rx + sa.packets_dropped, kSends);
}

TEST(FaultInjection, DropPatternIsDeterministic) {
  auto run = [] {
    transport::Cluster cluster(transport::ClusterConfig{0.02});
    simnet::LinkModel link;
    link.drop_rate = 0.3;
    auto [a, b] = cluster.create_sim_link("det", link);
    char rx[8];
    for (int i = 0; i < 100; ++i) b->post_recv(rx, sizeof(rx), 1);
    for (int i = 0; i < 100; ++i) a->post_send("y", 2, 2);
    a->quiesce();
    return a->stats().packets_dropped;
  };
  EXPECT_EQ(run(), run());
}

TEST(Reliability, EagerMessagesSurviveLoss) {
  LossyPair p(0.3, reliable_cfg());
  constexpr int kMsgs = 100;
  std::deque<SendRequest> sreqs(kMsgs);
  std::deque<RecvRequest> rreqs(kMsgs);
  std::vector<std::array<char, 32>> bufs(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    p.gb->irecv(rreqs[static_cast<std::size_t>(i)], static_cast<Tag>(i),
                bufs[static_cast<std::size_t>(i)].data(), 32);
  }
  std::vector<std::string> payloads;
  for (int i = 0; i < kMsgs; ++i) payloads.push_back("msg-" + std::to_string(i));
  for (int i = 0; i < kMsgs; ++i) {
    p.ga->isend(sreqs[static_cast<std::size_t>(i)], static_cast<Tag>(i),
                payloads[static_cast<std::size_t>(i)].data(),
                payloads[static_cast<std::size_t>(i)].size() + 1);
  }
  ASSERT_TRUE(progress_until(p, [&] {
    for (int i = 0; i < kMsgs; ++i) {
      if (!rreqs[static_cast<std::size_t>(i)].completed() ||
          !sreqs[static_cast<std::size_t>(i)].completed()) {
        return false;
      }
    }
    return true;
  }));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_STREQ(bufs[static_cast<std::size_t>(i)].data(),
                 payloads[static_cast<std::size_t>(i)].c_str());
  }
  // The fault injector really fired and the layer really repaired it.
  EXPECT_GT(p.na->stats().packets_dropped + p.nb->stats().packets_dropped, 0u);
  EXPECT_GT(p.ga->stats().retransmits + p.gb->stats().retransmits, 0u);
}

TEST(Reliability, RendezvousSurvivesLoss) {
  // RTS and FIN control packets are droppable; the RDMA data path is not.
  LossyPair p(0.4, reliable_cfg());
  std::vector<uint8_t> data(256 * 1024);
  std::iota(data.begin(), data.end(), 7);
  std::vector<uint8_t> out(data.size(), 0);
  SendRequest sreq;
  RecvRequest rreq;
  p.gb->irecv(rreq, 3, out.data(), out.size());
  p.ga->isend(sreq, 3, data.data(), data.size());
  ASSERT_TRUE(progress_until(p, [&] {
    return sreq.completed() && rreq.completed();
  }));
  EXPECT_EQ(out, data);
}

TEST(Reliability, DuplicatesAreFiltered) {
  // Heavy loss forces retransmissions whose originals sometimes did arrive
  // (the ack was lost instead): the receiver must drop those duplicates.
  LossyPair p(0.4, reliable_cfg());
  constexpr int kMsgs = 60;
  std::deque<SendRequest> sreqs(kMsgs);
  std::deque<RecvRequest> rreqs(kMsgs);
  std::vector<int32_t> out(kMsgs, -1);
  for (int i = 0; i < kMsgs; ++i) {
    p.gb->irecv(rreqs[static_cast<std::size_t>(i)], static_cast<Tag>(i),
                &out[static_cast<std::size_t>(i)], sizeof(int32_t));
  }
  for (int i = 0; i < kMsgs; ++i) {
    const int32_t v = i * 3;
    p.ga->isend(sreqs[static_cast<std::size_t>(i)], static_cast<Tag>(i), &v,
                sizeof(v));
    // Drive progress inside the loop so the value (stack copy) stays valid:
    // wait for this send's ack before reusing the stack slot.
    ASSERT_TRUE(progress_until(p, [&] {
      return sreqs[static_cast<std::size_t>(i)].completed();
    }));
  }
  ASSERT_TRUE(progress_until(p, [&] {
    for (const auto& r : rreqs) {
      if (!r.completed()) return false;
    }
    return true;
  }));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 3);
  }
  // With 40% loss there must have been duplicate deliveries to filter.
  EXPECT_GT(p.ga->stats().retransmits, 0u);
}

TEST(Reliability, CleanLinkHasNoRetransmits) {
  // Generous RTO: with the aggressive test RTO a scheduler hiccup longer
  // than 50us can legally fire a (harmless) spurious retransmission, which
  // is exactly what this test asserts the absence of.
  SessionConfig cfg = reliable_cfg();
  cfg.rto_us = 200'000;
  LossyPair p(0.0, cfg);
  SendRequest sreq;
  RecvRequest rreq;
  char buf[16] = {};
  p.gb->irecv(rreq, 1, buf, sizeof(buf));
  p.ga->isend(sreq, 1, "clean", 6);
  ASSERT_TRUE(progress_until(p, [&] {
    return sreq.completed() && rreq.completed();
  }));
  EXPECT_STREQ(buf, "clean");
  EXPECT_EQ(p.ga->stats().retransmits, 0u);
  EXPECT_EQ(p.gb->stats().duplicates_dropped, 0u);
  // Acks still flow (reliable mode always acknowledges).
  EXPECT_GT(p.gb->stats().acks_sent, 0u);
}

TEST(Reliability, SendCompletionMeansAcknowledged) {
  // In reliable mode a completed send implies the peer saw the packet:
  // gate stats on the receiving side must already count it.
  LossyPair p(0.2, reliable_cfg());
  SendRequest sreq;
  RecvRequest rreq;
  char buf[8] = {};
  p.gb->irecv(rreq, 9, buf, sizeof(buf));
  p.ga->isend(sreq, 9, "ackd", 5);
  ASSERT_TRUE(progress_until(p, [&] { return sreq.completed(); }));
  EXPECT_GE(p.gb->stats().eager_recv, 1u);
}

TEST(Reliability, StressBidirectionalUnderLoss) {
  LossyPair p(0.25, reliable_cfg());
  constexpr int kMsgs = 50;
  std::deque<SendRequest> sa(kMsgs), sb(kMsgs);
  std::deque<RecvRequest> ra(kMsgs), rb(kMsgs);
  std::vector<std::array<char, 16>> bufs_a(kMsgs), bufs_b(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    p.gb->irecv(rb[static_cast<std::size_t>(i)], static_cast<Tag>(i),
                bufs_b[static_cast<std::size_t>(i)].data(), 16);
    p.ga->irecv(ra[static_cast<std::size_t>(i)], static_cast<Tag>(i),
                bufs_a[static_cast<std::size_t>(i)].data(), 16);
  }
  for (int i = 0; i < kMsgs; ++i) {
    p.ga->isend(sa[static_cast<std::size_t>(i)], static_cast<Tag>(i), "ping", 5);
    p.gb->isend(sb[static_cast<std::size_t>(i)], static_cast<Tag>(i), "pong", 5);
  }
  ASSERT_TRUE(progress_until(p, [&] {
    for (int i = 0; i < kMsgs; ++i) {
      if (!ra[static_cast<std::size_t>(i)].completed() ||
          !rb[static_cast<std::size_t>(i)].completed() ||
          !sa[static_cast<std::size_t>(i)].completed() ||
          !sb[static_cast<std::size_t>(i)].completed()) {
        return false;
      }
    }
    return true;
  }));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_STREQ(bufs_a[static_cast<std::size_t>(i)].data(), "pong");
    EXPECT_STREQ(bufs_b[static_cast<std::size_t>(i)].data(), "ping");
  }
}


TEST(ReliabilityWorld, FullStackOverLossyLinkAllEngines) {
  // End to end: mini-MPI worlds on a lossy fabric with the reliability
  // layer on — every engine (background or caller-driven progress) must
  // deliver everything intact.
  for (const auto kind :
       {mpi::EngineKind::kPioman, mpi::EngineKind::kMvapichLike,
        mpi::EngineKind::kOpenMpiLike}) {
    mpi::WorldConfig cfg;
    cfg.engine = kind;
    cfg.time_scale = 0.05;
    cfg.pioman.workers = 2;
    cfg.link.drop_rate = 0.25;
    cfg.session.reliable = true;
    cfg.session.rto_us = 100;
    mpi::World world(cfg);
    constexpr int kMsgs = 30;
    std::atomic<bool> sender_done{false};
    std::thread receiver([&] {
      int64_t v = -1;
      for (int i = 0; i < kMsgs; ++i) {
        world.comm(1).recv(0, static_cast<Tag>(i), &v, sizeof(v));
        EXPECT_EQ(v, i * 7) << mpi::engine_kind_name(kind);
      }
      // Keep rank 1's protocol engine turning until the sender has drained:
      // if the last data packet's ack is dropped, the retransmitted
      // duplicate is only re-acknowledged when this rank polls, and with
      // caller-driven progress nobody else polls once recv() has returned
      // (the paper's very argument for dedicated progression engines).
      while (!sender_done.load(std::memory_order_acquire)) {
        world.engine(1).progress();
        std::this_thread::yield();
      }
    });
    for (int i = 0; i < kMsgs; ++i) {
      const int64_t v = i * 7;
      world.comm(0).send(1, static_cast<Tag>(i), &v, sizeof(v));
    }
    sender_done.store(true, std::memory_order_release);
    receiver.join();
  }
}

TEST(ReliabilityWorld, RendezvousOverLossyWorld) {
  mpi::WorldConfig cfg;
  cfg.engine = mpi::EngineKind::kPioman;
  cfg.time_scale = 0.05;
  cfg.pioman.workers = 2;
  cfg.link.drop_rate = 0.3;
  cfg.session.reliable = true;
  cfg.session.rto_us = 100;
  mpi::World world(cfg);
  std::vector<uint8_t> data(256 * 1024);
  std::iota(data.begin(), data.end(), 9);
  std::vector<uint8_t> out(data.size(), 0);
  std::thread receiver(
      [&] { world.comm(1).recv(0, 1, out.data(), out.size()); });
  world.comm(0).send(1, 1, data.data(), data.size());
  receiver.join();
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace piom::nmad
