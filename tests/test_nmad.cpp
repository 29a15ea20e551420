// Tests for the nmad communication library: eager and rendezvous protocols,
// tag matching (expected/unexpected), aggregation, multirail striping,
// packet-wrapper recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "nmad/session.hpp"
#include "transport/cluster.hpp"
#include "util/timing.hpp"

namespace piom::nmad {
namespace {

/// Drive both sessions' progress until `pred` or timeout. Returns pred().
template <typename Pred>
bool progress_until(Session& sa, Session& sb, Pred&& pred,
                    int64_t timeout_ns = 5'000'000'000) {
  const int64_t deadline = util::now_ns() + timeout_ns;
  while (util::now_ns() < deadline) {
    sa.progress();
    sb.progress();
    if (pred()) return true;
  }
  return pred();
}

struct NmadPair {
  transport::Cluster cluster;
  Session sa;
  Session sb;
  Gate* ga = nullptr;
  Gate* gb = nullptr;

  explicit NmadPair(SessionConfig cfg = {}, int rails = 1,
                    double time_scale = 0.05)
      : cluster(transport::ClusterConfig{time_scale}),
        sa("A", cfg),
        sb("B", cfg) {
    std::vector<transport::IChannel*> rails_a, rails_b;
    for (int r = 0; r < rails; ++r) {
      auto [na, nb] = cluster.create_sim_link("rail" + std::to_string(r), {});
      rails_a.push_back(na);
      rails_b.push_back(nb);
    }
    ga = &sa.create_gate(rails_a);
    gb = &sb.create_gate(rails_b);
  }
};

TEST(NmadEager, BasicSendRecv) {
  NmadPair p;
  const std::string msg = "bonjour newmadeleine";
  SendRequest sreq;
  RecvRequest rreq;
  char buf[64] = {};
  p.gb->irecv(rreq, /*tag=*/3, buf, sizeof(buf));
  p.ga->isend(sreq, 3, msg.data(), msg.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return sreq.completed() && rreq.completed();
  }));
  EXPECT_EQ(rreq.received, msg.size());
  EXPECT_EQ(std::memcmp(buf, msg.data(), msg.size()), 0);
  EXPECT_EQ(p.ga->stats().eager_sent, 1u);
  EXPECT_EQ(p.gb->stats().eager_recv, 1u);
}

TEST(NmadEager, UnexpectedMessageMatchesLateRecv) {
  NmadPair p;
  const std::string msg = "early";
  SendRequest sreq;
  p.ga->isend(sreq, 5, msg.data(), msg.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_eager == 1;
  }));
  char buf[16] = {};
  RecvRequest rreq;
  p.gb->irecv(rreq, 5, buf, sizeof(buf));  // matches the stored arrival
  EXPECT_TRUE(rreq.completed());
  EXPECT_EQ(rreq.received, msg.size());
  EXPECT_EQ(std::memcmp(buf, "early", 5), 0);
}

TEST(NmadEager, TagsAreMatchedIndependently) {
  NmadPair p;
  char buf7[8] = {}, buf9[8] = {};
  RecvRequest r7, r9;
  p.gb->irecv(r7, 7, buf7, sizeof(buf7));
  p.gb->irecv(r9, 9, buf9, sizeof(buf9));
  SendRequest s9, s7;
  p.ga->isend(s9, 9, "nine", 5);  // send tag 9 first
  p.ga->isend(s7, 7, "seven", 6);
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return r7.completed() && r9.completed();
  }));
  EXPECT_STREQ(buf7, "seven");
  EXPECT_STREQ(buf9, "nine");
}

TEST(NmadEager, SameTagMatchesInSeqOrder) {
  NmadPair p;
  // Two unexpected messages, same tag: the late irecvs must drain them in
  // send order (lowest sequence first).
  SendRequest s1, s2;
  p.ga->isend(s1, 4, "first", 6);
  p.ga->isend(s2, 4, "second", 7);
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_eager == 2;
  }));
  char b1[8] = {}, b2[8] = {};
  RecvRequest r1, r2;
  p.gb->irecv(r1, 4, b1, sizeof(b1));
  p.gb->irecv(r2, 4, b2, sizeof(b2));
  EXPECT_TRUE(r1.completed());
  EXPECT_TRUE(r2.completed());
  EXPECT_STREQ(b1, "first");
  EXPECT_STREQ(b2, "second");
  EXPECT_LT(r1.matched_seq, r2.matched_seq);
}

TEST(NmadEager, ZeroLengthMessage) {
  NmadPair p;
  SendRequest sreq;
  RecvRequest rreq;
  p.gb->irecv(rreq, 1, nullptr, 0);
  p.ga->isend(sreq, 1, nullptr, 0);
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return rreq.completed(); }));
  EXPECT_EQ(rreq.received, 0u);
}

TEST(NmadRdv, LargeMessageUsesRendezvous) {
  NmadPair p;
  std::vector<uint8_t> data(512 * 1024);
  std::iota(data.begin(), data.end(), 1);
  std::vector<uint8_t> out(data.size(), 0);
  SendRequest sreq;
  RecvRequest rreq;
  p.gb->irecv(rreq, 11, out.data(), out.size());
  p.ga->isend(sreq, 11, data.data(), data.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return sreq.completed() && rreq.completed();
  }));
  EXPECT_EQ(out, data);
  EXPECT_EQ(p.ga->stats().rdv_sent, 1u);
  EXPECT_EQ(p.gb->stats().rdv_recv, 1u);
  EXPECT_EQ(p.ga->stats().eager_sent, 0u);
  // The data itself moved by RDMA-Read, served by the sender-side NIC.
  EXPECT_GE(p.ga->rail_channel(0).stats().rdma_reads_served, 1u);
}

TEST(NmadRdv, UnexpectedRtsMatchesLateRecv) {
  NmadPair p;
  std::vector<uint8_t> data(128 * 1024, 0x5A);
  SendRequest sreq;
  p.ga->isend(sreq, 2, data.data(), data.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_rts == 1;
  }));
  EXPECT_FALSE(sreq.completed());  // no receiver yet: FIN cannot exist
  std::vector<uint8_t> out(data.size(), 0);
  RecvRequest rreq;
  p.gb->irecv(rreq, 2, out.data(), out.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return sreq.completed() && rreq.completed();
  }));
  EXPECT_EQ(out, data);
}

TEST(NmadRdv, EagerAndRdvSameTagRespectSeqOrder) {
  NmadPair p;
  std::vector<uint8_t> big(64 * 1024, 0xCC);
  SendRequest s_small, s_big;
  p.ga->isend(s_small, 6, "tiny", 5);      // seq N   (eager)
  p.ga->isend(s_big, 6, big.data(), big.size());  // seq N+1 (rdv)
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_eager == 1 &&
           p.gb->stats().unexpected_rts == 1;
  }));
  // First irecv must take the *eager* one (lower seq), not the rdv.
  char small_buf[8] = {};
  RecvRequest r1;
  p.gb->irecv(r1, 6, small_buf, sizeof(small_buf));
  EXPECT_TRUE(r1.completed());
  EXPECT_STREQ(small_buf, "tiny");
  std::vector<uint8_t> big_out(big.size(), 0);
  RecvRequest r2;
  p.gb->irecv(r2, 6, big_out.data(), big_out.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return r2.completed(); }));
  EXPECT_EQ(big_out, big);
}

TEST(NmadAggreg, PendingSmallSendsArePacked) {
  SessionConfig cfg;
  cfg.aggregation = true;
  NmadPair p(cfg);
  constexpr int kMsgs = 8;
  std::vector<std::string> payloads;
  std::deque<SendRequest> sreqs(kMsgs);
  std::deque<RecvRequest> rreqs(kMsgs);
  std::vector<std::array<char, 32>> bufs(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    payloads.push_back("payload-" + std::to_string(i));
    p.gb->irecv(rreqs[static_cast<std::size_t>(i)], static_cast<Tag>(i),
                bufs[static_cast<std::size_t>(i)].data(), 32);
  }
  // Defer: all sends join the pending queue, then one flush packs them.
  for (int i = 0; i < kMsgs; ++i) {
    p.ga->isend(sreqs[static_cast<std::size_t>(i)], static_cast<Tag>(i),
                payloads[static_cast<std::size_t>(i)].data(),
                payloads[static_cast<std::size_t>(i)].size() + 1,
                /*defer=*/true);
  }
  EXPECT_EQ(p.ga->pending_sends(), static_cast<std::size_t>(kMsgs));
  p.ga->flush();
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    for (const auto& r : rreqs) {
      if (!r.completed()) return false;
    }
    return true;
  }));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_STREQ(bufs[static_cast<std::size_t>(i)].data(),
                 payloads[static_cast<std::size_t>(i)].c_str());
  }
  const GateStats gs = p.ga->stats();
  EXPECT_GE(gs.packs_sent, 1u);
  EXPECT_EQ(gs.msgs_packed, static_cast<uint64_t>(kMsgs));
  // Fig 1's point: fewer wire packets than messages.
  EXPECT_LT(p.ga->rail_channel(0).stats().packets_tx,
            static_cast<uint64_t>(kMsgs));
}

TEST(NmadAggreg, NoAggregationSendsOnePacketPerMessage) {
  SessionConfig cfg;
  cfg.aggregation = false;  // pinned: holds under $PIOM_AGGREGATION=1
  NmadPair p(cfg);
  constexpr int kMsgs = 6;
  std::deque<SendRequest> sreqs(kMsgs);
  std::deque<RecvRequest> rreqs(kMsgs);
  std::vector<std::array<char, 16>> bufs(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    p.gb->irecv(rreqs[static_cast<std::size_t>(i)], static_cast<Tag>(i),
                bufs[static_cast<std::size_t>(i)].data(), 16);
    p.ga->isend(sreqs[static_cast<std::size_t>(i)], static_cast<Tag>(i), "x",
                2, /*defer=*/true);
  }
  p.ga->flush();
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    for (const auto& r : rreqs) {
      if (!r.completed()) return false;
    }
    return true;
  }));
  EXPECT_EQ(p.ga->stats().packs_sent, 0u);
  EXPECT_EQ(p.ga->rail_channel(0).stats().packets_tx,
            static_cast<uint64_t>(kMsgs));
}

TEST(NmadMultirail, RdvStripesAcrossRails) {
  NmadPair p({}, /*rails=*/2);
  // 64 min stripe chunks: each rail's half is far above the minimum.
  std::vector<uint8_t> data(64 * kStripeMinChunk);
  std::mt19937 rng(99);
  for (auto& b : data) b = static_cast<uint8_t>(rng());
  std::vector<uint8_t> out(data.size(), 0);
  SendRequest sreq;
  RecvRequest rreq;
  p.gb->irecv(rreq, 8, out.data(), out.size());
  p.ga->isend(sreq, 8, data.data(), data.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return sreq.completed() && rreq.completed();
  }));
  EXPECT_EQ(out, data);
  // Both sender-side rail NICs served RDMA reads: the stripe really split.
  EXPECT_GE(p.ga->rail_channel(0).stats().rdma_reads_served, 1u);
  EXPECT_GE(p.ga->rail_channel(1).stats().rdma_reads_served, 1u);
}

TEST(NmadPool, PacketWrappersAreRecycled) {
  NmadPair p;
  char buf[32] = {};
  for (int i = 0; i < 50; ++i) {
    SendRequest sreq;
    RecvRequest rreq;
    p.gb->irecv(rreq, 1, buf, sizeof(buf));
    p.ga->isend(sreq, 1, "ping", 5);
    ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
      return sreq.completed() && rreq.completed();
    }));
  }
  // Steady-state: wrapper allocations must be far below the message count.
  EXPECT_LE(p.ga->pw_allocated(), 8u);
}

TEST(NmadStress, ManyMessagesBothDirectionsManyTags) {
  NmadPair p;
  constexpr int kMsgs = 200;
  std::deque<SendRequest> sa(kMsgs), sb(kMsgs);
  std::deque<RecvRequest> ra(kMsgs), rb(kMsgs);
  std::vector<std::array<char, 16>> bufs_a(kMsgs), bufs_b(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    const Tag tag = static_cast<Tag>(i % 17);
    p.gb->irecv(rb[static_cast<std::size_t>(i)], tag,
                bufs_b[static_cast<std::size_t>(i)].data(), 16);
    p.ga->irecv(ra[static_cast<std::size_t>(i)], tag,
                bufs_a[static_cast<std::size_t>(i)].data(), 16);
  }
  for (int i = 0; i < kMsgs; ++i) {
    const Tag tag = static_cast<Tag>(i % 17);
    p.ga->isend(sa[static_cast<std::size_t>(i)], tag, "fromA", 6);
    p.gb->isend(sb[static_cast<std::size_t>(i)], tag, "fromB", 6);
  }
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    for (int i = 0; i < kMsgs; ++i) {
      if (!ra[static_cast<std::size_t>(i)].completed() ||
          !rb[static_cast<std::size_t>(i)].completed()) {
        return false;
      }
    }
    return true;
  }));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_STREQ(bufs_a[static_cast<std::size_t>(i)].data(), "fromB");
    EXPECT_STREQ(bufs_b[static_cast<std::size_t>(i)].data(), "fromA");
  }
}

TEST(NmadStress, ConcurrentFlushersKeepPerThreadSendOrder) {
  // Several threads queue sends on ONE tag (defer = true: the offloaded
  // submission path) and flush concurrently while the receiver progresses.
  // The receives are pre-posted, so they match arrivals in wire order:
  // each thread's sends must arrive in that thread's program order (MPI's
  // non-overtaking rule). Two drains popping under the lock and posting
  // outside it used to swap them.
  NmadPair p;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  constexpr int kTotal = kThreads * kPerThread;
  constexpr Tag kTag = 11;
  std::deque<RecvRequest> rreqs(kTotal);
  std::vector<uint32_t> got(kTotal, 0);
  for (std::size_t i = 0; i < got.size(); ++i) {
    p.gb->irecv(rreqs[i], kTag, &got[i], sizeof(uint32_t));
  }
  std::vector<std::deque<SendRequest>> sreqs(kThreads);
  std::vector<std::vector<uint32_t>> payloads(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    sreqs[static_cast<std::size_t>(t)].resize(kPerThread);
    payloads[static_cast<std::size_t>(t)].resize(kPerThread);
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      auto& mine = payloads[static_cast<std::size_t>(t)];
      auto& reqs = sreqs[static_cast<std::size_t>(t)];
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int k = 0; k < kPerThread; ++k) {
        const auto i = static_cast<std::size_t>(k);
        mine[i] = (static_cast<uint32_t>(t) << 16) | static_cast<uint32_t>(k);
        p.ga->isend(reqs[i], kTag, &mine[i], sizeof(uint32_t), /*defer=*/true);
        p.ga->flush();
      }
    });
  }
  go.store(true, std::memory_order_release);
  const bool received = progress_until(
      p.sa, p.sb,
      [&] {
        return std::all_of(rreqs.begin(), rreqs.end(),
                           [](const RecvRequest& r) { return r.completed(); });
      },
      30'000'000'000);
  for (auto& th : senders) th.join();
  ASSERT_TRUE(received);
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    for (const auto& reqs : sreqs) {
      for (const SendRequest& s : reqs) {
        if (!s.completed()) return false;
      }
    }
    return true;
  }));
  std::vector<uint32_t> next(kThreads, 0);
  int overtaken = 0;
  for (const uint32_t v : got) {
    const uint32_t t = v >> 16;
    const uint32_t k = v & 0xffffu;
    ASSERT_LT(t, static_cast<uint32_t>(kThreads));
    if (k != next[t]) ++overtaken;
    next[t] = k + 1;
  }
  EXPECT_EQ(overtaken, 0) << "same-tag sends of one thread arrived out of order";
}

TEST(NmadConfig, RejectsEmptyPools) {
  SessionConfig cfg;
  cfg.pool_bufs_per_rail = 0;
  EXPECT_THROW(Session("bad", cfg), std::invalid_argument);
}

TEST(NmadConfig, GateRequiresConnectedRails) {
  transport::Cluster cluster(transport::ClusterConfig{0.05});
  simnet::Nic& lonely = cluster.fabric().create_nic("lonely");
  Session s("s");
  EXPECT_THROW(s.create_gate({}), std::invalid_argument);
  EXPECT_THROW(s.create_gate({&lonely}), std::invalid_argument);
}


TEST(NmadWildcard, AnyTagMatchesExpected) {
  NmadPair p;
  char buf[16] = {};
  RecvRequest rreq;
  p.gb->irecv(rreq, kAnyTag, buf, sizeof(buf));
  SendRequest sreq;
  p.ga->isend(sreq, /*tag=*/1234, "wild", 5);
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return rreq.completed(); }));
  EXPECT_STREQ(buf, "wild");
  EXPECT_EQ(rreq.matched_tag, 1234u);
}

TEST(NmadWildcard, AnyTagDrainsUnexpectedInSeqOrder) {
  NmadPair p;
  SendRequest s1, s2, s3;
  p.ga->isend(s1, 5, "one", 4);
  p.ga->isend(s2, 99, "two", 4);
  p.ga->isend(s3, 5, "tri", 4);
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_eager == 3;
  }));
  char b1[8] = {}, b2[8] = {}, b3[8] = {};
  RecvRequest r1, r2, r3;
  p.gb->irecv(r1, kAnyTag, b1, sizeof(b1));
  p.gb->irecv(r2, kAnyTag, b2, sizeof(b2));
  p.gb->irecv(r3, kAnyTag, b3, sizeof(b3));
  EXPECT_TRUE(r1.completed());
  EXPECT_TRUE(r2.completed());
  EXPECT_TRUE(r3.completed());
  // Wildcards drain in arrival (sequence) order across tags.
  EXPECT_STREQ(b1, "one");
  EXPECT_STREQ(b2, "two");
  EXPECT_STREQ(b3, "tri");
  EXPECT_EQ(r1.matched_tag, 5u);
  EXPECT_EQ(r2.matched_tag, 99u);
  EXPECT_EQ(r3.matched_tag, 5u);
}

TEST(NmadWildcard, AnyTagMatchesRendezvousToo) {
  NmadPair p;
  std::vector<uint8_t> data(64 * 1024, 0x3A);
  std::vector<uint8_t> out(data.size(), 0);
  RecvRequest rreq;
  p.gb->irecv(rreq, kAnyTag, out.data(), out.size());
  SendRequest sreq;
  p.ga->isend(sreq, 77, data.data(), data.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return sreq.completed() && rreq.completed();
  }));
  EXPECT_EQ(out, data);
  EXPECT_EQ(rreq.matched_tag, 77u);
}

TEST(NmadWildcard, ExactTagRecvStillMatchesFirstEligible) {
  NmadPair p;
  // Post an exact-tag recv and a wildcard; an arrival with that tag goes to
  // whichever was posted first (FIFO over eligible recvs).
  char exact_buf[8] = {}, any_buf[8] = {};
  RecvRequest exact, any;
  p.gb->irecv(exact, 4, exact_buf, sizeof(exact_buf));
  p.gb->irecv(any, kAnyTag, any_buf, sizeof(any_buf));
  SendRequest s;
  p.ga->isend(s, 4, "hit", 4);
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return exact.completed(); }));
  EXPECT_STREQ(exact_buf, "hit");
  EXPECT_FALSE(any.completed());
  // Satisfy the wildcard so teardown sees no pending recv.
  SendRequest s2;
  p.ga->isend(s2, 123, "bye", 4);
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return any.completed(); }));
  EXPECT_STREQ(any_buf, "bye");
}

/// Parameterized sweep across the eager/rendezvous boundary: the protocol
/// must be transparent to the payload size.
class NmadSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NmadSizeSweep, RoundTripsIntact) {
  const std::size_t size = GetParam();
  NmadPair p;
  std::vector<uint8_t> data(size);
  std::mt19937 rng(static_cast<unsigned>(size) + 1);
  for (auto& b : data) b = static_cast<uint8_t>(rng());
  std::vector<uint8_t> out(size, 0);
  SendRequest sreq;
  RecvRequest rreq;
  p.gb->irecv(rreq, 1, out.data(), out.size());
  p.ga->isend(sreq, 1, data.data(), data.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return sreq.completed() && rreq.completed();
  }));
  EXPECT_EQ(rreq.received, size);
  EXPECT_EQ(out, data);
  // Protocol selection: at most the threshold goes eager.
  const GateStats gs = p.ga->stats();
  if (size <= kEagerThreshold) {
    EXPECT_EQ(gs.eager_sent, 1u);
    EXPECT_EQ(gs.rdv_sent, 0u);
  } else {
    EXPECT_EQ(gs.eager_sent, 0u);
    EXPECT_EQ(gs.rdv_sent, 1u);
  }
}

// ---- rendezvous refusal (revoke_tags / kNack) ------------------------------
//
// The failure-drain protocol behind the collectives: a receiver that will
// never post a matching receive revokes the tag window, which NACKs the
// peer's RTS — staged or still in flight — so the sender error-completes
// instead of parking in rdv_waiting_fin_ forever. Both arrival orders are
// pinned deterministically here (the mpi-level fault tests only reach them
// through racy kill timing).

TEST(NmadRevoke, StagedRtsIsNackedOnRevoke) {
  NmadPair p;
  std::vector<uint8_t> big(64 * 1024, 0xab);  // > eager threshold: rdv path
  SendRequest sreq;
  p.ga->isend(sreq, /*tag=*/21, big.data(), big.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_rts == 1;
  }));
  EXPECT_FALSE(sreq.completed());  // parked, waiting for a FIN
  p.gb->revoke_tags(/*mask=*/0xffffffffu, /*value=*/21);
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return sreq.completed(); }));
  EXPECT_TRUE(sreq.core.has_failed());
  EXPECT_EQ(p.gb->stats().rts_nacked, 1u);
  EXPECT_EQ(p.ga->stats().sends_nacked, 1u);
}

TEST(NmadRevoke, LateRtsIsNackedOnArrival) {
  // Reliable session: the NACK is sequenced, acked and dedup-tracked like
  // any data packet — this covers that plumbing too.
  SessionConfig cfg;
  cfg.reliable = true;
  NmadPair p(cfg);
  p.gb->revoke_tags(/*mask=*/0xffffffffu, /*value=*/22);
  std::vector<uint8_t> big(64 * 1024, 0xcd);
  SendRequest sreq;
  p.ga->isend(sreq, /*tag=*/22, big.data(), big.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return sreq.completed(); }));
  EXPECT_TRUE(sreq.core.has_failed());
  EXPECT_EQ(p.gb->stats().rts_nacked, 1u);
  EXPECT_EQ(p.ga->stats().sends_nacked, 1u);

  // The revocation is a window, not a blanket: other tags still rendezvous
  // normally on the same gate pair.
  SendRequest ok;
  RecvRequest rok;
  std::vector<uint8_t> out(big.size(), 0);
  p.gb->irecv(rok, /*tag=*/23, out.data(), out.size());
  p.ga->isend(ok, /*tag=*/23, big.data(), big.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return ok.completed() && rok.completed();
  }));
  EXPECT_FALSE(ok.core.has_failed());
  EXPECT_EQ(out, big);
}

TEST(NmadRevoke, MaskedWindowCoversManyTags) {
  // The collectives revoke a whole epoch at once: every tag with the same
  // high bits falls, other windows stay live.
  NmadPair p;
  p.gb->revoke_tags(/*mask=*/0xffffff00u, /*value=*/0x4200u);
  std::vector<uint8_t> big(64 * 1024, 0x11);
  SendRequest in_window, outside;
  p.ga->isend(in_window, /*tag=*/0x42aa, big.data(), big.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return in_window.completed();
  }));
  EXPECT_TRUE(in_window.core.has_failed());
  RecvRequest rok;
  std::vector<uint8_t> out(big.size(), 0);
  p.gb->irecv(rok, /*tag=*/0x43aa, out.data(), out.size());
  p.ga->isend(outside, /*tag=*/0x43aa, big.data(), big.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return outside.completed() && rok.completed();
  }));
  EXPECT_FALSE(outside.core.has_failed());
  EXPECT_EQ(out, big);
}

// ---------------------------------------------------- matcher equivalence
//
// The bucket matcher must be observationally identical to the linear scan
// matcher it replaced: run the same randomized post/arrival interleaving
// against both layouts and require identical outcomes per receive.

struct TrialPlan {
  struct Msg {
    Tag tag = 0;
    std::size_t len = 0;  ///< > kEagerThreshold => rendezvous
  };
  std::vector<Msg> msgs;
  std::vector<Tag> recv_tags;  ///< kAnyTag entries are directed wildcards
  std::size_t pre_post = 0;    ///< receives posted before any send
};

/// Tags spread over several buckets (5 and 69 still share one).
constexpr std::array<Tag, 7> kSpreadTags = {1,  2,      3,
                                            5,  69,     0x42aa,
                                            kReservedTagBase | 0x45u};
/// Tags congruent mod kMatcherBuckets: every tag, reserved one included,
/// lands in bucket 5's chain.
constexpr std::array<Tag, 7> kCollidingTags = {
    5, 69, 133, 197, 0x4205, 0x42c5, kReservedTagBase | 0x45u};
static_assert(0x42c5 % kMatcherBuckets == 5);
static_assert((kReservedTagBase | 0x45u) % kMatcherBuckets == 5);

TrialPlan make_trial_plan(uint32_t seed, const std::array<Tag, 7>& tags) {
  std::mt19937 rng(seed);
  TrialPlan plan;
  const std::size_t n = 24 + rng() % 16;
  for (std::size_t i = 0; i < n; ++i) {
    TrialPlan::Msg m;
    m.tag = tags[rng() % tags.size()];
    // Mostly small eager messages; ~20% rendezvous (above kEagerThreshold)
    // so RTS and eager compete inside one tag.
    m.len = (rng() % 5 == 0) ? kEagerThreshold + 44 + rng() % 200
                             : 8 + rng() % 56;
    plan.msgs.push_back(m);
  }
  for (std::size_t i = 0; i < n; ++i) {
    // 70% exact receive for the i-th message's tag, 30% wildcard. The
    // multisets need not fully drain (a wildcard can strand an exact
    // receive, and wildcards never cover the reserved tag) — equivalence
    // compares outcomes, not drainage.
    plan.recv_tags.push_back(rng() % 10 < 7 ? plan.msgs[i].tag : kAnyTag);
  }
  std::shuffle(plan.recv_tags.begin(), plan.recv_tags.end(), rng);
  plan.pre_post = rng() % (n + 1);
  return plan;
}

struct RecvOutcome {
  bool completed = false;
  Tag matched_tag = 0;
  uint64_t matched_seq = 0;
  std::size_t received = 0;
  std::vector<uint8_t> payload;

  bool operator==(const RecvOutcome&) const = default;
};

std::vector<RecvOutcome> run_trial(const TrialPlan& plan, MatcherKind kind) {
  SessionConfig cfg;
  cfg.matcher = kind;
  NmadPair p(cfg);
  const std::size_t n = plan.msgs.size();
  std::deque<SendRequest> sreqs(n);
  std::deque<RecvRequest> rreqs(plan.recv_tags.size());
  std::vector<std::vector<uint8_t>> sbufs(n);
  std::vector<std::vector<uint8_t>> rbufs(plan.recv_tags.size());
  std::size_t n_eager = 0;
  std::size_t n_rdv = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sbufs[i].resize(plan.msgs[i].len);
    for (std::size_t j = 0; j < sbufs[i].size(); ++j) {
      sbufs[i][j] = static_cast<uint8_t>(i * 7 + j);
    }
    (plan.msgs[i].len > kEagerThreshold ? n_rdv : n_eager)++;
  }
  for (auto& b : rbufs) b.resize(kEagerThreshold + 300);

  // Phase 1: pre-post a prefix of the receives (expected-path matching).
  for (std::size_t i = 0; i < plan.pre_post; ++i) {
    p.gb->irecv(rreqs[i], plan.recv_tags[i], rbufs[i].data(), rbufs[i].size());
  }
  // Phase 2: all sends, in order, on one rail — arrival order is the send
  // order. Wait until the receiver has processed every arrival (matched or
  // staged) so phase 3 sees a deterministic unexpected set.
  for (std::size_t i = 0; i < n; ++i) {
    p.ga->isend(sreqs[i], plan.msgs[i].tag, sbufs[i].data(), sbufs[i].size());
  }
  EXPECT_TRUE(progress_until(p.sa, p.sb, [&] {
    const GateStats s = p.gb->stats();
    return s.eager_recv >= n_eager && s.rdv_recv + s.unexpected_rts >= n_rdv;
  }));
  // Phase 3: the remaining receives hit the unexpected path.
  for (std::size_t i = plan.pre_post; i < plan.recv_tags.size(); ++i) {
    p.gb->irecv(rreqs[i], plan.recv_tags[i], rbufs[i].data(), rbufs[i].size());
  }
  // Phase 4: settle — progress until the completion count stops moving
  // (mismatched leftovers are legitimate and must match across layouts).
  const auto count_done = [&] {
    std::size_t done = 0;
    for (const RecvRequest& r : rreqs) done += r.completed() ? 1u : 0u;
    return done;
  };
  std::size_t last = count_done();
  for (int stable = 0; stable < 2;) {
    if (progress_until(
            p.sa, p.sb, [&] { return count_done() != last; },
            /*timeout_ns=*/60'000'000)) {
      last = count_done();
      stable = 0;
    } else {
      ++stable;
    }
  }

  std::vector<RecvOutcome> out(rreqs.size());
  for (std::size_t i = 0; i < rreqs.size(); ++i) {
    out[i].completed = rreqs[i].completed();
    if (!out[i].completed) continue;
    out[i].matched_tag = rreqs[i].matched_tag;
    out[i].matched_seq = rreqs[i].matched_seq;
    out[i].received = rreqs[i].received;
    out[i].payload.assign(rbufs[i].begin(),
                          rbufs[i].begin() + static_cast<std::ptrdiff_t>(
                                                 rreqs[i].received));
  }
  return out;
}

TEST(NmadMatcherEquiv, BucketMatchesScanOnRandomInterleavings) {
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    // Spread tags and tags that all share one bucket chain must both
    // reproduce the scan matcher bit-for-bit.
    for (const bool colliding : {true, false}) {
      const TrialPlan plan =
          make_trial_plan(seed, colliding ? kCollidingTags : kSpreadTags);
      const auto reference = run_trial(plan, MatcherKind::kScan);
      const auto got = run_trial(plan, MatcherKind::kBucket);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], reference[i])
            << "seed=" << seed << " colliding=" << colliding << " recv#"
            << i << " tag=" << plan.recv_tags[i];
      }
    }
  }
}

// ------------------------------------------------- directed matcher cases

TEST(NmadMatcher, BucketCollisionKeepsTagsIndependent) {
  // Tags 5 and 69 share a chain (congruent mod kMatcherBuckets); exact
  // matching must still filter by tag, not take the chain head.
  static_assert(69 % kMatcherBuckets == 5);
  SessionConfig cfg;
  cfg.matcher = MatcherKind::kBucket;
  NmadPair p(cfg);
  SendRequest s5, s69;
  const char m5[] = "tag-five";
  const char m69[] = "tag-sixty-nine";
  p.ga->isend(s5, 5, m5, sizeof(m5));
  p.ga->isend(s69, 69, m69, sizeof(m69));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_eager >= 2;
  }));
  char buf[64] = {};
  RecvRequest r69;
  p.gb->irecv(r69, 69, buf, sizeof(buf));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return r69.completed(); }));
  EXPECT_STREQ(buf, m69);
  RecvRequest r5;
  p.gb->irecv(r5, 5, buf, sizeof(buf));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return r5.completed(); }));
  EXPECT_STREQ(buf, m5);
}

TEST(NmadMatcher, WildcardSkipsReservedEvenInSharedBucket) {
  // A posted kAnyTag receive must not claim reserved-space traffic even
  // when the reserved tag hashes into the application tag's bucket, and
  // the epoch-style tag stays matchable by an exact receive afterwards.
  SessionConfig cfg;
  cfg.matcher = MatcherKind::kBucket;
  NmadPair p(cfg);
  const Tag epoch_tag = kReservedTagBase | 0x1047u;
  static_assert((kReservedTagBase | 0x1047u) % kMatcherBuckets == 7);
  char wbuf[64] = {};
  RecvRequest wild;
  p.gb->irecv(wild, kAnyTag, wbuf, sizeof(wbuf));
  SendRequest sres, sapp;
  const char reserved_msg[] = "collective-round";
  const char app_msg[] = "application";
  p.ga->isend(sres, epoch_tag, reserved_msg, sizeof(reserved_msg));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_eager >= 1;  // staged, wildcard skipped
  }));
  EXPECT_FALSE(wild.completed());
  p.ga->isend(sapp, 7, app_msg, sizeof(app_msg));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return wild.completed(); }));
  EXPECT_EQ(wild.matched_tag, 7u);
  EXPECT_STREQ(wbuf, app_msg);
  char rbuf[64] = {};
  RecvRequest rres;
  p.gb->irecv(rres, epoch_tag, rbuf, sizeof(rbuf));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return rres.completed(); }));
  EXPECT_STREQ(rbuf, reserved_msg);
}

TEST(NmadMatcher, EpochTagsDifferingAboveBucketBitsStayDistinct) {
  // Two collective epochs whose tags agree in the low (bucket-index) bits
  // must match their own receives — the chain filter compares full tags.
  SessionConfig cfg;
  cfg.matcher = MatcherKind::kBucket;
  NmadPair p(cfg);
  const Tag epoch1 = kReservedTagBase | 0x1040u;
  const Tag epoch2 = kReservedTagBase | 0x2040u;  // same tag & 63
  SendRequest s1, s2;
  const char m1[] = "epoch-one";
  const char m2[] = "epoch-two";
  p.ga->isend(s1, epoch1, m1, sizeof(m1));
  p.ga->isend(s2, epoch2, m2, sizeof(m2));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_eager >= 2;
  }));
  char b2[64] = {};
  RecvRequest r2;
  p.gb->irecv(r2, epoch2, b2, sizeof(b2));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return r2.completed(); }));
  EXPECT_STREQ(b2, m2);
  char b1[64] = {};
  RecvRequest r1;
  p.gb->irecv(r1, epoch1, b1, sizeof(b1));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return r1.completed(); }));
  EXPECT_STREQ(b1, m1);
}

TEST(NmadMatcher, RevokedWindowInsideSharedBucket) {
  // Revoking a tag window must NACK exactly the in-window staged RTS even
  // when an out-of-window RTS shares the bucket chain (0x42aa and 0x43aa
  // are congruent mod kMatcherBuckets).
  static_assert(0x42aa % kMatcherBuckets == 0x43aa % kMatcherBuckets);
  SessionConfig cfg;
  cfg.matcher = MatcherKind::kBucket;
  NmadPair p(cfg);
  std::vector<uint8_t> big(64 * 1024, 0x5a);
  SendRequest in_window, outside;
  p.ga->isend(in_window, /*tag=*/0x42aa, big.data(), big.size());
  p.ga->isend(outside, /*tag=*/0x43aa, big.data(), big.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_rts >= 2;
  }));
  p.gb->revoke_tags(/*mask=*/0xffffff00u, /*value=*/0x4200u);
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return in_window.completed();
  }));
  EXPECT_TRUE(in_window.core.has_failed());
  EXPECT_FALSE(outside.completed());
  std::vector<uint8_t> out(big.size(), 0);
  RecvRequest rok;
  p.gb->irecv(rok, /*tag=*/0x43aa, out.data(), out.size());
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return outside.completed() && rok.completed();
  }));
  EXPECT_FALSE(outside.core.has_failed());
  EXPECT_EQ(out, big);
}

// ------------------------------------------------- matcher observability

TEST(NmadMatcherStats, CountersTrackBucketAndWildcardPaths) {
  SessionConfig cfg;
  cfg.matcher = MatcherKind::kBucket;
  NmadPair p(cfg);
  SendRequest s1, s2;
  const char msg[] = "count me";
  p.ga->isend(s1, 7, msg, sizeof(msg));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_eager >= 1;
  }));
  char buf[32] = {};
  RecvRequest r1;
  p.gb->irecv(r1, 7, buf, sizeof(buf));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return r1.completed(); }));
  GateStats gs = p.gb->stats();
  EXPECT_GE(gs.match_bucket_hits, 1u);     // unexpected claim via the bucket
  EXPECT_EQ(gs.match_wildcard_scans, 0u);  // no wildcard posted yet
  EXPECT_GE(gs.unexpected_depth_hw, 1u);

  p.ga->isend(s2, 9, msg, sizeof(msg));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_eager >= 2;
  }));
  RecvRequest r2;
  p.gb->irecv(r2, kAnyTag, buf, sizeof(buf));
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] { return r2.completed(); }));
  gs = p.gb->stats();
  EXPECT_GE(gs.match_wildcard_scans, 1u);
  // The second staged entry reused the first one's recycled node.
  EXPECT_GE(gs.match_pool_hits, 1u);
}

TEST(NmadPool, RecvBuffersGrowLazilyUnderBurst) {
  SessionConfig cfg;
  cfg.pool_bufs_initial = 2;
  cfg.pool_bufs_per_rail = 8;
  // One wire packet per message, pinned: under $PIOM_AGGREGATION the burst
  // would pack into a single packet and never outrun the posted buffers.
  cfg.aggregation = false;
  NmadPair p(cfg);
  EXPECT_EQ(p.gb->stats().recv_bufs_posted_hw, 2u);
  constexpr int kMsgs = 12;
  std::deque<SendRequest> sreqs(kMsgs);
  char payload[32] = "burst";
  // Burst all sends while the receiver stays silent: the arrivals pile up
  // (staged driver-side once the 2 posted buffers are consumed), so the
  // receiver's first sweep drains more than its posted count and grows.
  for (int i = 0; i < kMsgs; ++i) {
    p.ga->isend(sreqs[static_cast<std::size_t>(i)], 3, payload,
                sizeof(payload), /*defer=*/true);
  }
  p.ga->flush();
  const int64_t deadline = util::now_ns() + 5'000'000'000;
  while (util::now_ns() < deadline) {
    p.sa.progress();  // sender only: eager sends complete on TX
    bool all = true;
    for (const SendRequest& s : sreqs) all = all && s.completed();
    if (all) break;
  }
  ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
    return p.gb->stats().unexpected_eager >= kMsgs;
  }));
  const GateStats gs = p.gb->stats();
  EXPECT_GE(gs.recv_pool_growths, 1u);
  EXPECT_GT(gs.recv_bufs_posted_hw, 2u);
  EXPECT_LE(gs.recv_bufs_posted_hw, 8u);
}

TEST(NmadPool, PwPoolCountsHitsAndMisses) {
  NmadPair p;
  const char msg[] = "recycled";
  for (int i = 0; i < 20; ++i) {
    SendRequest sreq;
    RecvRequest rreq;
    char buf[32] = {};
    p.gb->irecv(rreq, 1, buf, sizeof(buf));
    p.ga->isend(sreq, 1, msg, sizeof(msg));
    ASSERT_TRUE(progress_until(p.sa, p.sb, [&] {
      return sreq.completed() && rreq.completed();
    }));
  }
  const GateStats gs = p.ga->stats();
  EXPECT_GE(gs.pw_pool_hits, 10u);  // steady state runs on the freelist
  EXPECT_LE(gs.pw_pool_misses, 8u);
  EXPECT_EQ(gs.pw_pool_misses, p.ga->pw_allocated());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, NmadSizeSweep,
    ::testing::Values(1u, 7u, 64u, 1024u, 16 * 1024u - 1, 16 * 1024u,
                      16 * 1024u + 1, 64 * 1024u, 1u << 20),
    [](const auto& info) {
      // Piecewise append: the "lit" + std::string temporary chain trips
      // GCC 12's -Wrestrict false positive under inlining.
      std::string name = "b";
      name += std::to_string(info.param);
      return name;
    });

}  // namespace
}  // namespace piom::nmad
