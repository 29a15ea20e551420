// Transport-backend tests: the receive/send contract every channel backend
// shares (one conformance suite over simnet, shmem, uds and tcp pairs),
// then what only one backend does — the shmem ring's backpressure and
// completion protocol, socket backpressure and RDMA frames — the
// ITransport factory faces, BackendPolicy validation, mesh wiring, and
// mixed-backend (hybrid) gates: eager on the fast rail, bulk striped
// across heterogeneous rails.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "nmad/request.hpp"
#include "nmad/session.hpp"
#include "transport/channel.hpp"
#include "transport/cluster.hpp"
#include "transport/endpoint.hpp"
#include "transport/shmem.hpp"
#include "transport/tcp.hpp"
#include "util/timing.hpp"

namespace piom::transport {
namespace {

TEST(BackendNames, AreStable) {
  EXPECT_STREQ(backend_name(Backend::kSimnet), "simnet");
  EXPECT_STREQ(backend_name(Backend::kShmem), "shmem");
  EXPECT_STREQ(pair_wiring_name(PairWiring::kSimnet), "simnet");
  EXPECT_STREQ(pair_wiring_name(PairWiring::kShmem), "shmem");
  EXPECT_STREQ(pair_wiring_name(PairWiring::kHybrid), "hybrid");
}

/// Spin until a completion shows up (bounded: every backend but shmem
/// completes asynchronously).
template <typename PollFn>
bool poll_until(PollFn&& poll, Completion& out,
                int64_t timeout_ns = 10'000'000'000) {
  const int64_t deadline = util::now_ns() + timeout_ns;
  while (util::now_ns() < deadline) {
    if (poll(out)) return true;
  }
  return false;
}

// ------------------------------------------------- channel conformance
//
// The IChannel contract, once per backend: FIFO matching of posted
// buffers, staging of early arrivals, truncation, quiesce and sever.

enum class PairKind { kSimnet, kShmem, kUds, kTcp };

std::string pair_kind_name(const ::testing::TestParamInfo<PairKind>& info) {
  switch (info.param) {
    case PairKind::kSimnet: return "simnet";
    case PairKind::kShmem: return "shmem";
    case PairKind::kUds: return "uds";
    case PairKind::kTcp: return "tcp";
  }
  return "unknown";
}

ClusterConfig fast_cluster() {
  ClusterConfig cc;
  cc.time_scale = 0.05;  // compress the NIC model's wire time
  return cc;
}

class ChannelConformance : public ::testing::TestWithParam<PairKind> {
 protected:
  ChannelConformance() : cluster_(fast_cluster()) {
    switch (GetParam()) {
      case PairKind::kSimnet:
        std::tie(a_, b_) = cluster_.create_pair(Backend::kSimnet, "pair");
        break;
      case PairKind::kShmem:
        std::tie(a_, b_) = cluster_.create_pair(Backend::kShmem, "pair");
        break;
      case PairKind::kUds:
        std::tie(a_, b_) = cluster_.create_pair(Backend::kTcp, "pair");
        break;
      case PairKind::kTcp:
        std::tie(a_, b_) = TcpTransport::create_loopback_pair(
            cluster_.tcp_node(0), cluster_.tcp_node(1), "pair",
            Endpoint::Scheme::kTcp);
        break;
    }
  }

  bool poll_rx(IChannel* ch, Completion& out) {
    return poll_until([ch](Completion& o) { return ch->poll_rx(o); }, out);
  }
  bool poll_tx(IChannel* ch, Completion& out) {
    return poll_until([ch](Completion& o) { return ch->poll_tx(o); }, out);
  }

  Cluster cluster_;
  IChannel* a_ = nullptr;
  IChannel* b_ = nullptr;
};

TEST_P(ChannelConformance, RoundTripCountsStats) {
  const Backend backend = GetParam() == PairKind::kSimnet ? Backend::kSimnet
                          : GetParam() == PairKind::kShmem ? Backend::kShmem
                                                           : Backend::kTcp;
  EXPECT_EQ(a_->backend(), backend);
  EXPECT_EQ(b_->backend(), backend);
  EXPECT_EQ(a_->peer(), b_);
  EXPECT_EQ(b_->peer(), a_);
  EXPECT_TRUE(a_->connected());
  EXPECT_EQ(a_->name(), "pair.a");
  EXPECT_EQ(b_->name(), "pair.b");

  char rx[16] = {};
  b_->post_recv(rx, sizeof(rx), 7);
  a_->post_send("hello", 6, 9);

  Completion c{};
  ASSERT_TRUE(poll_rx(b_, c));
  EXPECT_EQ(c.kind, Completion::Kind::kRecv);
  EXPECT_EQ(c.wrid, 7u);
  EXPECT_EQ(c.bytes, 6u);
  EXPECT_STREQ(rx, "hello");

  ASSERT_TRUE(poll_tx(a_, c));
  EXPECT_EQ(c.kind, Completion::Kind::kSend);
  EXPECT_EQ(c.wrid, 9u);
  EXPECT_EQ(c.bytes, 6u);
  EXPECT_FALSE(c.failed);

  EXPECT_EQ(a_->stats().packets_tx, 1u);
  EXPECT_EQ(a_->stats().bytes_tx, 6u);
  EXPECT_EQ(b_->stats().packets_rx, 1u);
  EXPECT_EQ(b_->stats().bytes_rx, 6u);
}

TEST_P(ChannelConformance, ZeroAndOneByteMessages) {
  char rx0 = 'x', rx1 = 0;
  b_->post_recv(&rx0, 1, 1);
  b_->post_recv(&rx1, 1, 2);
  a_->post_send(nullptr, 0, 10);  // zero-byte: no payload to read at all
  const char one = 'Z';
  a_->post_send(&one, 1, 11);

  Completion c{};
  ASSERT_TRUE(poll_rx(b_, c));
  EXPECT_EQ(c.wrid, 1u);
  EXPECT_EQ(c.bytes, 0u);
  EXPECT_EQ(rx0, 'x');  // untouched
  ASSERT_TRUE(poll_rx(b_, c));
  EXPECT_EQ(c.wrid, 2u);
  EXPECT_EQ(c.bytes, 1u);
  EXPECT_EQ(rx1, 'Z');
  ASSERT_TRUE(poll_tx(a_, c));
  ASSERT_TRUE(poll_tx(a_, c));
  EXPECT_FALSE(a_->poll_tx(c));
}

TEST_P(ChannelConformance, StagedArrivalDeliveredToLatePostedBuffer) {
  const char payload[] = "buffered";
  a_->post_send(payload, sizeof(payload), 1);
  // The send completes although the receiver never posted: the arrival is
  // held driver-side until a buffer shows up.
  Completion c{};
  ASSERT_TRUE(poll_tx(a_, c));
  char rx[16] = {};
  b_->post_recv(rx, sizeof(rx), 2);
  ASSERT_TRUE(poll_rx(b_, c));
  EXPECT_EQ(c.wrid, 2u);
  EXPECT_EQ(c.bytes, sizeof(payload));
  EXPECT_STREQ(rx, "buffered");
}

TEST_P(ChannelConformance, UndersizedHeadTruncatesAndKeepsFifo) {
  // The first message overflows the first buffer: it is truncated into it,
  // and the second message — which would fit the first buffer — must not
  // overtake it.
  char small[4] = {};
  char roomy[16] = {};
  b_->post_recv(small, sizeof(small), 1);
  b_->post_recv(roomy, sizeof(roomy), 2);
  const char m1[] = "first-message!";  // 15 bytes: overflows `small`
  const char m2[] = "2nd";             // 4 bytes: would fit `small`
  a_->post_send(m1, sizeof(m1), 11);
  a_->post_send(m2, sizeof(m2), 12);

  Completion c{};
  ASSERT_TRUE(poll_rx(b_, c));
  EXPECT_EQ(c.wrid, 1u);
  EXPECT_EQ(c.bytes, sizeof(small));
  EXPECT_EQ(std::memcmp(small, m1, sizeof(small)), 0);
  ASSERT_TRUE(poll_rx(b_, c));
  EXPECT_EQ(c.wrid, 2u);
  EXPECT_EQ(c.bytes, sizeof(m2));
  EXPECT_STREQ(roomy, "2nd");
  a_->quiesce();
}

TEST_P(ChannelConformance, SeveralMessagesMatchPostedBuffersInFifoOrder) {
  std::array<std::array<char, 16>, 4> rxbufs{};
  for (int i = 0; i < 4; ++i) {
    b_->post_recv(rxbufs[static_cast<std::size_t>(i)].data(), 16,
                  static_cast<uint64_t>(100 + i));
  }
  const char* msgs[] = {"m0", "m1", "m2", "m3"};
  for (int i = 0; i < 4; ++i) {
    a_->post_send(msgs[i], 3, static_cast<uint64_t>(i));
  }
  for (int i = 0; i < 4; ++i) {
    Completion c{};
    ASSERT_TRUE(poll_rx(b_, c));
    EXPECT_EQ(c.wrid, static_cast<uint64_t>(100 + i));  // arrival i -> buffer i
    EXPECT_STREQ(rxbufs[static_cast<std::size_t>(i)].data(), msgs[i]);
  }
  a_->quiesce();
}

TEST_P(ChannelConformance, QuiesceSettlesBothDirections) {
  const char ping[] = "ping", pong[] = "pong";
  a_->post_send(ping, sizeof(ping), 1);
  b_->post_send(pong, sizeof(pong), 2);
  a_->quiesce();
  b_->quiesce();
  // Nothing in flight afterwards; completions are still pollable.
  EXPECT_EQ(a_->tx_backlog(), 0u);
  EXPECT_EQ(b_->tx_backlog(), 0u);
  Completion c{};
  EXPECT_TRUE(a_->poll_tx(c));
  EXPECT_TRUE(b_->poll_tx(c));
}

TEST_P(ChannelConformance, SeveredEndpointDropsDataButFailsRdma) {
  a_->sever();
  EXPECT_TRUE(a_->severed());
  EXPECT_FALSE(b_->severed());
  // Drop model: sends complete unfailed, counted as dropped, and nothing
  // reaches the peer ("sent" never means "delivered").
  char rx[8] = {};
  b_->post_recv(rx, sizeof(rx), 3);
  a_->post_send("lost", 5, 1);
  Completion c{};
  ASSERT_TRUE(poll_tx(a_, c));
  EXPECT_EQ(c.kind, Completion::Kind::kSend);
  EXPECT_FALSE(c.failed);
  EXPECT_EQ(a_->stats().packets_dropped, 1u);
  a_->quiesce();
  EXPECT_FALSE(b_->poll_rx(c));
  EXPECT_EQ(rx[0], 0);
  // RDMA reads are the failure-visible path: no data can come back.
  uint8_t byte = 0;
  a_->post_rdma_read(&byte, &byte, 1, 2);
  ASSERT_TRUE(poll_tx(a_, c));
  EXPECT_EQ(c.kind, Completion::Kind::kRdmaRead);
  EXPECT_EQ(c.wrid, 2u);
  EXPECT_TRUE(c.failed);
  a_->quiesce();  // must not hang on a dead endpoint
}

INSTANTIATE_TEST_SUITE_P(Backends, ChannelConformance,
                         ::testing::Values(PairKind::kSimnet, PairKind::kShmem,
                                           PairKind::kUds, PairKind::kTcp),
                         pair_kind_name);

// ---------------------------------------------------------- shmem channel

TEST(ShmemChannel, SendCompletesWithoutReceiverHostPolling) {
  // The DMA property caller-driven engines rely on: only the *sender*
  // polls; delivery and completion must still happen.
  ShmemTransport transport;
  auto [a, b] = transport.create_channel_pair("dma");
  char rx[8] = {};
  b->post_recv(rx, sizeof(rx), 5);
  a->post_send("ping", 5, 6);
  Completion c{};
  ASSERT_TRUE(a->poll_tx(c));  // no b->poll_rx() before this
  EXPECT_EQ(c.wrid, 6u);
  EXPECT_STREQ(rx, "ping");  // already landed in the posted buffer
  ASSERT_TRUE(b->poll_rx(c));  // and its completion waits on the first poll
  EXPECT_EQ(c.wrid, 5u);
}

TEST(ShmemChannel, RingFullBackpressuresWithoutDeadlock) {
  ShmemTransport transport;
  auto [a, b] = transport.create_channel_pair("full");
  // 16x the ring's slots, so most posts must spill.
  constexpr int kMsgs = 16 * static_cast<int>(kShmemRingSlots);
  std::vector<uint32_t> payloads(kMsgs);
  std::iota(payloads.begin(), payloads.end(), 100u);
  for (int i = 0; i < kMsgs; ++i) {
    a->post_send(&payloads[static_cast<std::size_t>(i)], sizeof(uint32_t),
                 static_cast<uint64_t>(i));
  }
  // Receiver idle: the posts beyond the ring's slots must be spilled, not
  // dropped, and the sender must not block.
  EXPECT_GT(a->tx_backlog(), 0u);

  // Drain: every message arrives, in order, and every send completes.
  Completion c{};
  for (int i = 0; i < kMsgs; ++i) {
    uint32_t rx = 0;
    b->post_recv(&rx, sizeof(rx), static_cast<uint64_t>(1000 + i));
    while (!b->poll_rx(c)) {
    }
    EXPECT_EQ(c.wrid, static_cast<uint64_t>(1000 + i));
    EXPECT_EQ(rx, payloads[static_cast<std::size_t>(i)]);
  }
  int completions = 0;
  while (completions < kMsgs) {
    if (a->poll_tx(c)) ++completions;
  }
  EXPECT_EQ(a->tx_backlog(), 0u);
  EXPECT_EQ(a->stats().packets_tx, static_cast<uint64_t>(kMsgs));
  EXPECT_EQ(b->stats().packets_rx, static_cast<uint64_t>(kMsgs));
}

TEST(ShmemChannel, RdmaReadIsDirectAndCounted) {
  ShmemTransport transport;
  auto [a, b] = transport.create_channel_pair("rdma");
  std::vector<uint8_t> remote(4096);
  std::iota(remote.begin(), remote.end(), 0);
  std::vector<uint8_t> local(4096, 0);
  a->post_rdma_read(local.data(), remote.data(), local.size(), 42);
  Completion c{};
  ASSERT_TRUE(a->poll_tx(c));  // synchronous: completion is already there
  EXPECT_EQ(c.kind, Completion::Kind::kRdmaRead);
  EXPECT_EQ(c.wrid, 42u);
  EXPECT_EQ(c.bytes, local.size());
  EXPECT_EQ(local, remote);
  EXPECT_EQ(b->stats().rdma_reads_served, 1u);
}

TEST(ShmemChannel, ReportsFastRailProperties) {
  ShmemConfig config;
  config.bandwidth_GBps = 12.5;
  ShmemTransport transport(config);
  auto [a, b] = transport.create_channel_pair("props");
  EXPECT_DOUBLE_EQ(a->bandwidth_GBps(), 12.5);
  EXPECT_DOUBLE_EQ(b->latency_us(), kShmemLatencyUs);
  // Default config: bandwidth is measured host memcpy throughput, floored
  // above the default NIC link model (the fast-rail invariant holds even
  // under sanitizer-instrumented memcpy).
  EXPECT_GE(measured_memcpy_GBps(), 4.0);
  EXPECT_LE(measured_memcpy_GBps(), 500.0);
}

TEST(Transports, FactoryFacesAgree) {
  ClusterConfig cc;
  cc.time_scale = 0.05;
  Cluster cluster(cc);
  ITransport& nic_side = cluster.transport(Backend::kSimnet);
  ITransport& shm_side = cluster.transport(Backend::kShmem);
  EXPECT_EQ(nic_side.backend(), Backend::kSimnet);
  EXPECT_EQ(shm_side.backend(), Backend::kShmem);
  auto [na, nb] = nic_side.create_channel_pair("n");
  auto [sa, sb] = shm_side.create_channel_pair("s");
  EXPECT_EQ(na->backend(), Backend::kSimnet);
  EXPECT_EQ(sa->backend(), Backend::kShmem);
  EXPECT_EQ(na->peer(), nb);
  EXPECT_EQ(sa->peer(), sb);
  EXPECT_EQ(nic_side.channel_count(), 2u);
  EXPECT_EQ(shm_side.channel_count(), 2u);
}

// ---------------------------------------------------------- BackendPolicy

TEST(BackendPolicy, SelectsIntraVsInterByNode) {
  BackendPolicy policy;
  policy.node_of = {0, 0, 1, 1};
  policy.validate(4);
  EXPECT_EQ(policy.wiring(0, 1), PairWiring::kShmem);
  EXPECT_EQ(policy.wiring(2, 3), PairWiring::kShmem);
  EXPECT_EQ(policy.wiring(0, 2), PairWiring::kSimnet);
  EXPECT_EQ(policy.wiring(1, 3), PairWiring::kSimnet);
  // Empty placement: everything inter-node.
  BackendPolicy empty;
  empty.validate(4);
  EXPECT_EQ(empty.wiring(0, 1), PairWiring::kSimnet);
}

TEST(BackendPolicy, RejectsMalformedPolicies) {
  BackendPolicy wrong_size;
  wrong_size.node_of = {0, 0, 1};
  EXPECT_THROW(wrong_size.validate(4), std::invalid_argument);

  BackendPolicy negative;
  negative.node_of = {0, -1};
  EXPECT_THROW(negative.validate(2), std::invalid_argument);

  BackendPolicy cross_node_shmem;
  cross_node_shmem.node_of = {0, 1};
  cross_node_shmem.inter = PairWiring::kShmem;
  EXPECT_THROW(cross_node_shmem.validate(2), std::invalid_argument);
  cross_node_shmem.inter = PairWiring::kHybrid;
  EXPECT_THROW(cross_node_shmem.validate(2), std::invalid_argument);
}

class TransportEnvGuard {
 public:
  TransportEnvGuard() {
    const char* v = std::getenv("PIOM_TRANSPORT");
    if (v != nullptr) saved_ = v;
  }
  ~TransportEnvGuard() {
    if (saved_.empty()) {
      unsetenv("PIOM_TRANSPORT");
    } else {
      setenv("PIOM_TRANSPORT", saved_.c_str(), 1);
    }
  }

 private:
  std::string saved_;
};

TEST(BackendPolicy, FromEnvResolvesBackends) {
  TransportEnvGuard guard;
  unsetenv("PIOM_TRANSPORT");
  EXPECT_TRUE(BackendPolicy::from_env(4).node_of.empty());

  setenv("PIOM_TRANSPORT", "simnet", 1);
  EXPECT_TRUE(BackendPolicy::from_env(4).node_of.empty());

  setenv("PIOM_TRANSPORT", "shmem", 1);
  BackendPolicy shm = BackendPolicy::from_env(4);
  ASSERT_EQ(shm.node_of.size(), 4u);
  EXPECT_EQ(shm.wiring(0, 3), PairWiring::kShmem);

  setenv("PIOM_TRANSPORT", "hybrid", 1);
  BackendPolicy hyb = BackendPolicy::from_env(3);
  EXPECT_EQ(hyb.wiring(1, 2), PairWiring::kHybrid);

  setenv("PIOM_TRANSPORT", "carrier-pigeon", 1);
  EXPECT_THROW((void)BackendPolicy::from_env(2), std::invalid_argument);
}

// ------------------------------------------------------------- mixed mesh

/// Wire every pair of `cluster`'s lazy mesh: mesh[i][j] = pair_rails(i, j)
/// (mesh[i][i] stays empty).
std::vector<std::vector<std::vector<IChannel*>>> wire_every_pair(
    Cluster& cluster) {
  const auto n = static_cast<std::size_t>(cluster.lazy_nodes());
  std::vector<std::vector<std::vector<IChannel*>>> mesh(
      n, std::vector<std::vector<IChannel*>>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        mesh[i][j] =
            cluster.pair_rails(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  return mesh;
}

TEST(ClusterMesh, PolicyWiresShmemIntraNodeAndNicsAcross) {
  Cluster cluster(fast_cluster());
  BackendPolicy policy;
  policy.node_of = {0, 0, 1, 1};
  cluster.init_lazy_mesh(4, 1, {}, "mix", policy);
  const auto mesh = wire_every_pair(cluster);
  // Same-node pairs: one shmem rail. Cross-node pairs: one NIC rail.
  ASSERT_EQ(mesh[0][1].size(), 1u);
  EXPECT_EQ(mesh[0][1][0]->backend(), Backend::kShmem);
  ASSERT_EQ(mesh[2][3].size(), 1u);
  EXPECT_EQ(mesh[2][3][0]->backend(), Backend::kShmem);
  for (const auto& [i, j] :
       {std::pair{0, 2}, std::pair{0, 3}, std::pair{1, 2}, std::pair{1, 3}}) {
    ASSERT_EQ(mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]
                  .size(),
              1u);
    EXPECT_EQ(mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]
                  [0]->backend(),
              Backend::kSimnet);
  }
  // Peering holds across backends.
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      EXPECT_EQ(mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]
                    [0]->peer(),
                mesh[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)]
                    [0]);
    }
  }
  // Naming: "<prefix>.<i>-<j>.<rail>.{a,b}", a = the lower rank's side.
  EXPECT_EQ(mesh[0][1][0]->name(), "mix.0-1.shm.a");
  EXPECT_EQ(mesh[1][0][0]->name(), "mix.0-1.shm.b");
  EXPECT_EQ(mesh[3][0][0]->name(), "mix.0-3.r0.b");
  // 4 cross-node pairs x 1 rail x 2 NICs; 2 same-node pairs x 2 endpoints.
  EXPECT_EQ(cluster.fabric().nic_count(), 8u);
  EXPECT_EQ(cluster.shmem().channel_count(), 4u);
}

TEST(ClusterMesh, HybridPairsPutTheFastRailFirst) {
  Cluster cluster(fast_cluster());
  BackendPolicy policy;
  policy.node_of = {0, 0};
  policy.intra = PairWiring::kHybrid;
  cluster.init_lazy_mesh(2, 2, {}, "hyb", policy);
  const auto mesh = wire_every_pair(cluster);
  ASSERT_EQ(mesh[0][1].size(), 3u);  // shmem + 2 NIC rails
  EXPECT_EQ(mesh[0][1][0]->backend(), Backend::kShmem);
  EXPECT_EQ(mesh[0][1][1]->backend(), Backend::kSimnet);
  EXPECT_EQ(mesh[0][1][2]->backend(), Backend::kSimnet);
  // The fast rail is actually faster on both axes the strategy reads.
  EXPECT_LT(mesh[0][1][0]->latency_us(), mesh[0][1][1]->latency_us());
  EXPECT_GT(mesh[0][1][0]->bandwidth_GBps(), mesh[0][1][1]->bandwidth_GBps());
}

TEST(ClusterMesh, RejectsMalformedPolicyBeforeWiringAnything) {
  Cluster cluster(fast_cluster());
  BackendPolicy bad;
  bad.node_of = {0};  // wrong size for a 3-node mesh
  EXPECT_THROW(cluster.init_lazy_mesh(3, 1, {}, "m", bad),
               std::invalid_argument);
  EXPECT_EQ(cluster.lazy_nodes(), 0);  // no mesh declared: no pair to wire
  EXPECT_THROW(static_cast<void>(cluster.pair_rails(0, 1)),
               std::invalid_argument);
  EXPECT_EQ(cluster.fabric().nic_count(), 0u);
  EXPECT_EQ(cluster.shmem().channel_count(), 0u);
}

// ----------------------------------------------- heterogeneous-rail gates

/// Pump both gates until `done` (progress is caller-driven here).
template <typename DoneFn>
void pump(nmad::Gate& ga, nmad::Gate& gb, DoneFn done) {
  const int64_t deadline = util::now_ns() + 20'000'000'000;  // 20 s safety
  while (!done()) {
    ga.progress();
    gb.progress();
    ASSERT_LT(util::now_ns(), deadline) << "gate progress stalled";
  }
}

TEST(HybridGate, EagerRidesShmemBulkStripesAcrossBothRails) {
  // Pin the shmem bandwidth so the stripe split (and thus the NIC rail's
  // share clearing kStripeMinChunk) is deterministic across hosts.
  ClusterConfig cc;
  cc.time_scale = 0.05;
  cc.shmem.bandwidth_GBps = 10.0;
  Cluster cluster(cc);
  auto [sa, sb] = cluster.shmem().create_channel_pair("fast");
  auto [na, nb] = cluster.create_sim_link("slow", {});

  nmad::Session session_a("a"), session_b("b");
  nmad::Gate& ga = session_a.create_gate({sa, na});
  nmad::Gate& gb = session_b.create_gate({sb, nb});

  // Small message: the strategy must pick the low-latency shmem rail.
  const uint64_t nic_tx_before = na->stats().packets_tx;
  nmad::SendRequest sreq;
  nmad::RecvRequest rreq;
  int32_t small = 4242, got = 0;
  gb.irecv(rreq, 1, &got, sizeof(got));
  ga.isend(sreq, 1, &small, sizeof(small));
  pump(ga, gb, [&] { return sreq.completed() && rreq.completed(); });
  EXPECT_EQ(got, 4242);
  EXPECT_GE(sa->stats().packets_tx, 1u);
  EXPECT_EQ(na->stats().packets_tx, nic_tx_before);  // NIC rail untouched

  // Large message: rendezvous pull striped across BOTH rails by bandwidth
  // (shmem takes the lion's share, the NIC rail a >= min_chunk slice).
  // 64 min stripe chunks: the NIC rail's 1.25/11.25 share is ~7 chunks.
  std::vector<uint8_t> big(64 * nmad::kStripeMinChunk);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 13);
  }
  std::vector<uint8_t> rx(big.size(), 0);
  nmad::SendRequest big_s;
  nmad::RecvRequest big_r;
  gb.irecv(big_r, 2, rx.data(), rx.size());
  ga.isend(big_s, 2, big.data(), big.size());
  pump(ga, gb, [&] { return big_s.completed() && big_r.completed(); });
  EXPECT_EQ(rx, big);
  // The receiver pulls from the sender's memory: the *sender-side*
  // endpoints serve the reads, one chunk per rail.
  EXPECT_GE(sa->stats().rdma_reads_served, 1u);  // fast-rail chunk
  EXPECT_GE(na->stats().rdma_reads_served, 1u);  // NIC-rail chunk
}

// ------------------------------------------------------------ tcp channel
//
// What only the socket backend does: kernel-buffer backpressure and RDMA
// over request/response frames (asynchronous completion — a pump must
// run; poll_tx/poll_rx drive it).

/// A connected loopback pair on two independent transports (two pumps —
/// the honest two-rank shape), over the requested socket scheme.
struct TcpPair {
  Cluster cluster;
  IChannel* a = nullptr;
  IChannel* b = nullptr;

  explicit TcpPair(Endpoint::Scheme scheme = Endpoint::Scheme::kUds,
                   const std::string& name = "tpair") {
    auto [x, y] = TcpTransport::create_loopback_pair(
        cluster.tcp_node(0), cluster.tcp_node(1), name, scheme);
    a = x;
    b = y;
  }
};

TEST(TcpChannel, SocketFullBackpressuresWithoutDeadlock) {
  // Far more bytes than any default socket buffer, receiver idle: the
  // excess queues in the channel (tx_backlog), nothing blocks or drops.
  TcpPair p;
  constexpr int kMsgs = 32;
  constexpr std::size_t kMsgBytes = 64 * 1024;
  std::vector<std::vector<uint8_t>> payloads(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    payloads[static_cast<std::size_t>(i)].assign(kMsgBytes,
                                                 static_cast<uint8_t>(i));
    p.a->post_send(payloads[static_cast<std::size_t>(i)].data(), kMsgBytes,
                   static_cast<uint64_t>(i));
  }
  EXPECT_GT(p.a->tx_backlog(), 0u);

  // Drain: every message arrives, in order, and every send completes.
  Completion c{};
  std::vector<uint8_t> rx(kMsgBytes);
  for (int i = 0; i < kMsgs; ++i) {
    p.b->post_recv(rx.data(), rx.size(), static_cast<uint64_t>(1000 + i));
    ASSERT_TRUE(
        poll_until([&](Completion& o) { return p.b->poll_rx(o); }, c));
    EXPECT_EQ(c.wrid, static_cast<uint64_t>(1000 + i));
    EXPECT_EQ(c.bytes, kMsgBytes);
    EXPECT_EQ(rx, payloads[static_cast<std::size_t>(i)]);
  }
  int completions = 0;
  while (completions < kMsgs) {
    if (poll_until([&](Completion& o) { return p.a->poll_tx(o); }, c)) {
      ++completions;
    } else {
      break;
    }
  }
  EXPECT_EQ(completions, kMsgs);
  EXPECT_EQ(p.a->tx_backlog(), 0u);
  EXPECT_EQ(p.a->stats().packets_tx, static_cast<uint64_t>(kMsgs));
  EXPECT_EQ(p.b->stats().packets_rx, static_cast<uint64_t>(kMsgs));
}

TEST(TcpChannel, RdmaReadRoundTripsOverTheWire) {
  TcpPair p;
  std::vector<uint8_t> remote(4096);
  std::iota(remote.begin(), remote.end(), 0);
  std::vector<uint8_t> local(4096, 0);
  p.a->post_rdma_read(local.data(), remote.data(), local.size(), 42);
  Completion c{};
  // Asynchronous (request/response frames), unlike shmem's direct copy.
  ASSERT_TRUE(poll_until([&](Completion& o) { return p.a->poll_tx(o); }, c));
  EXPECT_EQ(c.kind, Completion::Kind::kRdmaRead);
  EXPECT_EQ(c.wrid, 42u);
  EXPECT_EQ(c.bytes, local.size());
  EXPECT_FALSE(c.failed);
  EXPECT_EQ(local, remote);
  EXPECT_EQ(p.b->stats().rdma_reads_served, 1u);
}

TEST(TcpChannel, ReportsModeledRailProperties) {
  // Hybrid rail selection keeps eager traffic on the lowest-latency rail,
  // so the strategy relies on the ordering shmem < uds < tcp.
  Cluster cluster;
  auto [u, u_peer] = TcpTransport::create_loopback_pair(
      cluster.tcp_node(0), cluster.tcp_node(1), "uds", Endpoint::Scheme::kUds);
  auto [t, t_peer] = TcpTransport::create_loopback_pair(
      cluster.tcp_node(0), cluster.tcp_node(1), "tcp", Endpoint::Scheme::kTcp);
  EXPECT_LT(u->latency_us(), t->latency_us());
  EXPECT_GT(u->latency_us(), kShmemLatencyUs);
  EXPECT_GT(t->latency_us(), kShmemLatencyUs);
  EXPECT_DOUBLE_EQ(u_peer->latency_us(), u->latency_us());
  EXPECT_DOUBLE_EQ(t_peer->latency_us(), t->latency_us());
  EXPECT_GT(u->bandwidth_GBps(), 0.0);
}

TEST(TcpTransportFace, FactoryFacesAgree) {
  Cluster cluster;
  ITransport& tcp_side = cluster.transport(Backend::kTcp);
  EXPECT_EQ(tcp_side.backend(), Backend::kTcp);
  auto [ta, tb] = cluster.create_pair(Backend::kTcp, "t");
  EXPECT_EQ(ta->backend(), Backend::kTcp);
  EXPECT_EQ(ta->peer(), tb);
  // One endpoint per node transport, not two on one.
  EXPECT_EQ(cluster.tcp_node(0).channel_count(), 1u);
  EXPECT_EQ(cluster.tcp_node(1).channel_count(), 1u);
}

// --------------------------------------------------- tcp policy + mesh

TEST(BackendPolicy, FromEnvResolvesSocketBackends) {
  TransportEnvGuard guard;
  setenv("PIOM_TRANSPORT", "tcp", 1);
  BackendPolicy tcp = BackendPolicy::from_env(4);
  EXPECT_EQ(tcp.wiring(0, 3), PairWiring::kTcp);
  setenv("PIOM_TRANSPORT", "uds", 1);
  BackendPolicy uds = BackendPolicy::from_env(4);
  EXPECT_EQ(uds.wiring(1, 2), PairWiring::kUds);
}

TEST(BackendPolicy, ShmemStillRefusesToCrossNodes) {
  // kTcp joining the wiring vocabulary must not relax the check the
  // backend table promises: shared memory cannot leave the node.
  BackendPolicy cross;
  cross.node_of = {0, 1};
  cross.inter = PairWiring::kShmem;
  EXPECT_THROW(cross.validate(2), std::invalid_argument);
  cross.inter = PairWiring::kTcp;
  cross.validate(2);  // sockets do cross nodes
}

TEST(ClusterMesh, HybridPlacementMixesShmemIntraWithTcpInter) {
  Cluster cluster;
  BackendPolicy policy;
  policy.node_of = {0, 0, 1, 1};
  policy.inter = PairWiring::kTcp;
  cluster.init_lazy_mesh(4, 1, {}, "mixtcp", policy);
  const auto mesh = wire_every_pair(cluster);
  ASSERT_EQ(mesh[0][1].size(), 1u);
  EXPECT_EQ(mesh[0][1][0]->backend(), Backend::kShmem);
  ASSERT_EQ(mesh[1][2].size(), 1u);
  EXPECT_EQ(mesh[1][2][0]->backend(), Backend::kTcp);
  EXPECT_EQ(mesh[1][2][0]->peer(), mesh[2][1][0]);
  // The socket pair really carries traffic inside the mesh.
  uint32_t msg = 0xabcd1234, rx = 0;
  mesh[2][1][0]->post_recv(&rx, sizeof(rx), 1);
  mesh[1][2][0]->post_send(&msg, sizeof(msg), 2);
  Completion c{};
  ASSERT_TRUE(poll_until(
      [&](Completion& o) { return mesh[2][1][0]->poll_rx(o); }, c));
  EXPECT_EQ(rx, msg);
}

// ------------------------------------------------------------- endpoints

TEST(Endpoint, ParsesAndRoundTripsSocketUris) {
  const Endpoint t = Endpoint::parse("tcp://127.0.0.1:7777");
  EXPECT_EQ(t.scheme, Endpoint::Scheme::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 7777);
  EXPECT_EQ(t.uri(), "tcp://127.0.0.1:7777");
  const Endpoint u = Endpoint::parse("uds:///tmp/x.sock");
  EXPECT_EQ(u.scheme, Endpoint::Scheme::kUds);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.uri(), "uds:///tmp/x.sock");
  EXPECT_EQ(Endpoint::parse("shmem://").scheme, Endpoint::Scheme::kShmem);
  EXPECT_EQ(Endpoint::parse("sim://").scheme, Endpoint::Scheme::kSim);
}

TEST(Endpoint, RejectsJunkUris) {
  EXPECT_THROW((void)Endpoint::parse(""), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("carrier-pigeon://x"),
               std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("tcp://"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("tcp://host"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("tcp://host:notaport"),
               std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("tcp://host:99999"),
               std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("uds://"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("uds://relative/path"),
               std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("shmem://an-address"),
               std::invalid_argument);
}

}  // namespace
}  // namespace piom::transport
