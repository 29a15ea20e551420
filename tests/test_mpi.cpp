// Integration tests across the whole stack: mini-MPI over nmad over the
// simulated fabric, for all three progress engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "mpi/engine_globallock.hpp"
#include "mpi/world.hpp"
#include "util/timing.hpp"

namespace piom::mpi {
namespace {

// Sanitizer instrumentation slows the rendezvous pull severalfold; the
// overlap test stretches its compute window to match (tests/CMakeLists.txt
// defines this when PIOM_SANITIZE is non-empty).
#ifdef PIOM_TEST_SANITIZED
constexpr double kTimeDilation = 10.0;
#else
constexpr double kTimeDilation = 1.0;
#endif

WorldConfig fast_config(EngineKind kind) {
  WorldConfig cfg;
  cfg.engine = kind;
  cfg.time_scale = 0.05;  // 20x faster network: keep tests snappy
  cfg.pioman.workers = 2;
  return cfg;
}

class MpiAllEngines : public ::testing::TestWithParam<EngineKind> {};

TEST_P(MpiAllEngines, BlockingSendRecvSmall) {
  World world(fast_config(GetParam()));
  const std::string msg = "hello mpi";
  char buf[32] = {};
  std::thread receiver([&] { world.comm(1).recv(0, 7, buf, sizeof(buf)); });
  world.comm(0).send(1, 7, msg.data(), msg.size() + 1);
  receiver.join();
  EXPECT_STREQ(buf, msg.c_str());
}

TEST_P(MpiAllEngines, BlockingSendRecvLarge) {
  World world(fast_config(GetParam()));
  std::vector<uint8_t> data(1 << 20);
  std::iota(data.begin(), data.end(), 3);
  std::vector<uint8_t> out(data.size(), 0);
  std::thread receiver(
      [&] { world.comm(1).recv(0, 9, out.data(), out.size()); });
  world.comm(0).send(1, 9, data.data(), data.size());
  receiver.join();
  EXPECT_EQ(out, data);
}

TEST_P(MpiAllEngines, NonblockingPingPong) {
  World world(fast_config(GetParam()));
  for (int i = 0; i < 20; ++i) {
    char ping = static_cast<char>('a' + i % 26);
    char pong = 0;
    std::thread peer([&] {
      char got = 0;
      Request r;
      world.comm(1).irecv(r, 0, 1, &got, 1);
      world.comm(1).wait(r);
      Request s;
      world.comm(1).isend(s, 0, 2, &got, 1);
      world.comm(1).wait(s);
    });
    Request s, r;
    world.comm(0).isend(s, 1, 1, &ping, 1);
    world.comm(0).irecv(r, 1, 2, &pong, 1);
    world.comm(0).wait(s);
    world.comm(0).wait(r);
    peer.join();
    EXPECT_EQ(pong, ping);
  }
}

TEST_P(MpiAllEngines, TestEventuallyCompletes) {
  World world(fast_config(GetParam()));
  char buf[8] = {};
  Request r;
  world.comm(1).irecv(r, 0, 4, buf, sizeof(buf));
  EXPECT_FALSE(r.done());
  std::thread sender([&] { world.comm(0).send(1, 4, "ok", 3); });
  const int64_t deadline = util::now_ns() + 5'000'000'000;
  while (!world.comm(1).test(r) && util::now_ns() < deadline) {
  }
  sender.join();
  EXPECT_TRUE(r.done());
  EXPECT_STREQ(buf, "ok");
}

TEST_P(MpiAllEngines, ManyTagsInterleaved) {
  World world(fast_config(GetParam()));
  constexpr int kMsgs = 40;
  std::vector<std::array<char, 8>> bufs(kMsgs);
  std::deque<Request> rreqs(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    world.comm(1).irecv(rreqs[static_cast<std::size_t>(i)], 0,
                        static_cast<Tag>(i), bufs[static_cast<std::size_t>(i)].data(), 8);
  }
  std::deque<Request> sreqs(kMsgs);
  std::vector<std::string> payloads;
  for (int i = 0; i < kMsgs; ++i) payloads.push_back(std::to_string(i));
  // Send in reverse tag order to stress matching.
  for (int i = kMsgs - 1; i >= 0; --i) {
    world.comm(0).isend(sreqs[static_cast<std::size_t>(i)], 1,
                        static_cast<Tag>(i),
                        payloads[static_cast<std::size_t>(i)].data(),
                        payloads[static_cast<std::size_t>(i)].size() + 1);
  }
  for (int i = 0; i < kMsgs; ++i) {
    world.comm(0).wait(sreqs[static_cast<std::size_t>(i)]);
    world.comm(1).wait(rreqs[static_cast<std::size_t>(i)]);
    EXPECT_STREQ(bufs[static_cast<std::size_t>(i)].data(),
                 payloads[static_cast<std::size_t>(i)].c_str());
  }
}

TEST_P(MpiAllEngines, ConcurrentReceiverThreads) {
  // Miniature Fig-4 workload: several receiver threads blocked in recv.
  World world(fast_config(GetParam()));
  constexpr int kThreads = 8;
  std::vector<std::thread> receivers;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    receivers.emplace_back([&, t] {
      int32_t v = -1;
      world.comm(1).recv(0, static_cast<Tag>(t), &v, sizeof(v));
      if (v == t * 11) ok.fetch_add(1);
      int32_t reply = v * 2;
      world.comm(1).send(0, static_cast<Tag>(1000 + t), &reply, sizeof(reply));
    });
  }
  for (int t = 0; t < kThreads; ++t) {
    const int32_t v = t * 11;
    world.comm(0).send(1, static_cast<Tag>(t), &v, sizeof(v));
    int32_t reply = -1;
    world.comm(0).recv(1, static_cast<Tag>(1000 + t), &reply, sizeof(reply));
    EXPECT_EQ(reply, v * 2);
  }
  for (auto& th : receivers) th.join();
  EXPECT_EQ(ok.load(), kThreads);
}

TEST_P(MpiAllEngines, BadRankArguments) {
  World world(fast_config(GetParam()));
  Request r;
  char b = 0;
  EXPECT_THROW(world.comm(0).isend(r, 0, 1, &b, 1), std::invalid_argument);
  EXPECT_THROW(world.comm(0).irecv(r, 0, 1, &b, 1), std::invalid_argument);
  EXPECT_THROW((void)world.comm(2), std::out_of_range);
  EXPECT_THROW((void)world.comm(-1), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(Engines, MpiAllEngines,
                         ::testing::Values(EngineKind::kPioman,
                                           EngineKind::kMvapichLike,
                                           EngineKind::kOpenMpiLike),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineKind::kPioman: return "pioman";
                             case EngineKind::kMvapichLike: return "mvapich";
                             case EngineKind::kOpenMpiLike: return "openmpi";
                           }
                           return "unknown";
                         });

TEST(MpiPioman, ReceiverSideOverlapBeatsBaseline) {
  // The paper's headline property, as a test: with computation on the
  // RECEIVER side, the pioman engine's background progression must overlap
  // the rendezvous, the global-lock baseline must not.
  //
  // Overlap needs the progression workers to actually run in parallel with
  // the compute burn; on fewer than 4 hardware threads (sender + receiver +
  // 2 pioman workers) the measured ratio is pure scheduler noise.
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads to measure overlap";
  }
  // The mechanism is asserted on a counter: the receiver must have
  // handled the RTS (its gate's rdv_recv, counted when the pull starts) by
  // the END of the compute window — which only background progression can
  // do, since the receiver itself does not call the library meanwhile.
  // The irecv is posted before the sender starts, so the RTS cannot be
  // staged already and handled inline by irecv.
  struct Sample {
    double ratio = 0;             ///< compute / (irecv .. wait)
    uint64_t rts_in_compute = 0;  ///< rendezvous handled during the compute
  };
  auto measure = [](EngineKind kind) {
    WorldConfig cfg;
    cfg.engine = kind;
    cfg.time_scale = 1.0;
    cfg.pioman.workers = 2;
    World world(cfg);
    const std::size_t size = 1 << 20;  // 1 MB: rendezvous, ~0.8ms transfer
    std::vector<uint8_t> data(size, 0x42), out(size, 0);
    // computation > transfer time
    const double compute_us = 3000 * kTimeDilation;
    std::latch posted(1);
    std::thread sender([&] {
      posted.wait();
      world.comm(0).send(1, 5, data.data(), data.size());
    });
    Sample s;
    {
      Request r;
      const int64_t t0 = util::now_ns();
      world.comm(1).irecv(r, 0, 5, out.data(), out.size());
      posted.count_down();
      util::burn_cpu_us(compute_us);
      nmad::Session& receiver = world.session(1);
      for (std::size_t g = 0; g < receiver.gate_count(); ++g) {
        s.rts_in_compute += receiver.gate(g).stats().rdv_recv;
      }
      world.comm(1).wait(r);
      s.ratio = compute_us / (static_cast<double>(util::now_ns() - t0) * 1e-3);
    }
    sender.join();
    EXPECT_EQ(out, data);
    return s;
  };
  const Sample baseline = measure(EngineKind::kMvapichLike);
  EXPECT_EQ(baseline.rts_in_compute, 0u)
      << "the caller-driven baseline cannot handle the RTS while the "
         "receiver computes";
  // Wall-clock effects are retried against a deadline (one preemption can
  // spoil any single sample): some attempt must show both the mechanism
  // and the overlap it buys.
  const int64_t deadline = util::now_ns() + 10'000'000'000;
  int attempts = 0, handled = 0;
  double best_ratio = 0;
  bool overlapped = false;
  while (!overlapped && util::now_ns() < deadline) {
    const Sample pioman = measure(EngineKind::kPioman);
    ++attempts;
    handled += pioman.rts_in_compute >= 1 ? 1 : 0;
    best_ratio = std::max(best_ratio, pioman.ratio);
    overlapped = pioman.rts_in_compute >= 1 && pioman.ratio > 0.75;
  }
  EXPECT_TRUE(overlapped) << "pioman must overlap on the receiver side: RTS "
                          << "handled during the compute in " << handled
                          << "/" << attempts << " attempts, best ratio "
                          << best_ratio;
}

TEST(MpiPioman, SubmissionOffloadTaskRuns) {
  WorldConfig cfg = fast_config(EngineKind::kPioman);
  World world(cfg);
  auto& engine = dynamic_cast<PiomanEngine&>(world.engine(0));
  const uint64_t submissions_before = engine.task_manager().submissions();
  char buf[8] = {};
  std::thread receiver([&] { world.comm(1).recv(0, 3, buf, sizeof(buf)); });
  world.comm(0).send(1, 3, "off", 4);
  receiver.join();
  // At least the offloaded flush task was submitted (plus polling tasks).
  EXPECT_GT(engine.task_manager().submissions(), submissions_before);
  EXPECT_STREQ(buf, "off");
}

TEST(MpiPioman, InlineSubmissionAblationWorks) {
  WorldConfig cfg = fast_config(EngineKind::kPioman);
  cfg.pioman.offload_submission = false;
  World world(cfg);
  char buf[8] = {};
  std::thread receiver([&] { world.comm(1).recv(0, 3, buf, sizeof(buf)); });
  world.comm(0).send(1, 3, "inl", 4);
  receiver.join();
  EXPECT_STREQ(buf, "inl");
}

TEST(MpiWorld, MultirailWorldTransfersCorrectly) {
  WorldConfig cfg = fast_config(EngineKind::kPioman);
  cfg.rails = 2;
  World world(cfg);
  // 64 min stripe chunks: each rail's half is far above the minimum.
  std::vector<uint8_t> data(64 * nmad::kStripeMinChunk);
  std::iota(data.begin(), data.end(), 0);
  std::vector<uint8_t> out(data.size(), 0);
  std::thread receiver(
      [&] { world.comm(1).recv(0, 2, out.data(), out.size()); });
  world.comm(0).send(1, 2, data.data(), data.size());
  receiver.join();
  EXPECT_EQ(out, data);
}

TEST(MpiWorld, ShutdownIsIdempotent) {
  World world(fast_config(EngineKind::kPioman));
  world.shutdown();
  world.shutdown();
  SUCCEED();
}

TEST(MpiWorld, RejectsBadConfig) {
  WorldConfig cfg;
  cfg.rails = 0;
  EXPECT_THROW(World{cfg}, std::invalid_argument);
}


/// Engine-orthogonal message-size sweep across the eager/rendezvous
/// boundary, verifying payload integrity end to end.
class MpiSizeSweep
    : public ::testing::TestWithParam<std::tuple<EngineKind, std::size_t>> {};

TEST_P(MpiSizeSweep, PayloadIntact) {
  const auto [kind, size] = GetParam();
  World world(fast_config(kind));
  std::vector<uint8_t> data(size);
  for (std::size_t i = 0; i < size; ++i) data[i] = static_cast<uint8_t>(i * 13);
  std::vector<uint8_t> out(size, 0);
  std::thread rx([&] { world.comm(1).recv(0, 2, out.data(), out.size()); });
  world.comm(0).send(1, 2, data.data(), data.size());
  rx.join();
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSizes, MpiSizeSweep,
    ::testing::Combine(::testing::Values(EngineKind::kPioman,
                                         EngineKind::kMvapichLike,
                                         EngineKind::kOpenMpiLike),
                       ::testing::Values(std::size_t{1}, std::size_t{4096},
                                         std::size_t{16384},
                                         std::size_t{16385},
                                         std::size_t{1} << 19)),
    [](const auto& info) {
      const char* e = "";
      switch (std::get<0>(info.param)) {
        case EngineKind::kPioman: e = "pioman"; break;
        case EngineKind::kMvapichLike: e = "mvapich"; break;
        case EngineKind::kOpenMpiLike: e = "openmpi"; break;
      }
      return std::string(e) + "_b" + std::to_string(std::get<1>(info.param));
    });

TEST(MpiIntrospection, EngineNamesAndLockStats) {
  World pioman(fast_config(EngineKind::kPioman));
  EXPECT_EQ(pioman.engine(0).name(), "pioman");
  World mv(fast_config(EngineKind::kMvapichLike));
  EXPECT_EQ(mv.engine(0).name(), "mvapich-like");
  World om(fast_config(EngineKind::kOpenMpiLike));
  EXPECT_EQ(om.engine(1).name(), "openmpi-like");
  EXPECT_STREQ(engine_kind_name(EngineKind::kPioman), "pioman");
  // The global-lock engine counts its lock traffic (Fig 4's contention).
  auto& eng = dynamic_cast<GlobalLockEngine&>(mv.engine(0));
  const uint64_t before = eng.lock_acquisitions();
  char buf[4] = {};
  std::thread rx([&] { mv.comm(1).recv(0, 1, buf, sizeof(buf)); });
  mv.comm(0).send(1, 1, "x", 2);
  rx.join();
  EXPECT_GT(eng.lock_acquisitions(), before);
}

}  // namespace
}  // namespace piom::mpi
