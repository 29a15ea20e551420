// Failure detector + error-completing requests, across the full
// engine × N × transport-backend matrix:
//   * FaultMatrix — one rank killed mid-run; every survivor's outstanding
//     p2p receives (directed and any-source) and in-flight collective
//     error-complete within a bounded number of heartbeat periods, and the
//     survivor's detector reports the victim failed. The victim itself —
//     cut off from everyone — symmetrically error-completes and joins.
//   * HangRegression — pins the bug the detector fixes: with detection
//     off, a killed rank leaves a survivor's ibcast spinning forever
//     (shown by a bounded iteration budget); the identical scenario with
//     detection on completes with failed() set.
//   * LossyLiveness — the retransmit-livelock edge from
//     docs/architecture.md: a lossy link plus a receiver that goes silent
//     used to spin the sender's RTO loop forever; the detector's liveness
//     timeout now breaks it with error completion.
//   * Chaos* — seeded random-kill runs of test_nrank/test_icoll-style
//     mixed p2p + collective iteration bodies (ctest label `chaos`; runs
//     as the separate test_fault_chaos target). Seeding convention (also
//     in bench/README.md): $PIOM_CHAOS_SEED overrides the default seed,
//     every run logs the seed it used, and all per-world randomness (the
//     victim, the kill delay) derives from seed + world parameters — same
//     seed ⇒ same schedule of kills.
//
// Every wait in this file is bounded, and the bounds count heartbeat
// periods (the detector's own currency) rather than fixed seconds, so the
// suite scales with the sanitizer/time-dilation factor instead of flaking.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "mpi/world.hpp"
#include "util/env.hpp"
#include "util/timing.hpp"

namespace piom::mpi {
namespace {

// Sanitizer instrumentation slows every progress path severalfold; stretch
// the heartbeat so "silent for N periods" still means dead-and-not-just-
// instrumented (tests/CMakeLists.txt defines this when PIOM_SANITIZE is
// non-empty).
#ifdef PIOM_TEST_SANITIZED
constexpr double kTimeDilation = 5.0;
#else
constexpr double kTimeDilation = 1.0;
#endif

FailureConfig fault_config() {
  FailureConfig f;
  f.enabled = true;
  f.heartbeat_period_us = 2000.0 * kTimeDilation;
  // Generous: a ping is only as regular as the thread that sends it, and
  // the whole matrix may share one CPU with dozens of poller threads.
  f.timeout_periods = 40;
  return f;
}

/// Nominal detection latency of `f` in ns.
int64_t detection_bound_ns(const FailureConfig& f) {
  return static_cast<int64_t>(f.heartbeat_period_us * 1e3) *
         (f.timeout_periods + 1);
}

/// Budget for "must complete after the kill": several detection bounds, so
/// scheduling noise can't turn a pass into a flake.
int64_t completion_budget_ns(const FailureConfig& f) {
  return 10 * detection_bound_ns(f);
}

/// Transport flavor the whole mesh is forced onto (same shape as
/// test_icoll's matrix).
enum class MeshKind { kSimnet, kShmem, kHybrid };

WorldConfig fault_world_config(EngineKind kind, int nranks, MeshKind mesh) {
  WorldConfig cfg;
  cfg.engine = kind;
  cfg.nranks = nranks;
  cfg.time_scale = 0.05;
  cfg.session.pool_bufs_per_rail = 8;
  cfg.pioman.workers = 1;
  cfg.failure = fault_config();
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

// ---- matrix: one rank killed mid-run ---------------------------------------

using Param = std::tuple<EngineKind, int, MeshKind>;
class FaultMatrix : public ::testing::TestWithParam<Param> {};

TEST_P(FaultMatrix, SurvivorsErrorCompleteWithinBound) {
  const auto [kind, n, mesh] = GetParam();
  WorldConfig cfg = fault_world_config(kind, n, mesh);
  World world(cfg);
  const int victim = n - 1;
  const int64_t budget = completion_budget_ns(cfg.failure);

  std::atomic<int> armed{0};
  std::atomic<bool> killed{false};
  std::vector<std::thread> ranks;

  for (int r = 0; r < n - 1; ++r) {
    ranks.emplace_back([&, r] {
      Comm& comm = world.comm(r);
      // Outstanding work parked on the victim: a directed receive, an
      // any-source receive (nobody will ever send tag 9), and a collective
      // the victim never joins.
      int64_t directed = -1, wild = -1;
      Request r_dir, r_any;
      comm.irecv(r_dir, victim, /*tag=*/7, &directed, sizeof(directed));
      comm.irecv(r_any, Comm::kAnySource, /*tag=*/9, &wild, sizeof(wild));
      std::vector<int64_t> red{static_cast<int64_t>(r), 1};
      CollRequest cr;
      comm.iallreduce(cr, red.data(), red.size(), ReduceOp::kSum);
      armed.fetch_add(1, std::memory_order_release);

      // Bounded drive-to-completion. test() is the progress source for the
      // caller-driven engines; the budget only starts once the kill landed
      // (before that the ops are legitimately just pending).
      int64_t deadline = 0;
      for (;;) {
        const bool done = comm.test(r_dir) && comm.test(r_any) &&
                          comm.test(cr);
        if (done) break;
        if (killed.load(std::memory_order_acquire)) {
          if (deadline == 0) deadline = util::now_ns() + budget;
          ASSERT_LT(util::now_ns(), deadline)
              << "rank " << r << ": ops still pending "
              << cfg.failure.timeout_periods
              << "+ heartbeat periods after the kill";
        }
        std::this_thread::yield();
      }

      EXPECT_TRUE(r_dir.done() && r_dir.failed())
          << "rank " << r << ": directed recv from the victim";
      EXPECT_TRUE(r_any.done() && r_any.failed())
          << "rank " << r << ": any-source recv";
      EXPECT_TRUE(cr.done() && cr.failed())
          << "rank " << r << ": collective";
      // Detector verdict: contains the victim. Not asserted equal — under
      // extreme scheduling starvation a live-but-stalled peer may also be
      // (correctly, per the detector's local-knowledge contract) declared.
      EXPECT_TRUE(comm.rank_failed(victim));
      const std::vector<int> failed = comm.failed_ranks();
      EXPECT_NE(std::find(failed.begin(), failed.end(), victim),
                failed.end());
    });
  }

  // The victim: alive and progressing (pinging) until the kill, parked in
  // a receive nobody serves. Its own detector — cut off from every peer —
  // must error-complete the wait so this thread can join.
  ranks.emplace_back([&] {
    Comm& comm = world.comm(victim);
    int64_t v = -1;
    Request req;
    comm.irecv(req, 0, /*tag=*/11, &v, sizeof(v));
    armed.fetch_add(1, std::memory_order_release);
    int64_t deadline = 0;
    while (!comm.test(req)) {
      if (killed.load(std::memory_order_acquire)) {
        if (deadline == 0) deadline = util::now_ns() + budget;
        ASSERT_LT(util::now_ns(), deadline)
            << "victim: wait did not error-complete after the kill";
      }
      std::this_thread::yield();
    }
    EXPECT_TRUE(req.failed());
    EXPECT_TRUE(comm.any_rank_failed());
  });

  while (armed.load(std::memory_order_acquire) < n) {
    std::this_thread::yield();
  }
  // Let a little live traffic flow first, then cut the victim's links.
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int64_t>(2 * cfg.failure.heartbeat_period_us)));
  world.kill_rank(victim);
  killed.store(true, std::memory_order_release);
  for (auto& t : ranks) t.join();
}

INSTANTIATE_TEST_SUITE_P(
    EnginesSizesMeshes, FaultMatrix,
    ::testing::Combine(::testing::Values(EngineKind::kPioman,
                                         EngineKind::kMvapichLike,
                                         EngineKind::kOpenMpiLike),
                       ::testing::Values(2, 4, 8),
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

// ---- regression: the hang the detector exists to fix -----------------------
//
// Global-lock engine on purpose: with detection off the abandoned CollOp
// stays enlisted in the engine registry and its receive stays queued in
// the gate — safe here because nothing progresses either once the caller
// stops test()-polling (pioman's background sweeps would keep touching
// the op through teardown).
TEST(HangRegression, KilledRootHangsWithoutDetectorCompletesWithIt) {
  constexpr int kN = 2;
  constexpr int kVictim = 1;

  {
    // Detector off: sever the victim's links by hand (kill_rank refuses to
    // run detector-less, precisely because of what this block shows).
    WorldConfig cfg = fault_world_config(EngineKind::kMvapichLike, kN,
                                         MeshKind::kSimnet);
    cfg.failure.enabled = false;
    World world(cfg);
    nmad::Session& vs = world.session(kVictim);
    for (std::size_t g = 0; g < vs.gate_count(); ++g) {
      for (int r = 0; r < vs.gate(g).nrails(); ++r) {
        transport::IChannel& ch = vs.gate(g).rail_channel(r);
        ch.sever();
        if (ch.peer() != nullptr) ch.peer()->sever();
      }
    }
    Comm& comm = world.comm(0);
    int32_t buf = -1;
    CollRequest req;
    comm.ibcast(req, &buf, sizeof(buf), kVictim);
    // A bounded iteration budget stands in for "forever": ~100k progress
    // iterations is detection-bound-scale wall time, and without a
    // detector nothing in the system can ever complete this op.
    for (int i = 0; i < 100000 && !comm.test(req); ++i) {
    }
    EXPECT_FALSE(req.done())
        << "ibcast from a dead root completed with detection off — "
           "the regression scenario no longer pins the hang";
  }

  {
    // Same scenario, detector on: completes, with failed() set.
    WorldConfig cfg = fault_world_config(EngineKind::kMvapichLike, kN,
                                         MeshKind::kSimnet);
    World world(cfg);
    world.kill_rank(kVictim);
    Comm& comm = world.comm(0);
    int32_t buf = -1;
    CollRequest req;
    comm.ibcast(req, &buf, sizeof(buf), kVictim);
    const int64_t deadline =
        util::now_ns() + completion_budget_ns(cfg.failure);
    while (!comm.test(req)) {
      ASSERT_LT(util::now_ns(), deadline)
          << "detector-on ibcast still pending past the detection bound";
    }
    EXPECT_TRUE(req.failed());
    EXPECT_TRUE(comm.rank_failed(kVictim));
  }
}

// ---- the lossy-link retransmit livelock ------------------------------------
//
// docs/architecture.md's documented edge: reliable session over a lossy
// link, receiver stops progressing after its last receive. A dropped final
// ack then used to spin the sender's RTO loop forever (retransmit → the
// silent peer never re-acks → retransmit …). The detector's liveness
// timeout is the cut-off: the silent peer is declared failed and the
// parked sends error-complete. Sends acked before the verdict complete
// ok — "sent" vs "delivered" stays exactly as lossy semantics define it.
TEST(LossyLiveness, SilentReceiverBreaksRetransmitLoopViaDetector) {
  WorldConfig cfg = fault_world_config(EngineKind::kMvapichLike, 2,
                                       MeshKind::kSimnet);
  cfg.link.drop_rate = 0.3;  // examples/lossy_link-class loss
  cfg.link.latency_us = 5;
  cfg.session.reliable = true;
  cfg.session.rto_us = 200;
  World world(cfg);

  constexpr int kRecvd = 8;   // receiver serves these, then goes silent
  constexpr int kTotal = 16;  // the rest are on their own
  std::atomic<int> received{0};

  std::thread receiver([&] {
    Comm& comm = world.comm(1);
    for (int i = 0; i < kRecvd; ++i) {
      int64_t v = -1;
      comm.recv(0, static_cast<Tag>(i), &v, sizeof(v));
      EXPECT_EQ(v, 1000 + i);
      received.fetch_add(1, std::memory_order_release);
    }
    // Silence: no more progress from this rank, ever. (The classic
    // livelock needs exactly this — a peer that stops re-acking.)
  });

  Comm& comm = world.comm(0);
  std::vector<int64_t> vals(kTotal);
  std::iota(vals.begin(), vals.end(), 1000);
  std::vector<Request> reqs(kTotal);
  for (int i = 0; i < kTotal; ++i) {
    comm.isend(reqs[static_cast<std::size_t>(i)], 1, static_cast<Tag>(i),
               &vals[static_cast<std::size_t>(i)], sizeof(int64_t));
  }

  // Every send must reach a terminal state — acked (ok) or error-completed
  // after the liveness verdict — within the detection budget, counted from
  // the moment the receiver went silent.
  while (received.load(std::memory_order_acquire) < kRecvd) {
    comm.engine().progress();  // keep acking the receiver's side of things
    std::this_thread::yield();
  }
  const int64_t deadline = util::now_ns() + completion_budget_ns(cfg.failure);
  int pending;
  do {
    pending = 0;
    for (auto& r : reqs) {
      if (!comm.test(r)) ++pending;
    }
    ASSERT_LT(util::now_ns(), deadline)
        << pending << " sends still spinning in the retransmit loop past "
                      "the detection bound — the livelock is back";
  } while (pending > 0);

  // No per-send verdict is asserted: even a delivered send may legally
  // error-complete when its final ack was among the drops and the silence
  // hit before the re-ack (sent ≠ delivered — the sender cannot tell
  // "delivered, ack lost" from "lost"). The property under test is that
  // every verdict ARRIVES — terminal state for all, silent peer declared.
  int ok = 0;
  for (auto& r : reqs) {
    if (!r.failed()) ++ok;
  }
  std::printf("[lossy] %d/%d sends completed ok, rest error-completed\n", ok,
              kTotal);

  // The silent peer must be declared dead. Under the lossy simnet link the
  // drain above cannot finish before the verdict (the unacked sends only
  // error-complete on fail_peer), but under a forced loss-free transport
  // (PIOM_TRANSPORT=shmem) every send completes ok immediately — keep
  // driving progress until the detector's timeout catches the silence.
  const int64_t verdict_deadline =
      util::now_ns() + completion_budget_ns(cfg.failure);
  while (!comm.rank_failed(1)) {
    ASSERT_LT(util::now_ns(), verdict_deadline)
        << "silent peer never declared dead within the detection budget";
    comm.engine().progress();
    std::this_thread::yield();
  }
  EXPECT_TRUE(comm.rank_failed(1));
  receiver.join();
}

// ---- rendezvous rounds under failure ---------------------------------------
//
// Collective payloads above the eager threshold run every round over the
// RTS / RDMA-read / FIN path, where error completion is a protocol rather
// than a local act: a survivor that cancels (or, one round behind, never
// posts) a round receive must NACK the matching RTS — via the failing
// collective's epoch revocation (CollOp::advance_failing) or the
// detector's whole-reserved-space revocation — or the *sending* survivor
// parks in rdv_waiting_fin_ on a live gate forever. The all-eager matrix
// above can never reach that hang; this loop, iterating rendezvous-sized
// allreduces until a mid-run kill is detected, can.
TEST(RdvDrain, RendezvousCollectivesErrorCompleteAfterKill) {
  constexpr int kN = 4;
  constexpr int kVictim = kN - 1;
  for (const EngineKind kind : {EngineKind::kPioman, EngineKind::kMvapichLike,
                                EngineKind::kOpenMpiLike}) {
    WorldConfig cfg = fault_world_config(kind, kN, MeshKind::kSimnet);
    World world(cfg);
    const int64_t budget = completion_budget_ns(cfg.failure);
    std::atomic<bool> killed{false};
    std::vector<std::thread> ranks;
    for (int r = 0; r < kN; ++r) {
      ranks.emplace_back([&, r] {
        Comm& comm = world.comm(r);
        // 32 KiB of int64 per round: above kEagerThreshold, so every
        // round goes rendezvous.
        constexpr std::size_t kElems = 4096;
        static_assert(kElems * sizeof(int64_t) > nmad::kEagerThreshold);
        const int64_t give_up = util::now_ns() + 20 * budget;
        const auto run_over = [&] {
          return r == kVictim ? comm.any_rank_failed()
                              : comm.rank_failed(kVictim);
        };
        for (int64_t iter = 0; !run_over(); ++iter) {
          ASSERT_LT(util::now_ns(), give_up)
              << "rank " << r << ": no failure verdict after 20 budgets";
          // The tree allreduce moves the whole 32 KiB vector up to rank 0
          // and back down every iteration, so a kill lands between
          // survivors mid-rendezvous with high probability.
          std::vector<int64_t> red(kElems, iter + r);
          CollRequest cr;
          comm.iallreduce(cr, red.data(), red.size(), ReduceOp::kSum);
          int64_t deadline = 0;
          while (!comm.test(cr)) {
            if (killed.load(std::memory_order_acquire)) {
              if (deadline == 0) deadline = util::now_ns() + budget;
              ASSERT_LT(util::now_ns(), deadline)
                  << "rank " << r << " (" << engine_tag(kind)
                  << "): rendezvous allreduce outlived the budget — a "
                     "round send is parked for a FIN/NACK that never came";
            }
            std::this_thread::yield();
          }
          if (!cr.failed()) {
            int64_t expect = 0;
            for (int q = 0; q < kN; ++q) expect += iter + q;
            EXPECT_EQ(red[0], expect) << "rank " << r << " iter " << iter;
            EXPECT_EQ(red[kElems - 1], expect)
                << "rank " << r << " iter " << iter;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(3 * cfg.failure.heartbeat_period_us)));
    world.kill_rank(kVictim);
    killed.store(true, std::memory_order_release);
    for (auto& t : ranks) t.join();
    for (int r = 0; r < kVictim; ++r) {
      EXPECT_TRUE(world.comm(r).rank_failed(kVictim))
          << "rank " << r << " (" << engine_tag(kind)
          << ") never declared the victim";
    }
  }
}

// Deterministic pin on the parked-rendezvous hang. The loop above relies on
// a racy kill interleaving, and on caller-driven engines it can pass even
// without revocation: a survivor that drains and stops progressing also
// stops pinging, so its peers eventually (falsely) evict it and fail_peer
// completes the parked send anyway. Here the interleaving is forced — the
// root's rendezvous fan-out stages an RTS at a survivor that never posts
// the matching receive — and both survivors keep progressing (pinging)
// throughout, so the false-positive escape hatch is closed: the parked send
// can only complete via the detector's reserved-space revocation NACK.
TEST(RdvDrain, ParkedRendezvousRoundIsNackedWhileSurvivorsStayLive) {
  WorldConfig cfg =
      fault_world_config(EngineKind::kMvapichLike, 3, MeshKind::kSimnet);
  World world(cfg);
  Comm& a = world.comm(0);
  Comm& b = world.comm(1);
  const int64_t budget = completion_budget_ns(cfg.failure);

  world.kill_rank(2);
  // Rank 0 roots an ibcast right away, before its detector can have fired:
  // the tree fan-out posts rendezvous sends to both rank 1 and the
  // (already dead) rank 2 in its first advance. Rank 1 never starts the
  // bcast — the survivor that observed the failure and stopped calling
  // collectives — so rank 0's RTS towards it stages unmatched.
  // 32 KiB: above kEagerThreshold, so the payload goes rendezvous.
  std::vector<uint8_t> payload(32 * 1024, 0xab);
  CollRequest cr;
  a.ibcast(cr, payload.data(), payload.size(), 0);
  const int64_t staged_by = util::now_ns() + budget;
  while (b.gate_to(0).stats().unexpected_rts == 0) {
    ASSERT_LT(util::now_ns(), staged_by)
        << "root's rendezvous RTS never staged at the idle survivor";
    (void)a.test(cr);  // drives rank 0's engine; can't be done yet
    b.engine().progress();
    std::this_thread::yield();
  }
  ASSERT_GE(a.gate_to(1).stats().rdv_sent, 1u)
      << "fan-out went eager; the test would be vacuous";
  // Drive both survivors until the collective completes. Without the
  // revocation NACK this parks forever: rank 1 stays live (pinging), so no
  // eviction ever error-completes rank 0's send.
  const int64_t deadline = util::now_ns() + budget;
  while (!a.test(cr)) {
    ASSERT_LT(util::now_ns(), deadline)
        << "root's rendezvous send parked past the budget — the staged RTS "
           "was never NACKed";
    b.engine().progress();
    std::this_thread::yield();
  }
  EXPECT_TRUE(cr.failed());
  EXPECT_GE(b.gate_to(0).stats().rts_nacked, 1u);
  EXPECT_GE(a.gate_to(1).stats().sends_nacked, 1u);
  // The completion really came from the NACK, not a false-positive cascade:
  // the survivors never declared each other, only the victim.
  EXPECT_FALSE(a.rank_failed(1));
  EXPECT_FALSE(b.rank_failed(0));
  EXPECT_TRUE(a.rank_failed(2));
  EXPECT_TRUE(b.rank_failed(2));
}

// ---- chaos: seeded random kills under test_nrank-style iteration bodies ----

uint64_t chaos_seed() {
  // Hex accepted (env::integer parses base 0); fixed default keeps CI
  // runs reproducible.
  return static_cast<uint64_t>(
      piom::util::env::integer("PIOM_CHAOS_SEED", 0x5eed5eedLL));
}

uint64_t splitmix(uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One chaos run: every rank iterates { ring sendrecv, blocking allreduce }
/// until its detector reports a failure, then drains and returns. The main
/// thread kills a seeded-random victim after a seeded-random delay. The
/// properties under test are liveness (no wait outlives the budget — the
/// ctest timeout is only the backstop) and integrity (everything that
/// completed unfailed carries exactly the data it would in a fault-free
/// run).
void chaos_run(EngineKind kind, int n, MeshKind mesh, double drop_rate,
               bool reliable, uint64_t rng0) {
  WorldConfig cfg = fault_world_config(kind, n, mesh);
  cfg.link.drop_rate = drop_rate;
  cfg.session.reliable = reliable;
  if (reliable) cfg.session.rto_us = 200;
  uint64_t rng = rng0;
  const int victim = static_cast<int>(splitmix(rng) % static_cast<uint64_t>(n));
  const auto kill_delay_us = static_cast<int64_t>(
      cfg.failure.heartbeat_period_us * (2 + splitmix(rng) % 8));
  std::printf("[chaos] engine=%s n=%d mesh=%d drop=%.2f victim=%d "
              "delay=%lldus\n",
              engine_tag(kind).c_str(), n, static_cast<int>(mesh), drop_rate,
              victim, static_cast<long long>(kill_delay_us));

  World world(cfg);
  const int64_t budget = completion_budget_ns(cfg.failure);
  std::atomic<bool> killed{false};
  std::vector<std::thread> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.emplace_back([&, r] {
      Comm& comm = world.comm(r);
      const int succ = (r + 1) % n;
      const int pred = (r - 1 + n) % n;
      const int64_t give_up = util::now_ns() + 20 * budget;  // absolute cap
      // Survivors iterate until their detector fingers THE victim — a
      // starvation false-positive on some live rank (legal: the detector
      // only knows about silence, not its cause) must not end the run
      // before the genuine verdict lands. The victim itself exits on any
      // peer declared: cut off from everyone, it cannot name itself.
      const auto run_over = [&] {
        return r == victim ? comm.any_rank_failed() : comm.rank_failed(victim);
      };
      for (int64_t iter = 0; !run_over(); ++iter) {
        ASSERT_LT(util::now_ns(), give_up)
            << "rank " << r << ": no failure verdict after 20 budgets";
        // Ring shift. The receive needs the cancel guard: a live
        // predecessor may observe the failure one iteration earlier and
        // never send — without MPI_Cancel semantics this recv would trade
        // the detector's bounded hang for an unbounded one.
        const int64_t sval = r * 1000003 + iter;
        int64_t rval = -1;
        Request sreq, rreq;
        comm.irecv(rreq, pred, /*tag=*/13, &rval, sizeof(rval));
        comm.isend(sreq, succ, /*tag=*/13, &sval, sizeof(sval));
        int64_t deadline = 0;
        while (!comm.test(rreq) || !comm.test(sreq)) {
          if (comm.any_rank_failed()) {
            if (rreq.done() || comm.cancel(rreq)) {
              // Send side: terminal by TX completion (unreliable) or by
              // ack/eviction (reliable) — bounded either way.
            }
            if (deadline == 0) deadline = util::now_ns() + budget;
            ASSERT_LT(util::now_ns(), deadline)
                << "rank " << r << ": p2p drain exceeded the budget";
          }
          std::this_thread::yield();
        }
        if (rreq.done() && !rreq.failed() && rval >= 0) {
          EXPECT_EQ(rval % 1000003, iter % 1000003)
              << "rank " << r << ": ring payload from a wrong iteration";
        }
        // Blocking collective. Wait drives progress on every engine, so
        // once any rank dies this completes — failed — within the bound;
        // an unfailed completion must carry the exact fault-free result.
        std::vector<int64_t> red{1, iter};
        CollRequest cr;
        comm.iallreduce(cr, red.data(), red.size(), ReduceOp::kSum);
        deadline = 0;
        while (!comm.test(cr)) {
          if (killed.load(std::memory_order_acquire)) {
            if (deadline == 0) deadline = util::now_ns() + budget;
            ASSERT_LT(util::now_ns(), deadline)
                << "rank " << r << ": allreduce outlived the budget";
          }
          std::this_thread::yield();
        }
        if (!cr.failed()) {
          EXPECT_EQ(red[0], n) << "rank " << r << " iter " << iter;
          EXPECT_EQ(red[1], n * iter) << "rank " << r << " iter " << iter;
        }
      }
      if (r != victim) {
        EXPECT_TRUE(comm.any_rank_failed());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::microseconds(kill_delay_us));
  world.kill_rank(victim);
  killed.store(true, std::memory_order_release);
  for (auto& t : ranks) t.join();
  // Every survivor's detector must have fingered the victim (possibly
  // among others, if the drain starved a live rank past its timeout).
  for (int r = 0; r < n; ++r) {
    if (r == victim) continue;
    EXPECT_TRUE(world.comm(r).rank_failed(victim))
        << "rank " << r << " never declared the victim";
  }
}

TEST(ChaosKill, MixedP2pAndCollectivesAllEngines) {
  uint64_t seed = chaos_seed();
  std::printf("[chaos] PIOM_CHAOS_SEED=0x%llx\n",
              static_cast<unsigned long long>(seed));
  for (const EngineKind kind : {EngineKind::kPioman, EngineKind::kMvapichLike,
                                EngineKind::kOpenMpiLike}) {
    for (const MeshKind mesh : {MeshKind::kSimnet, MeshKind::kShmem}) {
      uint64_t rng = seed ^ (static_cast<uint64_t>(kind) * 1315423911ULL) ^
                     (static_cast<uint64_t>(mesh) << 32);
      chaos_run(kind, 4, mesh, /*drop_rate=*/0.0, /*reliable=*/false,
                splitmix(rng));
    }
  }
}

TEST(ChaosLossy, KillUnderPacketLossWithReliability) {
  uint64_t seed = chaos_seed() ^ 0x1055ULL;
  std::printf("[chaos] PIOM_CHAOS_SEED=0x%llx (lossy variant)\n",
              static_cast<unsigned long long>(chaos_seed()));
  for (const EngineKind kind :
       {EngineKind::kPioman, EngineKind::kMvapichLike}) {
    uint64_t rng = seed ^ (static_cast<uint64_t>(kind) * 2654435761ULL);
    chaos_run(kind, 4, MeshKind::kSimnet, /*drop_rate=*/0.1,
              /*reliable=*/true, splitmix(rng));
  }
}

}  // namespace
}  // namespace piom::mpi
