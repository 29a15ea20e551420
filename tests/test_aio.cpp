// Tests for the async I/O manager and the simulated disk — the paper's §VI
// long-term goal (task-driven I/O) exercised end to end.
#include <gtest/gtest.h>

#include <deque>
#include <numeric>
#include <vector>

#include "aio/aio.hpp"
#include "aio/disk.hpp"
#include "sched/runtime.hpp"
#include "topo/machine.hpp"
#include "util/timing.hpp"

namespace piom::aio {
namespace {

DiskModel fast_model() {
  DiskModel m;
  m.time_scale = 0.05;  // compressed time for tests
  return m;
}

TEST(SimDisk, WriteThenReadRoundTrip) {
  SimDisk disk("d0", 1 << 20, fast_model());
  std::vector<uint8_t> data(4096);
  std::iota(data.begin(), data.end(), 1);
  disk.submit_write(512, data.data(), data.size(), 1);
  DiskCompletion c;
  while (!disk.poll(c)) {
  }
  EXPECT_EQ(c.kind, DiskCompletion::Kind::kWrite);
  EXPECT_EQ(c.wrid, 1u);
  EXPECT_EQ(c.bytes, data.size());
  EXPECT_TRUE(c.ok);

  std::vector<uint8_t> out(data.size(), 0);
  disk.submit_read(512, out.data(), out.size(), 2);
  while (!disk.poll(c)) {
  }
  EXPECT_EQ(c.kind, DiskCompletion::Kind::kRead);
  EXPECT_EQ(out, data);
}

TEST(SimDisk, ReadsClampAtEof) {
  SimDisk disk("d0", 1000, fast_model());
  std::vector<uint8_t> buf(100, 0xFF);
  disk.submit_read(950, buf.data(), buf.size(), 1);
  DiskCompletion c;
  while (!disk.poll(c)) {
  }
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.bytes, 50u);  // clamped
}

TEST(SimDisk, OutOfRangeFails) {
  SimDisk disk("d0", 1000, fast_model());
  char b = 0;
  disk.submit_read(5000, &b, 1, 7);
  DiskCompletion c;
  while (!disk.poll(c)) {
  }
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.bytes, 0u);
  EXPECT_EQ(disk.stats().errors, 1u);
}

TEST(SimDisk, PokePeekBypassCostModel) {
  SimDisk disk("d0", 256, fast_model());
  const char msg[] = "direct";
  disk.poke(10, msg, sizeof(msg));
  char out[8] = {};
  disk.peek(10, out, sizeof(msg));
  EXPECT_STREQ(out, "direct");
}

TEST(SimDisk, StatsCountTraffic) {
  SimDisk disk("d0", 1 << 16, fast_model());
  std::vector<uint8_t> buf(1024);
  disk.submit_write(0, buf.data(), buf.size(), 1);
  disk.submit_read(0, buf.data(), buf.size(), 2);
  disk.quiesce();
  const DiskStats s = disk.stats();
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.bytes_written, 1024u);
  EXPECT_EQ(s.bytes_read, 1024u);
}

TEST(SimDisk, AccessCostIsModelled) {
  DiskModel slow;
  slow.access_us = 500;
  slow.time_scale = 1.0;
  SimDisk disk("slow", 4096, slow);
  char b = 0;
  const int64_t t0 = util::now_ns();
  disk.submit_read(0, &b, 1, 1);
  DiskCompletion c;
  while (!disk.poll(c)) {
  }
  EXPECT_GE(util::now_ns() - t0, 500'000);
  // Back-to-back requests serialise: the second starts when the first ends.
  const int64_t t1 = util::now_ns();
  disk.submit_read(0, &b, 1, 2);
  disk.submit_read(0, &b, 1, 3);
  for (int polled = 0; polled < 2;) {
    if (disk.poll(c)) ++polled;
  }
  EXPECT_EQ(c.wrid, 3u);
  EXPECT_GE(util::now_ns() - t1, 2 * 500'000);
}

class AioEnv : public ::testing::Test {
 protected:
  AioEnv()
      : machine_(topo::Machine::flat(2)),
        tm_(machine_),
        rt_(machine_, tm_),
        disk_("d0", 4 << 20, fast_model()),
        mgr_(tm_, {&disk_}) {}

  topo::Machine machine_;
  TaskManager tm_;
  sched::Runtime rt_;
  SimDisk disk_;
  AioManager mgr_;
};

TEST_F(AioEnv, AsyncReadCompletesInBackground) {
  const char content[] = "hello disk";
  disk_.poke(100, content, sizeof(content));
  char out[16] = {};
  IoRequest req;
  mgr_.read(disk_, 100, out, sizeof(content), req);
  req.wait();  // the runtime's idle workers poll the disk
  EXPECT_TRUE(req.ok);
  EXPECT_EQ(req.bytes, sizeof(content));
  EXPECT_STREQ(out, "hello disk");
}

TEST_F(AioEnv, AsyncWriteLands) {
  const char content[] = "persist me";
  IoRequest req;
  mgr_.write(disk_, 2048, content, sizeof(content), req);
  req.wait();
  EXPECT_TRUE(req.ok);
  char out[16] = {};
  disk_.peek(2048, out, sizeof(content));
  EXPECT_STREQ(out, "persist me");
}

TEST_F(AioEnv, ManyConcurrentRequests) {
  constexpr int kOps = 64;
  constexpr std::size_t kChunk = 4096;
  std::vector<std::vector<uint8_t>> blocks(kOps);
  std::deque<IoRequest> writes(kOps);
  for (int i = 0; i < kOps; ++i) {
    blocks[static_cast<std::size_t>(i)].assign(kChunk,
                                               static_cast<uint8_t>(i + 1));
    mgr_.write(disk_, static_cast<std::size_t>(i) * kChunk,
               blocks[static_cast<std::size_t>(i)].data(), kChunk,
               writes[static_cast<std::size_t>(i)]);
  }
  for (auto& w : writes) w.wait();
  std::vector<std::vector<uint8_t>> out(kOps, std::vector<uint8_t>(kChunk));
  std::deque<IoRequest> reads(kOps);
  for (int i = 0; i < kOps; ++i) {
    mgr_.read(disk_, static_cast<std::size_t>(i) * kChunk,
              out[static_cast<std::size_t>(i)].data(), kChunk,
              reads[static_cast<std::size_t>(i)]);
  }
  for (auto& r : reads) r.wait();
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              blocks[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(mgr_.completions(), static_cast<uint64_t>(2 * kOps));
}

TEST_F(AioEnv, IoOverlapsComputation) {
  // The point of task-driven I/O: the application thread computes while a
  // runtime worker's poll task advances the disk. After submitting, this
  // thread only burns CPU — it never touches the disk, the manager or the
  // TaskManager — so the request can only complete in the background.
  // The deadline bounds a failure; nothing is timed.
  constexpr std::size_t kSize = 2 << 20;
  std::vector<uint8_t> buf(kSize);
  IoRequest req;
  mgr_.read(disk_, 0, buf.data(), buf.size(), req);
  const int64_t deadline = util::now_ns() + 10'000'000'000;
  while (!req.completed() && util::now_ns() < deadline) {
    util::burn_cpu_us(50);
  }
  const bool completed_while_computing = req.completed();
  mgr_.shutdown();  // drains the read either way before `req` goes away
  EXPECT_TRUE(completed_while_computing)
      << "no runtime worker completed the read while the caller computed";
  EXPECT_TRUE(req.ok);
  EXPECT_EQ(req.bytes, kSize);
}

TEST_F(AioEnv, RequestReuseAfterCompletion) {
  char a = 'a', b = 0;
  IoRequest req;
  mgr_.write(disk_, 0, &a, 1, req);
  req.wait();
  mgr_.read(disk_, 0, &b, 1, req);  // reuse the same request object
  req.wait();
  EXPECT_EQ(b, 'a');
}

TEST(AioShutdown, DrainsPendingAndStops) {
  topo::Machine machine = topo::Machine::flat(1);
  TaskManager tm(machine);
  SimDisk disk("d0", 1 << 16, fast_model());
  auto mgr = std::make_unique<AioManager>(tm, std::vector<SimDisk*>{&disk});
  std::vector<uint8_t> buf(4096, 0xAA);
  IoRequest req;
  mgr->write(disk, 0, buf.data(), buf.size(), req);
  // No runtime: shutdown() itself must drive progress and drain.
  mgr->shutdown();
  EXPECT_TRUE(req.completed());
  mgr.reset();
  SUCCEED();
}

TEST(AioCpuSets, PollingRespectsAffinity) {
  topo::Machine machine = topo::Machine::kwak();
  TaskManager tm(machine);
  SimDisk disk("d0", 1 << 16, fast_model());
  AioManagerConfig cfg;
  cfg.poll_cpusets = {topo::CpuSet::range(4, 8)};  // NUMA node #2 only
  AioManager mgr(tm, {&disk}, cfg);
  char b = 'x';
  IoRequest req;
  mgr.write(disk, 0, &b, 1, req);
  // Scheduling on a core outside the set must NOT complete the request.
  const int64_t until = util::now_ns() + 20'000'000;
  while (util::now_ns() < until) tm.schedule(0);
  EXPECT_FALSE(req.completed());
  // A core inside the set does.
  while (!req.completed()) tm.schedule(5);
  EXPECT_TRUE(req.ok);
  mgr.shutdown();
}

}  // namespace
}  // namespace piom::aio
