// Tests for the tracing subsystem and its scheduler integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/task_manager.hpp"
#include "topo/machine.hpp"
#include "util/timing.hpp"
#include "util/trace.hpp"

namespace piom::util::trace {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    enable();
    reset();
  }
  void TearDown() override {
    disable();
    reset();
  }
};

TEST_F(TraceTest, RecordAndCollect) {
  record(Kind::kUser, 1, 100);
  record(Kind::kUser, 2, 200);
  const auto events = collect();
  ASSERT_GE(events.size(), 2u);
  // Our two events are present, in timestamp order.
  const auto first = std::find_if(events.begin(), events.end(), [](const Event& e) {
    return e.kind == Kind::kUser && e.arg0 == 1;
  });
  const auto second = std::find_if(events.begin(), events.end(), [](const Event& e) {
    return e.kind == Kind::kUser && e.arg0 == 2;
  });
  ASSERT_NE(first, events.end());
  ASSERT_NE(second, events.end());
  EXPECT_LE(first->t_ns, second->t_ns);
  EXPECT_EQ(first->arg1, 100u);
  EXPECT_EQ(second->arg1, 200u);
}

TEST_F(TraceTest, DisabledRecordsNothing) {
  disable();
  reset();
  PIOM_TRACE(Kind::kUser, 9, 9);
  EXPECT_TRUE(collect().empty());
}

TEST_F(TraceTest, ResetDropsEvents) {
  record(Kind::kUser, 1, 1);
  reset();
  EXPECT_TRUE(collect().empty());
}

TEST_F(TraceTest, SchedulerEmitsLifecycleEvents) {
  const topo::Machine m = topo::Machine::flat(2);
  TaskManager tm(m);
  reset();
  Task t;
  t.init([](void*) { return TaskResult::kDone; }, nullptr,
         topo::CpuSet::single(0), kTaskNone);
  tm.submit(&t);
  tm.schedule(0);
  const auto events = collect();
  auto count = [&](Kind k) {
    return std::count_if(events.begin(), events.end(),
                         [&](const Event& e) { return e.kind == k; });
  };
  EXPECT_EQ(count(Kind::kTaskSubmit), 1);
  EXPECT_EQ(count(Kind::kTaskRun), 1);
  EXPECT_EQ(count(Kind::kTaskDone), 1);
}

TEST_F(TraceTest, RepeatTaskEmitsRequeues) {
  const topo::Machine m = topo::Machine::flat(1);
  TaskManager tm(m);
  reset();
  struct Poll {
    int remaining = 4;
  } poll;
  Task t;
  t.init(
      [](void* arg) {
        auto* p = static_cast<Poll*>(arg);
        return (--p->remaining == 0) ? TaskResult::kDone : TaskResult::kAgain;
      },
      &poll, topo::CpuSet::single(0), kTaskRepeat);
  tm.submit(&t);
  while (!t.completed()) tm.schedule(0);
  const auto events = collect();
  const auto requeues =
      std::count_if(events.begin(), events.end(),
                    [](const Event& e) { return e.kind == Kind::kTaskRequeue; });
  EXPECT_EQ(requeues, 3);  // 4 runs, 3 of which re-enqueued
}

TEST_F(TraceTest, MultiThreadedRecordingMerges) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        record(Kind::kUser, static_cast<uint32_t>(t), static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto events = collect();
  int mine = 0;
  for (const Event& e : events) {
    if (e.kind == Kind::kUser) ++mine;
  }
  EXPECT_EQ(mine, kThreads * kPerThread);
  // Sorted by time.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_ns, events[i].t_ns);
  }
}

TEST_F(TraceTest, RingWrapKeepsMostRecent) {
  for (std::size_t i = 0; i < kRingCapacity + 50; ++i) {
    record(Kind::kUser, 0, i);
  }
  const auto events = collect();
  // At most one ring's worth, and it contains the newest event.
  std::size_t mine = 0;
  uint64_t max_arg = 0;
  for (const Event& e : events) {
    if (e.kind == Kind::kUser) {
      ++mine;
      max_arg = std::max(max_arg, e.arg1);
    }
  }
  EXPECT_LE(mine, kRingCapacity);
  EXPECT_EQ(max_arg, kRingCapacity + 49);
}

TEST_F(TraceTest, CollectAndResetRaceWithRecording) {
  // One thread records without pause while this one collects and resets:
  // every collected event must be whole (arg0 is derived from arg1), every
  // stream time-sorted, and no copy of a slot the writer lapped may
  // survive (the writer's events form one unbroken run of arg1).
  const auto tag = [](uint64_t v) {
    return static_cast<uint32_t>(v * 0x9E3779B97F4A7C15ULL >> 32);
  };
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> written{0};
  std::thread writer([&] {
    for (uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      record(Kind::kUser, tag(i), i);
      written.store(i, std::memory_order_relaxed);
    }
  });
  std::size_t collected = 0;
  std::size_t torn = 0;
  std::size_t unsorted = 0;
  std::size_t gaps = 0;
  // Keep racing until the writer has wrapped its ring several times and
  // collect() has caught it mid-stream at least once. A loaded host may
  // start the writer only after hundreds of rounds, or run the two threads
  // in turns, so that is bounded by a deadline, not by a round count.
  const int64_t deadline = util::now_ns() + 20'000'000'000;
  for (int round = 0;
       (round < 300 || collected == 0 ||
        written.load(std::memory_order_relaxed) < 8 * kRingCapacity) &&
       util::now_ns() < deadline;
       ++round) {
    const auto events = collect();
    collected += events.size();
    std::vector<uint64_t> seqs;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.kind != Kind::kUser || e.arg0 != tag(e.arg1)) ++torn;
      if (i > 0 && events[i - 1].t_ns > e.t_ns) ++unsorted;
      seqs.push_back(e.arg1);
    }
    std::sort(seqs.begin(), seqs.end());
    for (std::size_t i = 1; i < seqs.size(); ++i) {
      if (seqs[i] != seqs[i - 1] + 1) ++gaps;
    }
    if (round % 3 == 0) reset();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(collected, 0u);
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(unsorted, 0u);
  EXPECT_EQ(gaps, 0u);
}

TEST_F(TraceTest, FormatIsHumanReadable) {
  record(Kind::kTaskRun, 3, 42);
  const std::string text = format(collect());
  EXPECT_NE(text.find("task-run"), std::string::npos);
  EXPECT_NE(text.find("arg0=3"), std::string::npos);
}

TEST(TraceNames, AllKindsNamed) {
  for (const Kind k : {Kind::kTaskSubmit, Kind::kTaskRun, Kind::kTaskDone,
                       Kind::kTaskRequeue, Kind::kUrgentRun,
                       Kind::kSchedulePass, Kind::kPacketTx, Kind::kPacketRx,
                       Kind::kUser}) {
    EXPECT_STRNE(kind_name(k), "?");
  }
}

}  // namespace
}  // namespace piom::util::trace
