// Tests for the TaskManager: queue selection (cpuset -> topology node),
// Algorithm 1's hierarchy walk, repeatable tasks, affinity enforcement,
// stats, and the ablation config switches.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "core/lf_queue.hpp"
#include "core/task_manager.hpp"

namespace piom {
namespace {

struct Counter {
  std::atomic<int> hits{0};
  std::atomic<int> last_cpu{-1};
};

TaskResult count_hit(void* arg) {
  static_cast<Counter*>(arg)->hits.fetch_add(1);
  return TaskResult::kDone;
}

class TaskManagerKwak : public ::testing::Test {
 protected:
  TaskManagerKwak() : machine_(topo::Machine::kwak()), tm_(machine_) {}
  topo::Machine machine_;
  TaskManager tm_;
};

TEST_F(TaskManagerKwak, SubmitSelectsPerCoreQueue) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, topo::CpuSet::single(5), kTaskNone);
  tm_.submit(&t);
  EXPECT_EQ(tm_.queue_of(machine_.core_node(5)).size_approx(), 1u);
  EXPECT_EQ(tm_.global_queue().size_approx(), 0u);
}

TEST_F(TaskManagerKwak, SubmitSelectsCacheQueue) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, topo::CpuSet::range(4, 8), kTaskNone);
  tm_.submit(&t);
  const topo::TopoNode& cache = machine_.node_covering(topo::CpuSet::range(4, 8));
  EXPECT_EQ(cache.level, topo::Level::kCache);
  EXPECT_EQ(tm_.queue_of(cache).size_approx(), 1u);
}

TEST_F(TaskManagerKwak, EmptyCpusetGoesGlobal) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, {}, kTaskNone);
  tm_.submit(&t);
  EXPECT_EQ(tm_.global_queue().size_approx(), 1u);
}

TEST_F(TaskManagerKwak, ScheduleRunsLocalTask) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, topo::CpuSet::single(3), kTaskNotify);
  tm_.submit(&t);
  EXPECT_EQ(tm_.schedule(3), 1);
  EXPECT_EQ(c.hits.load(), 1);
  EXPECT_TRUE(t.completed());
  EXPECT_EQ(t.last_cpu.load(), 3);
  t.wait_done();  // semaphore was posted
}

TEST_F(TaskManagerKwak, OtherCoreDoesNotSeePerCoreTask) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, topo::CpuSet::single(3), kTaskNone);
  tm_.submit(&t);
  // Core 2 shares the cache with core 3 but must not run a per-core-3 task.
  EXPECT_EQ(tm_.schedule(2), 0);
  EXPECT_EQ(c.hits.load(), 0);
  EXPECT_EQ(tm_.schedule(3), 1);
  EXPECT_EQ(c.hits.load(), 1);
}

TEST_F(TaskManagerKwak, HierarchyWalkReachesGlobalQueue) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, {}, kTaskNone);  // global
  tm_.submit(&t);
  EXPECT_EQ(tm_.schedule(11), 1);  // any core may run it
  EXPECT_EQ(c.hits.load(), 1);
  EXPECT_EQ(t.last_cpu.load(), 11);
}

TEST_F(TaskManagerKwak, AffinityEnforcedInWideQueue) {
  // cpuset {3,4} spans two NUMA nodes on kwak -> lands in the global queue,
  // but only cores 3 and 4 may execute it.
  Counter c;
  Task t;
  t.init(&count_hit, &c, topo::CpuSet::parse("3,4"), kTaskNone);
  tm_.submit(&t);
  EXPECT_EQ(&machine_.node_covering(t.cpuset), &machine_.root());
  EXPECT_EQ(tm_.schedule(7), 0);  // not allowed; re-enqueued
  EXPECT_EQ(tm_.global_queue().size_approx(), 1u);
  EXPECT_EQ(tm_.schedule(4), 1);
  EXPECT_EQ(c.hits.load(), 1);
  EXPECT_EQ(t.last_cpu.load(), 4);
}

TEST_F(TaskManagerKwak, RepeatTaskRunsUntilDone) {
  struct Poll {
    int remaining = 5;
    int runs = 0;
  } poll;
  Task t;
  t.init(
      [](void* arg) {
        auto* p = static_cast<Poll*>(arg);
        ++p->runs;
        return (--p->remaining == 0) ? TaskResult::kDone : TaskResult::kAgain;
      },
      &poll, topo::CpuSet::single(0), kTaskRepeat | kTaskNotify);
  tm_.submit(&t);
  // Each schedule() pass runs the task once (snapshot bound) and re-enqueues.
  int passes = 0;
  while (!t.completed() && passes < 100) {
    tm_.schedule(0);
    ++passes;
  }
  EXPECT_TRUE(t.completed());
  EXPECT_EQ(poll.remaining, 0);
  EXPECT_EQ(poll.runs, 5);
  EXPECT_EQ(t.run_count.load(), 5u);
}

TEST_F(TaskManagerKwak, NonRepeatTaskIgnoresAgain) {
  Counter c;
  Task t;
  t.init(
      [](void* arg) {
        static_cast<Counter*>(arg)->hits.fetch_add(1);
        return TaskResult::kAgain;  // one-shot tasks complete regardless
      },
      &c, topo::CpuSet::single(0), kTaskNone);
  tm_.submit(&t);
  EXPECT_EQ(tm_.schedule(0), 1);
  EXPECT_TRUE(t.completed());
  EXPECT_EQ(tm_.pending_approx(), 0u);
}

TEST_F(TaskManagerKwak, WaitDrivesProgress) {
  struct Poll {
    int remaining = 50;
  } poll;
  Task t;
  t.init(
      [](void* arg) {
        auto* p = static_cast<Poll*>(arg);
        return (--p->remaining == 0) ? TaskResult::kDone : TaskResult::kAgain;
      },
      &poll, topo::CpuSet::single(2), kTaskRepeat);
  tm_.submit(&t);
  tm_.wait(t, 2);  // progressive wait executes the polls itself
  EXPECT_TRUE(t.completed());
  EXPECT_EQ(poll.remaining, 0);
}

TEST_F(TaskManagerKwak, CoreStatsTrackExecutions) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, topo::CpuSet::single(1), kTaskNone);
  tm_.submit(&t);
  tm_.schedule(1);
  EXPECT_EQ(tm_.core_stats(1).tasks_run, 1u);
  EXPECT_GE(tm_.core_stats(1).schedule_calls, 1u);
  EXPECT_EQ(tm_.core_stats(2).tasks_run, 0u);
  EXPECT_EQ(tm_.submissions(), 1u);
  tm_.reset_stats();
  EXPECT_EQ(tm_.core_stats(1).tasks_run, 0u);
  EXPECT_EQ(tm_.submissions(), 0u);
}

TEST_F(TaskManagerKwak, DumpMentionsQueues) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, topo::CpuSet::single(1), kTaskNone);
  tm_.submit(&t);
  const std::string d = tm_.dump();
  EXPECT_NE(d.find("core #1"), std::string::npos);
  EXPECT_NE(d.find("spinlock"), std::string::npos);
}

TEST(TaskManagerConfig, SingleGlobalQueueMode) {
  const topo::Machine m = topo::Machine::kwak();
  TaskManagerConfig cfg;
  cfg.single_global_queue = true;
  TaskManager tm(m, cfg);
  Counter c;
  Task t;
  t.init(&count_hit, &c, topo::CpuSet::single(5), kTaskNone);
  tm.submit(&t);
  EXPECT_EQ(tm.global_queue().size_approx(), 1u);
  // Affinity still honoured even in the big-lock strawman.
  EXPECT_EQ(tm.schedule(0), 0);
  EXPECT_EQ(tm.schedule(5), 1);
}

TEST(TaskManagerConfig, AllQueueKindsWork) {
  for (const QueueKind kind : {QueueKind::kSpin, QueueKind::kTicket,
                               QueueKind::kMutex, QueueKind::kLockFree}) {
    const topo::Machine m = topo::Machine::borderline();
    TaskManagerConfig cfg;
    cfg.queue_kind = kind;
    TaskManager tm(m, cfg);
    Counter c;
    std::deque<Task> tasks(10);
    for (auto& t : tasks) {
      t.init(&count_hit, &c, topo::CpuSet::single(2), kTaskNone);
      tm.submit(&t);
    }
    while (tm.schedule(2) > 0) {
    }
    EXPECT_EQ(c.hits.load(), 10) << queue_kind_name(kind);
  }
}

TEST(TaskManagerConcurrency, ManyCoresDrainSharedQueue) {
  const topo::Machine m = topo::Machine::kwak();
  TaskManager tm(m);
  constexpr int kTasks = 4'000;
  Counter c;
  std::deque<Task> tasks(kTasks);
  for (auto& t : tasks) {
    t.init(&count_hit, &c, {}, kTaskNone);  // global queue
    tm.submit(&t);
  }
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int cpu = 0; cpu < m.ncpus(); ++cpu) {
    threads.emplace_back([&, cpu] {
      ready.fetch_add(1);
      while (ready.load() < m.ncpus()) std::this_thread::yield();
      while (c.hits.load() < kTasks) {
        tm.schedule(cpu);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.hits.load(), kTasks);
  for (auto& t : tasks) EXPECT_TRUE(t.completed());
  // Work was shared: at least a few cores participated.
  int participating = 0;
  uint64_t total = 0;
  for (int cpu = 0; cpu < m.ncpus(); ++cpu) {
    const uint64_t n = tm.core_stats(cpu).tasks_run;
    total += n;
    if (n > 0) ++participating;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTasks));
  // Work sharing needs real parallelism: on a single hardware thread the
  // first worker scheduled can drain all 4000 tiny tasks before the OS ever
  // preempts it, so only assert participation when cores can actually race.
  if (std::thread::hardware_concurrency() >= 2) {
    EXPECT_GE(participating, 2);
  }
}

TEST(TaskManagerConcurrency, ConcurrentSubmitAndDrain) {
  const topo::Machine m = topo::Machine::borderline();
  TaskManager tm(m);
  constexpr int kPerThread = 2'000;
  constexpr int kSubmitters = 4;
  Counter c;
  std::deque<std::deque<Task>> tasks(kSubmitters);
  for (auto& v : tasks) v.resize(kPerThread);
  std::atomic<bool> stop{false};
  std::vector<std::thread> drainers;
  for (int cpu = 0; cpu < m.ncpus(); ++cpu) {
    drainers.emplace_back([&, cpu] {
      while (!stop.load()) tm.schedule(cpu);
      // Final drain so nothing is left behind.
      while (tm.schedule(cpu) > 0) {
      }
    });
  }
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerThread; ++i) {
        Task& t = tasks[s][i];
        t.init(&count_hit, &c, topo::CpuSet::single((s + i) % m.ncpus()),
               kTaskNone);
        tm.submit(&t);
      }
    });
  }
  for (auto& th : submitters) th.join();
  while (c.hits.load() < kSubmitters * kPerThread) std::this_thread::yield();
  stop.store(true);
  for (auto& th : drainers) th.join();
  EXPECT_EQ(c.hits.load(), kSubmitters * kPerThread);
  EXPECT_EQ(tm.pending_approx(), 0u);
}

}  // namespace
}  // namespace piom
