// Tests for the sched::Runtime worker pool and its hooks (idle, blocking,
// the interrupt thread's timer tick): the integration points the paper
// relies on for background progression.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/task_manager.hpp"
#include "sched/runtime.hpp"
#include "sync/semaphore.hpp"
#include "util/timing.hpp"

namespace piom::sched {
namespace {

struct Env {
  topo::Machine machine;
  TaskManager tm;
  Runtime rt;

  explicit Env(topo::Machine m)
      : machine(std::move(m)), tm(machine), rt(machine, tm) {}
};

TEST(Runtime, RunsSubmittedJobs) {
  Env env(topo::Machine::flat(4));
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    env.rt.submit_job(i % 4, [&] { ran.fetch_add(1); });
  }
  env.rt.quiesce();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(env.rt.jobs_run(), 16u);
}

TEST(Runtime, JobsSeeTheirCpu) {
  Env env(topo::Machine::flat(4));
  std::atomic<int> seen_cpu{-1};
  env.rt.submit_job(2, [&] { seen_cpu.store(Runtime::current_cpu()); });
  env.rt.quiesce();
  EXPECT_EQ(seen_cpu.load(), 2);
  EXPECT_EQ(Runtime::current_cpu(), -1);  // the test thread is foreign
}

TEST(Runtime, IdleHookExecutesTasks) {
  // Submit a task with no job pressure: an idle worker must pick it up
  // without anyone calling schedule() explicitly.
  Env env(topo::Machine::flat(4));
  std::atomic<int> hits{0};
  Task t;
  t.init(
      [](void* arg) {
        static_cast<std::atomic<int>*>(arg)->fetch_add(1);
        return TaskResult::kDone;
      },
      &hits, topo::CpuSet::single(1), kTaskNotify);
  env.tm.submit(&t);
  t.wait_done();
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(t.last_cpu.load(), 1);
}

TEST(Runtime, RepeatPollingTaskServicedWhileIdle) {
  Env env(topo::Machine::flat(2));
  struct Poll {
    std::atomic<int> remaining{200};
  } poll;
  Task t;
  t.init(
      [](void* arg) {
        auto* p = static_cast<Poll*>(arg);
        return (p->remaining.fetch_sub(1) <= 1) ? TaskResult::kDone
                                                : TaskResult::kAgain;
      },
      &poll, topo::CpuSet::single(0), kTaskRepeat | kTaskNotify);
  env.tm.submit(&t);
  t.wait_done();
  EXPECT_LE(poll.remaining.load(), 0);
}

TEST(Runtime, FindIdleNearPrefersTopologyNeighbours) {
  Env env(topo::Machine::kwak());
  // Keep cores 0..3 (the whole first NUMA node) busy.
  std::atomic<bool> release{false};
  std::atomic<int> busy{0};
  for (int c = 1; c < 4; ++c) {
    env.rt.submit_job(c, [&] {
      busy.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (busy.load() < 3) std::this_thread::yield();
  // From core 0, the nearest idle core is outside its cache group but the
  // search must return *some* idle core; from core 5, core 4/6/7 (same
  // cache) must win over more distant ones.
  const int near5 = env.rt.find_idle_near(5);
  EXPECT_TRUE(near5 == 4 || near5 == 6 || near5 == 7) << near5;
  const int near0 = env.rt.find_idle_near(0);
  EXPECT_GE(near0, 4);  // cores 1-3 busy -> someone from another node
  release.store(true);
  env.rt.quiesce();
}

TEST(Runtime, FindIdleNearReturnsMinusOneWhenSaturated) {
  Env env(topo::Machine::flat(2));
  std::atomic<bool> release{false};
  std::atomic<int> busy{0};
  for (int c = 0; c < 2; ++c) {
    env.rt.submit_job(c, [&] {
      busy.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (busy.load() < 2) std::this_thread::yield();
  EXPECT_EQ(env.rt.find_idle_near(0), -1);
  release.store(true);
  env.rt.quiesce();
}

TEST(Runtime, BlockingSectionSchedulesBeforeParking) {
  Env env(topo::Machine::flat(2));
  std::atomic<int> hits{0};
  Task t;
  t.init(
      [](void* arg) {
        static_cast<std::atomic<int>*>(arg)->fetch_add(1);
        return TaskResult::kDone;
      },
      &hits, topo::CpuSet::single(0), kTaskNone);
  // Submit from a foreign thread, then enter a blocking section: the hook
  // must give the task manager a pass (foreign threads hash to some core;
  // retry from both cores via schedule_here until the task runs).
  env.tm.submit(&t);
  {
    BlockingSection bs(env.rt);  // one progression pass happens here
  }
  // The idle workers will run it anyway; the point is it completes promptly.
  const int64_t deadline = util::now_ns() + 1'000'000'000;
  while (!t.completed() && util::now_ns() < deadline) std::this_thread::yield();
  EXPECT_TRUE(t.completed());
}

TEST(Runtime, BareRuntimeRescuesTasksWhenAllCoresBusy) {
  // The paper's deadlock scenario: every core runs a CPU-hungry job that
  // never blocks; without the timer tick the polling task would starve.
  // A bare Runtime must rescue it: no hook is built by the caller.
  topo::Machine machine = topo::Machine::flat(2);
  TaskManager tm(machine);
  Runtime rt(machine, tm);

  std::atomic<bool> task_ran{false};
  std::atomic<bool> stop_jobs{false};
  std::atomic<int> busy{0};
  // Occupy both workers with spinning jobs.
  for (int c = 0; c < 2; ++c) {
    rt.submit_job(c, [&] {
      busy.fetch_add(1);
      while (!stop_jobs.load(std::memory_order_acquire)) {
        // busy: never yields to the idle hook
      }
    });
  }
  while (busy.load() < 2) std::this_thread::yield();
  Task t;
  t.init(
      [](void* arg) {
        static_cast<std::atomic<bool>*>(arg)->store(true);
        return TaskResult::kDone;
      },
      &task_ran, topo::CpuSet::single(0), kTaskNone);
  tm.submit(&t);
  // The interrupt thread counts a task after schedule() returns, so wait
  // for the count too. Checked while the jobs still spin, so no worker can
  // have run the task.
  const int64_t deadline = util::now_ns() + 2'000'000'000;
  while ((!t.completed() || rt.interrupt_tasks_run() == 0) &&
         util::now_ns() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(t.completed()) << "the timer tick failed to rescue the task";
  EXPECT_TRUE(task_ran.load());
  EXPECT_GT(rt.ticks(), 0u);
  EXPECT_GE(rt.interrupt_tasks_run(), 1u);
  stop_jobs.store(true);
  rt.quiesce();
}

TEST(Runtime, StressJobsAndTasksTogether) {
  Env env(topo::Machine::kwak());
  constexpr int kJobs = 200;
  constexpr int kTasks = 500;
  std::atomic<int> jobs_done{0};
  std::atomic<int> tasks_done{0};
  std::deque<Task> tasks(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks[static_cast<std::size_t>(i)].init(
        [](void* arg) {
          static_cast<std::atomic<int>*>(arg)->fetch_add(1);
          return TaskResult::kDone;
        },
        &tasks_done, topo::CpuSet::single(i % 16), kTaskNone);
  }
  std::thread submitter([&] {
    for (auto& t : tasks) env.tm.submit(&t);
  });
  for (int i = 0; i < kJobs; ++i) {
    env.rt.submit_job(i % 16, [&] {
      util::burn_cpu_us(50);
      jobs_done.fetch_add(1);
    });
  }
  submitter.join();
  env.rt.quiesce();
  const int64_t deadline = util::now_ns() + 5'000'000'000;
  while (tasks_done.load() < kTasks && util::now_ns() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(jobs_done.load(), kJobs);
  EXPECT_EQ(tasks_done.load(), kTasks);
  // Task lifetime contract: storage must stay alive until completed() —
  // the counter bump happens *inside* the task fn, before the scheduler's
  // final state store, so wait for each task before the deque dies.
  for (auto& t : tasks) {
    while (!t.completed() && util::now_ns() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(t.completed());
  }
}

TEST(Runtime, StopIsIdempotentAndDtorSafe) {
  Env env(topo::Machine::flat(2));
  env.rt.stop();
  env.rt.stop();
  SUCCEED();
}

}  // namespace
}  // namespace piom::sched
