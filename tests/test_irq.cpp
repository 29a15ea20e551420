// Tests for preemptive (urgent) tasks and the Runtime's interrupt thread —
// the paper's §VI future-work feature: tasks that run immediately even when
// every core is busy computing.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/task_manager.hpp"
#include "sched/runtime.hpp"
#include "topo/machine.hpp"
#include "util/timing.hpp"

namespace piom::sched {
namespace {

TaskResult mark_time(void* arg) {
  static_cast<std::atomic<int64_t>*>(arg)->store(util::now_ns());
  return TaskResult::kDone;
}

TEST(UrgentTask, GoesToUrgentQueueNotHierarchy) {
  const topo::Machine m = topo::Machine::flat(2);
  TaskManager tm(m);
  std::atomic<int64_t> when{0};
  Task t;
  t.init(&mark_time, &when, topo::CpuSet::single(1), kTaskUrgent);
  tm.submit(&t);
  EXPECT_EQ(tm.urgent_pending_approx(), 1u);
  EXPECT_EQ(tm.global_queue().size_approx(), 0u);
  EXPECT_EQ(tm.queue_of(m.core_node(1)).size_approx(), 0u);
}

TEST(UrgentTask, RunUrgentIgnoresCpuSet) {
  const topo::Machine m = topo::Machine::flat(4);
  TaskManager tm(m);
  std::atomic<int64_t> when{0};
  Task t;
  t.init(&mark_time, &when, topo::CpuSet::single(3), kTaskUrgent);
  tm.submit(&t);
  // Core 0 is not in the cpuset, but preemptive semantics run it anyway.
  EXPECT_EQ(tm.run_urgent(0), 1);
  EXPECT_TRUE(t.completed());
  EXPECT_EQ(t.last_cpu.load(), 0);
}

TEST(UrgentTask, ScheduleServicesUrgentFirst) {
  const topo::Machine m = topo::Machine::flat(2);
  TaskManager tm(m);
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
    int id;
  };
  Ctx c1{&order, 1}, c2{&order, 2};
  auto fn = [](void* arg) {
    auto* c = static_cast<Ctx*>(arg);
    c->order->push_back(c->id);
    return TaskResult::kDone;
  };
  Task normal, urgent;
  normal.init(fn, &c1, topo::CpuSet::single(0), kTaskNone);
  urgent.init(fn, &c2, {}, kTaskUrgent);
  tm.submit(&normal);
  tm.submit(&urgent);
  tm.schedule(0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2) << "urgent task must run before hierarchy queues";
  EXPECT_EQ(order[1], 1);
}

TEST(UrgentTask, HookFiresUntilDetached) {
  const topo::Machine m = topo::Machine::flat(1);
  TaskManager tm(m);
  std::atomic<int> notified{0};
  const UrgentHook hook{
      [](void* ctx) { static_cast<std::atomic<int>*>(ctx)->fetch_add(1); },
      &notified};
  tm.attach_urgent_hook(&hook);
  std::atomic<int64_t> when{0};
  Task t;
  t.init(&mark_time, &when, {}, kTaskUrgent);
  tm.submit(&t);
  EXPECT_EQ(notified.load(), 1);
  // Normal tasks do not fire the hook.
  Task n;
  n.init(&mark_time, &when, {}, kTaskNone);
  tm.submit(&n);
  EXPECT_EQ(notified.load(), 1);
  tm.schedule(0);
  // Detaching another hook leaves this one attached.
  const UrgentHook other{};
  tm.detach_urgent_hook(&other);
  tm.submit(&t);
  EXPECT_EQ(notified.load(), 2);
  tm.schedule(0);
  // Once detached, it never fires again.
  tm.detach_urgent_hook(&hook);
  tm.submit(&t);
  EXPECT_EQ(notified.load(), 2);
  tm.schedule(0);
}

TEST(RuntimeInterrupt, ExecutesUrgentTaskWhileAllCoresBusy) {
  // The discriminating scenario: every worker runs a CPU-hungry job. A
  // normal task would wait for a scheduling hole or the next timer tick;
  // the urgent task must run within microseconds via the interrupt thread.
  const topo::Machine m = topo::Machine::flat(2);
  TaskManager tm(m);
  Runtime rt(m, tm);

  std::atomic<bool> stop{false};
  std::atomic<int> busy{0};
  for (int c = 0; c < 2; ++c) {
    rt.submit_job(c, [&] {
      busy.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
      }
    });
  }
  while (busy.load() < 2) std::this_thread::yield();

  std::atomic<int64_t> executed_at{0};
  Task t;
  t.init(&mark_time, &executed_at, {}, kTaskUrgent | kTaskNotify);
  const int64_t submitted_at = util::now_ns();
  tm.submit(&t);
  t.wait_done();
  // The interrupt thread counts the task after run_urgent() returns.
  const int64_t deadline = util::now_ns() + 2'000'000'000;
  while (rt.interrupt_tasks_run() == 0 && util::now_ns() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  rt.quiesce();
  const double delay_us =
      static_cast<double>(executed_at.load() - submitted_at) * 1e-3;
  EXPECT_GT(rt.interrupt_tasks_run(), 0u);
  EXPECT_LT(delay_us, 20'000.0) << "urgent task took " << delay_us << "us";
}

TEST(RuntimeInterrupt, UrgentStreamDoesNotStarveTheTimerTick) {
  // One thread serves both the urgent wakes and the timer tick. Urgent
  // tasks submitted back to back never let its wait time out; the tick
  // that rescues a normal task while every core computes must still fire.
  const topo::Machine m = topo::Machine::flat(2);
  TaskManager tm(m);
  Runtime rt(m, tm);
  std::atomic<bool> stop{false};
  std::atomic<int> busy{0};
  for (int c = 0; c < 2; ++c) {
    rt.submit_job(c, [&] {
      busy.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
      }
    });
  }
  while (busy.load() < 2) std::this_thread::yield();

  std::atomic<bool> flooding{true};
  std::thread flood([&] {
    std::atomic<int64_t> when{0};
    Task u;
    u.init(&mark_time, &when, {}, kTaskUrgent);
    while (flooding.load(std::memory_order_acquire)) {
      tm.submit(&u);
      while (!u.completed()) {
      }
    }
  });
  std::atomic<int64_t> ran_at{0};
  Task t;
  t.init(&mark_time, &ran_at, {}, kTaskNone);
  const int64_t submitted_at = util::now_ns();
  tm.submit(&t);
  const int64_t deadline = submitted_at + 2'000'000'000;
  while (!t.completed() && util::now_ns() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(t.completed());
  // The tick period is 100 us; a starved tick fires only when the flood
  // happens to pause (hundreds of ms).
  const double delay_ms =
      static_cast<double>(ran_at.load() - submitted_at) * 1e-6;
  EXPECT_LT(delay_ms, 100.0) << "urgent wakes starved the timer tick";
  flooding.store(false, std::memory_order_release);
  flood.join();
  stop.store(true);
  rt.quiesce();
}

TEST(RuntimeInterrupt, StopIsIdempotentAndDrains) {
  const topo::Machine m = topo::Machine::flat(1);
  TaskManager tm(m);
  auto rt = std::make_unique<Runtime>(m, tm);
  std::atomic<int64_t> when{0};
  Task t;
  t.init(&mark_time, &when, {}, kTaskUrgent | kTaskNotify);
  tm.submit(&t);
  t.wait_done();
  rt->stop();
  rt->stop();
  rt.reset();
  SUCCEED();
}

TEST(RuntimeInterrupt, UrgentSubmitsRaceRuntimeStartAndStop) {
  // Each Runtime attaches its urgent hook in its constructor and detaches
  // it in stop(), while another thread keeps submitting urgent tasks to the
  // same TaskManager: no submit may call into a stopped (or destroyed)
  // runtime, and no task may be lost between two runtimes.
  const topo::Machine m = topo::Machine::flat(1);
  TaskManager tm(m);
  std::atomic<int> runs{0};
  std::atomic<int> submitted{0};
  std::atomic<bool> submitting{true};
  std::atomic<bool> submitter_done{false};
  std::thread submitter([&] {
    Task t;
    t.init(
        [](void* arg) {
          static_cast<std::atomic<int>*>(arg)->fetch_add(1);
          return TaskResult::kDone;
        },
        &runs, {}, kTaskUrgent);
    while (submitting.load(std::memory_order_acquire)) {
      tm.submit(&t);
      submitted.fetch_add(1);
      // Between two runtimes nobody runs it; the next runtime (or the
      // final drain below) does.
      while (!t.completed()) std::this_thread::yield();
    }
    submitter_done.store(true, std::memory_order_release);
  });
  constexpr int kRuntimes = 200;
  for (int i = 0; i < kRuntimes; ++i) {
    Runtime rt(m, tm);
    // Let this runtime run at least one task, so submits overlap its whole
    // lifetime, then stop it (destructor) while the submitter continues.
    const int before = runs.load();
    const int64_t deadline = util::now_ns() + 2'000'000'000;
    while (runs.load() == before && util::now_ns() < deadline) {
      std::this_thread::yield();
    }
    if (runs.load() == before) {
      ADD_FAILURE() << "runtime " << i << " ran no task";
      break;
    }
  }
  submitting.store(false, std::memory_order_release);
  while (!submitter_done.load(std::memory_order_acquire)) tm.run_urgent(0);
  submitter.join();
  EXPECT_EQ(runs.load(), submitted.load());
  EXPECT_GE(submitted.load(), kRuntimes);
  EXPECT_EQ(tm.urgent_pending_approx(), 0u);
}

TEST(RuntimeInterrupt, ManyUrgentTasksAllRun) {
  const topo::Machine m = topo::Machine::flat(2);
  TaskManager tm(m);
  Runtime rt(m, tm);
  std::atomic<int> hits{0};
  constexpr int kTasks = 500;
  std::deque<Task> tasks(kTasks);
  for (auto& t : tasks) {
    t.init(
        [](void* arg) {
          static_cast<std::atomic<int>*>(arg)->fetch_add(1);
          return TaskResult::kDone;
        },
        &hits, {}, kTaskUrgent);
    tm.submit(&t);
  }
  const int64_t deadline = util::now_ns() + 5'000'000'000;
  while (hits.load() < kTasks && util::now_ns() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(hits.load(), kTasks);
  // Task lifetime contract: storage must stay alive until completed() —
  // the counter bump happens *inside* the task fn, before the scheduler's
  // final state store, so wait for each task before the deque dies.
  for (auto& t : tasks) {
    while (!t.completed() && util::now_ns() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(t.completed());
  }
  EXPECT_EQ(tm.urgent_pending_approx(), 0u);
}

}  // namespace
}  // namespace piom::sched
