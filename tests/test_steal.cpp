// Work-stealing tests: CpuSet-respecting steals, locality-ordered victim
// selection, migration of stolen repeatable tasks, the no-steal ablation's
// equivalence with the paper's plain Algorithm 1, steal counters, and a
// cross-queue-kind stress test (submitters flooding one chip while every
// core schedules/steals concurrently).
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "core/lf_queue.hpp"
#include "core/task_manager.hpp"
#include "topo/machine.hpp"

namespace piom {
namespace {

struct Counter {
  std::atomic<int> hits{0};
};

TaskResult count_hit(void* arg) {
  static_cast<Counter*>(arg)->hits.fetch_add(1);
  return TaskResult::kDone;
}

const topo::TopoNode& node_at(const topo::Machine& m, topo::Level level,
                              int index) {
  for (const auto& n : m.nodes()) {
    if (n->level == level && n->index_in_level == index) return *n;
  }
  throw std::logic_error("node_at: no such node");
}

class StealKwak : public ::testing::Test {
 protected:
  StealKwak() : machine_(topo::Machine::kwak()), tm_(machine_) {}
  topo::Machine machine_;
  TaskManager tm_;
};

TEST_F(StealKwak, StealOrderCoversOffPathNodesNearestFirst) {
  const auto& order = machine_.steal_order(0);
  // Everything except the 5 nodes on core 0's path (core/cache/chip/numa/
  // machine) is a potential victim.
  EXPECT_EQ(order.size(), machine_.nnodes() - 5);
  // Cache siblings come first...
  EXPECT_EQ(order[0], &node_at(machine_, topo::Level::kCore, 1));
  EXPECT_EQ(order[1], &node_at(machine_, topo::Level::kCore, 2));
  EXPECT_EQ(order[2], &node_at(machine_, topo::Level::kCore, 3));
  // ...then the remote NUMA subtrees, wider queues before their leaves.
  EXPECT_EQ(order[3], &node_at(machine_, topo::Level::kNuma, 1));
  EXPECT_EQ(order[4], &node_at(machine_, topo::Level::kChip, 1));
  // No victim may sit on core 0's own path (i.e. cover core 0).
  for (const topo::TopoNode* v : order) EXPECT_FALSE(v->cpus.test(0));
}

TEST_F(StealKwak, StealsAnywhereTaskFromRemoteBranch) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, {}, kTaskNone);  // any core may run it
  // Locality-hinted submission: the task lands in core 12's queue, a branch
  // core 0 never walks.
  tm_.submit_to(&t, machine_.core_node(12));
  EXPECT_EQ(tm_.queue_of(machine_.core_node(12)).size_approx(), 1u);
  EXPECT_EQ(tm_.schedule(0), 1);  // dry local branch -> steal
  EXPECT_EQ(c.hits.load(), 1);
  EXPECT_TRUE(t.completed());
  EXPECT_EQ(t.last_cpu.load(), 0);
  const CoreStats cs = tm_.core_stats(0);
  EXPECT_GE(cs.steal_attempts, 1u);
  EXPECT_EQ(cs.steal_hits, 1u);
  EXPECT_EQ(cs.tasks_stolen, 1u);
  const QueueStats qs = tm_.queue_of(machine_.core_node(12)).stats();
  EXPECT_EQ(qs.stolen_tasks, 1u);
  EXPECT_EQ(qs.steal_hits, 1u);
}

TEST_F(StealKwak, StealRespectsCpuSet) {
  Counter c;
  Task pinned;
  pinned.init(&count_hit, &c, topo::CpuSet::single(12), kTaskNone);
  tm_.submit(&pinned);  // lands in core 12's queue, as always
  // Core 0 must not steal a task whose cpuset forbids it — even though the
  // victim queue is reachable by the steal scan.
  EXPECT_EQ(tm_.schedule(0), 0);
  EXPECT_EQ(c.hits.load(), 0);
  EXPECT_EQ(tm_.queue_of(machine_.core_node(12)).size_approx(), 1u);
  EXPECT_GT(tm_.core_stats(0).steal_attempts, 0u);
  EXPECT_EQ(tm_.core_stats(0).steal_hits, 0u);
  // An allowed thief may: cpuset {2,12} in core 12's queue, stolen by 2.
  Task shared;
  shared.init(&count_hit, &c, topo::CpuSet::parse("2,12"), kTaskNone);
  tm_.submit_to(&shared, machine_.core_node(12));
  EXPECT_EQ(tm_.schedule(2), 1);
  EXPECT_EQ(shared.last_cpu.load(), 2);
  // The pinned task is still only runnable by core 12.
  EXPECT_EQ(tm_.schedule(12), 1);
  EXPECT_EQ(pinned.last_cpu.load(), 12);
}

TEST_F(StealKwak, LocalityOrderPrefersCacheSibling) {
  Counter c;
  Task near_task, far_task;
  near_task.init(&count_hit, &c, {}, kTaskNone);
  far_task.init(&count_hit, &c, {}, kTaskNone);
  tm_.submit_to(&far_task, machine_.core_node(12));  // remote NUMA node
  tm_.submit_to(&near_task, machine_.core_node(1));  // cache sibling
  // One steal attempt takes from the *first* victim with eligible work:
  // the cache sibling, not the remote branch.
  EXPECT_EQ(tm_.steal(0), 1);
  EXPECT_TRUE(near_task.completed());
  EXPECT_FALSE(far_task.completed());
  EXPECT_EQ(tm_.steal(0), 1);
  EXPECT_TRUE(far_task.completed());
}

TEST_F(StealKwak, StolenRepeatableTaskMigratesToThief) {
  struct Poll {
    int remaining = 3;
  } poll;
  Task t;
  t.init(
      [](void* arg) {
        auto* p = static_cast<Poll*>(arg);
        return (--p->remaining == 0) ? TaskResult::kDone : TaskResult::kAgain;
      },
      &poll, {}, kTaskRepeat);
  tm_.submit_to(&t, machine_.core_node(12));
  // First run steals it; the kAgain re-enqueue goes to the thief's own
  // per-core queue, not back to the victim branch.
  EXPECT_EQ(tm_.schedule(0), 1);
  EXPECT_EQ(tm_.queue_of(machine_.core_node(12)).size_approx(), 0u);
  EXPECT_EQ(tm_.queue_of(machine_.core_node(0)).size_approx(), 1u);
  while (!t.completed()) tm_.schedule(0);
  EXPECT_EQ(poll.remaining, 0);
  EXPECT_EQ(t.run_count.load(), 3u);
  // Only the first run was a steal; the rest were local.
  EXPECT_EQ(tm_.core_stats(0).tasks_stolen, 1u);
}

TEST_F(StealKwak, StealBatchTakesSeveralFromOneVictim) {
  TaskManagerConfig cfg;
  cfg.steal_batch = 8;
  TaskManager tm(machine_, cfg);
  Counter c;
  std::deque<Task> tasks(10);
  for (auto& t : tasks) {
    t.init(&count_hit, &c, {}, kTaskNone);
    tm.submit_to(&t, machine_.core_node(12));
  }
  EXPECT_EQ(tm.steal(0), 8);  // one attempt, one victim, batch tasks
  EXPECT_EQ(c.hits.load(), 8);
  EXPECT_EQ(tm.queue_of(machine_.core_node(12)).size_approx(), 2u);
  EXPECT_EQ(tm.core_stats(0).tasks_stolen, 8u);
}

TEST_F(StealKwak, UrgentTasksIgnoreTheLocalityHint) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, {}, kTaskUrgent);
  tm_.submit_to(&t, machine_.core_node(12));
  EXPECT_EQ(tm_.queue_of(machine_.core_node(12)).size_approx(), 0u);
  EXPECT_EQ(tm_.urgent_pending_approx(), 1u);
  EXPECT_EQ(tm_.run_urgent(5), 1);
}

TEST_F(StealKwak, ResetStatsClearsStealCounters) {
  Counter c;
  Task t;
  t.init(&count_hit, &c, {}, kTaskNone);
  tm_.submit_to(&t, machine_.core_node(12));
  EXPECT_EQ(tm_.schedule(0), 1);
  EXPECT_GT(tm_.core_stats(0).steal_attempts, 0u);
  EXPECT_EQ(tm_.core_stats(0).tasks_stolen, 1u);
  tm_.reset_stats();
  const CoreStats cs = tm_.core_stats(0);
  EXPECT_EQ(cs.steal_attempts, 0u);
  EXPECT_EQ(cs.steal_hits, 0u);
  EXPECT_EQ(cs.tasks_stolen, 0u);
  EXPECT_EQ(cs.tasks_run, 0u);
}

// With stealing disabled the scheduler must behave exactly like the
// pre-stealing Algorithm 1: locality-hinted tasks outside a core's branch
// are invisible to it, and no steal counter ever moves.
TEST(StealAblation, NoStealReproducesAlgorithm1) {
  const topo::Machine m = topo::Machine::kwak();
  TaskManagerConfig cfg;
  cfg.steal = false;
  TaskManager tm(m, cfg);
  Counter c;
  Task hinted;
  hinted.init(&count_hit, &c, {}, kTaskNone);
  tm.submit_to(&hinted, m.core_node(12));
  // Invisible to every core outside core 12's branch, forever.
  for (int pass = 0; pass < 3; ++pass) {
    for (const int cpu : {0, 1, 4, 8, 15}) {
      EXPECT_EQ(tm.schedule(cpu), 0);
    }
  }
  EXPECT_EQ(tm.queue_of(m.core_node(12)).size_approx(), 1u);
  EXPECT_EQ(c.hits.load(), 0);
  // Core 12's own Algorithm-1 walk runs it, as before this PR.
  EXPECT_EQ(tm.schedule(12), 1);
  EXPECT_EQ(c.hits.load(), 1);
  // No steal machinery was touched anywhere.
  for (int cpu = 0; cpu < m.ncpus(); ++cpu) {
    EXPECT_EQ(tm.core_stats(cpu).steal_attempts, 0u);
    EXPECT_EQ(tm.core_stats(cpu).tasks_stolen, 0u);
  }
  for (const auto& n : m.nodes()) {
    const QueueStats qs = tm.queue_of(*n).stats();
    EXPECT_EQ(qs.steal_hits + qs.steal_misses + qs.stolen_tasks, 0u);
  }
}

TEST(StealAblation, SingleGlobalQueueNeverSteals) {
  const topo::Machine m = topo::Machine::kwak();
  TaskManagerConfig cfg;
  cfg.single_global_queue = true;
  TaskManager tm(m, cfg);
  EXPECT_EQ(tm.steal(0), 0);
}

// Direct queue-level coverage: try_steal takes only eligible tasks, from
// the cold (tail) end of the FIFO backends, leaving the owner's dequeue
// end untouched.
TEST(QueueTrySteal, LockedQueueStealsEligibleFromTail) {
  SpinTaskQueue q;
  Counter c;
  std::deque<Task> tasks(5);
  // 0,2,4 runnable anywhere; 1,3 pinned to cpu 9.
  for (int i = 0; i < 5; ++i) {
    const topo::CpuSet cpus =
        (i % 2 == 1) ? topo::CpuSet::single(9) : topo::CpuSet{};
    tasks[static_cast<std::size_t>(i)].init(&count_hit, &c, cpus, kTaskNone);
    tasks[static_cast<std::size_t>(i)].state.store(TaskState::kQueued);
    q.enqueue(&tasks[static_cast<std::size_t>(i)]);
  }
  Task* out[4] = {};
  // Thief cpu 0: 3 eligible (tasks 0,2,4); want 2 -> the 2 nearest the
  // tail, i.e. tasks 2 and 4, in queue order.
  EXPECT_EQ(q.try_steal(0, 2, out), 2u);
  EXPECT_EQ(out[0], &tasks[2]);
  EXPECT_EQ(out[1], &tasks[4]);
  EXPECT_EQ(q.size_approx(), 3u);
  // The owner's end is untouched: FIFO order of the remainder holds.
  EXPECT_EQ(q.try_dequeue(), &tasks[0]);
  EXPECT_EQ(q.try_dequeue(), &tasks[1]);
  EXPECT_EQ(q.try_dequeue(), &tasks[3]);
  EXPECT_EQ(q.try_dequeue(), nullptr);
  const QueueStats s = q.stats();
  EXPECT_EQ(s.stolen_tasks, 2u);
  EXPECT_EQ(s.steal_hits, 1u);
}

TEST(QueueTrySteal, MissesAreCountedAndEmptyScansAreFree) {
  TicketTaskQueue q;
  Counter c;
  Task pinned;
  pinned.init(&count_hit, &c, topo::CpuSet::single(9), kTaskNone);
  pinned.state.store(TaskState::kQueued);
  q.enqueue(&pinned);
  Task* out[1] = {};
  EXPECT_EQ(q.try_steal(0, 1, out), 0u);  // nothing eligible
  EXPECT_EQ(q.stats().steal_misses, 1u);
  EXPECT_EQ(q.try_dequeue(), &pinned);
  // An empty victim is skipped without locking (Algorithm 2 for thieves):
  const uint64_t locks_before = q.stats().lock_acquisitions;
  EXPECT_EQ(q.try_steal(0, 1, out), 0u);
  EXPECT_EQ(q.stats().lock_acquisitions, locks_before);
}

TEST(QueueTrySteal, LockFreeQueueStealsAroundIneligibleTop) {
  LockFreeTaskQueue q;
  Counter c;
  Task pinned, movable;
  movable.init(&count_hit, &c, {}, kTaskNone);
  pinned.init(&count_hit, &c, topo::CpuSet::single(9), kTaskNone);
  movable.state.store(TaskState::kQueued);
  pinned.state.store(TaskState::kQueued);
  q.enqueue(&movable);
  q.enqueue(&pinned);  // LIFO: the pinned task now sits on top
  Task* out[2] = {};
  EXPECT_EQ(q.try_steal(0, 2, out), 1u);
  EXPECT_EQ(out[0], &movable);
  // The ineligible task went back and is still dequeuable.
  EXPECT_EQ(q.size_approx(), 1u);
  EXPECT_EQ(q.try_dequeue(), &pinned);
  EXPECT_EQ(q.stats().stolen_tasks, 1u);
}

TEST(QueueTrySteal, StatsOffPathCountsNothing) {
  for (const bool stats_on : {true, false}) {
    SpinTaskQueue q(/*double_check=*/true, /*count_stats=*/stats_on);
    LockFreeTaskQueue lf(/*count_stats=*/stats_on);
    Counter c;
    std::deque<Task> tasks(4);
    for (int i = 0; i < 4; ++i) {
      tasks[static_cast<std::size_t>(i)].init(&count_hit, &c, {}, kTaskNone);
      tasks[static_cast<std::size_t>(i)].state.store(TaskState::kQueued);
    }
    ITaskQueue* queues[] = {&q, &lf};
    int ti = 0;
    for (ITaskQueue* queue : queues) {
      queue->enqueue(&tasks[static_cast<std::size_t>(ti++)]);
      queue->enqueue(&tasks[static_cast<std::size_t>(ti++)]);
      Task* out[1] = {};
      EXPECT_EQ(queue->try_steal(0, 1, out), 1u);
      EXPECT_EQ(queue->try_dequeue(), &tasks[static_cast<std::size_t>(ti - 2)]);
      (void)queue->try_dequeue();  // empty check
      const QueueStats s = queue->stats();
      const uint64_t total = s.enqueues + s.dequeues + s.empty_checks +
                             s.lock_acquisitions + s.steal_hits +
                             s.steal_misses + s.stolen_tasks;
      if (stats_on) {
        EXPECT_GT(total, 0u);
      } else {
        EXPECT_EQ(total, 0u);  // truly zero-cost: nothing was counted
      }
      // The functional size counter is unaffected by the stats switch.
      EXPECT_EQ(queue->size_approx(), 0u);
    }
  }
}

// Stress: every queue kind, all cores scheduling/stealing while submitters
// flood a single chip's queues with anywhere-runnable and pinned tasks.
// This is the TSan workload for the steal path.
TEST(StealStress, AllQueueKindsDrainImbalancedLoad) {
  constexpr int kPerSubmitter = 400;
  constexpr int kSubmitters = 2;
  for (const QueueKind kind : {QueueKind::kSpin, QueueKind::kTicket,
                               QueueKind::kMutex, QueueKind::kLockFree}) {
    const topo::Machine m = topo::Machine::borderline();
    TaskManagerConfig cfg;
    cfg.queue_kind = kind;
    cfg.steal_batch = 4;
    TaskManager tm(m, cfg);
    Counter c;
    std::deque<std::deque<Task>> tasks(kSubmitters);
    for (auto& v : tasks) v.resize(kPerSubmitter);
    std::atomic<bool> stop{false};
    std::vector<std::thread> drainers;
    for (int cpu = 0; cpu < m.ncpus(); ++cpu) {
      drainers.emplace_back([&, cpu] {
        while (!stop.load()) tm.schedule(cpu);
        while (tm.schedule(cpu) > 0) {
        }
      });
    }
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          Task& t = tasks[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(i)];
          // Mix: mostly anywhere-tasks, some pinned inside chip 0 (cores
          // 0/1 on borderline) — all locality-hinted into chip 0's branch.
          const topo::CpuSet cpus =
              (i % 4 == 0) ? topo::CpuSet::single(i % 2) : topo::CpuSet{};
          t.init(&count_hit, &c, cpus, kTaskNone);
          tm.submit_to(&t, m.core_node(s % 2));
        }
      });
    }
    for (auto& th : submitters) th.join();
    while (c.hits.load() < kSubmitters * kPerSubmitter) {
      std::this_thread::yield();
    }
    stop.store(true);
    for (auto& th : drainers) th.join();
    EXPECT_EQ(c.hits.load(), kSubmitters * kPerSubmitter)
        << queue_kind_name(kind);
    EXPECT_EQ(tm.pending_approx(), 0u) << queue_kind_name(kind);
    for (auto& v : tasks) {
      for (auto& t : v) EXPECT_TRUE(t.completed());
    }
    c.hits.store(0);
  }
}

}  // namespace
}  // namespace piom
