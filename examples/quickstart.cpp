// Quickstart: the piom task scheduler in a dozen lines.
//
// Shows the core API surface:
//   1. describe the machine (here: the paper's 'kwak' topology),
//   2. create a TaskManager (hierarchical queues mapped onto the topology),
//   3. start a Runtime (one worker per core plus an interrupt thread),
//   4. submit tasks with CPU sets and let idle cores execute them.
//
// Build & run:  ./build/examples/quickstart
#include <atomic>
#include <cstdio>

#include "core/task_manager.hpp"
#include "sched/runtime.hpp"
#include "topo/machine.hpp"

using namespace piom;

int main() {
  // 1. The machine topology. Machine::detect() would probe the host;
  //    the synthetic 'kwak' (4 NUMA nodes x 4 cores, Fig 3 of the paper)
  //    makes the output deterministic.
  const topo::Machine machine = topo::Machine::kwak();
  std::printf("Machine:\n%s\n", machine.to_string().c_str());

  // 2. The task manager: one queue per topology node (per-core, per-cache,
  //    per-chip, per-NUMA, global).
  TaskManager tm(machine);

  // 3. The runtime: workers occupy the simulated cores and run tasks from
  //    their queue hierarchy whenever they are idle. Its interrupt thread's
  //    timer tick guarantees progress even when all cores are busy.
  sched::Runtime runtime(machine, tm);

  // 4a. A one-shot task pinned to core 5: only core 5 may run it.
  std::atomic<int> where{-1};
  FunctionTask pinned(
      [&] {
        where.store(sched::Runtime::current_cpu());
        return TaskResult::kDone;
      },
      topo::CpuSet::single(5), kTaskNotify);
  tm.submit(&pinned.task());
  pinned.wait_done();
  std::printf("pinned task executed on core %d (asked for core 5)\n",
              where.load());

  // 4b. A repeatable "polling" task, allowed on any core of NUMA node #1
  //     (cores 0-3): re-enqueued until it reports success, like a network
  //     poll that completes when data arrives.
  std::atomic<int> polls{0};
  FunctionTask poller(
      [&] {
        // Pretend the 10th poll finds the event we are waiting for.
        return (polls.fetch_add(1) + 1 >= 10) ? TaskResult::kDone
                                              : TaskResult::kAgain;
      },
      topo::CpuSet::range(0, 4), kTaskRepeat | kTaskNotify);
  tm.submit(&poller.task());
  poller.wait_done();
  std::printf("polling task completed after %d polls on core %d\n",
              polls.load(), poller.task().last_cpu.load());

  // 4c. A task in the Global queue (empty CPU set): any idle core takes it.
  FunctionTask global([&] { return TaskResult::kDone; }, {}, kTaskNotify);
  tm.submit(&global.task());
  global.wait_done();
  std::printf("global-queue task executed on core %d\n",
              global.task().last_cpu.load());

  std::printf("\nscheduler state:\n%s", tm.dump().c_str());
  return 0;
}
