// Ablation: preemptive (urgent) tasks — the paper's §VI future work,
// implemented here by the Runtime's interrupt thread.
//
// Scenario: every worker core runs a CPU-hungry job that never blocks. A
// task is submitted and its submission-to-execution latency is measured:
//   * normal task — waits for the interrupt thread's next timer tick
//     (paper's baseline guarantee, ~timer period);
//   * urgent task — wakes the interrupt thread at once and runs within a
//     semaphore wake (~µs), "even on a distant CPU where a thread is
//     computing".
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/common.hpp"
#include "core/task_manager.hpp"
#include "sched/runtime.hpp"
#include "topo/machine.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace {

using namespace piom;

TaskResult stamp(void* arg) {
  static_cast<std::atomic<int64_t>*>(arg)->store(util::now_ns(),
                                                 std::memory_order_release);
  return TaskResult::kDone;
}

/// Median submission-to-execution latency (µs) with all cores busy.
double run_case(bool urgent, int iters) {
  const topo::Machine machine = topo::Machine::flat(4);
  TaskManager tm(machine);
  sched::Runtime rt(machine, tm);

  std::atomic<bool> stop{false};
  std::atomic<int> busy{0};
  for (int c = 0; c < machine.ncpus(); ++c) {
    rt.submit_job(c, [&] {
      busy.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
      }
    });
  }
  while (busy.load() < machine.ncpus()) std::this_thread::yield();

  util::SampleSet samples;
  for (int i = 0; i < iters; ++i) {
    std::atomic<int64_t> executed_at{0};
    Task t;
    t.init(&stamp, &executed_at, {},
           (urgent ? kTaskUrgent : kTaskNone) | kTaskNotify);
    const int64_t t0 = util::now_ns();
    tm.submit(&t);
    t.wait_done();
    samples.add(static_cast<double>(executed_at.load() - t0) * 1e-3);
  }
  stop.store(true);
  rt.quiesce();
  return samples.summary().median;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = piom::bench::quick_mode(argc, argv);
  const int iters = quick ? 100 : 500;
  std::printf(
      "=== Ablation — preemptive (urgent) tasks vs timer-rescued tasks ===\n");
  std::printf("scenario: 4 workers all running CPU-hungry jobs; median "
              "submission-to-execution latency\n");
  std::printf("expected shape: urgent << normal (normal waits for the 100us "
              "timer tick; urgent takes one out-of-band wakeup)\n\n");
  const double normal_us = run_case(false, iters);
  const double urgent_us = run_case(true, iters);
  std::printf("%-28s %10.1f us\n", "normal task (timer rescue)", normal_us);
  std::printf("%-28s %10.1f us\n", "urgent task (interrupt)", urgent_us);
  std::printf("%-28s %10.1fx\n", "speedup",
              urgent_us > 0 ? normal_us / urgent_us : 0.0);
  std::printf("\n");
  return 0;
}
