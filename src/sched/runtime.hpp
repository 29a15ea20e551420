// sched::Runtime — stand-in for the MARCEL thread scheduler the paper hooks
// into. It owns one worker thread per simulated core (pinned to a host CPU
// when permitted) plus one interrupt thread, and invokes the TaskManager at
// the same keypoints MARCEL triggers PIOMan:
//   * CPU idleness      — a worker with no application job schedules tasks;
//   * blocking sections — BlockingSection RAII schedules before parking
//                         (paper: "a thread enters a blocking section ...
//                         the task is processed");
//   * timer interrupt   — the interrupt thread runs a progression pass on
//                         behalf of one core (round-robin) every kTimerPeriod
//                         (§III: "Adding hooks at other keypoints of the
//                         thread scheduling such as timer interrupt ...
//                         permits to ensure a progression of communication"),
//                         so progress never needs an idle core;
//   * urgent tasks      — the same thread is woken the instant a kTaskUrgent
//                         task is submitted and runs it "even on a distant CPU
//                         where a thread is computing" (§VI preemptive tasks).
//                         A real system would use an inter-processor
//                         interrupt; here it is one semaphore wake.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/task_manager.hpp"
#include "sync/semaphore.hpp"
#include "topo/machine.hpp"

namespace piom::sched {

/// Worker occupancy, visible to nmad's "find an idle core" offload logic.
enum class WorkerState : uint8_t {
  kIdle = 0,     ///< no application job; polling / napping
  kBusy = 1,     ///< running an application job
  kBlocked = 2,  ///< inside a BlockingSection
};

class Runtime {
 public:
  /// `machine` and `tm` must outlive the runtime. Spawns ncpus() workers
  /// and the interrupt thread, and attaches itself as `tm`'s urgent hook
  /// until stop().
  Runtime(const topo::Machine& machine, TaskManager& tm);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Enqueue an application ("computation") job on core `cpu`'s worker.
  void submit_job(int cpu, std::function<void()> job);

  /// Simulated-core id of the calling thread: worker index for workers,
  /// -1 for foreign threads.
  [[nodiscard]] static int current_cpu();

  /// Occupancy of core `cpu`.
  [[nodiscard]] WorkerState worker_state(int cpu) const;

  /// Nearest idle core to `cpu` by topology distance (same cache, then same
  /// chip/NUMA node, then anywhere), excluding `cpu` itself; -1 when every
  /// core is busy. This is §IV-B's submission-offload site search: "the
  /// state of each core is evaluated in order to find an idle core ...
  /// the nearest idle core is specified in the CPU set."
  [[nodiscard]] int find_idle_near(int cpu) const;

  /// One progression step on behalf of the calling thread: uses its own
  /// core when it is a worker, else a thread-hashed core. Returns tasks run.
  int schedule_here();

  /// Number of jobs executed so far (tests).
  [[nodiscard]] uint64_t jobs_run() const {
    return jobs_run_.load(std::memory_order_relaxed);
  }

  /// Timer ticks the interrupt thread has fired so far.
  [[nodiscard]] uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  /// Tasks the interrupt thread ran, from ticks and urgent wakes (tests:
  /// proves the rescue path actually runs tasks when all cores are busy).
  [[nodiscard]] uint64_t interrupt_tasks_run() const {
    return interrupt_tasks_run_.load(std::memory_order_relaxed);
  }

  /// Wait until every submitted job has finished and all workers are idle.
  void quiesce();

  /// Detach the urgent hook (waiting out any submission still calling
  /// it), join the interrupt thread after a final urgent sweep, then all
  /// workers (idempotent; called by dtor).
  void stop();

  [[nodiscard]] TaskManager& task_manager() { return tm_; }
  [[nodiscard]] const topo::Machine& machine() const { return machine_; }
  [[nodiscard]] int ncpus() const { return machine_.ncpus(); }

 private:
  friend class BlockingSection;

  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::function<void()>> jobs;
    std::atomic<WorkerState> state{WorkerState::kIdle};
    std::atomic<uint64_t> pending_jobs{0};
  };

  void worker_loop(int cpu);
  void interrupt_loop(int creator_cpu);
  /// UrgentHook::fn: record the submitter's CPU and wake the interrupt
  /// thread.
  static void wake_interrupt(void* self);
  static void pin_to_host_cpu(int cpu);

  const topo::Machine& machine_;
  TaskManager& tm_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> running_{true};
  std::atomic<uint64_t> jobs_run_{0};
  std::atomic<uint64_t> jobs_submitted_{0};
  /// Posted by the urgent hook and by stop().
  sync::Semaphore interrupts_{0};
  const UrgentHook urgent_hook_{&Runtime::wake_interrupt, this};
  /// Host CPU of the latest urgent submitter.
  std::atomic<int> poster_cpu_{-1};
  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> interrupt_tasks_run_{0};
  std::thread interrupt_thread_;
};

/// RAII blocking-section hook. A thread about to block (e.g. on a request
/// semaphore) wraps the wait in a BlockingSection: the scheduler gets one
/// progression pass, and the thread's core is advertised as available so
/// nmad offloads work to it.
class BlockingSection {
 public:
  explicit BlockingSection(Runtime& rt);
  ~BlockingSection();

  BlockingSection(const BlockingSection&) = delete;
  BlockingSection& operator=(const BlockingSection&) = delete;

 private:
  Runtime& rt_;
  int cpu_;
  WorkerState saved_ = WorkerState::kIdle;
};

}  // namespace piom::sched
