// piom::Task — the unit of work the communication library delegates to the
// task manager (paper §III: "A task consists in running a function with a
// given parameter. A CPU set is attached to the task...").
//
// Tasks are *intrusive*: they carry their own queue linkage so the fast path
// performs no allocation (paper §IV-B: "the task structure does not require
// an allocation since it is included in the packet wrapper structure").
// Embed a Task in your request/packet object, init() it, and submit it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "sync/semaphore.hpp"
#include "topo/cpuset.hpp"

namespace piom {

/// What a task function reports back to the scheduler.
enum class TaskResult : uint8_t {
  kDone,   ///< task completed; do not re-enqueue even if kRepeat is set
  kAgain,  ///< not complete yet (e.g. poll found nothing); re-enqueue if kRepeat
};

/// Task option flags (paper: "an option is also added to a task").
enum TaskOptions : uint32_t {
  kTaskNone = 0,
  /// Repeatable task (network polling): re-enqueued after each run that
  /// returns kAgain, until a run returns kDone.
  kTaskRepeat = 1u << 0,
  /// post() the task's semaphore on completion so waiters can block.
  kTaskNotify = 1u << 1,
  /// Preemptive task (paper §VI future work): "tasks that can be executed
  /// immediately, even on a distant CPU where a thread is computing". It
  /// goes to a dedicated urgent queue serviced out-of-band (the sched::
  /// Runtime interrupt thread) and ahead of every hierarchy queue by
  /// schedule(); the CPU set becomes advisory.
  kTaskUrgent = 1u << 2,
};

/// Task lifecycle. Transitions:
///   kCreated -> kQueued -> kRunning -> (kQueued | kDone)
///                                       ^ kRepeat+kAgain only
enum class TaskState : uint8_t {
  kCreated = 0,
  kQueued,
  kRunning,
  kDone,
};

[[nodiscard]] const char* task_state_name(TaskState s);

struct Task {
  using Fn = TaskResult (*)(void* arg);
  /// Post-completion hook, invoked by the scheduler as its very LAST touch
  /// of the task (strictly after the kDone state store). Used by owners
  /// that recycle task-carrying objects through a pool: the hook is the
  /// earliest safe point to release the storage. Must not be combined with
  /// kTaskNotify (the semaphore post would race with the release).
  using DoneFn = void (*)(Task* task);

  // ---- configuration (set before submit, stable while queued) ----
  Fn fn = nullptr;
  void* arg = nullptr;
  DoneFn on_done = nullptr;
  topo::CpuSet cpuset;       ///< cores allowed to execute the task
  uint32_t options = kTaskNone;

  // ---- scheduler-owned state ----
  std::atomic<TaskState> state{TaskState::kCreated};
  /// Intrusive queue linkage. Atomic because the lock-free queue publishes
  /// it through a CAS on the queue head (plain relaxed accesses under the
  /// locked queues' locks; the CAS provides the ordering in the lock-free
  /// one).
  std::atomic<Task*> next{nullptr};
  std::atomic<uint64_t> run_count{0};
  std::atomic<int> last_cpu{-1};   ///< core that last executed the task
  sync::Semaphore done_sem{0};     ///< posted on completion when kTaskNotify

  Task() = default;
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  /// (Re-)arm the task. Must not be called while the task is queued/running.
  void init(Fn f, void* a, const topo::CpuSet& cpus, uint32_t opts);

  [[nodiscard]] bool completed() const {
    return state.load(std::memory_order_acquire) == TaskState::kDone;
  }

  /// Block until completion. Requires kTaskNotify. Cheap spin first.
  void wait_done() { done_sem.wait(); }
};

/// True when `cpu` may legally execute `task` (an empty cpuset means any
/// core). Shared by the scheduling walk and the queues' steal scans.
[[nodiscard]] inline bool task_allowed_on(const Task& task, int cpu) {
  return task.cpuset.empty() || task.cpuset.test(cpu);
}

/// Convenience adaptor owning a std::function; for examples/tests where the
/// raw fn/arg interface is inconvenient. Completion semantics are identical.
class FunctionTask {
 public:
  /// The callable returns a TaskResult like a raw task function.
  FunctionTask(std::function<TaskResult()> body, const topo::CpuSet& cpus,
               uint32_t opts);

  [[nodiscard]] Task& task() { return task_; }
  [[nodiscard]] bool completed() const { return task_.completed(); }
  void wait_done() { task_.wait_done(); }

 private:
  static TaskResult trampoline(void* self);

  std::function<TaskResult()> body_;
  Task task_;
};

}  // namespace piom
