// TaskManager — the heart of the paper (§III): one task queue per topology
// node, submit() maps a task's CPU set to the smallest covering node, and
// schedule() is Algorithm 1 — run the local Per-Core queue, then walk up
// (per-cache / per-chip / per-NUMA) to the Global queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "core/task_queue.hpp"
#include "sync/cache.hpp"
#include "topo/machine.hpp"

namespace piom {

/// Which ITaskQueue implementation backs every queue of the hierarchy.
enum class QueueKind {
  kSpin,      ///< spinlock-protected FIFO (the paper's choice)
  kTicket,    ///< ticket-lock FIFO (fair; ablation)
  kMutex,     ///< std::mutex FIFO (ablation: context-switch risk)
  kLockFree,  ///< Treiber LIFO (paper's future work; ablation)
};

[[nodiscard]] const char* queue_kind_name(QueueKind k);

/// Out-of-band wake-up fired after every urgent (kTaskUrgent) submission.
/// A plain function and context, so publishing and clearing it is one
/// atomic pointer store.
struct UrgentHook {
  void (*fn)(void* ctx) = nullptr;
  void* ctx = nullptr;
};

struct TaskManagerConfig {
  QueueKind queue_kind = QueueKind::kSpin;
  /// Algorithm 2's lock-avoiding emptiness pre-check (ablation switch).
  bool double_check = true;
  /// Count skipped-lock events in QueueStats::empty_checks. The counter is
  /// an atomic RMW on the otherwise contention-free fast path; benchmarks
  /// measuring that path should turn it off.
  bool queue_stats = true;
  /// Ablation: ignore the hierarchy and put every task in the Global queue
  /// (the "naive solution" / big-lock strawman of §III).
  bool single_global_queue = false;
  /// Topology-aware work stealing (extension — the paper names stealing as
  /// future work): when a core's own branch of the hierarchy is empty,
  /// schedule() scans victim queues in locality order and takes tasks whose
  /// CpuSet allows this core. With `steal=false` the scheduler reproduces
  /// the paper's Algorithm 1 exactly.
  bool steal = true;
  /// Max tasks taken from the first victim with eligible work per steal
  /// attempt (clamped to [1, 32]).
  int steal_batch = 1;
};

/// Per-core execution counters (the paper reports the distribution of task
/// executions across cores for the per-chip and global queues).
struct CoreStats {
  uint64_t tasks_run = 0;
  uint64_t schedule_calls = 0;
  uint64_t steal_attempts = 0;  ///< victim scans started by this core
  uint64_t steal_hits = 0;      ///< scans that stole at least one task
  uint64_t tasks_stolen = 0;    ///< tasks this core took from other branches
};

class TaskManager {
 public:
  /// The machine must outlive the manager.
  explicit TaskManager(const topo::Machine& machine,
                       TaskManagerConfig config = {});

  TaskManager(const TaskManager&) = delete;
  TaskManager& operator=(const TaskManager&) = delete;

  /// Submit a task for execution. The task's cpuset selects the queue: the
  /// smallest topology node covering it (empty set -> Global queue). The
  /// caller keeps ownership of the Task storage; it must stay alive until
  /// completed().
  void submit(Task* task);

  /// Submit with an explicit home queue — a locality hint: the task goes to
  /// `node`'s queue even when that node does not cover the task's cpuset
  /// (e.g. an anywhere-runnable task dropped into the submitter's per-core
  /// queue for its ~6x cheaper fast path, Table I). Cores outside `node`'s
  /// branch reach such a task only by stealing; with stealing disabled it
  /// waits for an allowed core under `node`. Urgent tasks ignore the hint.
  void submit_to(Task* task, const topo::TopoNode& node);

  /// Algorithm 1 plus stealing: schedule_branch(), and when the whole
  /// branch is dry and config().steal is set, one steal() attempt. Returns
  /// the number of task executions performed.
  int schedule(int cpu);

  /// Algorithm 1 exactly, executed on behalf of core `cpu`: the urgent
  /// queue, then the Per-Core queue and each ancestor queue up to the
  /// Global queue. Repeatable tasks that return kAgain are re-enqueued into
  /// the same queue. Never steals. Returns task executions performed.
  int schedule_branch(int cpu);

  /// One work-stealing attempt on behalf of `cpu`: scan victim queues in
  /// Machine::steal_order() locality order and run up to
  /// config().steal_batch eligible tasks from the first victim that yields
  /// any. Stolen repeatable tasks migrate: a kAgain re-enqueue goes to
  /// `cpu`'s per-core queue, not back to the victim. Returns tasks run.
  int steal(int cpu);

  /// Drain the urgent queue (kTaskUrgent tasks), ignoring CPU sets — the
  /// whole point of a preemptive task is to run NOW, wherever. Returns the
  /// number of tasks executed. Called by schedule_branch() and by the
  /// sched::Runtime interrupt thread.
  int run_urgent(int cpu);

  /// Publish `hook`: every later urgent submission calls hook->fn(ctx),
  /// outside any lock. sched::Runtime uses it to wake its interrupt
  /// thread. `hook` must stay valid until detach_urgent_hook(hook) returns.
  void attach_urgent_hook(const UrgentHook* hook);

  /// Clear `hook` (if it is the one attached), then wait out every urgent
  /// submission still calling it: once this returns, hook->fn never runs
  /// again, so its owner may be destroyed.
  void detach_urgent_hook(const UrgentHook* hook);

  /// Urgent tasks currently queued (approximate).
  [[nodiscard]] std::size_t urgent_pending_approx() const;

  /// Progressive wait (how blocking calls contribute): schedule on `cpu`
  /// until `task` completes. Requires the task to be reachable from `cpu`
  /// (its cpuset contains `cpu`, or contains cores serviced by others).
  void wait(Task& task, int cpu);

  /// Total tasks currently queued across the hierarchy (approximate).
  [[nodiscard]] std::size_t pending_approx() const;

  /// True when `cpu` may legally run `task` (cpuset check).
  [[nodiscard]] static bool cpu_allowed(const Task& task, int cpu);

  [[nodiscard]] const topo::Machine& machine() const { return machine_; }
  [[nodiscard]] const TaskManagerConfig& config() const { return config_; }

  /// Queue of a topology node (bench/tests introspection).
  [[nodiscard]] ITaskQueue& queue_of(const topo::TopoNode& node);
  [[nodiscard]] ITaskQueue& global_queue();

  [[nodiscard]] CoreStats core_stats(int cpu) const;
  void reset_stats();

  /// Total submissions since construction/reset.
  [[nodiscard]] uint64_t submissions() const {
    return submissions_.load(std::memory_order_relaxed);
  }

  /// Human-readable dump of queue occupancy and stats.
  [[nodiscard]] std::string dump() const;

 private:
  /// CoreStats with atomic counters: a core's stats are mostly touched by
  /// one thread, but foreign threads may schedule on a hashed core id
  /// (Runtime::schedule_here), so the increments must be data-race-free.
  struct CoreStatsCell {
    std::atomic<uint64_t> tasks_run{0};
    std::atomic<uint64_t> schedule_calls{0};
    std::atomic<uint64_t> steal_attempts{0};
    std::atomic<uint64_t> steal_hits{0};
    std::atomic<uint64_t> tasks_stolen{0};
  };

  int drain_queue(ITaskQueue& queue, int cpu);
  /// Execute one task; re-enqueue on kAgain+kRepeat; returns kDone-or-not.
  void run_task(Task* task, ITaskQueue& queue, int cpu);

  const topo::Machine& machine_;
  TaskManagerConfig config_;
  std::vector<std::unique_ptr<ITaskQueue>> queues_;  // index = TopoNode::id
  SpinTaskQueue urgent_queue_;
  std::atomic<const UrgentHook*> urgent_hook_{nullptr};
  /// Urgent submissions between their load of urgent_hook_ and the end of
  /// its call (detach_urgent_hook waits for zero).
  std::atomic<uint32_t> urgent_notifying_{0};
  // Fixed array (atomics are not movable, so no vector).
  std::unique_ptr<sync::CacheAligned<CoreStatsCell>[]> core_stats_;
  std::atomic<uint64_t> submissions_{0};
};

}  // namespace piom
