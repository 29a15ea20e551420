#include "core/task_manager.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "core/lf_queue.hpp"
#include "sync/backoff.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace piom {

const char* queue_kind_name(QueueKind k) {
  switch (k) {
    case QueueKind::kSpin: return "spinlock";
    case QueueKind::kTicket: return "ticketlock";
    case QueueKind::kMutex: return "mutex";
    case QueueKind::kLockFree: return "lockfree";
  }
  return "?";
}

namespace {
std::unique_ptr<ITaskQueue> make_queue(const TaskManagerConfig& cfg) {
  switch (cfg.queue_kind) {
    case QueueKind::kSpin:
      return std::make_unique<SpinTaskQueue>(cfg.double_check, cfg.queue_stats);
    case QueueKind::kTicket:
      return std::make_unique<TicketTaskQueue>(cfg.double_check,
                                               cfg.queue_stats);
    case QueueKind::kMutex:
      return std::make_unique<MutexTaskQueue>(cfg.double_check,
                                              cfg.queue_stats);
    case QueueKind::kLockFree:
      return std::make_unique<LockFreeTaskQueue>(cfg.queue_stats);
  }
  throw std::invalid_argument("unknown QueueKind");
}
}  // namespace

TaskManager::TaskManager(const topo::Machine& machine, TaskManagerConfig config)
    : machine_(machine), config_(config) {
  queues_.reserve(machine_.nnodes());
  for (std::size_t i = 0; i < machine_.nnodes(); ++i) {
    queues_.push_back(make_queue(config_));
  }
  core_stats_ = std::make_unique<sync::CacheAligned<CoreStatsCell>[]>(
      static_cast<std::size_t>(machine_.ncpus()));
}

bool TaskManager::cpu_allowed(const Task& task, int cpu) {
  return task_allowed_on(task, cpu);
}

void TaskManager::submit(Task* task) {
  assert(task != nullptr);
  // Urgent tasks bypass the hierarchy entirely — skip the covering-node
  // tree walk on that latency-critical path (submit_to ignores the node
  // for them anyway).
  const topo::TopoNode& node = (task->options & kTaskUrgent) != 0
                                   ? machine_.root()
                                   : machine_.node_covering(task->cpuset);
  submit_to(task, node);
}

void TaskManager::submit_to(Task* task, const topo::TopoNode& node) {
  assert(task != nullptr && task->fn != nullptr);
  const TaskState prev = task->state.exchange(TaskState::kQueued,
                                              std::memory_order_acq_rel);
  assert(prev == TaskState::kCreated || prev == TaskState::kDone);
  (void)prev;
  submissions_.fetch_add(1, std::memory_order_relaxed);
  PIOM_TRACE(util::trace::Kind::kTaskSubmit, task->options,
             reinterpret_cast<uint64_t>(task));
  if ((task->options & kTaskUrgent) != 0) {
    // Preemptive path: dedicated queue, out-of-band wakeup.
    urgent_queue_.enqueue(task);
    // Sequentially consistent against detach_urgent_hook: either its clear
    // precedes our load (we see null) or it sees our count and waits.
    urgent_notifying_.fetch_add(1, std::memory_order_seq_cst);
    if (const UrgentHook* h = urgent_hook_.load(std::memory_order_seq_cst)) {
      h->fn(h->ctx);
    }
    urgent_notifying_.fetch_sub(1, std::memory_order_release);
    return;
  }
  const topo::TopoNode& home =
      config_.single_global_queue ? machine_.root() : node;
  queues_[static_cast<std::size_t>(home.id)]->enqueue(task);
}

int TaskManager::run_urgent(int cpu) {
  int executed = 0;
  std::size_t budget = urgent_queue_.size_approx();
  for (std::size_t i = 0; i < budget; ++i) {
    Task* task = urgent_queue_.try_dequeue();
    if (task == nullptr) break;
    // Preemptive semantics: the CPU set is advisory, run it right here.
    PIOM_TRACE(util::trace::Kind::kUrgentRun, cpu,
               reinterpret_cast<uint64_t>(task));
    run_task(task, urgent_queue_, cpu);
    ++executed;
  }
  return executed;
}

void TaskManager::attach_urgent_hook(const UrgentHook* hook) {
  urgent_hook_.store(hook, std::memory_order_seq_cst);
}

void TaskManager::detach_urgent_hook(const UrgentHook* hook) {
  const UrgentHook* expected = hook;
  urgent_hook_.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_seq_cst);
  while (urgent_notifying_.load(std::memory_order_seq_cst) != 0) {
    sync::cpu_relax();
  }
}

std::size_t TaskManager::urgent_pending_approx() const {
  return urgent_queue_.size_approx();
}

ITaskQueue& TaskManager::queue_of(const topo::TopoNode& node) {
  return *queues_[static_cast<std::size_t>(node.id)];
}

ITaskQueue& TaskManager::global_queue() {
  return *queues_[static_cast<std::size_t>(machine_.root().id)];
}

void TaskManager::run_task(Task* task, ITaskQueue& queue, int cpu) {
  task->state.store(TaskState::kRunning, std::memory_order_relaxed);
  task->last_cpu.store(cpu, std::memory_order_relaxed);
  task->run_count.fetch_add(1, std::memory_order_relaxed);
  PIOM_TRACE(util::trace::Kind::kTaskRun, cpu,
             reinterpret_cast<uint64_t>(task));
  const TaskResult result = task->fn(task->arg);
  if ((task->options & kTaskRepeat) != 0 && result == TaskResult::kAgain) {
    // Paper: "When the processing of a repetitive task ends, the task is
    // re-enqueued into the same list."
    PIOM_TRACE(util::trace::Kind::kTaskRequeue, cpu,
               reinterpret_cast<uint64_t>(task));
    task->state.store(TaskState::kQueued, std::memory_order_release);
    queue.enqueue(task);
    return;
  }
  PIOM_TRACE(util::trace::Kind::kTaskDone, cpu,
             reinterpret_cast<uint64_t>(task));
  // Read every field needed after completion *before* publishing kDone: an
  // owner polling completed() may destroy the task storage the moment the
  // store below is visible, so the store must be the scheduler's last
  // access for plain tasks. (kTaskNotify owners are required to block in
  // wait_done(), which makes the semaphore post the safe last touch.)
  const Task::DoneFn on_done = task->on_done;
  const uint32_t options = task->options;
  assert(on_done == nullptr || (options & kTaskNotify) == 0);
  task->state.store(TaskState::kDone, std::memory_order_release);
  if ((options & kTaskNotify) != 0) {
    // After this post the owner may reuse/destroy the task storage; do not
    // touch *task afterwards.
    task->done_sem.post();
    return;
  }
  if (on_done != nullptr) on_done(task);  // final touch: may recycle storage
}

int TaskManager::drain_queue(ITaskQueue& queue, int cpu) {
  // Bound the pass by a snapshot of the current size so repeatable tasks we
  // re-enqueue (and tasks enqueued concurrently) do not trap us here.
  const std::size_t budget = queue.size_approx();
  int executed = 0;
  for (std::size_t i = 0; i < budget; ++i) {
    Task* task = queue.try_dequeue();
    if (task == nullptr) break;
    if (!cpu_allowed(*task, cpu)) {
      // This queue's node covers more cores than the task's cpuset allows
      // (e.g. cpuset {0,2} lands in a machine-wide queue); put it back for
      // an allowed core and keep scanning.
      queue.enqueue(task);
      continue;
    }
    run_task(task, queue, cpu);
    ++executed;
  }
  return executed;
}

int TaskManager::schedule(int cpu) {
  int executed = schedule_branch(cpu);
  // The whole branch is dry: go stealing (locality-ordered victim scan)
  // instead of idling while another branch overflows.
  if (executed == 0 && config_.steal) executed += steal(cpu);
  return executed;
}

int TaskManager::schedule_branch(int cpu) {
  CoreStatsCell& cs = *core_stats_[static_cast<std::size_t>(cpu)];
  cs.schedule_calls.fetch_add(1, std::memory_order_relaxed);
  int executed = run_urgent(cpu);
  // Algorithm 1: "for Queue = Per_Core_Queue to Global_Queue do ..."
  for (const topo::TopoNode* node : machine_.path_to_root(cpu)) {
    executed += drain_queue(*queues_[static_cast<std::size_t>(node->id)], cpu);
  }
  cs.tasks_run.fetch_add(static_cast<uint64_t>(executed),
                         std::memory_order_relaxed);
  return executed;
}

int TaskManager::steal(int cpu) {
  // The single-global-queue strawman has no off-path queues to steal from.
  if (config_.single_global_queue) return 0;
  CoreStatsCell& cs = *core_stats_[static_cast<std::size_t>(cpu)];
  cs.steal_attempts.fetch_add(1, std::memory_order_relaxed);
  constexpr int kMaxBatch = 32;
  Task* stolen[kMaxBatch];
  const std::size_t batch =
      static_cast<std::size_t>(std::clamp(config_.steal_batch, 1, kMaxBatch));
  std::size_t taken = 0;
  for (const topo::TopoNode* victim : machine_.steal_order(cpu)) {
    taken = queues_[static_cast<std::size_t>(victim->id)]->try_steal(
        cpu, batch, stolen);
    if (taken > 0) break;
  }
  if (taken == 0) return 0;
  cs.steal_hits.fetch_add(1, std::memory_order_relaxed);
  cs.tasks_stolen.fetch_add(taken, std::memory_order_relaxed);
  // Stolen tasks migrate: repeatable ones re-enqueue into the thief's own
  // per-core queue (eligibility was checked by try_steal), keeping the
  // follow-up runs on the now-idle branch.
  ITaskQueue& home =
      *queues_[static_cast<std::size_t>(machine_.core_node(cpu).id)];
  int executed = 0;
  for (std::size_t i = 0; i < taken; ++i) {
    PIOM_TRACE(util::trace::Kind::kTaskSteal, cpu,
               reinterpret_cast<uint64_t>(stolen[i]));
    run_task(stolen[i], home, cpu);
    ++executed;
  }
  cs.tasks_run.fetch_add(static_cast<uint64_t>(executed),
                         std::memory_order_relaxed);
  return executed;
}

void TaskManager::wait(Task& task, int cpu) {
  sync::Backoff backoff;
  while (!task.completed()) {
    if (schedule(cpu) == 0) {
      backoff.spin();
    } else {
      backoff.reset();
    }
  }
}

std::size_t TaskManager::pending_approx() const {
  std::size_t total = urgent_queue_.size_approx();
  for (const auto& q : queues_) total += q->size_approx();
  return total;
}

CoreStats TaskManager::core_stats(int cpu) const {
  const CoreStatsCell& cell = *core_stats_[static_cast<std::size_t>(cpu)];
  CoreStats s;
  s.tasks_run = cell.tasks_run.load(std::memory_order_relaxed);
  s.schedule_calls = cell.schedule_calls.load(std::memory_order_relaxed);
  s.steal_attempts = cell.steal_attempts.load(std::memory_order_relaxed);
  s.steal_hits = cell.steal_hits.load(std::memory_order_relaxed);
  s.tasks_stolen = cell.tasks_stolen.load(std::memory_order_relaxed);
  return s;
}

void TaskManager::reset_stats() {
  for (int c = 0; c < machine_.ncpus(); ++c) {
    CoreStatsCell& cs = *core_stats_[static_cast<std::size_t>(c)];
    cs.tasks_run.store(0, std::memory_order_relaxed);
    cs.schedule_calls.store(0, std::memory_order_relaxed);
    cs.steal_attempts.store(0, std::memory_order_relaxed);
    cs.steal_hits.store(0, std::memory_order_relaxed);
    cs.tasks_stolen.store(0, std::memory_order_relaxed);
  }
  submissions_.store(0, std::memory_order_relaxed);
}

std::string TaskManager::dump() const {
  std::ostringstream os;
  os << "TaskManager(" << queue_kind_name(config_.queue_kind)
     << ", double_check=" << (config_.double_check ? "on" : "off")
     << ", hierarchy=" << (config_.single_global_queue ? "off" : "on")
     << ", steal=" << (config_.steal ? "on" : "off") << ")\n";
  for (const auto& nptr : machine_.nodes()) {
    const ITaskQueue& q = *queues_[static_cast<std::size_t>(nptr->id)];
    const QueueStats s = q.stats();
    if (s.enqueues == 0 && q.size_approx() == 0) continue;
    for (int i = 0; i < nptr->depth; ++i) os << "  ";
    os << nptr->name() << ": pending=" << q.size_approx()
       << " enq=" << s.enqueues << " deq=" << s.dequeues
       << " empty_checks=" << s.empty_checks
       << " locks=" << s.lock_acquisitions << " stolen=" << s.stolen_tasks
       << "\n";
  }
  return os.str();
}

}  // namespace piom
