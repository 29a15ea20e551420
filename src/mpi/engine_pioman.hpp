// PiomanEngine — the paper's system (MAD-MPI over NewMadeleine + PIOMan).
//
//   * One repeatable polling task per (gate, rail), submitted to the task
//     manager with a cpuset of cores sharing a cache (paper §IV-B), executed
//     by idle runtime workers and by the runtime's interrupt thread when
//     everyone is busy.
//   * isend defers packet submission and offloads it as a task placed on the
//     nearest idle core ("the state of each core is evaluated in order to
//     find an idle core that could process the task"); if every core is
//     busy, the task goes to the global queue.
//   * wait blocks on the request's semaphore inside a BlockingSection —
//     receiving threads do NOT poll, which keeps the Fig-4 latency flat.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/task_manager.hpp"
#include "mpi/engine.hpp"
#include "nmad/session.hpp"
#include "sched/runtime.hpp"

namespace piom::mpi {

struct PiomanEngineConfig {
  /// Simulated cores of this "node" (runtime workers doing the polling).
  int workers = 4;
  /// Offload packet submission to an idle core (paper §IV-B). When false
  /// the send path is inline (ablation).
  bool offload_submission = true;
};

class PiomanEngine final : public Engine {
 public:
  /// `session` must outlive the engine. Call start_progress() after the
  /// session's gates are created.
  PiomanEngine(nmad::Session& session, PiomanEngineConfig config = {});
  ~PiomanEngine() override;

  /// Install one repeatable polling task per (gate, rail) for the gates
  /// that exist now. Gates created later (lazy wiring) must be handed to
  /// watch_gate() — the membership layer's on_gate_created hook does.
  void start_progress();

  /// Start background polling of a (possibly late) gate: one repeatable
  /// poll task per rail. Idempotent per gate, thread-safe (lazy gates are
  /// installed from whichever thread first talks to the peer, including
  /// poll tasks relaying forwarded traffic); a no-op once shutdown began.
  void watch_gate(nmad::Gate& gate);

  void isend(Request& req, nmad::Gate& gate, Tag tag, const void* buf,
             std::size_t len) override;
  void irecv(Request& req, nmad::Gate& gate, Tag tag, void* buf,
             std::size_t cap) override;
  void irecv_any(Request& req, nmad::WildSet& wilds, Tag tag, void* buf,
                 std::size_t cap) override;
  void wait(Request& req) override;
  bool test(Request& req) override;
  bool test_coll(CollOp& op) override;
  void wait_coll(CollOp& op) override;
  [[nodiscard]] std::string name() const override { return "pioman"; }
  void shutdown() override;

  [[nodiscard]] TaskManager& task_manager() { return tm_; }
  [[nodiscard]] sched::Runtime& runtime() { return runtime_; }

 private:
  struct PollTask {
    piom::Task task;
    nmad::Gate* gate = nullptr;
    int rail = 0;
    PiomanEngine* engine = nullptr;
  };
  /// One offloaded packet submission. Engine-owned and recycled through a
  /// freelist (the paper embeds the task in the library's packet wrapper —
  /// same idea: the task never lives in caller-owned storage, so a caller
  /// may free its Request as soon as the communication completes even if
  /// the flush task has not run yet).
  struct SubmitJob {
    piom::Task task;
    nmad::Gate* gate = nullptr;
    PiomanEngine* engine = nullptr;
    SubmitJob* free_next = nullptr;
  };
  static TaskResult poll_trampoline(void* arg);
  static TaskResult flush_trampoline(void* arg);
  static void submit_job_done(Task* task);

  SubmitJob* acquire_submit_job();
  void release_submit_job(SubmitJob* job);

  nmad::Session& session_;
  PiomanEngineConfig config_;
  topo::Machine machine_;
  TaskManager tm_;
  sched::Runtime runtime_;
  /// Poll-task table. The deque grows while tasks run (late gates), so the
  /// lock guards every structural access; PollTask storage is stable once
  /// emplaced. watched_ dedups watch_gate; home_ round-robins task
  /// placement across the node's cores.
  sync::SpinLock poll_lock_;
  std::deque<PollTask> poll_tasks_ PIOM_GUARDED_BY(poll_lock_);
  std::unordered_set<nmad::Gate*> watched_ PIOM_GUARDED_BY(poll_lock_);
  int home_ PIOM_GUARDED_BY(poll_lock_) = 0;
  sync::SpinLock submit_pool_lock_;
  SubmitJob* submit_pool_ PIOM_GUARDED_BY(submit_pool_lock_) = nullptr;
  /// Storage owner.
  std::vector<std::unique_ptr<SubmitJob>> submit_jobs_
      PIOM_GUARDED_BY(submit_pool_lock_);
  std::atomic<int> submit_jobs_in_flight_{0};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace piom::mpi
