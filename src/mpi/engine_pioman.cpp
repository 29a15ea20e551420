#include "mpi/engine_pioman.hpp"

#include "mpi/coll.hpp"
#include "nmad/wildset.hpp"
#include "util/log.hpp"

namespace piom::mpi {

PiomanEngine::PiomanEngine(nmad::Session& session, PiomanEngineConfig config)
    : session_(session),
      config_(config),
      machine_(topo::Machine::flat(config.workers)),
      tm_(machine_),
      runtime_(machine_, tm_) {}

PiomanEngine::~PiomanEngine() { shutdown(); }

TaskResult PiomanEngine::poll_trampoline(void* arg) {
  auto* pt = static_cast<PollTask*>(arg);
  if (pt->engine->stopping_.load(std::memory_order_acquire)) {
    return TaskResult::kDone;
  }
  pt->gate->poll_rail(pt->rail);
  // Also flush sends that were queued but whose offload task has not run
  // yet (keeps the pipeline moving under bursts).
  if (pt->gate->pending_sends() > 0) pt->gate->flush();
  // Reliability: the rail-0 poller owns the retransmission timer.
  if (pt->rail == 0) pt->gate->check_retransmits();
  // Collectives progress in the background too: whichever poll task runs
  // after a round's requests complete posts the next round — the caller
  // can compute (or park in wait) through the whole collective.
  pt->engine->advance_colls();
  return TaskResult::kAgain;
}

TaskResult PiomanEngine::flush_trampoline(void* arg) {
  static_cast<SubmitJob*>(arg)->gate->flush();
  return TaskResult::kDone;
}

void PiomanEngine::submit_job_done(Task* task) {
  // Scheduler's final touch: recycle the job (task->arg is the SubmitJob).
  auto* job = static_cast<SubmitJob*>(task->arg);
  job->engine->release_submit_job(job);
}

PiomanEngine::SubmitJob* PiomanEngine::acquire_submit_job() {
  submit_pool_lock_.lock();
  SubmitJob* job = submit_pool_;
  if (job != nullptr) {
    submit_pool_ = job->free_next;
    submit_pool_lock_.unlock();
    job->free_next = nullptr;
    return job;
  }
  submit_pool_lock_.unlock();
  auto owned = std::make_unique<SubmitJob>();
  SubmitJob* raw = owned.get();
  raw->engine = this;
  submit_pool_lock_.lock();
  submit_jobs_.push_back(std::move(owned));
  submit_pool_lock_.unlock();
  return raw;
}

void PiomanEngine::release_submit_job(SubmitJob* job) {
  submit_pool_lock_.lock();
  job->free_next = submit_pool_;
  submit_pool_ = job;
  submit_pool_lock_.unlock();
  submit_jobs_in_flight_.fetch_sub(1, std::memory_order_release);
}

void PiomanEngine::start_progress() {
  if (started_) return;
  started_ = true;
  for (std::size_t g = 0; g < session_.gate_count(); ++g) {
    watch_gate(session_.gate(g));
  }
}

void PiomanEngine::watch_gate(nmad::Gate& gate) {
  // One repeatable polling task per (gate, rail). Paper §IV-B: "In order to
  // maintain polling affinity, the CPU set attached to these tasks contains
  // the cores that share a cache with the current CPU." We spread the tasks
  // across the node and give each the cache-sibling set of its home core.
  poll_lock_.lock();
  if (stopping_.load(std::memory_order_acquire) ||
      !watched_.insert(&gate).second) {
    poll_lock_.unlock();
    return;
  }
  for (int r = 0; r < gate.nrails(); ++r) {
    poll_tasks_.emplace_back();
    PollTask& pt = poll_tasks_.back();
    pt.gate = &gate;
    pt.rail = r;
    pt.engine = this;
    const topo::CpuSet cpus = machine_.siblings_sharing_cache(home_);
    home_ = (home_ + 1) % machine_.ncpus();
    pt.task.init(&poll_trampoline, &pt, cpus,
                 piom::kTaskRepeat | piom::kTaskNotify);
    tm_.submit(&pt.task);
  }
  poll_lock_.unlock();
}

void PiomanEngine::isend(Request& req, nmad::Gate& gate, Tag tag,
                         const void* buf, std::size_t len) {
  req.arm(/*is_send=*/true);
  if (!config_.offload_submission) {
    gate.isend(req.send_req(), tag, buf, len, /*defer=*/false);
    return;
  }
  gate.isend(req.send_req(), tag, buf, len, /*defer=*/true);
  // Submission offload: place the flush task on the nearest idle core; if
  // every core is busy, the global queue gets it (run at the next blocking
  // section / idle hole / timer tick). The task lives in an engine-owned
  // recycled SubmitJob, NOT in the caller's request: the caller may tear
  // its request down the instant the communication completes, even if some
  // other progression path flushed the message before this task ran.
  int cpu = sched::Runtime::current_cpu();
  if (cpu < 0) cpu = 0;
  const int idle = runtime_.find_idle_near(cpu);
  const topo::CpuSet cpus =
      (idle >= 0) ? topo::CpuSet::single(idle) : topo::CpuSet{};
  SubmitJob* job = acquire_submit_job();
  job->gate = &gate;
  job->task.init(&flush_trampoline, job, cpus, piom::kTaskNone);
  job->task.on_done = &submit_job_done;
  submit_jobs_in_flight_.fetch_add(1, std::memory_order_acquire);
  tm_.submit(&job->task);
}

void PiomanEngine::irecv(Request& req, nmad::Gate& gate, Tag tag, void* buf,
                         std::size_t cap) {
  req.arm(/*is_send=*/false);
  gate.irecv(req.recv_req(), tag, buf, cap);
}

void PiomanEngine::irecv_any(Request& req, nmad::WildSet& wilds, Tag tag,
                             void* buf, std::size_t cap) {
  req.arm(/*is_send=*/false);
  wilds.post(req.recv_req(), tag, buf, cap);
}

void PiomanEngine::wait(Request& req) {
  nmad::RequestCore& core = req.req_core();
  if (core.completed()) return;
  // Blocking hook: one progression pass, core advertised as available, then
  // park on the semaphore — the background tasks do the polling. Repeated
  // waits on the same request are fine (wait_done's completed() fast path;
  // the completion token is drained by RequestCore::reset on reuse).
  sched::BlockingSection bs(runtime_);
  core.wait_done();
}

bool PiomanEngine::test(Request& req) {
  if (req.done()) return true;
  // MPI_Test drives progress: contribute one scheduling pass.
  runtime_.schedule_here();
  return req.done();
}

bool PiomanEngine::test_coll(CollOp& op) {
  if (op.done()) return true;
  runtime_.schedule_here();  // one scheduling pass (runs poll tasks)
  advance_colls();
  return op.done();
}

void PiomanEngine::wait_coll(CollOp& op) {
  if (op.done()) return;
  // Park like wait(): the background poll tasks advance the collective's
  // rounds and the finishing sweep posts the completion semaphore.
  sched::BlockingSection bs(runtime_);
  op.core().wait_done();
}

void PiomanEngine::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Outstanding offloaded submissions must run before the workers stop
  // (their tasks reference engine state).
  while (submit_jobs_in_flight_.load(std::memory_order_acquire) > 0) {
    runtime_.schedule_here();
  }
  // Poll tasks observe stopping_ on their next execution and finish. Wait
  // on a snapshot taken under the lock: watch_gate refuses new gates once
  // stopping_ is set (checked under the same lock), so the snapshot is
  // complete; waiting itself must not hold the lock (tasks may be mid-run).
  poll_lock_.lock();
  std::vector<PollTask*> draining;
  draining.reserve(poll_tasks_.size());
  for (PollTask& pt : poll_tasks_) draining.push_back(&pt);
  poll_lock_.unlock();
  for (PollTask* pt : draining) {
    pt->task.wait_done();
  }
  runtime_.stop();
}

}  // namespace piom::mpi
