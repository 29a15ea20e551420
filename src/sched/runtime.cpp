#include "sched/runtime.hpp"

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <functional>

#include "sync/backoff.hpp"
#include "util/log.hpp"

namespace piom::sched {

namespace {

thread_local int tls_current_cpu = -1;

// Idle iterations of the pure Algorithm-1 walk before a worker escalates to
// work stealing (spin → steal → nap): a core that just ran work polls its
// own branch cheaply first; only a persistently dry core starts scanning
// victim queues.
constexpr int kIdleSpinsBeforeSteal = 4;
// How long an idle worker keeps spinning on schedule() before it naps (it
// never naps while reachable queues hold tasks, so polling tasks are
// serviced continuously — PIOMan busy-polls on idle cores).
constexpr int kIdleSpinsBeforeNap = 256;
// Nap length for a fully idle worker (woken early by submit_job).
constexpr std::chrono::microseconds kIdleNap{200};
// Interrupt-thread timer period: the §III tick that rescues tasks when every
// core computes.
constexpr std::chrono::microseconds kTimerPeriod{100};
// Spin budget of the interrupt thread after an urgent wake (Semaphore::wait's
// default), so a burst of urgent tasks is met without a park.
constexpr int kUrgentSpins = 4096;

// The interrupt thread must not share a host CPU with the thread that
// submits to it: it would run only once the submitter parks, i.e. after the
// submitter's completion spin (Semaphore::wait, ~80 µs), which measured as
// a 75-112 µs urgent latency instead of ~1 µs, and +80 µs on a timer rescue.
// Moves the calling thread onto `allowed` minus `cpu`. Best effort, like
// pinning: a 1-CPU process has nowhere else to go.
void leave_host_cpu(const cpu_set_t& allowed, int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t set = allowed;
  CPU_CLR(static_cast<unsigned>(cpu), &set);
  if (CPU_COUNT(&set) == 0) return;
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

Runtime::Runtime(const topo::Machine& machine, TaskManager& tm)
    : machine_(machine), tm_(tm) {
  const int n = machine_.ncpus();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int c = 0; c < n; ++c) {
    workers_[static_cast<std::size_t>(c)]->thread =
        std::thread([this, c] { worker_loop(c); });
  }
  interrupt_thread_ = std::thread(
      [this, creator = sched_getcpu()] { interrupt_loop(creator); });
  tm_.attach_urgent_hook(&urgent_hook_);
}

void Runtime::wake_interrupt(void* self) {
  auto* rt = static_cast<Runtime*>(self);
  rt->poster_cpu_.store(sched_getcpu(), std::memory_order_relaxed);
  rt->interrupts_.post();
}

Runtime::~Runtime() { stop(); }

// Worker i is pinned to host CPU i (best effort; skipped when the host has
// fewer CPUs or pinning is not permitted).
void Runtime::pin_to_host_cpu(int cpu) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0 || static_cast<unsigned>(cpu) >= hw) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  // Best effort: containers may deny affinity changes.
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    PIOM_LOG_DEBUG("pinning worker %d failed (ignored)", cpu);
  }
}

int Runtime::current_cpu() { return tls_current_cpu; }

void Runtime::worker_loop(int cpu) {
  tls_current_cpu = cpu;
  pin_to_host_cpu(cpu);
  Worker& w = *workers_[static_cast<std::size_t>(cpu)];
  int idle_spins = 0;
  while (running_.load(std::memory_order_acquire)) {
    // 1. Application jobs have priority (PIOMan only consumes *holes* in the
    //    schedule; it never steals time from computation).
    std::function<void()> job;
    if (w.pending_jobs.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lk(w.mutex);
      if (!w.jobs.empty()) {
        job = std::move(w.jobs.front());
        w.jobs.pop_front();
        w.pending_jobs.fetch_sub(1, std::memory_order_release);
      }
    }
    if (job) {
      w.state.store(WorkerState::kBusy, std::memory_order_release);
      job();
      w.state.store(WorkerState::kIdle, std::memory_order_release);
      jobs_run_.fetch_add(1, std::memory_order_release);
      idle_spins = 0;
      continue;
    }
    // 2. Idle hook: run communication tasks. Escalation ladder: a freshly
    //    idle core walks only its own branch (Algorithm 1); one that stayed
    //    dry escalates to the stealing walk; a fully idle one naps below.
    const int executed = (idle_spins < kIdleSpinsBeforeSteal)
                             ? tm_.schedule_branch(cpu)
                             : tm_.schedule(cpu);
    if (executed > 0) {
      idle_spins = 0;
      continue;
    }
    // 3. Fully idle. Keep spinning while any queue holds tasks somewhere
    //    (they may become reachable / repeatable polls need servicing),
    //    otherwise nap until a job arrives.
    ++idle_spins;
    if (idle_spins < kIdleSpinsBeforeNap ||
        tm_.pending_approx() > 0) {
      sync::cpu_relax();
      continue;
    }
    std::unique_lock<std::mutex> lk(w.mutex);
    w.cv.wait_for(lk, kIdleNap, [&] {
      return !w.jobs.empty() || !running_.load(std::memory_order_acquire);
    });
    idle_spins = 0;
  }
  tls_current_cpu = -1;
}

void Runtime::interrupt_loop(int creator_cpu) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) CPU_ZERO(&allowed);
  leave_host_cpu(allowed, creator_cpu);  // usually the submitter's CPU
  int rr = 0;
  int spins = 0;  // spin only after an urgent wake; after a tick park at once
  auto next_tick = std::chrono::steady_clock::now() + kTimerPeriod;
  for (;;) {
    const bool woken = interrupts_.wait_for(kTimerPeriod, spins);
    if (!running_.load(std::memory_order_acquire)) {
      // Final sweep so no urgent task is stranded after stop().
      tm_.run_urgent(0);
      return;
    }
    int n = 0;
    spins = 0;
    if (woken) {
      n = tm_.run_urgent(0);
      // The kernel tends to wake a thread on its waker's CPU.
      const int here = sched_getcpu();
      if (here == poster_cpu_.load(std::memory_order_relaxed)) {
        leave_host_cpu(allowed, here);
      }
      spins = kUrgentSpins;
    }
    // Timer tick: a progression pass on behalf of the "interrupted" core,
    // also when urgent wakes come too often for the wait to time out.
    const auto now = std::chrono::steady_clock::now();
    if (!woken || now >= next_tick) {
      n += tm_.schedule(rr);
      rr = (rr + 1) % ncpus();
      ticks_.fetch_add(1, std::memory_order_relaxed);
      next_tick = now + kTimerPeriod;
    }
    interrupt_tasks_run_.fetch_add(static_cast<uint64_t>(n),
                                   std::memory_order_relaxed);
  }
}

void Runtime::submit_job(int cpu, std::function<void()> job) {
  if (cpu < 0 || cpu >= ncpus()) {
    throw std::out_of_range("Runtime::submit_job: bad cpu");
  }
  Worker& w = *workers_[static_cast<std::size_t>(cpu)];
  {
    std::lock_guard<std::mutex> lk(w.mutex);
    w.jobs.push_back(std::move(job));
    w.pending_jobs.fetch_add(1, std::memory_order_release);
  }
  jobs_submitted_.fetch_add(1, std::memory_order_release);
  w.cv.notify_one();
}

WorkerState Runtime::worker_state(int cpu) const {
  return workers_[static_cast<std::size_t>(cpu)]->state.load(
      std::memory_order_acquire);
}

int Runtime::find_idle_near(int cpu) const {
  // Walk up the topology: try cores sharing the deepest level first.
  topo::CpuSet visited;
  for (const topo::TopoNode* node : machine_.path_to_root(cpu)) {
    for (int c = node->cpus.first(); c >= 0; c = node->cpus.next(c)) {
      if (c == cpu || visited.test(c)) continue;
      visited.set(c);
      const Worker& w = *workers_[static_cast<std::size_t>(c)];
      if (w.state.load(std::memory_order_acquire) == WorkerState::kIdle &&
          w.pending_jobs.load(std::memory_order_acquire) == 0) {
        return c;
      }
    }
  }
  return -1;
}

int Runtime::schedule_here() {
  int cpu = current_cpu();
  if (cpu < 0) {
    // Foreign thread: progress on behalf of a stable thread-hashed core.
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    cpu = static_cast<int>(h % static_cast<std::size_t>(ncpus()));
  }
  return tm_.schedule(cpu);
}

void Runtime::quiesce() {
  sync::Backoff backoff;
  for (;;) {
    if (jobs_run_.load(std::memory_order_acquire) ==
        jobs_submitted_.load(std::memory_order_acquire)) {
      bool all_idle = true;
      for (int c = 0; c < ncpus(); ++c) {
        if (worker_state(c) == WorkerState::kBusy) {
          all_idle = false;
          break;
        }
      }
      if (all_idle) return;
    }
    backoff.spin();
  }
}

void Runtime::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  tm_.detach_urgent_hook(&urgent_hook_);
  interrupts_.post();
  if (interrupt_thread_.joinable()) interrupt_thread_.join();
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lk(w->mutex);
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

BlockingSection::BlockingSection(Runtime& rt) : rt_(rt), cpu_(Runtime::current_cpu()) {
  // Blocking-call hook: one progression pass before the thread parks, and
  // the core is marked available for offloaded work while we block.
  if (cpu_ >= 0) {
    Runtime::Worker& w = *rt_.workers_[static_cast<std::size_t>(cpu_)];
    saved_ = w.state.exchange(WorkerState::kBlocked, std::memory_order_acq_rel);
  }
  rt_.schedule_here();
}

BlockingSection::~BlockingSection() {
  if (cpu_ >= 0) {
    Runtime::Worker& w = *rt_.workers_[static_cast<std::size_t>(cpu_)];
    w.state.store(saved_, std::memory_order_release);
  }
}

}  // namespace piom::sched
