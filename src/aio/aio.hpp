// AioManager — asynchronous I/O driven by the PIOMan task mechanism (the
// paper's §VI long-term goal: "provide a generic framework able to optimize
// both communication and I/O in a scalable way").
//
// The manager owns one repeatable *polling task* per disk, submitted to the
// TaskManager with a configurable CPU set: idle cores advance the disks and
// drain their completion queues exactly the way they poll NICs for nmad.
// Applications get MPI-like nonblocking semantics:
//
//   aio::AioManager mgr(tm, {&disk});
//   aio::IoRequest req;
//   mgr.read(disk, offset, buf, len, req);
//   ...compute...                       // I/O progresses in the background
//   req.wait();                         // blocks on a semaphore, no polling
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "aio/disk.hpp"
#include "core/task_manager.hpp"
#include "sync/semaphore.hpp"

namespace piom::aio {

/// Caller-owned handle for one asynchronous read/write. Must stay alive
/// until completed() (storage is embedded: no allocation per operation).
struct IoRequest {
  std::atomic<bool> done{false};
  sync::Semaphore sem{0};
  std::size_t bytes = 0;  ///< transferred byte count (set at completion)
  bool ok = false;        ///< false: request was out of device range

  [[nodiscard]] bool completed() const {
    return done.load(std::memory_order_acquire);
  }
  /// Blocks until the completer has *fully finished* with the request:
  /// the poller posts the wakeup first and publishes `done` last (its
  /// final touch), so storage may be reclaimed once wait() returns.
  void wait() {
    if (completed()) return;
    sem.wait();
    // The trailing done store is normally a few instructions behind the
    // post; yield in case the poller was preempted right between them.
    while (!completed()) std::this_thread::yield();
  }

  void reset() {
    done.store(false, std::memory_order_relaxed);
    while (sem.try_wait()) {
    }
    bytes = 0;
    ok = false;
  }
};

struct AioManagerConfig {
  /// CPU set for each disk's polling task (empty = any core / global
  /// queue). One entry per disk; missing entries fall back to empty.
  std::vector<topo::CpuSet> poll_cpusets;
};

class AioManager {
 public:
  /// `tm` and the disks must outlive the manager. One repeatable polling
  /// task per disk is submitted immediately.
  AioManager(TaskManager& tm, std::vector<SimDisk*> disks,
             AioManagerConfig config = {});
  ~AioManager();

  AioManager(const AioManager&) = delete;
  AioManager& operator=(const AioManager&) = delete;

  /// Nonblocking read: `req` completes when the data is in `buf`.
  void read(SimDisk& disk, std::size_t offset, void* buf, std::size_t len,
            IoRequest& req);

  /// Nonblocking write: `req` completes when the device absorbed the data
  /// (`buf` is caller-owned until then).
  void write(SimDisk& disk, std::size_t offset, const void* buf,
             std::size_t len, IoRequest& req);

  /// Operations completed so far (tests).
  [[nodiscard]] uint64_t completions() const {
    return completions_.load(std::memory_order_relaxed);
  }

  /// Stop the polling tasks (idempotent; destructor calls it). All pending
  /// requests are drained first.
  void shutdown();

 private:
  struct DiskPoll {
    piom::Task task;
    SimDisk* disk = nullptr;
    AioManager* mgr = nullptr;
  };
  static TaskResult poll_trampoline(void* arg);
  int poll_disk(SimDisk& disk);

  TaskManager& tm_;
  std::deque<DiskPoll> polls_;
  std::atomic<uint64_t> completions_{0};
  std::atomic<uint64_t> inflight_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace piom::aio
