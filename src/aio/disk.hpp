// SimDisk — simulated block storage device, the I/O counterpart of
// simnet::Nic. The paper's conclusion (§VI) sets the long-term goal of "a
// generic framework able to optimize both communication and I/O in a
// scalable way"; this module provides the I/O substrate that the AioManager
// (aio/aio.hpp) drives through PIOMan tasks.
//
// The disk has its own engine thread that executes requests
// asynchronously under a cost model (fixed access latency + streaming
// throughput), so host code only pays for *submitting* and *polling* —
// exactly the property that makes background progression worthwhile.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace piom::aio {

struct DiskModel {
  double access_us = 80.0;        ///< per-request access latency (NVMe-ish)
  double throughput_GBps = 2.0;   ///< streaming bandwidth
  /// Multiplies every modelled delay (tests use <1).
  double time_scale = 1.0;
};

/// Completion queue entry.
struct DiskCompletion {
  enum class Kind : uint8_t { kRead, kWrite };
  Kind kind = Kind::kRead;
  uint64_t wrid = 0;
  std::size_t bytes = 0;  ///< bytes actually transferred (clamped at EOF)
  bool ok = false;        ///< false: out-of-range request
};

/// Device statistics.
struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t errors = 0;
};

class SimDisk {
 public:
  /// A device of `capacity` bytes, zero-initialised.
  SimDisk(std::string name, std::size_t capacity, DiskModel model = {});
  ~SimDisk();

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t capacity() const { return store_.size(); }
  [[nodiscard]] const DiskModel& model() const { return model_; }

  /// Queue an asynchronous read of `len` bytes at `offset` into `buf`
  /// (caller-owned until the completion is polled). Reads past EOF are
  /// clamped; reads entirely out of range complete with ok=false.
  void submit_read(std::size_t offset, void* buf, std::size_t len,
                   uint64_t wrid);

  /// Queue an asynchronous write (same ownership/clamping rules).
  void submit_write(std::size_t offset, const void* buf, std::size_t len,
                    uint64_t wrid);

  /// Poll the completion queue; true when `out` was filled.
  bool poll(DiskCompletion& out);

  /// Block until every queued request has been executed.
  void quiesce() const;

  [[nodiscard]] DiskStats stats() const;

  /// Direct synchronous access for test setup/verification (no cost model).
  void poke(std::size_t offset, const void* data, std::size_t len);
  void peek(std::size_t offset, void* data, std::size_t len) const;

 private:
  struct Op {
    DiskCompletion::Kind kind = DiskCompletion::Kind::kRead;
    std::size_t offset = 0;
    void* rbuf = nullptr;
    const void* wbuf = nullptr;
    std::size_t len = 0;
    uint64_t wrid = 0;
  };

  void engine_loop();
  void stop();

  const std::string name_;
  const DiskModel model_;
  std::vector<uint8_t> store_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Op> queue_;
  std::deque<DiskCompletion> cq_;
  std::atomic<std::size_t> queue_size_{0};
  std::atomic<std::size_t> cq_size_{0};
  bool engine_busy_ = false;  // guarded by mutex_
  DiskStats stats_;           // guarded by mutex_

  std::atomic<bool> running_{true};
  std::thread engine_;
};

}  // namespace piom::aio
