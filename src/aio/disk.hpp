// SimDisk — simulated block storage device, the I/O counterpart of
// simnet::Nic. The paper's conclusion (§VI) sets the long-term goal of "a
// generic framework able to optimize both communication and I/O in a
// scalable way"; this module provides the I/O substrate that the AioManager
// (aio/aio.hpp) drives through PIOMan tasks.
//
// Like the NIC's wire, the disk is a thread-less sync::StampedQueue under a
// cost model (access latency + streaming throughput, one request at a
// time), executed by poll() — which AioManager's task calls — so host code
// only pays for *submitting* and *polling*: exactly the property that
// makes background progression worthwhile.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sync/spinlock.hpp"
#include "sync/stamped_queue.hpp"

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
  /// Drops the requests not yet executed without touching their buffers:
  /// only poll() and quiesce() execute requests, and neither can run once
  /// the disk is gone.
  ~SimDisk() = default;

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const DiskModel& model() const { return model_; }

  /// Queue an asynchronous read of `len` bytes at `offset` into `buf`
  /// (caller-owned until the completion is polled). Reads past EOF are
  /// clamped; reads entirely out of range complete with ok=false.
  void submit_read(std::size_t offset, void* buf, std::size_t len,
                   uint64_t wrid);

  /// Queue an asynchronous write (same ownership/clamping rules).
  void submit_write(std::size_t offset, const void* buf, std::size_t len,
                    uint64_t wrid);

  /// Execute the requests whose modelled time has passed, then poll the
  /// completion queue; true when `out` was filled.
  bool poll(DiskCompletion& out);

  /// Block until every queued request has been executed.
  void quiesce();

  [[nodiscard]] DiskStats stats() const;

  /// Direct synchronous access for test setup/verification (no cost model).
  void poke(std::size_t offset, const void* data, std::size_t len);
  void peek(std::size_t offset, void* data, std::size_t len) const;

 private:
  struct Op {
    DiskCompletion done;  ///< the completion, known at submit
    std::size_t offset = 0;
    void* rbuf = nullptr;
    const void* wbuf = nullptr;
  };

  /// Bytes of `len` at `offset` that lie on the device.
  [[nodiscard]] std::size_t clamp(std::size_t offset, std::size_t len) const;
  /// Clamp `op` at EOF, then stamp and queue it behind the last request.
  void submit(Op op, std::size_t len);
  /// Move the data and count it; the queue posts the returned completion.
  DiskCompletion execute(const Op& op) PIOM_EXCLUDES(lock_);

  const std::string name_;
  const DiskModel model_;
  const std::size_t capacity_;

  sync::StampedQueue<Op, DiskCompletion> queue_;

  /// Guards the medium for the executor and poke/peek alike.
  mutable sync::SpinLock lock_;
  std::vector<uint8_t> store_ PIOM_GUARDED_BY(lock_);
  DiskStats stats_ PIOM_GUARDED_BY(lock_);
};

}  // namespace piom::aio
